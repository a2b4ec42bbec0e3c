"""Tables 2 & 3: dataset and architecture summaries (the experiment setup).

Prints the mini stand-ins next to the paper's datasets and asserts the
preserved relative properties (train fractions, feature-width ratio between
mag240c and papers, degree skew).
"""

import pytest

from conftest import publish, run_once
from repro.utils import Table

PAPER_TABLE2 = {
    "products-mini": ("ogbn-products", 2.4e6, 123e6, 100),
    "papers-mini": ("ogbn-papers100M", 111e6, 3.2e9, 128),
    "mag240c-mini": ("lsc-mag240 (papers)", 121e6, 2.6e9, 768),
}


def load_all(artifacts):
    return {name: artifacts.dataset(name) for name in PAPER_TABLE2}


@pytest.mark.benchmark(group="tables23")
def test_table2_datasets(benchmark, artifacts):
    datasets = run_once(benchmark, lambda: load_all(artifacts))

    t2 = Table(["mini dataset", "V", "E", "D", "train/val/test",
                "paper dataset", "paper V", "paper E", "paper D"],
               title="Table 2 — datasets (mini stand-ins vs paper)")
    for name, ds in datasets.items():
        paper_name, pv, pe, pd = PAPER_TABLE2[name]
        t2.add_row(ds.summary_row() + [paper_name, f"{pv:.2g}", f"{pe:.2g}", pd])
    publish("table2", t2)

    t3 = Table(["dataset", "GNN", "layers", "hidden", "fanout", "batch/GPU"],
               title="Table 3 — architectures (scaled analogs)")
    for name, ds in datasets.items():
        meta = ds.metadata["default_experiment"]
        t3.add_row([name, "SAGE", meta["num_layers"], meta["hidden_dim"],
                    str(meta["fanouts"]), meta["batch_size"]])
    publish("table3", t3)

    papers = datasets["papers-mini"]
    mag = datasets["mag240c-mini"]
    products = datasets["products-mini"]

    # mag240c features are 6x wider than papers (768/128 in the paper).
    assert mag.feature_dim / papers.feature_dim == pytest.approx(6.0)
    # products is the densest graph, papers the largest.
    assert products.graph.avg_degree > papers.graph.avg_degree
    assert papers.num_vertices > mag.num_vertices > 0
    # Heavy-tailed degrees (citation-like skew).
    for ds in datasets.values():
        assert ds.graph.max_degree > 10 * ds.graph.avg_degree
