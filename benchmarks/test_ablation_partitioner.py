"""Ablation: partitioner quality and its effect on communication volume.

Not a paper figure — a design-choice bench.  SALIENT++ is agnostic
to the partitioning source (§5.3); this ablation quantifies why a METIS-like
multilevel cut matters: the no-cache communication volume tracks the edge
cut, and VIP caching helps on top of any partitioner.
"""

import pytest

from repro.partition import (
    bfs_partition,
    evaluate_partition,
    ldg_partition,
    metis_like_partition,
    random_partition,
)
from repro.vip import VIPAnalyticPolicy, evaluate_policies
from conftest import publish, run_once
from repro.utils import Table

DATASET = "products-mini"
K = 4


def run_ablation(artifacts):
    ds = artifacts.dataset(DATASET)
    partitioners = {
        "metis-like": lambda: metis_like_partition(ds.graph, K, seed=0),
        "ldg": lambda: ldg_partition(ds.graph, K, seed=0),
        "bfs": lambda: bfs_partition(ds.graph, K, seed=0),
        "random": lambda: random_partition(ds.num_vertices, K, seed=0),
    }
    meta = ds.metadata["default_experiment"]
    out = {}
    for name, make in partitioners.items():
        part = make()
        rep = evaluate_partition(ds.graph, part)
        res = evaluate_policies(
            ds.graph, part, ds.train_idx, meta["fanouts"], meta["batch_size"],
            {"vip": VIPAnalyticPolicy()}, alphas=[0.16],
            eval_epochs=1, seed=3, include_oracle=False,
        )
        vols = {r.policy: r.volume for r in res}
        out[name] = (rep.edge_cut_fraction, vols["none"], vols["vip"])
    return out


@pytest.mark.benchmark(group="ablation")
def test_ablation_partitioner_quality(benchmark, artifacts):
    results = run_once(benchmark, lambda: run_ablation(artifacts))

    table = Table(["partitioner", "edge-cut fraction", "no-cache volume",
                   "VIP a=0.16 volume"],
                  title=f"Ablation — partitioner quality ({DATASET}, {K}-way)",
                  float_fmt="{:.3f}")
    for name, (cut, v0, v1) in results.items():
        table.add_row([name, cut, f"{v0:.0f}", f"{v1:.0f}"])
    publish("ablation_partitioner", table)

    # The multilevel cut beats the cheap baselines, and volume tracks cut.
    assert results["metis-like"][0] < results["random"][0]
    assert results["metis-like"][1] < results["random"][1]
    # Caching helps under every partitioner.
    for name, (cut, v0, v1) in results.items():
        assert v1 < v0
