"""Figure 4: impact of pipelining and VIP caching per dataset.

Paper: bar chart of per-epoch time for the optimization ladder on products
(4 partitions, alpha=0.16), papers (8, 0.32), mag240c (16, 0.32).  papers
benefits about equally from pipelining and caching; mag240c benefits
relatively more from caching because its 6x-wider features make remote
communication throughput-bound.
"""

import pytest

from conftest import publish, run_once
from repro.core import progressive_variants
from repro.utils import Table

SETTINGS = [
    ("products-mini", 4, 0.16),
    ("papers-mini", 8, 0.32),
    ("mag240c-mini", 16, 0.32),
]


def run_fig4(artifacts):
    results = {}
    for name, K, alpha in SETTINGS:
        for vname, cfg in progressive_variants(K, alpha):
            if cfg.full_replication:
                continue  # Figure 4 compares the partitioned variants
            system = artifacts.system(name, cfg)
            results[(name, vname)] = system.mean_epoch_time(epochs=1)
    return results


@pytest.mark.benchmark(group="fig4")
def test_fig4_optimization_impact(benchmark, artifacts):
    results = run_once(benchmark, lambda: run_fig4(artifacts))

    table = Table(
        ["dataset", "partitioned (ms)", "+pipeline (ms)", "+VIP cache (ms)",
         "pipeline gain", "cache gain"],
        title="Figure 4 — optimization impact per dataset",
    )
    gains = {}
    for name, K, alpha in SETTINGS:
        part = results[(name, "+ Partitioned features")]
        pipe = results[(name, "+ Pipelined communication")]
        cache = results[(name, "+ Feature caching")]
        gains[name] = (part / pipe, pipe / cache)
        table.add_row([f"{name} ({K} parts, a={alpha})",
                       1000 * part, 1000 * pipe, 1000 * cache,
                       f"{part / pipe:.2f}x", f"{pipe / cache:.2f}x"])
    publish("fig4", table)

    for name, K, alpha in SETTINGS:
        pg, cg = gains[name]
        assert pg > 1.1, f"{name}: pipelining must help"
        assert cg > 1.1, f"{name}: caching must help on top of pipelining"

    # The two large datasets benefit substantially from caching on top of
    # pipelining (paper: papers and mag240c both show large caching bars;
    # mag240c's 6x-wider features keep its communication throughput-bound).
    assert gains["papers-mini"][1] > 1.3
    assert gains["mag240c-mini"][1] > 1.3
    benchmark.extra_info["cache_gain_mag240c"] = round(gains["mag240c-mini"][1], 2)
