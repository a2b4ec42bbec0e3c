"""Table 1: per-epoch runtime of progressively optimized systems.

Paper (ogbn-papers100M, 3-layer SAGE, fanout (15,10,5), hidden 256):

    machines:                 1      2      4      8
    SALIENT (full repl.)   20.7s  10.76s  6.02s  3.08s
    + partitioned feats      —    33.04s 15.98s 10.85s
    + pipelined comm         —    16.12s  8.73s  5.43s
    + feature caching        —    10.51s  5.45s  2.91s

Reproduction (papers-mini, scaled hyperparameters): absolute times are
simulated milliseconds; the asserted shape is the ratio ladder — partitioned
features slow training down by ~2.5-4.5x, pipelining recovers roughly half,
and VIP caching brings the system back to (near) full-replication speed.
"""

import pytest

from repro.core import progressive_variants, table1_alpha
from conftest import publish, run_once
from repro.utils import Table

DATASET = "papers-mini"
PAPER = {
    1: {"SALIENT (full replication)": 20.7},
    2: {"SALIENT (full replication)": 10.76, "+ Partitioned features": 33.04,
        "+ Pipelined communication": 16.12, "+ Feature caching": 10.51},
    4: {"SALIENT (full replication)": 6.02, "+ Partitioned features": 15.98,
        "+ Pipelined communication": 8.73, "+ Feature caching": 5.45},
    8: {"SALIENT (full replication)": 3.08, "+ Partitioned features": 10.85,
        "+ Pipelined communication": 5.43, "+ Feature caching": 2.91},
}


def run_table1(artifacts):
    results = {}
    for K in (1, 2, 4, 8):
        for name, cfg in progressive_variants(K, table1_alpha(K)):
            if K == 1 and not cfg.full_replication:
                continue
            system = artifacts.system(DATASET, cfg)
            results[(K, name)] = system.mean_epoch_time(epochs=1)
    return results


@pytest.mark.benchmark(group="table1")
def test_table1_progressive_systems(benchmark, artifacts):
    results = run_once(benchmark, lambda: run_table1(artifacts))

    table = Table(
        ["system", "K", "measured (ms)", "vs SALIENT", "paper (s)", "paper ratio"],
        title="Table 1 — progressive optimizations (papers-mini)",
    )
    for K in (1, 2, 4, 8):
        base = results[(K, "SALIENT (full replication)")]
        for name in PAPER[K]:
            if (K, name) not in results:
                continue
            t = results[(K, name)]
            p = PAPER[K][name]
            p_base = PAPER[K]["SALIENT (full replication)"]
            table.add_row([name, K, 1000 * t, t / base, p, p / p_base])
    publish("table1", table)

    # Qualitative claims of Table 1.
    for K in (2, 4, 8):
        base = results[(K, "SALIENT (full replication)")]
        part = results[(K, "+ Partitioned features")]
        pipe = results[(K, "+ Pipelined communication")]
        cache = results[(K, "+ Feature caching")]
        assert 1.8 < part / base < 5.5, "partitioning slows 2-3.5x (paper)"
        assert pipe < part, "pipelining must improve on blocking comm"
        assert cache < pipe, "caching must improve on pipelining alone"
        assert cache / base < 1.6, "caching returns near full-replication speed"

    # Headline claim: SALIENT++ on 8 machines vs SALIENT on 1 machine ~ 7.1x.
    speedup = results[(1, "SALIENT (full replication)")] / results[(8, "+ Feature caching")]
    assert 4.0 < speedup < 12.0, f"headline speedup {speedup:.1f}x out of range"
    benchmark.extra_info["headline_speedup_vs_paper_7.1"] = round(speedup, 2)
