"""Figure 2: caching policies vs communication volume.

Paper setup: 3-layer GraphSAGE, varying fanouts, batch 1024, 8-way METIS on
ogbn-papers100M; policies none / degree / 1-hop halo / weighted-reverse-
PageRank / #paths / simulation / analytic VIP / oracle, replication factors
0.05-1.0.  Key findings reproduced and asserted here:

* analytic VIP is near-optimal (within the oracle's neighborhood, always the
  best non-oracle policy in aggregate);
* local-information policies (degree, halo) barely improve on no caching;
* empirical estimation (sim.) degrades relative to analytic VIP as the
  replication factor grows (estimation variance on rarely-touched vertices).
"""

import pytest

from conftest import publish, run_once
from repro.utils import Table
from repro.vip import (
    default_policies,
    evaluate_policies,
    geometric_mean_improvement,
    record_access_trace,
)

DATASET = "papers-mini"
K = 8
ALPHAS = [0.05, 0.1, 0.2, 0.5, 1.0]
FANOUT_SETTINGS = [(5, 4, 3), (4, 4, 4), (3, 3, 3)]  # scaled analogs of the
# paper's (15,10,5)-style sweep
BATCH = 64


def run_fig2(artifacts):
    ds = artifacts.dataset(DATASET)
    part = artifacts.partition(DATASET, K)
    out = {}
    for fanouts in FANOUT_SETTINGS:
        policies = {n: f() for n, f in default_policies().items() if n != "none"}
        trace = record_access_trace(ds.graph, part, ds.train_idx, fanouts,
                                    BATCH, epochs=2, seed=17)
        out[fanouts] = evaluate_policies(
            ds.graph, part, ds.train_idx, fanouts, BATCH,
            policies, ALPHAS, trace=trace, seed=17,
        )
    return out


@pytest.mark.benchmark(group="fig2")
def test_fig2_caching_policy_comparison(benchmark, artifacts):
    results = run_once(benchmark, lambda: run_fig2(artifacts))

    order = ["degree", "halo", "wpr", "numpaths", "sim", "vip", "oracle"]
    for fanouts, res in results.items():
        base = [r for r in res if r.policy == "none"][0].volume
        table = Table(
            ["alpha"] + order + ["none"],
            title=f"Figure 2 — per-epoch remote vertices, fanout {fanouts} "
                  f"({DATASET}, {K}-way)",
            float_fmt="{:.0f}",
        )
        for alpha in ALPHAS:
            row = {r.policy: r.volume for r in res if abs(r.alpha - alpha) < 1e-12}
            table.add_row([f"{alpha:.2f}"] + [row[p] for p in order] + [base])
        publish(f"fig2_fanout_{'-'.join(map(str, fanouts))}", table)

    # Figure 2(d): geometric-mean improvement across the sweep.
    agg = Table(["policy", "geo-mean improvement"], title="Figure 2(d) aggregate")
    geo = {}
    all_res = [r for res in results.values() for r in res]
    for p in order:
        geo[p] = geometric_mean_improvement(all_res, p)
        agg.add_row([p, f"{geo[p]:.2f}x"])
    publish("fig2_aggregate", agg)

    # --- Assertions: the paper's ordering claims. ---
    # Oracle is the lower bound; VIP is the best non-oracle policy.
    for p in order[:-2]:
        assert geo["vip"] >= geo[p] - 1e-9, f"vip must dominate {p} in aggregate"
    assert geo["oracle"] >= geo["vip"] - 1e-9

    # Local-information policies are weak (close to no caching).
    assert geo["degree"] < 0.8 * geo["vip"] + 0.5
    # VIP beats the structural-but-sampling-blind baselines.
    assert geo["vip"] > geo["wpr"]
    assert geo["vip"] > geo["numpaths"]

    # sim-vs-vip gap grows with alpha (estimation variance claim): compare at
    # the largest alpha on the smallest fanout.
    res_small = results[FANOUT_SETTINGS[-1]]
    by = {(r.policy, r.alpha): r.volume for r in res_small}
    assert by[("vip", 1.0)] <= by[("sim", 1.0)] * 1.02
    benchmark.extra_info["geo_mean_vip"] = round(geo["vip"], 3)
    benchmark.extra_info["geo_mean_oracle"] = round(geo["oracle"], 3)
