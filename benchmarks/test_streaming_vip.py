"""Streaming-graph VIP maintenance: refresh cost and serving staleness.

No figure of the paper corresponds to this benchmark — it evaluates the
repo's streaming extension (delta-CSR overlay + dirty-frontier incremental
VIP) on the two claims that justify its existence:

* **Refresh cost** — on papers-mini with the seed distribution localized
  to one community and churn arriving in *other* communities (the common
  case: most mutations land far from any given consumer's hot region),
  :func:`repro.vip.incremental.incremental_vip` must beat the full
  consumer path — CSR rebuild via ``materialize()`` plus a dense
  Proposition-1 sweep — by a wide margin while staying **bit-identical**
  to it every window.

* **Serving staleness** — when request traffic concentrates on a hot
  community whose neighborhoods are progressively rewired toward a
  previously cold region, a ``vip-refresh`` cache that re-scores on the
  *mutated* graph (``streaming.refresh_on_mutation=True``) must spend
  less total communication than the deliberately stale baseline that
  keeps scoring on the frozen pre-churn graph.  Both runs see identical
  traffic and identical churn; only the score provider's view of the
  graph differs.

All volumes are measured by running the real service / real sweeps;
nothing is estimated.
"""

import time

import numpy as np
import pytest

from conftest import publish, run_once
from repro.core import RunConfig, SalientPP, ServingConfig, StreamingConfig
from repro.graph.datasets import make_synthetic_dataset
from repro.graph.generators import edge_stream
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.serving import InferenceService, poisson_requests
from repro.utils import Table
from repro.vip import incremental_vip, snapshot_vip, vip_probabilities
from repro.vip.analytic import uniform_minibatch_probability

# --- refresh-cost setting (papers-mini, harness scenario). ----------------
REFRESH_DATASET = "papers-mini"
REFRESH_WINDOWS = 5
REFRESH_BATCH_EDGES = 100
REFRESH_FANOUTS = (15, 10, 5)

# --- serving setting: strong community structure, hot traffic in one
# community, churn rewiring it toward a cold one. --------------------------
SERVE_K = 4
SERVE_ALPHA = 0.08
SERVE_REQUESTS = 900
SERVE_REFRESH_INTERVAL = 8


def run_refresh_cost(artifacts):
    ds = artifacts.dataset(REFRESH_DATASET)
    n = ds.num_vertices
    big = int(np.argmax(np.bincount(ds.community)))
    train = np.intersect1d(ds.train_idx, np.flatnonzero(ds.community == big))
    p0 = uniform_minibatch_probability(n, train, 1024)
    remote = np.flatnonzero(ds.community != big)

    mgraph = MutableGraph(ds.graph, compact_cutoff=None)
    snap = snapshot_vip(mgraph, p0, REFRESH_FANOUTS)
    rows = []
    for w, batch in enumerate(edge_stream(
            mgraph, num_batches=REFRESH_WINDOWS,
            batch_edges=REFRESH_BATCH_EDGES, pool=remote,
            delete_fraction=0.3, seed=7)):
        mgraph.apply(batch)
        t0 = time.perf_counter()
        snap = incremental_vip(mgraph, snap, churn_cutoff=1.0)
        inc_wall = time.perf_counter() - t0
        # A snapshot-less consumer pays the CSR rebuild every window.
        mgraph._csr, mgraph._csr_version = None, -1
        t0 = time.perf_counter()
        ref = vip_probabilities(mgraph.materialize(), p0, REFRESH_FANOUTS)
        dense_wall = time.perf_counter() - t0
        exact = (np.array_equal(snap.result.total, ref.total)
                 and np.array_equal(snap.access, ref.access))
        rows.append(dict(window=w, inc_ms=inc_wall * 1e3,
                         dense_ms=dense_wall * 1e3,
                         speedup=dense_wall / inc_wall,
                         rows=snap.stats.rows_recomputed,
                         mode=snap.stats.mode, exact=exact))
    return rows


@pytest.mark.benchmark(group="streaming_vip")
def test_incremental_refresh_speedup(benchmark, artifacts):
    rows = run_once(benchmark, lambda: run_refresh_cost(artifacts))
    table = Table(
        ["window", "inc ms", "dense ms", "speedup", "rows touched", "mode"],
        title=(f"Incremental VIP refresh vs rebuild+sweep ({REFRESH_DATASET}"
               f", {REFRESH_BATCH_EDGES}-edge remote churn windows)"),
        float_fmt="{:.1f}")
    for r in rows:
        table.add_row([r["window"], r["inc_ms"], r["dense_ms"],
                       f"{r['speedup']:.1f}x", r["rows"], r["mode"]])
    publish("streaming_refresh_cost", table)

    assert all(r["exact"] for r in rows), "refresh diverged from the oracle"
    assert all(r["mode"] == "incremental" for r in rows)
    med = float(np.median([r["speedup"] for r in rows]))
    # The perf gate holds the 3x floor on median walls; here each window
    # is a single sample, so assert the claim with head-room for noise.
    assert med > 2.0, f"median refresh speedup {med:.2f}x, expected > 2x"
    benchmark.extra_info["median_speedup"] = round(med, 2)


# -------------------------------------------------------------------------
def make_serving_dataset():
    return make_synthetic_dataset(
        "churn-serve-mini",
        num_vertices=24_000,
        avg_degree=12.0,
        feature_dim=32,
        num_classes=8,
        num_communities=12,
        intra_fraction=0.97,
        power=2.6,
        train_frac=0.3,
        seed=3,
    )


def _serving_system(ds, refresh_on_mutation):
    cfg = RunConfig(
        num_machines=SERVE_K, partitioner="random", fanouts=(5, 4, 3),
        batch_size=32, replication_factor=SERVE_ALPHA,
        cache_policy="vip-refresh",
        refresh_interval=SERVE_REFRESH_INTERVAL,
        cache_aging_interval=16, network_gbps=0.5, seed=0,
        serving=ServingConfig(batcher="deadline", max_batch=8,
                              max_wait_ms=15.0, max_in_flight=4),
        streaming=StreamingConfig(refresh_on_mutation=refresh_on_mutation),
    )
    return SalientPP.build(ds, cfg)


def _rewiring_mutations(ds, rng_seed=5, events=4, edges_per_event=6_000):
    """Progressively attach the hot community to a cold one: each event
    adds edges from random hot-community vertices to random vertices of
    the cold target, pulling the hot set's sampled frontier into territory
    the pre-churn VIP scores never ranked.  The events land early in the
    run so most traffic is served post-churn, where staleness bites."""
    comm = ds.community
    sizes = np.bincount(comm)
    hot_comm = int(np.argmax(sizes))
    cold_comm = int(np.argmin(sizes))
    hot = np.flatnonzero(comm == hot_comm)
    cold = np.flatnonzero(comm == cold_comm)
    rng = np.random.default_rng(rng_seed)
    muts = []
    for i in range(events):
        muts.append((0.02 + 0.04 * i, EdgeBatch(
            add_src=rng.choice(hot, edges_per_event),
            add_dst=rng.choice(cold, edges_per_event))))
    return hot, muts


def run_serving_staleness():
    ds = make_serving_dataset()
    hot, muts = _rewiring_mutations(ds)
    out = {}
    for mode, refresh in (("refresh", True), ("stale", False)):
        system = _serving_system(ds, refresh)
        svc = InferenceService.from_system(system)
        workload = poisson_requests(
            hot, SERVE_REQUESTS, 8, rate_rps=2_000.0,
            hot_fraction=0.05, hot_mass=0.9, seed=11)
        report = svc.run(workload, mutations=muts)
        assert svc.mutations_applied == len(muts)
        out[mode] = dict(
            comm=int(report.gather.comm_rows()),
            demand=int(report.gather.remote_rows),
            hit=float(report.gather.cache_hit_rate()),
            total=int(report.gather.total_rows),
        )
    return out


@pytest.mark.benchmark(group="streaming_vip")
def test_serving_refresh_beats_stale_cache(benchmark):
    results = run_once(benchmark, run_serving_staleness)
    table = Table(
        ["mode", "comm rows", "demand rows", "hit rate", "total rows"],
        title=("Serving under hot-set rewiring churn: mutated-graph refresh "
               "vs frozen pre-churn scores (churn-serve-mini, "
               f"{SERVE_K}-way, a={SERVE_ALPHA})"),
        float_fmt="{:.3f}")
    for mode, r in results.items():
        table.add_row([mode, r["comm"], r["demand"], r["hit"], r["total"]])
    publish("streaming_serving_staleness", table)

    # Identical traffic and churn — the only difference is whether refresh
    # scores see the mutated graph.  Staleness must cost communication.
    assert results["refresh"]["comm"] < results["stale"]["comm"], (
        "refreshing VIP scores on the mutated graph should reduce total "
        f"communication, got refresh={results['refresh']['comm']} "
        f"stale={results['stale']['comm']}")
    assert results["refresh"]["hit"] >= results["stale"]["hit"]
    benchmark.extra_info["comm_saving"] = round(
        1.0 - results["refresh"]["comm"] / max(results["stale"]["comm"], 1), 4)
