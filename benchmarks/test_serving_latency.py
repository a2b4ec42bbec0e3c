"""Online inference serving under popularity drift: caches and batchers.

This benchmark evaluates the serving subsystem (an extension beyond the
paper — no figure corresponds to it) on production-shaped traffic:
open-loop Poisson arrivals whose request seeds come from a drifting
popularity hot set (:func:`repro.graph.streaming_request_stream`), served
by :class:`repro.serving.InferenceService` over a 4-machine
hash-partitioned feature store on a slow (0.2 Gbps) network — the regime
where feature fetch dominates the request critical path.

Two experiments, each with its headline assertion:

* **Cache policies** (deadline batcher held fixed): the build-time static
  VIP cache — selected for the *training* workload — against the dynamic
  cache subsystem.  ``vip-refresh`` re-runs Proposition 1 against the
  *observed request traffic* (empirical seed distribution → analytic VIP,
  wired by the service) and must beat static VIP on both total comm rows
  (demand + refresh traffic) and p99 latency; its hit rate must also win,
  since refreshes score the whole sampled closure of the hot set rather
  than only rows the cache happened to see.

* **Batchers** (static VIP cache held fixed): naive ``fixed-size``
  dispatch (one full batch per window, no cross-batch coalescing) against
  SLO-bounded accumulation (``deadline``) and residency-aware packing
  (``cache-affinity``).  Accumulated, coalesced, affinity-packed windows
  must cut remote rows decisively versus fixed-size dispatch, and both
  deadline-triggered batchers must honor ``max_wait_ms`` in the simulated
  clock.  (Fixed-size buys its extra communication nothing: its only edge
  is lower queueing wait at light load, which the table reports.)

All volumes and latencies come from running the functional service — real
gathers, real cache churn, priced stage events — nothing is estimated.
"""

import numpy as np
import pytest

from conftest import publish, run_once
from repro.core import Planner, RunConfig, ServingConfig
from repro.graph.datasets import make_synthetic_dataset
from repro.serving import poisson_requests
from repro.utils import Table

K = 4
ALPHA = 0.10
FANOUTS = (4, 3)
NET_GBPS = 0.2
RATE_RPS = 10_000.0
NUM_REQUESTS = 4_000
REQUEST_SIZE = 8
MAX_BATCH = 8
MAX_WAIT_MS = 15.0
MAX_IN_FLIGHT = 4
REFRESH_INTERVAL = 8
DRIFT_INTERVAL = 1_000

CACHE_POLICIES = ["vip", "vip-refresh", "lru"]
BATCHER_NAMES = ["fixed-size", "deadline", "cache-affinity"]


def make_serve_dataset():
    return make_synthetic_dataset(
        "serve-mini",
        num_vertices=24_000,
        avg_degree=14.0,
        feature_dim=32,
        num_classes=8,
        num_communities=32,
        intra_fraction=0.97,
        power=2.8,
        train_frac=0.4,
        seed=1,
    )


def serve_once(ds, planner, *, cache_policy, batcher, hot_fraction, hot_mass):
    cfg = RunConfig(
        num_machines=K, partitioner="random", fanouts=FANOUTS, batch_size=32,
        replication_factor=ALPHA, cache_policy=cache_policy,
        refresh_interval=REFRESH_INTERVAL, cache_aging_interval=16,
        network_gbps=NET_GBPS, seed=0,
        serving=ServingConfig(batcher=batcher, max_batch=MAX_BATCH,
                              max_wait_ms=MAX_WAIT_MS,
                              max_in_flight=MAX_IN_FLIGHT),
    )
    service = planner.build_service(ds, cfg)
    requests = poisson_requests(
        np.arange(ds.num_vertices), NUM_REQUESTS, REQUEST_SIZE,
        rate_rps=RATE_RPS, hot_fraction=hot_fraction, hot_mass=hot_mass,
        drift_interval=DRIFT_INTERVAL, seed=11,
    )
    report = service.run(requests)
    assert report.num_requests == NUM_REQUESTS  # nothing stranded
    return report


def run_cache_policies():
    """Cache comparison: concentrated hot set (its sampled closure fits the
    cache budget), so adaptivity is worth the most."""
    ds = make_serve_dataset()
    planner = Planner()
    return {pol: serve_once(ds, planner, cache_policy=pol, batcher="deadline",
                            hot_fraction=0.001, hot_mass=0.98)
            for pol in CACHE_POLICIES}


def run_batchers():
    """Batcher comparison: broader hot set and more cold traffic, so
    requests differ in residency and packing has something to sort."""
    ds = make_serve_dataset()
    planner = Planner()
    return {b: serve_once(ds, planner, cache_policy="vip", batcher=b,
                          hot_fraction=0.002, hot_mass=0.95)
            for b in BATCHER_NAMES}


def _publish(name, title, results):
    table = Table(
        ["variant", "p50 ms", "p95 ms", "p99 ms", "max wait ms",
         "comm rows", "vs first", "hit rate", "req/s"],
        title=title, float_fmt="{:.2f}",
    )
    base = next(iter(results.values())).gather.comm_rows()
    for label, rep in results.items():
        s = rep.summary()
        table.add_row([
            label, s["p50_ms"], s["p95_ms"], s["p99_ms"],
            s["max_queue_wait_ms"], float(rep.gather.comm_rows()),
            f"{rep.gather.comm_rows() / base:.3f}x",
            s["cache_hit_rate"], s["throughput_rps"],
        ])
    publish(name, table)


@pytest.mark.benchmark(group="serving_latency")
def test_serving_cache_policies_under_drift(benchmark):
    results = run_once(benchmark, run_cache_policies)
    _publish("serving_latency",
             f"Serving under popularity drift — cache policies "
             f"({K}-way hash partition, a={ALPHA}, {NET_GBPS:g} Gbps, "
             f"deadline batcher, {RATE_RPS:.0f} req/s)", results)

    static = results["vip"]
    refresh = results["vip-refresh"]

    # Headline: request-VIP refresh beats the training-time static cache on
    # total communication (its own refresh traffic included) AND tail
    # latency, at equal cache budget.
    assert refresh.gather.comm_rows() < 0.95 * static.gather.comm_rows(), (
        f"vip-refresh moved {refresh.gather.comm_rows()} rows vs static "
        f"{static.gather.comm_rows()} — expected a decisive win under drift")
    assert refresh.p99 < static.p99, (
        f"vip-refresh p99 {refresh.p99 * 1e3:.2f}ms must beat static "
        f"{static.p99 * 1e3:.2f}ms")
    assert refresh.p50 < static.p50
    assert refresh.gather.cache_hit_rate() > static.gather.cache_hit_rate()
    # The refresh machinery really ran and paid for itself in demand rows.
    assert refresh.gather.refresh_rows > 0
    assert refresh.gather.remote_rows < static.gather.remote_rows
    # Gated LRU replacement adapts too.
    assert results["lru"].gather.comm_rows() < static.gather.comm_rows()

    benchmark.extra_info["vip_refresh_vs_static_comm"] = round(
        refresh.gather.comm_rows() / static.gather.comm_rows(), 4)
    benchmark.extra_info["vip_refresh_p99_ms"] = round(refresh.p99 * 1e3, 3)
    benchmark.extra_info["static_p99_ms"] = round(static.p99 * 1e3, 3)


@pytest.mark.benchmark(group="serving_latency")
def test_serving_batchers_under_drift(benchmark):
    results = run_once(benchmark, run_batchers)
    _publish("serving_latency_batchers",
             f"Serving under popularity drift — batching policies "
             f"({K}-way hash partition, static vip cache, "
             f"max_wait={MAX_WAIT_MS:g}ms, {RATE_RPS:.0f} req/s)", results)

    fixed = results["fixed-size"]
    deadline = results["deadline"]
    affinity = results["cache-affinity"]

    # Headline: affinity-packed, window-coalesced batching cuts remote
    # traffic decisively vs naive fixed-size dispatch at the same load.
    assert affinity.gather.remote_rows < 0.85 * fixed.gather.remote_rows, (
        f"cache-affinity fetched {affinity.gather.remote_rows} remote rows "
        f"vs fixed-size {fixed.gather.remote_rows}")
    # Packing by residency must not lose to arrival-order packing.
    assert affinity.gather.remote_rows <= deadline.gather.remote_rows
    # The deadline SLO holds in the simulated clock for both deadline-
    # triggered policies: no request waits past max_wait_ms to be batched.
    slo = MAX_WAIT_MS / 1e3 + 1e-9
    assert deadline.max_queue_wait() <= slo
    assert affinity.max_queue_wait() <= slo
    # Coalescing really happened in the accumulated windows.
    assert deadline.gather.coalesced_rows > 0

    benchmark.extra_info["affinity_vs_fixed_remote"] = round(
        affinity.gather.remote_rows / fixed.gather.remote_rows, 4)
    benchmark.extra_info["deadline_max_wait_ms"] = round(
        deadline.max_queue_wait() * 1e3, 3)
