"""One accounting path: the laws in ``tests/invariants.py`` — of accounting
and of simulated time — hold across the engine × cache-policy × dry/real and
batcher × scenario matrices, the metrics registry equals the report on every
path, there is one hit-rate definition, and serving's numbers are pinned to
the hand-incremented accounting they replaced."""

import hashlib

import numpy as np
import pytest

from repro.core import Planner, RunConfig, ServingConfig
from repro.graph.datasets import make_tiny
from repro.graph.mutable import EdgeBatch
from repro.obs import OBS
from repro.pipeline import Stage
from invariants import trace_shape
from repro.serving import Outage, poisson_requests
from repro.serving.workload import Request

SLO_CLASSES = ("interactive", "standard", "batch")


@pytest.fixture(scope="module")
def planner():
    return Planner()


@pytest.fixture(scope="module")
def dataset():
    return make_tiny(seed=0, num_vertices=2000)


@pytest.fixture()
def obs():
    OBS.disable()
    OBS.reset()
    OBS.enable()
    yield OBS
    OBS.disable()
    OBS.reset()


def train_config(engine="bsp", depth=1, policy="vip", **kw):
    return RunConfig(num_machines=2, fanouts=(4, 3), batch_size=32,
                     hidden_dim=16, replication_factor=0.1, gpu_fraction=0.5,
                     engine=engine, pipeline_depth=depth, cache_policy=policy,
                     refresh_interval=3, **kw)


def serve_config(batcher="deadline"):
    return RunConfig(
        num_machines=3, replication_factor=0.1, gpu_fraction=0.5,
        cache_policy="vip-refresh", refresh_interval=6,
        serving=ServingConfig(batcher=batcher, max_batch=8, max_wait_ms=10.0,
                              max_in_flight=4))


def slo_requests(ds, per_class=40, rate=3000.0, seed=3):
    """``per_class`` requests of each SLO class, interleaved by arrival."""
    out = []
    for i, slo in enumerate(SLO_CLASSES):
        for r in poisson_requests(np.arange(ds.num_vertices), per_class, 4,
                                  rate_rps=rate, hot_fraction=0.02,
                                  hot_mass=0.8, drift_interval=20,
                                  seed=seed + i, slo=slo):
            out.append(Request(rid=len(out), seeds=r.seeds,
                               arrival=r.arrival, slo=slo))
    return out


def serving_scenarios(ds):
    """Keyword arguments of ``InferenceService.run`` per scenario: healthy,
    a finite plus a permanent outage span, and four edge-churn batches."""
    rng = np.random.default_rng(0)
    n, none = ds.num_vertices, np.empty(0, dtype=np.int64)
    churn = [(0.004 + 0.008 * i,
              EdgeBatch(add_src=rng.integers(0, n, 80),
                        add_dst=rng.integers(0, n, 80),
                        del_src=none, del_dst=none)) for i in range(4)]
    return {
        "healthy": {},
        "outage": {"outages": [Outage(1, 0.002, 0.006), Outage(2, 0.010)]},
        "churn": {"mutations": churn},
    }


# ----------------------------------------------------------------------
# the laws, over the config matrix

@pytest.mark.parametrize("dry_run", [True, False], ids=["dry", "real"])
@pytest.mark.parametrize("policy", ["vip", "lru", "vip-refresh"])
@pytest.mark.parametrize("engine, depth", [("bsp", 1), ("pipelined", 1),
                                           ("pipelined", 4), ("async", 1)])
def test_training_reports_satisfy_the_laws(planner, dataset, check_invariants,
                                           check_timeline, engine, depth,
                                           policy, dry_run):
    system = planner.build(dataset, train_config(engine, depth, policy))
    result = system.train_epoch(0, dry_run=dry_run)
    report = result.report
    check_invariants(report, bytes_per_row=system.store.bytes_per_row)
    check_timeline(report.events, result.timing.timeline, timing=result.timing,
                   cpu_workers=system.cost_model.cluster.machine.cpu_workers)
    assert report.gather.remote_rows > 0
    assert (report.total_coalesced_rows() > 0) == (depth > 1)


@pytest.mark.parametrize("scenario", ["healthy", "outage", "churn"])
@pytest.mark.parametrize("batcher", ["fixed-size", "deadline",
                                     "cache-affinity"])
def test_serving_reports_satisfy_the_laws(planner, dataset, obs,
                                          check_invariants, check_registry,
                                          check_timeline, batcher, scenario):
    service = planner.build_service(dataset, serve_config(batcher))
    report = service.run(slo_requests(dataset),
                         **serving_scenarios(dataset)[scenario])
    check_invariants(report)
    check_timeline(report.trace, report.timeline, report=report,
                   cpu_workers=service.cost_model.cluster.machine.cpu_workers)
    assert (report.gather.unavailable_rows > 0) == (scenario == "outage")
    # registry = report, serving's availability and volume counters included
    check_registry(obs.metrics.snapshot(), report)


def test_a_tampered_record_is_caught(planner, dataset, check_invariants):
    system = planner.build(dataset, train_config("pipelined", 4))
    report = system.train_epoch(0, dry_run=True).report
    rec = report.records[5]
    rec.gather.remote_rows += 1
    with pytest.raises(AssertionError,
                       match=rf"machine {rec.machine}, step {rec.step}"):
        check_invariants(report, bytes_per_row=system.store.bytes_per_row)
    rec.gather.total_rows += 1  # balances again; the per-peer split does not
    with pytest.raises(AssertionError, match="remote_per_peer"):
        check_invariants(report, bytes_per_row=system.store.bytes_per_row)


def test_a_tampered_timeline_is_caught(planner, dataset, check_timeline):
    system = planner.build(dataset, train_config("pipelined", 4))
    result = system.train_epoch(0, dry_run=True)
    trace, timeline = result.report.events, result.timing.timeline
    check = lambda tl, **kw: check_timeline(  # noqa: E731
        trace, tl, cpu_workers=4, **kw)
    gather, train = (Stage.GPU_GATHER, 1, 5), (Stage.TRAIN, 1, 5)
    early = type(timeline)(timeline)
    early[train] = (timeline[gather][0], timeline[train][1])
    with pytest.raises(AssertionError, match="before .* ends"):
        check(early)
    dropped = type(timeline)(timeline)
    del dropped[gather]
    with pytest.raises(AssertionError, match="never placed"):
        check(dropped)
    longer = type(timeline)(timeline)
    last = (Stage.TRAIN, 0, trace.num_steps - 1)
    longer[last] = (timeline[last][0], result.epoch_time)
    with pytest.raises(AssertionError, match="epoch_time is not the latest"):
        check(longer, timing=result.timing)


def test_a_tampered_serving_clock_is_caught(planner, dataset, check_timeline):
    service = planner.build_service(dataset, serve_config())
    report = service.run(slo_requests(dataset))
    check = lambda: check_timeline(  # noqa: E731
        report.trace, report.timeline, cpu_workers=4, report=report)
    check()
    rec = report.records[7]
    rec.completed *= 1 + 1e-9
    with pytest.raises(AssertionError, match=f"request {rec.rid} completed"):
        check()
    rec.completed /= 1 + 1e-9
    lo = report.trace.windows[-1][0]
    key = (Stage.SAMPLE, report.trace.machine_of_step[lo], lo)
    start, duration = report.timeline[key]
    dict.__setitem__(report.timeline, key, (start / 2, duration))
    with pytest.raises(AssertionError):
        check()


# ----------------------------------------------------------------------
# registry = report

def test_registry_equals_report_on_a_serving_outage(planner, dataset, obs,
                                                    check_registry):
    service = planner.build_service(dataset, serve_config())
    report = service.run(slo_requests(dataset),
                         **serving_scenarios(dataset)["outage"])
    a = report.availability
    assert min(a.served_ok, a.degraded, a.shed, a.retries) > 0
    assert min(report.gather.unavailable_rows, report.gather.remote_rows,
               report.gather.coalesced_rows, report.gather.refresh_rows) > 0
    check_registry(obs.metrics.snapshot(), report)


def test_registry_equals_report_on_a_pipelined_refresh_epoch(
        planner, dataset, obs, check_registry):
    system = planner.build(dataset,
                           train_config("pipelined", 4, "vip-refresh"))
    # Train on the test split instead: the warm cache is ranked for the
    # build-time training set, so the refreshes have rows to fetch.
    system.update_training_set(system.trainer.ds.test_idx)
    obs.reset()  # drop what the build recorded
    report = system.train_epoch(0).report
    assert report.total_coalesced_rows() > 0
    assert report.total_refresh_rows() > 0
    check_registry(obs.metrics.snapshot(), report)


# ----------------------------------------------------------------------
# one hit-rate definition

def test_one_hit_rate_definition(planner, dataset):
    system = planner.build(dataset, train_config("pipelined", 4))
    report = system.train_epoch(0, dry_run=True).report
    g = report.gather
    assert g.coalesced_rows > 0 and g.cached_rows > 0
    hits = g.cached_rows + g.coalesced_rows
    assert report.cache_hit_rate() == g.cache_hit_rate() \
        == hits / (hits + g.remote_rows)


# ----------------------------------------------------------------------
# same numbers as the accounting this replaced (digests taken at a53570a)

def digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


GATHER_FIELDS = ("total_rows", "gpu_rows", "cpu_rows", "cached_rows",
                 "remote_rows", "coalesced_rows", "refresh_rows",
                 "cache_insertions", "unavailable_rows")
LEDGER_FIELDS = ("served_ok", "degraded", "shed", "retries",
                 "unavailable_rows")

PINNED = {
    "healthy": dict(
        trace="abb8b95cff694dd3", records="5f1dbd60ba94effb",
        predictions="295a020e8f5b3a5f",
        gather=(13593, 3164, 1535, 839, 4593, 3462, 82, 82, 0),
        availability=(120, 0, 0, 0, 0)),
    "outage": dict(
        trace="d1650a0133f2479a", records="17ad56ca3901cd03",
        predictions="3909dd6dbc21e3ff",
        gather=(12376, 2810, 1320, 872, 3415, 2419, 77, 77, 1540),
        availability=(64, 32, 24, 42, 1540)),
    "churn": dict(
        trace="1838fb44335c201c", records="2e8ac96012c2bf4a",
        predictions="3a96c9ec5be63ffe",
        gather=(13790, 3155, 1587, 852, 4710, 3486, 81, 81, 0),
        availability=(120, 0, 0, 0, 0)),
}


@pytest.mark.parametrize("scenario", sorted(PINNED))
def test_serving_numbers_are_pinned(planner, dataset, scenario):
    """Simulated latencies (the outage rung's included), schedules,
    predictions and totals are bit-for-bit what ``_serve_window`` produced
    when it derived the stage volumes inline and incremented its totals."""
    service = planner.build_service(dataset, serve_config())
    rep = service.run(slo_requests(dataset),
                      **serving_scenarios(dataset)[scenario])
    got = dict(
        trace=digest(sorted(
            (k, sorted(v.items()) if isinstance(v, dict) else v)
            for k, v in trace_shape(rep.trace).items())),
        records=digest([(r.rid, r.machine, r.status, r.retries, r.formed,
                         r.started, r.completed) for r in rep.records]),
        predictions=digest([(rid, rep.predictions[rid].tolist())
                            for rid in sorted(rep.predictions)]),
        gather=tuple(int(getattr(rep.gather, f)) for f in GATHER_FIELDS),
        availability=tuple(int(getattr(rep.availability, f))
                           for f in LEDGER_FIELDS),
    )
    assert got == PINNED[scenario]
