"""Degraded-mode serving under partition loss.

The contract: with a machine down, the service keeps serving everything it
can — requests whose gathers avoid the lost partition stay full-fidelity,
requests that need it are retried / answered degraded from resident state /
shed per their SLO class — and every outcome is counted exactly once in the
availability ledger.  Nothing is ever silently wrong: a degraded answer is
labeled, a shed request has no prediction at all.
"""

import math

import numpy as np
import pytest

from repro.core import Planner, RunConfig, ServingConfig
from repro.serving import Outage, poisson_requests
from repro.serving.service import RETRY_LIMIT
from repro.serving.workload import Request

SLO_CLASSES = ("interactive", "standard", "batch")


def build_service(tiny_dataset, **serving_kw):
    serving = ServingConfig(**{"batcher": "deadline", "max_batch": 8,
                               "max_wait_ms": 10.0, "max_in_flight": 4,
                               **serving_kw})
    cfg = RunConfig(num_machines=2, replication_factor=0.1, serving=serving)
    return Planner().build_service(tiny_dataset, cfg)


def make_slo_requests(ds, per_class=20, size=4, rate=2000.0, seed=3):
    """``per_class`` requests of each SLO class, distinct rids, arrivals
    interleaved by class."""
    out = []
    for i, slo in enumerate(SLO_CLASSES):
        for r in poisson_requests(np.arange(ds.num_vertices), per_class,
                                  size, rate_rps=rate, hot_fraction=0.02,
                                  hot_mass=0.8, drift_interval=20,
                                  seed=seed + i, slo=slo):
            out.append(Request(rid=len(out), seeds=r.seeds,
                               arrival=r.arrival, slo=slo))
    return out


def test_outage_validation(tiny_dataset):
    with pytest.raises(ValueError, match="machine"):
        Outage(machine=5, start=0.0).validate(2)
    with pytest.raises(ValueError, match="start"):
        Outage(machine=0, start=-1.0).validate(2)
    with pytest.raises(ValueError, match="end"):
        Outage(machine=0, start=2.0, end=1.0).validate(2)
    for start in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="start"):
            Outage(machine=0, start=start).validate(2)
    for end in (math.nan, -math.inf):
        with pytest.raises(ValueError, match="end"):
            Outage(machine=0, start=0.02, end=end).validate(2)
    with pytest.raises(ValueError, match="machine"):
        Outage(machine=math.nan, start=0.0).validate(2)
    assert Outage(machine=0, start=0.02).validate(2).end == math.inf
    svc = build_service(tiny_dataset)
    with pytest.raises(ValueError, match="machine"):
        svc.run(make_slo_requests(tiny_dataset, per_class=2),
                outages=[(9, 0.0)])


def test_healthy_run_all_ok_and_bit_identical(tiny_dataset):
    reqs = make_slo_requests(tiny_dataset)
    rep0 = build_service(tiny_dataset).run(list(reqs))
    rep1 = build_service(tiny_dataset).run(list(reqs), outages=[])
    a = rep0.availability
    assert a.served_ok == len(reqs) and a.total == len(reqs)
    assert a.degraded == a.shed == a.retries == a.unavailable_rows == 0
    assert a.availability() == 1.0 and a.ok_fraction() == 1.0
    assert all(r.status == "ok" and r.retries == 0 for r in rep0.records)
    # The degraded-mode plumbing must not perturb the healthy path.
    assert [r.completed for r in rep0.records] == \
           [r.completed for r in rep1.records]
    for rid in rep0.predictions:
        assert np.array_equal(rep0.predictions[rid], rep1.predictions[rid])


class TestPermanentOutage:
    @pytest.fixture(scope="class")
    def served(self, request):
        ds = request.getfixturevalue("tiny_dataset")
        reqs = make_slo_requests(ds)
        rep = build_service(ds).run(list(reqs), outages=[Outage(1, 0.0)])
        return reqs, rep

    def test_every_request_accounted_once(self, served):
        reqs, rep = served
        a = rep.availability
        assert a.total == len(reqs)
        assert a.served_ok + a.degraded + a.shed == len(reqs)
        assert len(rep.records) == len(reqs)
        assert a.shed > 0 and a.degraded > 0

    def test_down_machine_serves_nothing(self, served):
        _reqs, rep = served
        assert all(r.machine == 0 for r in rep.records)

    def test_slo_policies_honored(self, served):
        _reqs, rep = served
        for r in rep.records:
            if r.slo == "standard":
                assert r.status in ("ok", "degraded") and r.retries == 0
            elif r.slo == "batch":
                assert r.status in ("ok", "shed") and r.retries == 0
            else:  # interactive: retry with backoff, then degrade
                assert r.status in ("ok", "degraded")
                if r.status == "degraded":
                    assert r.retries == RETRY_LIMIT
        retried = sum(r.retries for r in rep.records)
        assert rep.availability.retries == retried > 0

    def test_shed_requests_have_no_prediction(self, served):
        _reqs, rep = served
        shed = [r for r in rep.records if r.status == "shed"]
        assert shed
        for r in shed:
            assert r.rid not in rep.predictions

    def test_degraded_answers_are_labeled_and_complete(self, served):
        reqs, rep = served
        by_rid = {r.rid: r for r in reqs}
        degraded = [r for r in rep.records if r.status == "degraded"]
        assert degraded
        for r in degraded:
            preds = rep.predictions[r.rid]
            assert preds.shape == (len(by_rid[r.rid].seeds),)

    def test_unavailable_rows_accounting(self, served, check_invariants):
        _reqs, rep = served
        g = rep.gather
        assert g.unavailable_rows > 0
        # Zero-filled rows moved out of the bucket that claimed them
        # (remote for a first request, coalesced for a later one) on the
        # micro-batch's own record, so every record still balances and no
        # bucket goes negative — subtracting them all from remote once did.
        check_invariants(rep)
        # Machine 1 is down from t=0: nothing was ever fetched from it.
        assert g.remote_per_peer[1] == 0
        assert 0.0 <= g.cache_hit_rate() <= 1.0

    def test_availability_between_zero_and_one(self, served):
        _reqs, rep = served
        assert 0.0 < rep.availability.availability() < 1.0
        assert rep.summary()["availability"] \
            == rep.availability.availability()

    def test_deterministic_rerun(self, served, tiny_dataset):
        reqs, rep = served
        rep2 = build_service(tiny_dataset).run(
            list(reqs), outages=[Outage(1, 0.0)])
        assert [(r.rid, r.status, r.retries, r.completed)
                for r in rep.records] \
            == [(r.rid, r.status, r.retries, r.completed)
                for r in rep2.records]
        for rid in rep.predictions:
            assert np.array_equal(rep.predictions[rid],
                                  rep2.predictions[rid])


def test_finite_outage_recovers(tiny_dataset):
    reqs = make_slo_requests(tiny_dataset)
    rep = build_service(tiny_dataset).run(
        list(reqs), outages=[Outage(1, 0.0, 0.004)])
    a = rep.availability
    assert a.total == len(reqs)
    assert a.served_ok > 0
    by_rid = {r.rid: r for r in reqs}
    # Anything arriving comfortably after the up-transition is untouched.
    late = [r for r in rep.records if by_rid[r.rid].arrival > 0.006]
    assert late
    assert all(r.status == "ok" for r in late)


def test_all_machines_down_sheds_everything(tiny_dataset):
    reqs = make_slo_requests(tiny_dataset, per_class=5)
    rep = build_service(tiny_dataset).run(
        list(reqs), outages=[Outage(0, 0.0), Outage(1, 0.0)])
    a = rep.availability
    assert a.shed == a.total == len(reqs)
    assert a.availability() == 0.0
    assert not rep.predictions
    assert all(r.status == "shed" for r in rep.records)


def test_overlapping_outages_compose(tiny_dataset):
    # Two overlapping outage spans on the same machine: it must stay down
    # until the *last* one ends (depth-counted, not toggled).
    reqs = make_slo_requests(tiny_dataset)
    rep = build_service(tiny_dataset).run(
        list(reqs),
        outages=[Outage(1, 0.0, 0.05), Outage(1, 0.02, 0.03)])
    by_rid = {r.rid: r for r in reqs}
    for r in rep.records:
        if 0.031 < by_rid[r.rid].arrival < 0.045:
            # Inside the outer span, after the inner one ended: still down.
            assert r.machine == 0


def test_shed_group_leaves_the_request_window_alone(tiny_dataset):
    """The request-VIP window holds the seed sets of the last served
    micro-batches.  A micro-batch shed whole serves nothing, so it must not
    push the oldest served seed set out of a full window; one served in
    part enters it with the seeds actually served."""
    svc = build_service(tiny_dataset)
    svc.run(make_slo_requests(tiny_dataset, per_class=2))
    store = svc.store.stores[1]
    uncached = np.flatnonzero(
        ~svc.store.stores[0].is_cached(np.arange(store.lo, store.hi)))
    remote = store.lo + uncached  # machine 0 must fetch these from machine 1
    window = svc._recent_seeds[0]
    served = [np.array([i]) for i in range(window.maxlen)]
    window.extend(served)
    svc._down[1] = True

    def group(slos):
        return [Request(rid=10_000 + i, seeds=remote[2 * i:2 * i + 2],
                        arrival=0.0, slo=slo) for i, slo in enumerate(slos)]

    svc._serve_window(0, [group(["batch", "batch"])], now=1.0)
    assert [s.tolist() for s in window] == [s.tolist() for s in served]
    svc._serve_window(0, [group(["batch", "standard"])], now=1.0)
    assert [s.tolist() for s in window] == (
        [s.tolist() for s in served[1:]] + [remote[2:4].tolist()])
