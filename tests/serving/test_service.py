"""End-to-end inference-service tests on the tiny dataset."""

import numpy as np
import pytest

from repro.core import Planner, RunConfig, ServingConfig
from repro.pipeline.events import Stage
from repro.serving import (
    ClosedLoopWorkload,
    forward_flops,
    poisson_requests,
)
from repro.graph.generators import streaming_request_stream


def build_service(tiny_dataset, planner=None, **serving_kw):
    serving = ServingConfig(**{"batcher": "deadline", "max_batch": 8,
                               "max_wait_ms": 10.0, "max_in_flight": 4,
                               **serving_kw})
    cfg = RunConfig(num_machines=2, replication_factor=0.1, serving=serving)
    if planner is None:
        planner = Planner()
    return planner.build_service(tiny_dataset, cfg)


def make_requests(tiny_dataset, n=50, size=4, rate=2000.0, seed=3):
    return poisson_requests(np.arange(tiny_dataset.num_vertices), n, size,
                            rate_rps=rate, hot_fraction=0.02, hot_mass=0.8,
                            drift_interval=20, seed=seed)


@pytest.fixture(scope="module")
def served(request):
    ds = request.getfixturevalue("tiny_dataset")
    svc = build_service(ds)
    reqs = make_requests(ds)
    return ds, svc, reqs, svc.run(reqs)


class TestEndToEnd:
    def test_every_request_answered(self, served):
        _ds, _svc, reqs, rep = served
        assert rep.num_requests == len(reqs)
        assert sorted(rep.predictions) == [r.rid for r in reqs]
        for r in reqs:
            preds = rep.predictions[r.rid]
            assert preds.shape == (len(r.seeds),)
            assert preds.min() >= 0

    def test_predictions_in_class_range(self, served):
        ds, _svc, _reqs, rep = served
        for preds in rep.predictions.values():
            assert preds.max() < ds.num_classes

    def test_lifecycle_ordering(self, served):
        _ds, _svc, _reqs, rep = served
        for r in rep.records:
            assert r.arrival <= r.formed <= r.started < r.completed

    def test_trace_validates_and_prices(self, served):
        _ds, svc, _reqs, rep = served
        trace = rep.trace
        assert trace.engine == "serving"
        assert trace.num_steps == rep.num_batches
        assert len(trace.machine_of_step) == trace.num_steps
        trace.validate()  # idempotent
        total = sum(svc.cost_model.event_duration(ev) for ev in trace.events)
        assert total > 0
        # No training-only stages in a serving trace.
        assert all(ev.stage is not Stage.ALLREDUCE for ev in trace.events)

    def test_gather_totals_consistent(self, served, check_invariants):
        _ds, _svc, _reqs, rep = served
        check_invariants(rep)
        assert len(rep.steps) == rep.num_batches > 0
        assert rep.gather.unavailable_rows == 0

    def test_deterministic_rerun(self, tiny_dataset):
        reqs = make_requests(tiny_dataset)
        rep1 = build_service(tiny_dataset).run(list(reqs))
        rep2 = build_service(tiny_dataset).run(list(reqs))
        assert [r.completed for r in rep1.records] == \
               [r.completed for r in rep2.records]
        for rid in rep1.predictions:
            assert np.array_equal(rep1.predictions[rid], rep2.predictions[rid])


class TestSLO:
    def test_deadline_bounds_queue_wait(self, served):
        _ds, svc, _reqs, rep = served
        assert rep.max_queue_wait() <= svc.spec.max_wait_s + 1e-9

    def test_fixed_size_drains_at_end_of_stream(self, tiny_dataset):
        svc = build_service(tiny_dataset, batcher="fixed-size", max_batch=7)
        reqs = make_requests(tiny_dataset, n=20)  # 20 % 7 != 0
        rep = svc.run(reqs)
        assert rep.num_requests == 20


class TestPredictionsMatchMonolithic:
    def test_features_equal_direct_indexing(self, tiny_dataset):
        """The serving gather path returns bit-identical features, so
        predictions equal a monolithic forward pass on the same MFGs."""
        svc = build_service(tiny_dataset)
        feats_ref = svc.store.reordered.dataset.features
        seen = {}

        original = svc.store.execute_coalesced

        def checking_execute(cplan, **kwargs):
            results = original(cplan, **kwargs)
            for plan, (out, _stats) in zip(cplan.plans, results):
                assert np.array_equal(out, feats_ref[plan.ids])
                seen["n"] = seen.get("n", 0) + 1
            return results

        svc.store.execute_coalesced = checking_execute
        svc.run(make_requests(tiny_dataset, n=12, rate=50000.0))
        assert seen["n"] > 0


class TestClosedLoop:
    def test_all_requests_complete(self, tiny_dataset):
        svc = build_service(tiny_dataset)
        stream = streaming_request_stream(
            np.arange(tiny_dataset.num_vertices), 30, 4, seed=5)
        rep = svc.run(ClosedLoopWorkload(stream, num_clients=6,
                                         think_time_s=0.001))
        assert rep.num_requests == 30
        assert rep.throughput_rps() > 0

    def test_one_client_serializes(self, tiny_dataset):
        svc = build_service(tiny_dataset)
        stream = streaming_request_stream(
            np.arange(tiny_dataset.num_vertices), 8, 4, seed=5)
        rep = svc.run(ClosedLoopWorkload(stream, num_clients=1))
        spans = sorted((r.started, r.completed) for r in rep.records)
        for (s1, c1), (s2, _c2) in zip(spans, spans[1:]):
            assert s2 >= c1  # next request never overlaps the previous


class TestIdTranslation:
    """Request seeds are original-dataset ids; the service works in the
    reordered space and must translate at the API boundary."""

    def test_seeds_translated_to_reordered_space(self, tiny_dataset):
        from repro.serving import Request

        svc = build_service(tiny_dataset)
        rd = svc.store.reordered
        assert not np.array_equal(rd.new_of_old,
                                  np.arange(len(rd.new_of_old))), \
            "fixture must reorder non-trivially for this test to bite"
        captured = []
        original_plan = svc.store.plan_gather
        svc.store.plan_gather = lambda k, ids: (captured.append(ids),
                                                original_plan(k, ids))[1]
        seeds = np.array([5, 17, 42])
        svc.run([Request(rid=0, seeds=seeds, arrival=0.0)])
        # The micro-batch MFG was seeded with the *translated* ids (n_id
        # keeps seeds first), so original vertex v's features/neighborhood
        # really came from reordered row new_of_old[v].
        assert np.array_equal(np.sort(captured[0][:3]),
                              np.sort(rd.new_of_old[seeds]))

    def test_caller_request_object_untouched(self, tiny_dataset):
        from repro.serving import Request

        svc = build_service(tiny_dataset)
        seeds = np.array([3, 9])
        req = Request(rid=0, seeds=seeds.copy(), arrival=0.0)
        rep = svc.run([req])
        assert np.array_equal(req.seeds, seeds)
        assert rep.predictions[0].shape == (2,)

    def test_out_of_range_seeds_rejected(self, tiny_dataset):
        from repro.serving import Request

        svc = build_service(tiny_dataset)
        bad = Request(rid=0, seeds=np.array([tiny_dataset.num_vertices]),
                      arrival=0.0)
        with pytest.raises(ValueError, match="outside"):
            svc.run([bad])

    def test_duplicate_rid_rejected(self, tiny_dataset):
        from repro.serving import Request

        svc = build_service(tiny_dataset)
        reqs = [Request(rid=7, seeds=np.array([1]), arrival=0.0),
                Request(rid=7, seeds=np.array([2]), arrival=0.001)]
        with pytest.raises(ValueError, match="duplicate request id"):
            svc.run(reqs)


class TestRouting:
    def test_arrivals_route_round_robin(self, served):
        _ds, svc, reqs, rep = served
        by_rid = {r.rid: r for r in rep.records}
        for i, req in enumerate(sorted(reqs, key=lambda r: r.arrival)):
            assert by_rid[req.rid].machine == i % svc.num_machines


class TestPlannerIntegration:
    def test_serving_sweep_reuses_preprocessing(self, tiny_dataset):
        planner = Planner()
        build_service(tiny_dataset, planner=planner)
        for batcher in ("fixed-size", "cache-affinity"):
            build_service(tiny_dataset, planner=planner, batcher=batcher)
        # Three serving variants, one preprocessing pass.
        assert planner.stats["partition"].computed == 1
        assert planner.stats["reorder"].computed == 1
        assert planner.stats["cache-select"].computed == 1

    def test_vip_refresh_service_wires_request_vip(self, tiny_dataset):
        cfg = RunConfig(num_machines=2, replication_factor=0.1,
                        cache_policy="vip-refresh", refresh_interval=5,
                        serving=ServingConfig(max_batch=4, max_wait_ms=5.0))
        svc = Planner().build_service(tiny_dataset, cfg)
        asked, access = [], svc.tracker.access
        svc.tracker.access = (lambda p0s: asked.extend(p0s.values())
                              or access(p0s))
        rep = svc.run(make_requests(tiny_dataset, n=40))
        churn = svc.store.cache_churn()
        assert sum(c.refreshes for c in churn) > 0
        assert rep.num_requests == 40
        # Refreshes were scored on observed request frequencies, not on the
        # training set the build-time provider ranks by.
        assert asked and all(0 < p0.max() <= 1.0 for p0 in asked)
        train = svc.store.reordered.dataset.train_idx
        assert any(p0.sum() > p0[train].sum() for p0 in asked)

    def test_dropped_service_is_freed_without_the_cyclic_gc(self,
                                                            tiny_dataset):
        """The store keeps the refresh score provider, and the provider
        keeps the tracker and the seed windows, not the service: a built,
        run and dropped vip-refresh service is freed by reference counting
        alone, as each warm-built serving rung drops the one before it."""
        import gc
        import weakref

        from repro.graph.mutable import EdgeBatch

        cfg = RunConfig(num_machines=2, replication_factor=0.1,
                        cache_policy="vip-refresh", refresh_interval=5,
                        serving=ServingConfig(max_batch=4, max_wait_ms=5.0))
        planner = Planner()
        gc.collect()
        gc.disable()
        try:
            svc = planner.build_service(tiny_dataset, cfg)
            rep = svc.run(make_requests(tiny_dataset, n=40),
                          mutations=[(0.005, EdgeBatch(add_src=[0, 1],
                                                       add_dst=[7, 9]))])
            assert rep.num_requests == 40 and svc.mutations_applied == 1
            assert sum(c.refreshes for c in svc.store.cache_churn()) > 0
            provider = svc.store._refresh_score_fn
            assert provider.tracker is svc.tracker
            freed = weakref.ref(svc)
            del svc, rep
            assert freed() is None
        finally:
            gc.enable()


class TestForwardFlops:
    def test_is_one_third_of_train_flops(self, tiny_dataset):
        from repro.distributed.records import StepRecord
        from repro.distributed.feature_store import GatherStats
        from repro.sampling import NeighborSampler

        sampler = NeighborSampler(tiny_dataset.graph, (3, 2), seed=0)
        mfg = sampler.sample(np.arange(10))
        rec = StepRecord(
            machine=0, step=0, batch_size=10, mfg_vertices=mfg.num_vertices,
            mfg_edges=mfg.num_edges, candidate_edges=0,
            block_sizes=tuple((b.num_src, b.num_dst, b.num_edges)
                              for b in mfg.blocks),
            gather=GatherStats(0, 0, 0, 0, 0, np.zeros(1, dtype=np.int64)),
        )
        assert forward_flops(mfg, 16, 32, 4) == pytest.approx(
            rec.flops(16, 32, 4) / 3.0)
