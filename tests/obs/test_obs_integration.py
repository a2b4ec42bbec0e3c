"""Observability integration + acceptance tests.

The acceptance contract from the telemetry PR: a traced multiproc K=4
epoch exports one Chrome-trace document with a coordinator lane and one
lane per worker process; worker spans are offset-aligned into the
coordinator's clock (they land inside the coordinator's epoch span);
lane spans cover >= 95% of the measured epoch wall; and — the
zero-overhead side — running with observability *enabled* changes no
math: per-step losses stay bit-identical to the in-process oracle that
ran with observability off.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import Planner, RunConfig, SalientPP, ServingConfig
from repro.graph.datasets import make_papers_mini
from repro.obs import OBS
from repro.obs.exporters import (
    chrome_trace,
    lane_intervals,
    validate_chrome_trace,
)
from repro.obs.report import union_length
from repro.serving import poisson_requests

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

K = 4

#: Worker clocks rebase through a shared wall clock read back-to-back with
#: the perf clock; the anchor error is microseconds, but allow generous
#: slack for pipe delivery on a loaded CI box.
ALIGN_SLACK_NS = 50_000_000  # 50 ms


@pytest.fixture(autouse=True)
def _clean_obs():
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


def _config(**overrides) -> RunConfig:
    base = dict(num_machines=K, fanouts=(4, 3), batch_size=32,
                hidden_dim=16, replication_factor=0.05, gpu_fraction=0.5,
                seed=0)
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def papers_mini():
    return make_papers_mini(seed=1, scale=0.04)


class TestMultiprocAcceptance:
    @pytest.fixture(scope="class")
    def traced_run(self, papers_mini):
        """One traced multiproc epoch + the untraced in-process oracle."""
        planner = Planner()
        cfg = _config()
        ref = SalientPP.build(papers_mini, cfg, planner=planner)
        ref_result = ref.train_epoch(0)

        OBS.disable()
        OBS.reset()
        OBS.enable(lane="coordinator")
        mp = SalientPP.build(
            papers_mini, dataclasses.replace(cfg, backend="multiproc"),
            planner=planner)
        try:
            mp_result = mp.train_epoch(0)
        finally:
            mp.shutdown()
        OBS.disable()
        spans = list(OBS.tracer.spans)
        doc = chrome_trace(spans, OBS.metrics)
        snapshot = OBS.metrics.snapshot()
        OBS.reset()
        return ref_result, mp_result, spans, doc, snapshot

    def test_chrome_trace_schema_valid(self, traced_run):
        _ref, _mp, _spans, doc, _snap = traced_run
        assert validate_chrome_trace(doc) == []

    def test_one_lane_per_process(self, traced_run):
        _ref, _mp, _spans, doc, _snap = traced_run
        lanes = set(lane_intervals(doc))
        assert {"coordinator"} | {f"worker-{k}" for k in range(K)} <= lanes

    def test_worker_spans_offset_aligned(self, traced_run):
        """Rebasing worked iff every worker span lands inside the
        coordinator's epoch span (modulo anchor slack) — raw
        perf_counter origins differ per process by arbitrary amounts."""
        _ref, _mp, spans, _doc, _snap = traced_run
        epoch = next(s for s in spans if s.name == "mp.epoch")
        for rec in spans:
            if not rec.lane.startswith("worker-"):
                continue
            assert rec.start_ns >= epoch.start_ns - ALIGN_SLACK_NS, rec.name
            assert rec.end_ns <= epoch.end_ns + ALIGN_SLACK_NS, rec.name

    def test_worker_epochs_parent_on_coordinator_epoch(self, traced_run):
        _ref, _mp, spans, _doc, _snap = traced_run
        epoch = next(s for s in spans if s.name == "mp.epoch")
        workers = [s for s in spans if s.name == "worker.epoch"]
        assert len(workers) == K
        assert {s.lane for s in workers} == \
            {f"worker-{k}" for k in range(K)}
        assert all(s.parent_id == epoch.span_id for s in workers)
        assert all(s.trace_id == epoch.trace_id for s in workers)

    def test_lanes_cover_epoch_wall(self, traced_run):
        """Coordinator + worker lanes together cover >= 95% of the
        measured epoch wall (the mp.epoch span)."""
        _ref, _mp, spans, _doc, _snap = traced_run
        epoch = next(s for s in spans if s.name == "mp.epoch")
        wall = epoch.end_ns - epoch.start_ns
        assert wall > 0
        intervals = [
            (max(s.start_ns, epoch.start_ns), min(s.end_ns, epoch.end_ns))
            for s in spans
            if s.sim_start is None and s.end_ns > s.start_ns
        ]
        covered = union_length([iv for iv in intervals if iv[1] > iv[0]])
        assert covered / wall >= 0.95

    def test_enabled_run_is_bit_identical_to_oracle(self, traced_run):
        """Observability on changes no math: multiproc losses (traced)
        equal the in-process oracle's (untraced), bitwise."""
        ref, mp, _spans, _doc, _snap = traced_run
        key = lambda rep: [(r.machine, r.step, r.loss)  # noqa: E731
                           for r in rep.records]
        assert key(mp.report) == key(ref.report)
        assert mp.report.mean_loss == ref.report.mean_loss
        assert mp.epoch_time == ref.epoch_time

    def test_worker_metrics_merged_into_coordinator(self, traced_run,
                                                    check_registry):
        _ref, mp, _spans, _doc, snap = traced_run
        # Registry = report: every store.* / cache.* counter the workers
        # mirrored from their finalized records, merged, is the report's.
        check_registry(snap, mp.report)
        assert snap["store.remote_rows"]["value"] > 0
        assert snap["shm.slab_writes"]["value"] == \
            K * len({r.step for r in mp.report.records})
        assert snap["mp.wire_sent_bytes"]["value"] > 0
        assert snap["mp.wire_received_bytes"]["value"] > 0
        assert snap["mp.workers_alive"]["value"] == K
        assert snap["engine.window_wall_s"]["count"] == \
            K * len({r.step for r in mp.report.records})

    def test_disabled_run_records_nothing(self, papers_mini):
        """The default (observability off) leaves zero telemetry — the
        no-op fast path really is a no-op."""
        planner = Planner()
        mp = SalientPP.build(
            papers_mini, _config(backend="multiproc"), planner=planner)
        try:
            mp.train_epoch(0, dry_run=True)
        finally:
            mp.shutdown()
        assert OBS.tracer.spans == []
        assert OBS.metrics.snapshot() == {}


class TestInProcessSpans:
    def test_engine_and_planner_spans(self, papers_mini):
        OBS.enable()
        system = SalientPP.build(papers_mini, _config(), planner=Planner())
        system.train_epoch(0, dry_run=True)
        names = {s.name for s in OBS.tracer.spans}
        assert "system.train_epoch" in names
        assert "engine.epoch" in names
        assert "engine.window" in names  # bsp: one window per step
        assert any(n.startswith("planner.") for n in names)
        # Feature-store counters registered by the gather path.
        assert OBS.metrics.counter("store.gathers").value > 0

    def test_pipelined_engine_window_spans(self, papers_mini):
        OBS.enable()
        system = SalientPP.build(
            papers_mini, _config(engine="pipelined", pipeline_depth=2),
            planner=Planner())
        system.train_epoch(0, dry_run=True)
        windows = [s for s in OBS.tracer.spans if s.name == "engine.window"]
        # One span name whatever the depth; the window's width is an
        # attribute, and the widths tile the epoch.
        assert sum(s.attrs["steps"] for s in windows) == \
            system.trainer.steps_per_epoch()
        assert "engine.step" not in {s.name for s in OBS.tracer.spans}


class TestServingSpans:
    def test_request_lifecycle_sim_spans(self, request):
        tiny = request.getfixturevalue("tiny_dataset")
        serving = ServingConfig(batcher="deadline", max_batch=8,
                                max_wait_ms=10.0, max_in_flight=4)
        cfg = RunConfig(num_machines=2, replication_factor=0.1,
                        serving=serving)
        svc = Planner().build_service(tiny, cfg)
        reqs = poisson_requests(np.arange(tiny.num_vertices), 30, 4,
                                rate_rps=2000.0, seed=3)
        OBS.enable()
        report = svc.run(list(reqs))
        OBS.disable()
        spans = OBS.tracer.spans
        names = {s.name for s in spans}
        assert {"serve.window", "serve.sample", "serve.fetch",
                "serve.forward", "serve.request"} <= names
        req_spans = [s for s in spans if s.name == "serve.request"]
        assert len(req_spans) == report.num_requests
        # Every request span is sim-clock and parented on its window.
        window_ids = {s.span_id for s in spans if s.name == "serve.window"}
        assert all(s.sim_start is not None for s in req_spans)
        assert all(s.parent_id in window_ids for s in req_spans)
        # Sim spans land on per-machine sim lanes in the export.
        doc = chrome_trace(spans)
        assert validate_chrome_trace(doc) == []
        lanes = set(lane_intervals(doc))
        assert any(lane.startswith("sim:machine-") for lane in lanes)
        # Span lifecycle respects the simulated clock ordering.
        for s in req_spans:
            assert s.sim_end >= s.sim_start
