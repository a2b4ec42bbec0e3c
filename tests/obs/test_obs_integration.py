"""Observability integration + acceptance tests.

The acceptance contract from the telemetry PR: a traced multiproc K=4
epoch exports one Chrome-trace document with a coordinator lane and one
lane per worker process; worker spans are offset-aligned into the
coordinator's clock (they land inside the coordinator's epoch span);
lane spans cover >= 95% of the measured epoch wall; and — the
zero-overhead side — running with observability *enabled* changes no
math: per-step losses stay bit-identical to the in-process oracle that
ran with observability off.

Simulated time has one emitter: a traced training epoch (either backend) and
a traced serving run export one ``stage.<Stage.value>`` span per placement
of their timeline, and one ``serve.request`` span per request — shed ones
included — that ends with its micro-batch's ``stage.train``.
"""

import dataclasses
from collections import Counter

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
from repro.serving import Outage, poisson_requests
from repro.utils import ahead

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

    def test_simulated_schedule_exported(self, traced_run):
        """Both backends export the simulated timeline: the coordinator
        simulates the report it assembled from its workers' records."""
        _ref, mp, spans, _doc, _snap = traced_run
        assert_spans_are_the_timeline(spans, mp.timing.timeline)

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


def stage_spans(spans):
    """The *simulated* stage spans (placements of a timeline).  A measured
    twin (``stage.sample``, ``stage.train``; wall clock) shares the name and
    the ``(machine, step)`` key; ``sim_start`` tells the two clocks apart."""
    return [s for s in spans
            if s.name.startswith("stage.") and s.sim_start is not None]


def measured_stage_spans(spans, stage="sample"):
    return [s for s in spans
            if s.name == f"stage.{stage}" and s.sim_start is None]


def step_keys(spans):
    return [(s.attrs["machine"], s.attrs["step"]) for s in spans]


def assert_train_twin(spans, snap):
    """One wall ``stage.train`` per ``(machine, step)`` — the simulated
    placements' key set — each under the ``engine.window`` of its lane
    that holds the step, one ``engine.train_batch_s`` observation each."""
    trained = measured_stage_spans(spans, "train")
    keys = step_keys(trained)
    assert len(set(keys)) == len(keys) > 0
    assert set(keys) == set(step_keys(
        s for s in stage_spans(spans) if s.name == "stage.train"))
    windows = {s.span_id: s for s in spans if s.name == "engine.window"}
    for s in trained:
        window = windows[s.parent_id]
        assert window.lane == s.lane
        first = window.attrs["window"]
        assert first <= s.attrs["step"] < first + window.attrs["steps"]
        assert window.start_ns <= s.start_ns <= s.end_ns <= window.end_ns
    assert snap["engine.train_batch_s"]["count"] == len(trained)


def assert_allreduce_twin(spans):
    """One wall ``stage.allreduce`` per sync step, keyed ``(-1, step)``:
    the simulated ``ALLREDUCE`` placements' key set."""
    reduced = step_keys(measured_stage_spans(spans, "allreduce"))
    assert len(set(reduced)) == len(reduced) > 0
    assert set(reduced) == set(step_keys(
        s for s in stage_spans(spans) if s.name == "stage.allreduce"))


def assert_draws_inside_the_exchange(spans, lane):
    """On ``lane``, one ``engine.sample_wait`` per comm window (every sync
    step here closes its window): the first window's a child of that
    ``engine.window``, every later one a child of the wall
    ``stage.allreduce`` of the step closing the window before it, inside
    it — so the draw is that span's child, not its self time, and the
    allreduce span keeps a non-negative self time.  Returns the waits."""
    mine = [s for s in spans if s.lane == lane and s.sim_start is None]
    windows = sorted((s for s in mine if s.name == "engine.window"),
                     key=lambda s: s.attrs["window"])
    closing = {s.attrs["step"]: s for s in mine
               if s.name == "stage.allreduce"}
    waits = [s for s in mine if s.name == "engine.sample_wait"]
    assert len(waits) == len(windows) > 0
    assert sorted(s.parent_id for s in waits) == sorted(
        [windows[0].span_id]
        + [closing[w.attrs["window"] - 1].span_id for w in windows[1:]])
    by_id = {s.span_id: s for s in mine}
    for wait in waits:
        parent = by_id[wait.parent_id]
        assert parent.start_ns <= wait.start_ns <= wait.end_ns \
            <= parent.end_ns
    for reduce in closing.values():
        inside = [w for w in waits if w.parent_id == reduce.span_id]
        assert reduce.duration_s >= sum(w.duration_s for w in inside)
    return waits


def assert_spans_are_the_timeline(spans, timeline):
    """One sim-clock ``stage.<value>`` span per placement, keyed by its
    ``machine`` / ``step`` attrs, on the placement's own interval."""
    got = {(s.name, s.attrs["machine"], s.attrs["step"]):
           (s.sim_start, s.sim_end, s.lane, s.attrs["resource"])
           for s in stage_spans(spans)}
    assert len(got) == len(stage_spans(spans)) == len(timeline)
    for (stage, k, step), (start, duration) in timeline.items():
        lane = f"machine-{k}" if k >= 0 else "cluster"
        assert got[(f"stage.{stage.value}", k, step)] == \
            (start, start + duration, lane, stage.resource)


class TestMeasuredSampleSpans:
    """The wall twins of ``Stage.SAMPLE`` and ``Stage.TRAIN``, and what the
    loop waited for its samples: one definition on both sides of the
    spare-core rule."""

    def traced_epoch(self, papers_mini, monkeypatch, cores, **overrides):
        monkeypatch.setattr(ahead, "usable_cores", lambda: cores)
        planner = Planner()
        cfg = _config(**overrides)
        untraced = SalientPP.build(
            papers_mini, dataclasses.replace(cfg, backend="inprocess"),
            planner=planner).train_epoch(0)
        system = SalientPP.build(papers_mini, cfg, planner=planner)
        OBS.enable()
        try:
            result = system.train_epoch(0)
        finally:
            OBS.disable()
            system.shutdown()
        # Tracing records; it does not touch the math.
        assert [(r.machine, r.step, r.loss) for r in result.report.records] \
            == [(r.machine, r.step, r.loss) for r in untraced.report.records]
        assert result.epoch_time == untraced.epoch_time
        return result, list(OBS.tracer.spans), OBS.metrics.snapshot()

    @pytest.mark.parametrize("cores", [1, 8], ids=["inline", "ahead"])
    @pytest.mark.parametrize("depth", [1, 3])
    def test_in_process_epoch(self, papers_mini, monkeypatch, cores, depth):
        # Batch 16: enough steps per machine for two windows at depth 3, so
        # a window is drawn inside an exchange at every depth.
        result, spans, snap = self.traced_epoch(
            papers_mini, monkeypatch, cores, engine="pipelined",
            pipeline_depth=depth, batch_size=16)
        windows = [s for s in spans if s.name == "engine.window"]
        steps = result.report.steps_per_machine
        assert len(windows) == -(-steps // depth) >= 2

        # One measured stage.sample per (machine, step): the simulated
        # placements' key set, so the two clocks join by equality.
        measured = measured_stage_spans(spans)
        keys = step_keys(measured)
        assert len(set(keys)) == len(keys) == K * steps
        assert set(keys) == set(step_keys(
            s for s in stage_spans(spans) if s.name == "stage.sample"))
        assert_train_twin(spans, snap)
        assert_allreduce_twin(spans)
        epoch = next(s for s in spans if s.name == "engine.epoch")
        if cores > 1:
            assert {s.parent_id for s in measured} == {epoch.span_id}
        assert {s.lane for s in measured} == \
            {"coordinator/sampler" if cores > 1 else "coordinator"}
        assert all(epoch.start_ns <= s.start_ns <= s.end_ns <= epoch.end_ns
                   for s in measured)

        # What the loop waited: one engine.sample_wait per window, one
        # observation each, the later ones inside the exchanges.
        waits = assert_draws_inside_the_exchange(spans, "coordinator")
        assert snap["engine.sample_wait_s"]["count"] == len(windows)
        # A stall is a window the loop had to wait for at the top of its
        # own window: only the first can be.  (Registered at the first
        # stall: a run that never waited has none.)
        stalls = snap.get("engine.pipeline_stalls", {"value": 0})["value"]
        sampled_s = sum(s.duration_s for s in measured)
        if cores == 1:
            assert stalls == 1
            # Inline, the wait *is* the sampling (plus loop overhead), and
            # each draw is a child of the wait that obtained its window,
            # inside it.
            assert snap["engine.sample_wait_s"]["sum"] >= sampled_s
            by_id = {w.span_id: w for w in waits}
            assert all(by_id[s.parent_id].start_ns <= s.start_ns <= s.end_ns
                       <= by_id[s.parent_id].end_ns for s in measured)
        else:
            assert 0 <= stalls <= 1
        assert validate_chrome_trace(chrome_trace(spans, OBS.metrics)) == []

    def test_dry_run_samples_inline_whatever_the_host(self, papers_mini,
                                                      monkeypatch):
        monkeypatch.setattr(ahead, "usable_cores", lambda: 8)
        system = SalientPP.build(papers_mini, _config(), planner=Planner())
        OBS.enable()
        system.train_epoch(0, dry_run=True)
        OBS.disable()
        measured = measured_stage_spans(OBS.tracer.spans)
        assert measured and {s.lane for s in measured} == {"coordinator"}
        # Nothing trains in a dry run, so nothing is timed as training.
        assert not measured_stage_spans(OBS.tracer.spans, "train")

    def test_multiproc_workers_sample_on_their_own_sampler_lane(
            self, papers_mini, monkeypatch):
        """With cores to spare the coordinator's reading reaches every
        worker in its spec: each samples ahead, on ``worker-k/sampler``,
        and the merged registry still equals the report."""
        result, spans, snap = self.traced_epoch(
            papers_mini, monkeypatch, 64, backend="multiproc")
        measured = measured_stage_spans(spans)
        steps = result.report.steps_per_machine
        assert Counter(s.lane for s in measured) == \
            {f"worker-{k}/sampler": steps for k in range(K)}
        assert set(step_keys(measured)) == \
            {(k, step) for k in range(K) for step in range(steps)}
        assert_train_twin(spans, snap)
        assert Counter(s.lane for s in measured_stage_spans(spans, "train")) \
            == {f"worker-{k}": steps for k in range(K)}
        epochs = {s.lane: s.span_id for s in spans
                  if s.name == "engine.epoch"}
        assert all(s.parent_id == epochs[s.lane.split("/")[0]]
                   for s in measured)
        mp_epoch = next(s for s in spans if s.name == "mp.epoch")
        assert all(mp_epoch.start_ns - ALIGN_SLACK_NS <= s.start_ns
                   and s.end_ns <= mp_epoch.end_ns + ALIGN_SLACK_NS
                   for s in measured)
        assert snap["engine.sample_wait_s"]["count"] == K * steps
        for k in range(K):
            assert_draws_inside_the_exchange(spans, f"worker-{k}")
        assert snap.get("engine.pipeline_stalls", {"value": 0})["value"] <= K


class TestSpanTree:
    """A merged multiproc trace is one tree.  Span ids are unique per trace
    (each process numbers its own range), so every ``parent_id`` names one
    span and a worker's epoch hangs off the coordinator's ``mp.epoch``.
    Every wall span's self time — its duration less its children's on its
    own lane (a child on another lane runs beside it, not inside it) — is
    non-negative."""

    def test_multiproc_epoch(self, papers_mini):
        OBS.enable(lane="coordinator")
        system = SalientPP.build(
            papers_mini, _config(num_machines=2, backend="multiproc"),
            planner=Planner())
        try:
            system.train_epoch(0)
        finally:
            OBS.disable()
            system.shutdown()
        spans = list(OBS.tracer.spans)
        by_id = {s.span_id: s for s in spans}
        assert len(by_id) == len(spans)
        assert all(s.parent_id in by_id for s in spans if s.parent_id)
        mp_epoch = next(s for s in spans if s.name == "mp.epoch")
        workers = [s for s in spans if s.name == "worker.epoch"]
        assert {s.lane for s in workers} == {"worker-0", "worker-1"}
        assert all(s.parent_id == mp_epoch.span_id for s in workers)
        wall = [s for s in spans if s.sim_start is None]
        own = {s.span_id: s.end_ns - s.start_ns for s in wall}
        for s in wall:
            parent = by_id.get(s.parent_id)
            if parent is not None and parent.lane == s.lane:
                own[parent.span_id] -= s.end_ns - s.start_ns
        assert min(own.values()) >= 0, sorted(
            (t, by_id[i].name, by_id[i].lane) for i, t in own.items())[:3]


class TestSimulatedTimelineSpans:
    """Training and serving export their simulated schedule through the one
    emitter (``Tracer.add_timeline``), named after ``Stage``."""

    def test_in_process_epoch(self, papers_mini):
        system = SalientPP.build(papers_mini, _config(), planner=Planner())
        OBS.enable()
        result = system.train_epoch(0, dry_run=True)
        OBS.disable()
        spans = OBS.tracer.spans
        assert_spans_are_the_timeline(spans, result.timing.timeline)
        simulate = next(s for s in spans if s.name == "system.simulate")
        assert {s.parent_id for s in stage_spans(spans)} == {simulate.span_id}
        lanes = set(lane_intervals(chrome_trace(spans)))
        assert {f"sim:machine-{k}" for k in range(K)} | {"sim:cluster"} \
            <= lanes

    def test_serving_run(self, request):
        tiny = request.getfixturevalue("tiny_dataset")
        svc = Planner().build_service(tiny, _serving_config())
        OBS.enable()
        report = svc.run(_requests(tiny, 30))
        OBS.disable()
        spans = OBS.tracer.spans
        assert_spans_are_the_timeline(spans, report.timeline)
        assert not [s.name for s in spans if s.name.startswith("serve.")
                    and s.name != "serve.request"]
        doc = chrome_trace(spans)
        assert validate_chrome_trace(doc) == []
        assert any(lane.startswith("sim:machine-")
                   for lane in lane_intervals(doc))


def _serving_config() -> RunConfig:
    serving = ServingConfig(batcher="deadline", max_batch=8,
                            max_wait_ms=10.0, max_in_flight=4)
    return RunConfig(num_machines=2, replication_factor=0.1, serving=serving)


def _requests(ds, n, **kw):
    return list(poisson_requests(np.arange(ds.num_vertices), n, 4,
                                 rate_rps=2000.0, seed=3, **kw))


def _mixed_slo_requests(ds, n):
    """``n`` requests of each SLO class, renumbered: under an outage some
    micro-batches degrade, some retry and some are shed whole."""
    reqs = [r for slo in ("interactive", "standard", "batch")
            for r in _requests(ds, n, slo=slo)]
    return [dataclasses.replace(r, rid=i) for i, r in enumerate(reqs)]


class TestServingSampleSpans:
    """The wall twin of ``Stage.SAMPLE`` in serving: one ``stage.sample``
    per served micro-batch, keyed ``(machine, step)`` like its simulated
    placement — healthy, under an outage (dropped groups have neither,
    degraded resamples count toward their group) and under graph churn —
    and tracing changes no prediction."""

    def traced_run(self, ds, make_requests, **run_kw):
        planner = Planner()
        untraced = planner.build_service(ds, _serving_config()).run(
            make_requests(), **run_kw)
        svc = planner.build_service(ds, _serving_config())
        OBS.enable()
        try:
            report = svc.run(make_requests(), **run_kw)
        finally:
            OBS.disable()
        assert report.predictions.keys() == untraced.predictions.keys()
        for rid, pred in untraced.predictions.items():
            assert np.array_equal(report.predictions[rid], pred)
        spans = OBS.tracer.spans
        measured = measured_stage_spans(spans)
        keys = step_keys(measured)
        assert len(set(keys)) == len(keys) == report.num_batches > 0
        assert set(keys) == set(step_keys(
            s for s in stage_spans(spans) if s.name == "stage.sample"))
        assert all(0 < s.start_ns <= s.end_ns for s in measured)
        assert validate_chrome_trace(chrome_trace(spans, OBS.metrics)) == []
        # (each sampler counts its draws in its stamp epoch)
        return report, sum(sampler._epoch for sampler in svc.samplers)

    def test_healthy_run(self, request):
        tiny = request.getfixturevalue("tiny_dataset")
        report, draws = self.traced_run(tiny, lambda: _requests(tiny, 40))
        assert draws == report.num_batches

    def test_outage_run(self, request):
        tiny = request.getfixturevalue("tiny_dataset")
        report, draws = self.traced_run(
            tiny, lambda: _mixed_slo_requests(tiny, 40),
            outages=[Outage(1, 0.002, 0.012)])
        a = report.availability
        assert min(a.degraded, a.shed, a.retries) > 0
        assert draws > report.num_batches  # dropped groups and resamples

    def test_churn_run(self, request):
        from repro.graph.mutable import EdgeBatch

        tiny = request.getfixturevalue("tiny_dataset")
        n = tiny.num_vertices
        gen = np.random.default_rng(4)
        mutations = [(when, EdgeBatch(add_src=gen.integers(0, n, 40),
                                      add_dst=gen.integers(0, n, 40)))
                     for when in (0.002, 0.006, 0.010)]
        self.traced_run(tiny, lambda: _requests(tiny, 40),
                        mutations=mutations)


class TestRequestSpans:
    def test_one_span_per_request_joined_to_its_micro_batch(self, request):
        tiny = request.getfixturevalue("tiny_dataset")
        svc = Planner().build_service(tiny, _serving_config())
        OBS.enable()
        report = svc.run(_requests(tiny, 30))
        OBS.disable()
        spans = OBS.tracer.spans
        req_spans = {s.attrs["rid"]: s for s in spans
                     if s.name == "serve.request"}
        assert len(req_spans) == report.num_requests
        train_end = {(s.attrs["machine"], s.attrs["step"]): s.sim_end
                     for s in spans if s.name == "stage.train"}
        for rec in report.records:
            span = req_spans[rec.rid]
            assert (span.sim_start, span.sim_end, span.lane) == \
                (rec.arrival, rec.completed, f"machine-{rec.machine}")
            assert (span.attrs["status"], span.attrs["step"]) == \
                ("ok", rec.step)
            done = train_end[(rec.machine, rec.step)]
            assert abs(span.sim_end - done) <= 1e-12 * done

    def test_an_outage_trace_accounts_for_every_request(self, request):
        """Shed requests used to have no span (``serve.request`` was
        emitted only for answered micro-batches), so ``ok_share`` could not
        be read off a trace.  Now: one span per request, ``status`` counts
        equal to the ledger, every answered one ending with its step's
        ``stage.train``."""
        tiny = request.getfixturevalue("tiny_dataset")
        svc = Planner().build_service(tiny, _serving_config())
        reqs = _mixed_slo_requests(tiny, 40)
        OBS.enable()
        report = svc.run(reqs, outages=[Outage(1, 0.002, 0.012)])
        OBS.disable()
        spans = OBS.tracer.spans
        req_spans = [s for s in spans if s.name == "serve.request"]
        assert sorted(s.attrs["rid"] for s in req_spans) == \
            list(range(len(reqs)))
        a = report.availability
        assert min(a.served_ok, a.degraded, a.shed, a.retries) > 0
        status = Counter(s.attrs["status"] for s in req_spans)
        assert (status["ok"], status["degraded"], status["shed"]) == \
            (a.served_ok, a.degraded, a.shed)
        assert sum(s.attrs["retries"] for s in req_spans) == a.retries
        train_end = {(s.attrs["machine"], s.attrs["step"]): s.sim_end
                     for s in spans if s.name == "stage.train"}
        by_rid = {r.rid: r for r in report.records}
        for span in req_spans:
            rec = by_rid[span.attrs["rid"]]
            if span.attrs["status"] == "shed":
                assert (span.attrs["step"], rec.step) == (-1, -1)
                continue
            step = report.steps[rec.step]
            assert (step.machine, step.step) == (rec.machine, rec.step)
            done = train_end[(span.attrs["machine"], span.attrs["step"])]
            assert abs(span.sim_end - done) <= 1e-12 * done
