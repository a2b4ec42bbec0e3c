"""Unified event path tests: a report's step records alone reproduce (and
price exactly like) its event trace, and windowed/thinned schedules
behave."""

import dataclasses

import numpy as np
import pytest

from repro.distributed import (
    DistributedTrainer,
    PartitionedFeatureStore,
    assemble_report,
)
from repro.distributed.cluster import ClusterSpec
from repro.pipeline import (
    CostModel,
    ModelDims,
    PipelineMode,
    Stage,
    simulate_trace,
)
from repro.pipeline.events import EventTrace
from invariants import assert_trace_shape_equal


@pytest.fixture(scope="module")
def substrate(request):
    rd = request.getfixturevalue("tiny_reordered")
    store = PartitionedFeatureStore.build(rd)
    tr = DistributedTrainer(rd, store, fanouts=(5, 5), batch_size=16,
                            hidden_dim=16, seed=0)
    report = tr.train_epoch(0, dry_run=True)
    cm = CostModel(
        cluster=ClusterSpec(num_machines=4),
        bytes_per_row=store.bytes_per_row,
        dims=ModelDims(rd.dataset.feature_dim, 16, rd.dataset.num_classes),
        grad_nbytes=tr.gradient_nbytes(),
    )
    return report, cm, tr


def _rebuilt_from_records(report, cm, tr):
    """``assemble_report`` over nothing but the report's step records."""
    K = report.ledger.num_machines
    return assemble_report(
        tr.engine.schedule(report.steps_per_machine),
        [report.records_for(k) for k in range(K)],
        epoch=report.epoch, bytes_per_row=cm.bytes_per_row,
        dims=cm.dims.as_tuple, grad_nbytes=cm.grad_nbytes,
    )


class TestTraceRecordParity:
    @pytest.mark.parametrize("mode", list(PipelineMode))
    @pytest.mark.parametrize("depth", [1, 3, 10])
    def test_engine_trace_prices_like_records(self, substrate, mode, depth):
        """The report's trace must cost exactly what the trace rebuilt from
        its step records costs, in every mode and depth."""
        report, cm, tr = substrate
        rebuilt = _rebuilt_from_records(report, cm, tr)
        rec = simulate_trace(rebuilt.events, cm, mode=mode, depth=depth)
        ev = simulate_trace(report.events, cm, mode=mode, depth=depth)
        assert ev.epoch_time == rec.epoch_time
        for key in rec.breakdown:
            assert ev.breakdown[key] == rec.breakdown[key]
        for res in rec.resource_busy:
            assert np.array_equal(ev.resource_busy[res],
                                  rec.resource_busy[res])

    def test_assemble_report_reproduces_events(self, substrate):
        """``assemble_report`` over ``report.records`` reproduces
        ``report.events`` (and the record order and ledger with it)."""
        report, cm, tr = substrate
        rebuilt = _rebuilt_from_records(report, cm, tr)
        assert_trace_shape_equal(rebuilt.events, report.events)
        assert rebuilt.records == report.records
        assert np.array_equal(rebuilt.ledger.feature_bytes,
                              report.ledger.feature_bytes)
        assert np.array_equal(rebuilt.ledger.request_bytes,
                              report.ledger.request_bytes)

    def test_event_durations_positive_and_monotone(self, substrate):
        """Every emitted event prices to a non-negative duration (strictly
        positive where work is certain), and a stage costs more with more
        of its volume."""
        report, cm, _ = substrate
        for ev in report.events.events:
            base = cm.event_duration(ev)
            assert base >= 0
            if ev.stage in (Stage.SAMPLE, Stage.TRAIN):
                assert base > 0
            if base == 0 or not any(v for _, v in ev.volumes):
                continue  # nothing to scale (ALLREDUCE carries no volumes)
            doubled = dataclasses.replace(
                ev, volumes=tuple((k, 2 * v) for k, v in ev.volumes))
            assert cm.event_duration(doubled) > base


class TestTraceValidation:
    def test_validate_catches_missing_events(self, substrate):
        report, cm, _ = substrate
        trace = report.events
        broken = EventTrace(
            engine=trace.engine, num_machines=trace.num_machines,
            num_steps=trace.num_steps, windows=trace.windows,
            allreduce_steps=trace.allreduce_steps,
            events=[ev for ev in trace.events if ev.stage is not Stage.TRAIN],
        )
        with pytest.raises(ValueError, match="train"):
            simulate_trace(broken, cm)

    def test_validate_catches_bad_windows(self, substrate):
        report, cm, _ = substrate
        trace = report.events
        broken = EventTrace(
            engine=trace.engine, num_machines=trace.num_machines,
            num_steps=trace.num_steps, windows=[(0, trace.num_steps + 1)],
            allreduce_steps=trace.allreduce_steps, events=list(trace.events),
        )
        with pytest.raises(ValueError, match="tile"):
            simulate_trace(broken, cm)

    def test_rejects_bad_depth(self, substrate):
        report, cm, _ = substrate
        with pytest.raises(ValueError, match="depth"):
            simulate_trace(report.events, cm, depth=0)

    def test_windowed_trace_rejects_contradictory_schedules(
            self, substrate, tiny_reordered):
        """A multi-step comm window encodes an in-flight schedule: pricing
        it serialized, or with fewer slots than the window holds, must be
        an error rather than a silently optimistic makespan."""
        _, cm, _ = substrate
        store = PartitionedFeatureStore.build(tiny_reordered)
        tr = DistributedTrainer(tiny_reordered, store, fanouts=(5, 5),
                                batch_size=8, hidden_dim=16, seed=0,
                                engine="pipelined", pipeline_depth=3)
        report = tr.train_epoch(0, dry_run=True)
        windowed = report.events
        assert max(hi - lo for lo, hi in windowed.windows) > 1
        with pytest.raises(ValueError, match="comm windows"):
            simulate_trace(windowed, cm, mode=PipelineMode.OFF)
        with pytest.raises(ValueError, match="in flight"):
            simulate_trace(windowed, cm, depth=1)
        assert simulate_trace(windowed, cm, depth=3).epoch_time > 0


class TestScheduleSemantics:
    def test_fewer_allreduce_barriers_never_slower(self, substrate):
        """Dropping allreduce steps from the trace (async's thinning) can
        only help the makespan."""
        report, cm, _ = substrate
        trace = report.events
        thinned = EventTrace(
            engine="async", num_machines=trace.num_machines,
            num_steps=trace.num_steps, windows=trace.windows,
            allreduce_steps=trace.allreduce_steps[-1:],
            events=[ev for ev in trace.events
                    if ev.stage is not Stage.ALLREDUCE
                    or ev.step == trace.allreduce_steps[-1]],
        )
        t_full = simulate_trace(trace, cm).epoch_time
        t_thin = simulate_trace(thinned, cm).epoch_time
        assert t_thin <= t_full + 1e-12

    def test_deterministic(self, substrate):
        report, cm, _ = substrate
        a = simulate_trace(report.events, cm).epoch_time
        b = simulate_trace(report.events, cm).epoch_time
        assert a == b


class TestPerMachineTraces:
    """machine_of_step switches validation to the serving (per-machine)
    schedule shape: each step owned by one machine, windows single-owner."""

    @staticmethod
    def _serving_trace(owners, windows):
        trace = EventTrace(engine="serving", num_machines=2,
                           num_steps=len(owners), windows=windows,
                           machine_of_step=list(owners))
        per_step = (Stage.SAMPLE, Stage.LOCAL_SLICE, Stage.H2D,
                    Stage.GPU_GATHER, Stage.TRAIN)
        for s, k in enumerate(owners):
            for st in per_step:
                trace.add(st, k, s)
        for lo, _hi in windows:
            k = owners[lo]
            trace.add(Stage.REQUEST_EXCHANGE, k, lo, request_rows=1, serve_rows=1)
            trace.add(Stage.SERVE_SLICE, k, lo, rows=1)
            trace.add(Stage.FEATURE_COMM, k, lo, in_rows=1, out_rows=1)
        return trace

    def test_valid_per_machine_trace(self):
        trace = self._serving_trace([0, 0, 1], [(0, 2), (2, 3)])
        assert trace.validate() is trace

    def test_only_owner_events_required(self):
        """A lock-step validation of the same events would fail (machine 1
        has no step-0 events); the per-machine one must not."""
        trace = self._serving_trace([0, 1], [(0, 1), (1, 2)])
        trace.validate()
        lockstep = EventTrace(engine="serving", num_machines=2, num_steps=2,
                              windows=[(0, 1), (1, 2)], events=trace.events)
        with pytest.raises(ValueError, match="missing"):
            lockstep.validate()

    def test_window_spanning_machines_rejected(self):
        trace = self._serving_trace([0, 1], [(0, 2)])
        with pytest.raises(ValueError, match="one owner"):
            trace.validate()

    def test_owner_list_length_checked(self):
        trace = self._serving_trace([0, 0], [(0, 2)])
        trace.machine_of_step = [0]
        with pytest.raises(ValueError, match="machine_of_step"):
            trace.validate()

    def test_owner_out_of_range_rejected(self):
        trace = self._serving_trace([0, 0], [(0, 2)])
        trace.machine_of_step = [0, 7]
        with pytest.raises(ValueError, match="out of range"):
            trace.validate()

    def test_cache_refresh_stage_priced(self, substrate):
        """The serving-only CACHE_REFRESH stage prices as one background
        fetch round (ids out + payload back), zero when empty."""
        _report, cm, _tr = substrate
        trace = self._serving_trace([0], [(0, 1)])
        trace.add(Stage.CACHE_REFRESH, 0, 0, rows=0)
        assert cm.event_duration(trace.events[-1]) == 0.0
        trace2 = self._serving_trace([1], [(0, 1)])
        trace2.add(Stage.CACHE_REFRESH, 1, 0, rows=100)
        net = cm.cluster.network
        expected = (2 * net.latency + 100 * 8 / net.effective_bandwidth
                    + 100 * cm.bytes_per_row / net.effective_bandwidth)
        assert cm.event_duration(trace2.events[-1]) == pytest.approx(expected)


class TestEventTraceEdgeCases:
    """Degenerate shapes the serving and streaming paths can produce:
    empty epochs, single-step traces, and serving-only traces with
    CACHE_REFRESH events interleaved between windows."""

    def test_empty_trace_validates(self):
        trace = EventTrace(engine="bsp", num_machines=4, num_steps=0,
                           windows=[])
        assert trace.validate() is trace
        assert trace.index() == {}

    def test_empty_per_machine_trace_validates(self):
        trace = EventTrace(engine="serving", num_machines=2, num_steps=0,
                           windows=[], machine_of_step=[])
        assert trace.validate() is trace

    def test_empty_trace_rejects_phantom_window(self):
        trace = EventTrace(engine="bsp", num_machines=1, num_steps=0,
                           windows=[(0, 1)])
        with pytest.raises(ValueError, match="tile"):
            trace.validate()

    def test_single_step_lockstep_trace(self):
        trace = EventTrace(engine="bsp", num_machines=2, num_steps=1,
                           windows=[(0, 1)], allreduce_steps=[0])
        per_step = (Stage.SAMPLE, Stage.LOCAL_SLICE, Stage.H2D,
                    Stage.GPU_GATHER, Stage.TRAIN)
        for k in range(2):
            for st in per_step:
                trace.add(st, k, 0)
            trace.add(Stage.REQUEST_EXCHANGE, k, 0,
                      request_rows=1, serve_rows=1)
            trace.add(Stage.SERVE_SLICE, k, 0, rows=1)
            trace.add(Stage.FEATURE_COMM, k, 0, in_rows=1, out_rows=1)
        with pytest.raises(ValueError, match="missing allreduce"):
            trace.validate()
        trace.add(Stage.ALLREDUCE, -1, 0)
        assert trace.validate() is trace

    def test_single_step_missing_stage_caught(self):
        trace = EventTrace(engine="serving", num_machines=2, num_steps=1,
                           windows=[(0, 1)], machine_of_step=[1])
        for st in (Stage.SAMPLE, Stage.LOCAL_SLICE, Stage.H2D,
                   Stage.GPU_GATHER):
            trace.add(st, 1, 0)
        with pytest.raises(ValueError, match="missing train"):
            trace.validate()

    def test_machine_of_step_with_cache_refresh_interleaved(self):
        """A serving trace where refresh fetches land between windows:
        CACHE_REFRESH is never *required*, but interleaved refresh events
        must not break per-machine validation or the memoized index."""
        owners = [0, 0, 1, 0]
        windows = [(0, 2), (2, 3), (3, 4)]
        trace = TestPerMachineTraces._serving_trace(owners, windows)
        # One refresh after each window, on that window's owning machine.
        for lo, _hi in windows:
            trace.add(Stage.CACHE_REFRESH, owners[lo], lo, rows=17)
        assert trace.validate() is trace
        idx = trace.index()
        assert (Stage.CACHE_REFRESH, 0, 0) in idx
        assert (Stage.CACHE_REFRESH, 1, 2) in idx
        # machine_of_step is still authoritative for ownership queries.
        assert trace.machine_of_step == owners
        # A duplicate refresh for the same (machine, window) is an engine
        # bug the index must catch.
        trace.add(Stage.CACHE_REFRESH, 0, 0, rows=3)
        with pytest.raises(ValueError, match="duplicate"):
            trace.index()
