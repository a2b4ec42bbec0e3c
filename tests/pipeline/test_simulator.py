"""Pipeline DES tests: scheduling invariants and mode/parameter monotonicity."""

import pytest

from repro.distributed import DistributedTrainer, PartitionedFeatureStore
from repro.distributed.cluster import ClusterSpec, MachineSpec, NetworkSpec
from repro.pipeline import CostModel, ModelDims, PipelineMode, Stage, simulate_trace
from repro.pipeline.events import EventTrace, emit_window_comm_events


@pytest.fixture(scope="module")
def report_and_model(request):
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
    return report, cm, store, tr


class TestInvariants:
    def test_epoch_bounded_by_busy_resources(self, report_and_model):
        report, cm, *_ = report_and_model
        res = simulate_trace(report.events, cm)
        lower = max(float(v.max()) for v in res.resource_busy.values())
        total = sum(float(v.sum()) for v in res.resource_busy.values())
        assert res.epoch_time >= lower - 1e-12
        assert res.epoch_time <= total + 1.0  # loose upper bound

    def test_mode_ordering(self, report_and_model):
        report, cm, *_ = report_and_model
        t_full = simulate_trace(report.events, cm, mode=PipelineMode.FULL).epoch_time
        t_block = simulate_trace(report.events, cm, mode=PipelineMode.BLOCKING_COMM).epoch_time
        t_off = simulate_trace(report.events, cm, mode=PipelineMode.OFF).epoch_time
        assert t_full <= t_block + 1e-12
        assert t_block <= t_off + 1e-12

    def test_monotone_in_bandwidth(self, report_and_model):
        report, cm, store, tr = report_and_model
        def with_bw(gbps):
            cluster = ClusterSpec(4, MachineSpec(), NetworkSpec().with_bandwidth(gbps))
            cm2 = CostModel(cluster, store.bytes_per_row, cm.dims, cm.grad_nbytes)
            return simulate_trace(report.events, cm2).epoch_time
        assert with_bw(4) >= with_bw(8) >= with_bw(25)

    def test_monotone_in_depth(self, report_and_model):
        report, cm, *_ = report_and_model
        t1 = simulate_trace(report.events, cm, depth=1).epoch_time
        t3 = simulate_trace(report.events, cm, depth=3).epoch_time
        t10 = simulate_trace(report.events, cm, depth=10).epoch_time
        assert t1 >= t3 >= t10

    def test_rejects_bad_depth(self, report_and_model):
        report, cm, *_ = report_and_model
        with pytest.raises(ValueError, match="depth"):
            simulate_trace(report.events, cm, depth=0)

    def test_deterministic(self, report_and_model):
        report, cm, *_ = report_and_model
        a = simulate_trace(report.events, cm).epoch_time
        b = simulate_trace(report.events, cm).epoch_time
        assert a == b


class TestBreakdown:
    def test_categories_present_and_positive(self, report_and_model):
        report, cm, *_ = report_and_model
        res = simulate_trace(report.events, cm, mode=PipelineMode.OFF)
        for key in ("train", "train_sync", "startup", "batch_prep_comp",
                    "batch_prep_comm"):
            assert key in res.breakdown
            assert res.breakdown[key] >= 0

    def test_off_mode_breakdown_accounts_for_epoch(self, report_and_model):
        """Without pipelining, category times roughly add to the epoch."""
        report, cm, *_ = report_and_model
        res = simulate_trace(report.events, cm, mode=PipelineMode.OFF)
        parts = (res.breakdown["train"] + res.breakdown["train_sync"]
                 + res.breakdown["batch_prep_comp"] + res.breakdown["batch_prep_comm"])
        assert parts <= res.epoch_time * 1.05
        assert parts >= res.epoch_time * 0.5

    def test_bottleneck_resource_reported(self, report_and_model):
        report, cm, *_ = report_and_model
        res = simulate_trace(report.events, cm)
        assert res.bottleneck_resource() in res.resource_busy


def _comm_durations(cm, request_rows, serve_rows):
    """Priced comm stages of one machine's window with the given rows."""
    trace = EventTrace(engine="bsp", num_machines=4, num_steps=1,
                       windows=[(0, 1)])
    events = emit_window_comm_events(trace, 0, 0, request_rows, serve_rows)
    return {ev.stage: cm.event_duration(ev) for ev in events}


class TestCostModel:
    def test_stage_times_positive(self, report_and_model):
        report, cm, *_ = report_and_model
        idx = report.events.index()
        for stage in (Stage.SAMPLE, Stage.LOCAL_SLICE, Stage.H2D,
                      Stage.GPU_GATHER, Stage.TRAIN):
            assert cm.event_duration(idx[(stage, 0, 0)]) >= 0

    def test_no_comm_when_no_remote(self, report_and_model):
        # Nothing requested and nothing served: comm stages must vanish.
        _, cm, *_ = report_and_model
        priced = _comm_durations(cm, request_rows=0, serve_rows=0)
        assert priced[Stage.REQUEST_EXCHANGE] == 0.0
        assert priced[Stage.FEATURE_COMM] == 0.0

    def test_comm_scales_with_rows(self, report_and_model):
        report, cm, *_ = report_and_model
        request = report.records[0].gather.comm_rows()
        t_small = _comm_durations(cm, request, 10)[Stage.FEATURE_COMM]
        t_large = _comm_durations(cm, request, 10000)[Stage.FEATURE_COMM]
        assert t_large > t_small
