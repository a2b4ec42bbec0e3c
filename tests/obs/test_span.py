"""Tracer unit tests: no-op fast path, nesting, explicit parents, the
wire codec, and cross-process clock rebasing."""

import pytest

from repro.distributed.wire import decode_dataclass, pack_obj, unpack_obj
from repro.obs import OBS, ObsRuntime
from repro.obs.span import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    clock_anchor,
    rebase_ns,
)


@pytest.fixture(autouse=True)
def _clean_obs():
    """Every test starts and ends with the global runtime disabled/empty."""
    OBS.disable()
    OBS.reset()
    yield
    OBS.disable()
    OBS.reset()


class TestDisabledFastPath:
    def test_disabled_span_is_the_shared_null(self):
        assert OBS.span("anything", attr=1) is NULL_SPAN
        assert OBS.tracer.span("anything") is NULL_SPAN

    def test_null_span_is_inert(self):
        with NULL_SPAN as sp:
            assert sp is NULL_SPAN
            assert sp.set(x=1) is NULL_SPAN
        assert sp.span_id == 0
        assert not sp

    def test_disabled_records_nothing(self):
        with OBS.span("a"):
            with OBS.span("b"):
                pass
        assert OBS.tracer.spans == []


class TestRecording:
    def test_nesting_sets_parent_links(self):
        OBS.enable(lane="t")
        with OBS.span("outer") as outer:
            with OBS.span("inner") as inner:
                assert inner.parent_id == outer.span_id
        spans = OBS.tracer.drain()
        by_name = {s.name: s for s in spans}
        assert by_name["inner"].parent_id == by_name["outer"].span_id
        assert by_name["outer"].parent_id == 0
        assert by_name["outer"].end_ns >= by_name["outer"].start_ns
        assert by_name["outer"].lane == "t"

    def test_explicit_parent_overrides_stack(self):
        OBS.enable()
        with OBS.span("root") as root:
            with OBS.span("adopted", parent_id=12345) as sp:
                assert sp.parent_id == 12345
                assert sp.parent_id != root.span_id

    def test_attrs_and_set(self):
        OBS.enable()
        with OBS.span("s", a=1) as sp:
            sp.set(b="two")
        rec = OBS.tracer.drain()[0]
        assert rec.attrs == {"a": 1, "b": "two"}

    def test_hist_observes_duration(self):
        OBS.enable()
        with OBS.span("s", hist="test.wall_s"):
            pass
        h = OBS.metrics.get("test.wall_s")
        assert h is not None and h.count == 1
        assert h.sum >= 0.0

    def test_sim_spans_carry_sim_clock(self):
        OBS.enable()
        rec = OBS.tracer.add_sim_span("sim", 1.5, 2.0, lane="sim:m0")
        assert rec.duration_s == pytest.approx(0.5)
        assert rec.start_ns == rec.end_ns == 0

    def test_drain_clears(self):
        OBS.enable()
        with OBS.span("s"):
            pass
        assert len(OBS.tracer.drain()) == 1
        assert OBS.tracer.drain() == []


class TestWireCodec:
    def test_round_trip(self):
        tracer = Tracer(lane="worker-3")
        tracer.enabled = True
        tracer.metrics = None
        with tracer.span("w", step=4, note="x"):
            pass
        tracer.add_sim_span("sim", 0.1, 0.2)
        wired = unpack_obj(pack_obj(tracer.drain()))
        back = [decode_dataclass(SpanRecord, d) for d in wired]
        assert [s.name for s in back] == ["w", "sim"]
        assert back[0].attrs == {"step": 4, "note": "x"}
        assert back[0].lane == "worker-3"
        assert back[1].sim_start == pytest.approx(0.1)

    def test_exotic_attrs_become_repr(self):
        tracer = Tracer()
        tracer.enabled = True
        with tracer.span("w", arr=[1, 2, 3]):
            pass
        wired = unpack_obj(pack_obj(tracer.drain()))
        assert wired[0]["attrs"]["arr"] == "[1, 2, 3]"


class TestClockRebase:
    def test_identity_when_anchors_match(self):
        anchor = (1000, 5000)
        assert rebase_ns(1234, anchor, anchor) == 1234

    def test_rebase_preserves_wall_instant(self):
        # Remote perf clock started 1e9 ns later than ours; same wall clock.
        local = (2_000_000, 9_000_000_000)
        remote = (1_000_000, 9_000_000_000)
        # A remote event at remote perf t maps to local perf t + 1e6.
        assert rebase_ns(5_000_000, remote, local) == 6_000_000

    def test_anchor_shape(self):
        perf, wall = clock_anchor()
        assert isinstance(perf, int) and isinstance(wall, int)
        assert wall > 10 ** 18  # time_ns is past 2001

    def test_merge_remote_rebases_and_retags(self):
        local_rt = ObsRuntime()
        local_rt.enable(lane="coordinator")
        remote = Tracer(lane="worker-0", trace_id="deadbeef")
        remote.enabled = True
        remote.metrics = None
        with remote.span("w"):
            pass
        sim = remote.add_sim_span("sim", 0.0, 1.0)
        remote_anchor = clock_anchor()
        n = local_rt.tracer.merge_remote(remote.drain(), remote_anchor,
                                         clock_anchor())
        assert n == 2
        merged = {s.name: s for s in local_rt.tracer.spans}
        assert merged["w"].trace_id == local_rt.tracer.trace_id
        assert merged["w"].lane == "worker-0"
        # Sim spans pass through untouched.
        assert merged["sim"].sim_end == sim.sim_end
