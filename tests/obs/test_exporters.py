"""Exporter tests: Chrome trace_event structure + schema validator, and the
report CLI (one section per clock)."""

import json

import pytest

from repro.obs import ObsRuntime
from repro.obs.exporters import (
    chrome_trace,
    lane_intervals,
    save_chrome_trace,
    validate_chrome_trace,
)
from repro.obs.report import load_events, main, render_report, union_length


@pytest.fixture
def runtime() -> ObsRuntime:
    rt = ObsRuntime()
    rt.enable(lane="coordinator")
    with rt.tracer.span("outer", epoch=0):
        with rt.tracer.span("inner"):
            pass
    rt.tracer.add_sim_span("stage.train", 0.0, 0.002, lane="machine-0")
    rt.metrics.counter("store.remote_rows", help="rows").inc(12)
    rt.metrics.gauge("mp.workers_alive").set(4)
    h = rt.metrics.histogram("engine.window_wall_s")
    for v in (0.01, 0.02, 0.04):
        h.observe(v)
    return rt


class TestChromeTrace:
    def test_valid_and_lane_structure(self, runtime):
        doc = chrome_trace(runtime.tracer.spans, runtime.metrics)
        assert validate_chrome_trace(doc) == []
        lanes = {ev["args"]["name"] for ev in doc["traceEvents"]
                 if ev.get("ph") == "M" and ev["name"] == "process_name"}
        assert lanes == {"coordinator", "sim:machine-0"}
        assert doc["otherData"]["trace_id"] == runtime.tracer.trace_id
        assert "store.remote_rows" in doc["otherData"]["metrics"]

    def test_parent_links_ride_in_args(self, runtime):
        doc = chrome_trace(runtime.tracer.spans)
        inner = [ev for ev in doc["traceEvents"]
                 if ev.get("ph") == "X" and ev["name"] == "inner"][0]
        outer = [ev for ev in doc["traceEvents"]
                 if ev.get("ph") == "X" and ev["name"] == "outer"][0]
        assert inner["args"]["parent_id"] == outer["args"]["span_id"]

    def test_timestamps_rebased_to_trace_start(self, runtime):
        doc = chrome_trace(runtime.tracer.spans)
        wall_ts = [ev["ts"] for ev in doc["traceEvents"]
                   if ev.get("ph") == "X" and not ev["name"].startswith("stage")]
        assert min(wall_ts) == 0.0

    def test_sim_spans_use_sim_clock(self, runtime):
        doc = chrome_trace(runtime.tracer.spans)
        sim = [ev for ev in doc["traceEvents"]
               if ev.get("ph") == "X" and ev["name"] == "stage.train"][0]
        assert sim["ts"] == pytest.approx(0.0)
        assert sim["dur"] == pytest.approx(2000.0)  # 2 ms in µs

    def test_lane_intervals(self, runtime):
        doc = chrome_trace(runtime.tracer.spans)
        ivs = lane_intervals(doc)
        assert set(ivs) == {"coordinator", "sim:machine-0"}
        assert len(ivs["coordinator"]) == 2

    def test_validator_catches_problems(self):
        assert validate_chrome_trace([]) == ["document is not a JSON object"]
        assert validate_chrome_trace({}) == ["traceEvents missing or not a list"]
        bad = {"traceEvents": [
            {"ph": "X", "name": "s", "pid": 1, "tid": 0, "ts": 0.0,
             "dur": -1.0},
        ]}
        problems = validate_chrome_trace(bad)
        assert any("negative duration" in p for p in problems)
        assert any("process_name" in p for p in problems)

    def test_save_round_trips(self, runtime, tmp_path):
        path = str(tmp_path / "trace.json")
        save_chrome_trace(path, runtime.tracer.spans, runtime.metrics)
        with open(path) as fh:
            doc = json.load(fh)
        assert validate_chrome_trace(doc) == []


class TestReport:
    def test_union_length(self):
        assert union_length([(0, 10), (5, 15), (20, 25)]) == 20
        assert union_length([]) == 0.0

    def test_load_events(self, runtime, tmp_path):
        path = str(tmp_path / "t.json")
        save_chrome_trace(path, runtime.tracer.spans, runtime.metrics)
        spans, metrics = load_events(path)
        assert {s["name"] for s in spans} == {"outer", "inner", "stage.train"}
        assert "engine.window_wall_s" in metrics

    def test_render_report(self, runtime, tmp_path):
        path = str(tmp_path / "t.json")
        save_chrome_trace(path, runtime.tracer.spans, runtime.metrics)
        spans, metrics = load_events(path)
        text = render_report(spans, metrics)
        assert "coordinator" in text
        assert "slowest" in text
        assert "engine.window_wall_s" in text and "p99=" in text

    def test_each_clock_is_scored_against_its_own_window(self):
        """A wall lane busy for its whole 10 ms window reads 100 %, however
        long the simulated window beside it is (it used to read 1 % of a
        1 s simulated run), and neither clock's slowest list ranks the
        other's spans."""
        spans = [
            {"name": "engine.epoch", "lane": "coordinator",
             "start_us": 5e9, "dur_us": 1e4},
            {"name": "stage.train", "lane": "sim:machine-0",
             "start_us": 0.0, "dur_us": 5e5},
            {"name": "stage.sample", "lane": "sim:machine-1",
             "start_us": 5e5, "dur_us": 5e5},
        ]
        wall, sim = render_report(spans, {}).split("simulated window")
        assert wall.startswith("wall window: 10.00 ms  (1 spans, 1 lanes)")
        assert "100.0%" in wall and "stage." not in wall
        assert sim.startswith(": 1.000 s  (2 spans, 2 lanes)")
        assert sim.count("50.0%") == 2 and "engine.epoch" not in sim
        # one clock only: no empty section for the other
        assert "simulated" not in render_report(spans[:1], {})
        assert "wall" not in render_report(spans[1:], {})

    def test_cli_main(self, runtime, tmp_path, capsys):
        path = str(tmp_path / "t.json")
        save_chrome_trace(path, runtime.tracer.spans, runtime.metrics)
        assert main([path, "--top", "3"]) == 0
        out = capsys.readouterr().out
        assert "wall window" in out and "simulated window" in out
        assert "metrics:" in out

    def test_render_report_empty(self):
        assert render_report([], {}) == "no spans recorded"
