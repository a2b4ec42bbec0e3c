"""The exporter: one Chrome ``trace_event`` JSON document per run, carrying
the spans of both clocks and the metrics snapshot.

Chrome traces load directly in Perfetto (https://ui.perfetto.dev) or
``chrome://tracing``.  Every lane (coordinator, each worker process, each
simulated serving machine) becomes its own ``pid`` with a ``process_name``
metadata record, so the UI renders one horizontal track per lane.  Wall
spans are emitted as complete (``"ph": "X"``) events with microsecond
timestamps rebased to the earliest span in the trace; sim-clock spans use
the simulator's global clock directly (seconds → µs) on ``sim:``-prefixed
lanes.

:func:`validate_chrome_trace` is the schema check CI runs against exported
traces: structural requirements of the ``trace_event`` format (required
keys, types, non-negative durations, metadata shape), not Chrome's full
spec.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.span import SpanRecord

__all__ = [
    "chrome_trace",
    "save_chrome_trace",
    "validate_chrome_trace",
    "lane_intervals",
]


def _lane_order(spans: List[SpanRecord]) -> List[str]:
    """Stable lane ordering: coordinator first, then first-seen order."""
    lanes: List[str] = []
    for rec in spans:
        lane = rec.lane if rec.sim_start is None else f"sim:{rec.lane}"
        if lane not in lanes:
            lanes.append(lane)
    lanes.sort(key=lambda lane: (lane != "coordinator",
                                 lane.startswith("sim:"), lane))
    return lanes


def chrome_trace(spans: Iterable[SpanRecord],
                 registry: Optional[MetricsRegistry] = None) -> dict:
    """Build a Chrome ``trace_event`` document from finished spans.

    Metric snapshots (if a registry is given) ride along under
    ``otherData`` so one file carries the whole run.
    """
    spans = list(spans)
    lanes = _lane_order(spans)
    pid_of = {lane: i + 1 for i, lane in enumerate(lanes)}
    wall_starts = [r.start_ns for r in spans if r.sim_start is None]
    t0 = min(wall_starts) if wall_starts else 0

    events: List[dict] = []
    for lane in lanes:
        events.append({
            "ph": "M", "name": "process_name", "pid": pid_of[lane], "tid": 0,
            "args": {"name": lane},
        })
        events.append({
            "ph": "M", "name": "process_sort_index", "pid": pid_of[lane],
            "tid": 0, "args": {"sort_index": pid_of[lane]},
        })
    for rec in spans:
        if rec.sim_start is None:
            lane = rec.lane
            ts_us = (rec.start_ns - t0) / 1e3
            dur_us = (rec.end_ns - rec.start_ns) / 1e3
        else:
            lane = f"sim:{rec.lane}"
            ts_us = rec.sim_start * 1e6
            dur_us = (rec.sim_end - rec.sim_start) * 1e6
        args = dict(rec.attrs)
        args["span_id"] = rec.span_id
        if rec.parent_id:
            args["parent_id"] = rec.parent_id
        events.append({
            "ph": "X", "name": rec.name, "cat": rec.name.split(".", 1)[0],
            "pid": pid_of[lane], "tid": 0,
            "ts": ts_us, "dur": max(dur_us, 0.0), "args": args,
        })

    doc = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"trace_id": spans[0].trace_id if spans else None},
    }
    if registry is not None:
        doc["otherData"]["metrics"] = registry.snapshot()
    return doc


def save_chrome_trace(path: str, spans: Iterable[SpanRecord],
                      registry: Optional[MetricsRegistry] = None) -> dict:
    """Write :func:`chrome_trace` output to ``path``; returns the doc."""
    doc = chrome_trace(spans, registry)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


_REQUIRED_X_KEYS = ("name", "ph", "pid", "tid", "ts", "dur")


def validate_chrome_trace(doc: Any) -> List[str]:
    """Structural ``trace_event`` schema check; returns problems (empty =
    valid)."""
    problems: List[str] = []
    if not isinstance(doc, dict):
        return ["document is not a JSON object"]
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    if not events:
        problems.append("traceEvents is empty")
    named_pids = set()
    for i, ev in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(ev, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = ev.get("ph")
        if ph == "M":
            if ev.get("name") not in ("process_name", "thread_name",
                                      "process_sort_index",
                                      "thread_sort_index"):
                problems.append(f"{where}: unknown metadata {ev.get('name')!r}")
            if not isinstance(ev.get("args"), dict):
                problems.append(f"{where}: metadata event without args")
            elif ev.get("name") == "process_name":
                if not isinstance(ev["args"].get("name"), str):
                    problems.append(f"{where}: process_name without a name")
                named_pids.add(ev.get("pid"))
        elif ph == "X":
            for key in _REQUIRED_X_KEYS:
                if key not in ev:
                    problems.append(f"{where}: missing {key!r}")
            if not isinstance(ev.get("name"), str) or not ev.get("name"):
                problems.append(f"{where}: name must be a non-empty string")
            for key in ("ts", "dur"):
                val = ev.get(key)
                if not isinstance(val, (int, float)) or isinstance(val, bool):
                    problems.append(f"{where}: {key} must be numeric")
                elif key == "dur" and val < 0:
                    problems.append(f"{where}: negative duration")
            for key in ("pid", "tid"):
                if not isinstance(ev.get(key), int):
                    problems.append(f"{where}: {key} must be an int")
        else:
            problems.append(f"{where}: unsupported phase {ph!r}")
    x_pids = {ev.get("pid") for ev in events
              if isinstance(ev, dict) and ev.get("ph") == "X"}
    unnamed = x_pids - named_pids
    if unnamed:
        problems.append(f"pids without process_name metadata: {sorted(unnamed)}")
    return problems


def lane_intervals(doc: dict) -> Dict[str, List[tuple]]:
    """Per-lane ``(ts, ts+dur)`` µs intervals from a Chrome trace doc.

    Used by the smoke/acceptance checks to measure how much of the epoch
    wall each lane's spans cover.
    """
    names = {ev["pid"]: ev["args"]["name"] for ev in doc["traceEvents"]
             if ev.get("ph") == "M" and ev.get("name") == "process_name"}
    out: Dict[str, List[tuple]] = {}
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        lane = names.get(ev["pid"], str(ev["pid"]))
        out.setdefault(lane, []).append((ev["ts"], ev["ts"] + ev["dur"]))
    return out
