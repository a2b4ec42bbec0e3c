"""Human-readable run summaries from exported telemetry.

Usage::

    PYTHONPATH=src python -m repro.obs.report run_trace.json

Reads a Chrome ``trace_event`` document (as written by
:func:`repro.obs.exporters.save_chrome_trace`).  A run has two clocks — the
wall clock of the Python that executed and the simulator's (``sim:`` lanes)
— and they share no origin or scale, so each gets its own section: the
clock's window, then per lane the span count, the covered time and its
share of *that* window, then the clock's slowest spans.  Last, every metric
with counts, sums and the p50/p95/p99 of each histogram.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Tuple

from repro.obs.metrics import Histogram

__all__ = ["load_events", "union_length", "render_report", "main"]


def load_events(path: str) -> Tuple[List[dict], Dict[str, dict]]:
    """Read a trace file; returns ``(span_rows, metric_snapshots)``.

    Span rows are normalized to
    ``{"name", "lane", "start_us", "dur_us"}``; metric snapshots keep the
    instrument ``to_dict`` shape.
    """
    spans: List[dict] = []
    with open(path) as fh:
        doc = json.load(fh)
    names = {ev["pid"]: ev["args"]["name"] for ev in doc["traceEvents"]
             if ev.get("ph") == "M" and ev.get("name") == "process_name"}
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        spans.append({"name": ev["name"],
                      "lane": names.get(ev["pid"], str(ev["pid"])),
                      "start_us": ev["ts"], "dur_us": ev["dur"]})
    metrics = (doc.get("otherData") or {}).get("metrics") or {}
    return spans, metrics


def union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    end_at = None
    for start, end in sorted(intervals):
        if end_at is None or start > end_at:
            total += end - start
            end_at = end
        elif end > end_at:
            total += end - end_at
            end_at = end
    return total


def _fmt_us(us: float) -> str:
    if us >= 1e6:
        return f"{us / 1e6:.3f} s"
    if us >= 1e3:
        return f"{us / 1e3:.2f} ms"
    return f"{us:.1f} us"


def render_report(spans: List[dict], metrics: Dict[str, dict],
                  top: int = 10) -> str:
    """Format the summary text (pure function; ``main`` prints it)."""
    out: List[str] = []
    simulated = [s for s in spans if s["lane"].startswith("sim:")]
    wall = [s for s in spans if not s["lane"].startswith("sim:")]
    for clock, rows in (("wall", wall), ("simulated", simulated)):
        if not rows:
            continue
        t0 = min(s["start_us"] for s in rows)
        t1 = max(s["start_us"] + s["dur_us"] for s in rows)
        window = max(t1 - t0, 1e-9)
        lanes: Dict[str, List[Tuple[float, float]]] = {}
        for s in rows:
            lanes.setdefault(s["lane"], []).append(
                (s["start_us"], s["start_us"] + s["dur_us"]))
        if out:
            out.append("")
        out.append(f"{clock} window: {_fmt_us(window)}  "
                   f"({len(rows)} spans, {len(lanes)} lanes)")
        out.append("")
        out.append(f"  {'lane':<24} {'spans':>6} {'covered':>12} {'busy':>7}")
        for lane in sorted(lanes, key=lambda name: (name != "coordinator",
                                                    name)):
            ivs = lanes[lane]
            covered = union_length(ivs)
            out.append(f"  {lane:<24} {len(ivs):>6} "
                       f"{_fmt_us(covered):>12} {covered / window:>6.1%}")
        out.append("")
        slowest = sorted(rows, key=lambda s: s["dur_us"], reverse=True)[:top]
        out.append(f"  slowest {len(slowest)} {clock} spans:")
        for s in slowest:
            out.append(f"    {_fmt_us(s['dur_us']):>12}  "
                       f"{s['name']}  [{s['lane']}]")
    if not spans:
        out.append("no spans recorded")

    if metrics:
        out.append("")
        out.append("  metrics:")
        for name in sorted(metrics):
            snap = metrics[name]
            if snap["kind"] == "histogram":
                hist = Histogram(name, lo=snap["lo"], growth=snap["growth"])
                hist.buckets = {int(k): v
                                for k, v in snap["buckets"].items()}
                hist.count = snap["count"]
                hist.sum = snap["sum"]
                if snap.get("min") is not None:
                    hist.min = snap["min"]
                    hist.max = snap["max"]
                if hist.count:
                    out.append(
                        f"    {name}: count={hist.count} mean={hist.mean:.6g}"
                        f" p50={hist.quantile(0.50):.6g}"
                        f" p95={hist.quantile(0.95):.6g}"
                        f" p99={hist.quantile(0.99):.6g}"
                    )
                else:
                    out.append(f"    {name}: count=0")
            else:
                out.append(f"    {name}: {snap['value']}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report", description=__doc__)
    parser.add_argument("path", help="Chrome trace JSON")
    parser.add_argument("--top", type=int, default=10,
                        help="how many slowest spans to list per clock")
    args = parser.parse_args(argv)
    spans, metrics = load_events(args.path)
    print(render_report(spans, metrics, top=args.top))
    return 0


if __name__ == "__main__":
    sys.exit(main())
