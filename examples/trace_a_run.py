"""Trace a run: one traced multiproc epoch, exported for Perfetto.

Enables ``repro.obs``, trains one epoch on K=2 real worker processes
(``backend="multiproc"``), and writes the span tree + metrics registry as
Chrome ``trace_event`` JSON — one lane for the coordinator, one per worker,
and the epoch's simulated schedule (``stage.*`` spans) on ``sim:`` lanes.
The document is checked against the exporter's own schema validator; any
problem is printed and the script exits 1 (the CI ``observability-smoke``
job runs it, then renders the file with ``python -m repro.obs.report``).

Run:  python examples/trace_a_run.py
      (writes ``$TRACE_OUT_PREFIX.trace.json``; default ``./trace_a_run``.
      Load it at https://ui.perfetto.dev)
"""

import os
import sys

import repro.obs
from repro.core import RunConfig, SalientPP
from repro.graph.datasets import make_tiny
from repro.obs import OBS
from repro.obs.exporters import save_chrome_trace, validate_chrome_trace


def main() -> int:
    path = os.environ.get("TRACE_OUT_PREFIX", "trace_a_run") + ".trace.json"
    ds = make_tiny(seed=3, num_vertices=2000)
    cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                    hidden_dim=16, replication_factor=0.05, gpu_fraction=0.5,
                    backend="multiproc", seed=0)
    repro.obs.enable()
    try:
        with SalientPP.build(ds, cfg) as system:
            result = system.train_epoch(0)
    finally:
        repro.obs.disable()
    doc = save_chrome_trace(path, OBS.tracer.spans, OBS.metrics)
    lanes = sorted({ev["args"]["name"] for ev in doc["traceEvents"]
                    if ev["ph"] == "M" and ev["name"] == "process_name"})
    print(f"epoch 0: loss {result.loss:.4f}, {len(OBS.tracer.spans)} spans "
          f"on lanes {lanes}")
    print(f"wrote {path}")
    problems = validate_chrome_trace(doc)
    for problem in problems:
        print(f"invalid trace: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
