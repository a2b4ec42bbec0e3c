"""Unified observability: trace spans + metrics over every layer.

One process-global :class:`ObsRuntime` (the module singleton :data:`OBS`)
owns a :class:`~repro.obs.span.Tracer` and a
:class:`~repro.obs.metrics.MetricsRegistry`.  Instrumented call sites across
the stack — planner stages, engine steps, gather plan/execute, dynamic-cache
refreshes, the shm data plane, the multiproc backend, and the serving
request lifecycle — all guard on ``OBS.enabled`` and pay a single attribute
load when observability is off.  Nothing in this package touches the math:
enabling tracing records timestamps and counts, so parity suites stay
bit-identical with observability on.

Spans cross the coordinator/worker process boundary: the coordinator puts
``(trace_id, parent span id)`` in the ``run`` control token, workers enable
a local runtime for the epoch, and their spans ride back in the ``done``
message together with a ``(perf_ns, wall_ns)`` clock anchor that lets the
coordinator rebase worker timestamps into its own clock domain (see
:func:`~repro.obs.span.rebase_ns`).

The exporter lives in :mod:`repro.obs.exporters` (one Chrome ``trace_event``
JSON document for Perfetto: spans of both clocks plus the metrics snapshot)
and ``python -m repro.obs.report`` renders a human-readable run summary.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.span import (
    NULL_SPAN,
    SpanRecord,
    Tracer,
    clock_anchor,
    rebase_ns,
)

__all__ = [
    "OBS",
    "ObsRuntime",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_SPAN",
    "SpanRecord",
    "Tracer",
    "clock_anchor",
    "rebase_ns",
    "enable",
    "disable",
]


class ObsRuntime:
    """Process-global observability switchboard.

    ``enabled`` is the single hot-path guard: instrumented sites read it
    once and skip all telemetry when it is ``False``.  ``enable()`` /
    ``disable()`` mutate this instance in place so references captured at
    import time stay live.
    """

    __slots__ = ("enabled", "tracer", "metrics")

    def __init__(self) -> None:
        self.enabled = False
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()
        self.tracer.metrics = self.metrics

    # -- lifecycle ------------------------------------------------------
    def enable(self, lane: str = "coordinator",
               trace_id: Optional[str] = None) -> "ObsRuntime":
        """Turn telemetry on for this process.

        ``lane`` names this process's timeline in exported traces
        (``"coordinator"``, ``"worker-2"``, ...).  Pass the coordinator's
        ``trace_id`` in worker processes so remote spans join the same
        trace tree.
        """
        self.tracer.configure(lane=lane, trace_id=trace_id)
        self.tracer.enabled = True
        self.enabled = True
        return self

    def disable(self) -> "ObsRuntime":
        """Return to the zero-overhead path; recorded data is kept."""
        self.enabled = False
        self.tracer.enabled = False
        return self

    def reset(self) -> "ObsRuntime":
        """Drop recorded spans and every instrument registration (keeps
        the state of ``enabled``)."""
        self.tracer.reset()
        self.metrics.clear()
        return self

    # -- conveniences ---------------------------------------------------
    def span(self, name: str, **kwargs):
        """Shorthand for ``OBS.tracer.span`` (null no-op when disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return self.tracer.span(name, **kwargs)


#: The process-global runtime every instrumented layer guards on.
OBS = ObsRuntime()


def enable(lane: str = "coordinator",
           trace_id: Optional[str] = None) -> ObsRuntime:
    """Module-level alias for ``OBS.enable``."""
    return OBS.enable(lane=lane, trace_id=trace_id)


def disable() -> ObsRuntime:
    """Module-level alias for ``OBS.disable``."""
    return OBS.disable()
