"""Trace spans: context-manager timing records with parent links.

A span is one timed region of one process ("lane"), with a name, a unique
id, a parent id (0 = root), free-form attributes, and nanosecond wall-clock
timestamps from ``time.perf_counter_ns``.  *Sim-clock* spans — regions
priced on a simulated clock rather than measured: the placements of a
training epoch's or a serving run's timeline (:meth:`Tracer.add_timeline`)
and each request's lifecycle — carry ``sim_start`` / ``sim_end`` seconds
instead of (meaningful) wall timestamps; the exporter places them on
separate ``sim:`` lanes.

Cross-process traces: ``perf_counter_ns`` origins differ between processes,
so each side captures a :func:`clock_anchor` — a ``(perf_ns, wall_ns)``
pair read back-to-back — and :func:`rebase_ns` maps a remote perf timestamp
into the local perf domain through the shared wall clock.  On one host the
wall clocks are literally the same clock, so alignment error is bounded by
the few microseconds between the two anchor reads.

This module is the only place outside the perf harness allowed to call
``time.perf_counter_ns`` (enforced by the ruff ``TID251`` banned-API rule):
all other timing flows through spans.
"""

from __future__ import annotations

import itertools
import os
import secrets
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "SpanRecord",
    "Tracer",
    "NULL_SPAN",
    "clock_anchor",
    "now_ns",
    "rebase_ns",
]

#: This process's span clock, for call sites that time a region themselves
#: and record it with :meth:`Tracer.add_span` — a region the tracer's
#: implicit span stack cannot hold, such as a draw in a forked sampler
#: process (``CLOCK_MONOTONIC`` on Linux: one clock for parent and child).
now_ns = time.perf_counter_ns


def _renumber() -> None:
    """Start this process's span-id source.  Ids are unique per trace: a
    process numbers from its pid times 2**31, so the workers merged into a
    trace never reuse each other's ids, and a forked child renumbers at the
    fork.  Pids are below 2**22, so ids stay below 2**53 for any JSON
    reader.  ``itertools.count`` is atomic under the GIL."""
    global _next_span_id
    _next_span_id = itertools.count((os.getpid() << 31) + 1).__next__


_renumber()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_renumber)


def new_trace_id() -> str:
    """A fresh 64-bit hex trace id."""
    return secrets.token_hex(8)


def clock_anchor() -> tuple:
    """``(perf_counter_ns, time_ns)`` read back-to-back.

    The pair ties this process's monotonic clock to the shared wall clock
    so another process can rebase our timestamps (:func:`rebase_ns`).
    """
    return (time.perf_counter_ns(), time.time_ns())


def rebase_ns(t_ns: int, remote_anchor: tuple, local_anchor: tuple) -> int:
    """Map a remote ``perf_counter_ns`` timestamp into the local domain.

    The remote event's wall time is ``r_wall + (t - r_perf)``; the local
    perf timestamp for that wall instant is ``l_perf + (wall - l_wall)``.
    """
    r_perf, r_wall = remote_anchor
    l_perf, l_wall = local_anchor
    return int(t_ns) - int(r_perf) + int(r_wall) - int(l_wall) + int(l_perf)


_WIRE_SCALARS = (str, int, float, bool, type(None))


def _wire_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """Clamp attribute values to wire-safe scalars (``repr`` anything
    exotic) as they are set, so a finished span is plain data for the wire
    format and every exporter alike."""
    return {k: v if isinstance(v, _WIRE_SCALARS) else repr(v)
            for k, v in attrs.items()}


@dataclass
class SpanRecord:
    """One finished span.  ``end_ns >= start_ns`` always holds for wall
    spans; sim-clock spans leave both at 0 and fill ``sim_start/sim_end``.
    Plain data: it crosses the multiproc pipe through the wire format's
    dataclass codec."""

    name: str
    span_id: int
    parent_id: int
    trace_id: str
    lane: str
    start_ns: int
    end_ns: int
    attrs: Dict[str, Any] = field(default_factory=dict)
    sim_start: Optional[float] = None
    sim_end: Optional[float] = None

    @property
    def duration_s(self) -> float:
        if self.sim_start is not None and self.sim_end is not None:
            return float(self.sim_end - self.sim_start)
        return (self.end_ns - self.start_ns) / 1e9


class _NullSpan:
    """The no-op span handed out while tracing is disabled.

    A single shared instance: entering, exiting, and attribute updates all
    do nothing, so disabled call sites cost one truthiness check plus a
    method call on this object.
    """

    __slots__ = ()
    span_id = 0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self

    def __bool__(self) -> bool:
        return False


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """A recording span; created by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "span_id", "parent_id", "attrs",
                 "start_ns", "end_ns", "_hist")

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any],
                 hist: Optional[str]) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = _next_span_id()
        self.parent_id = 0
        self.attrs = _wire_attrs(attrs)
        self.start_ns = 0
        self.end_ns = 0
        self._hist = hist

    def set(self, **attrs) -> "_LiveSpan":
        """Attach attributes after the span has started."""
        self.attrs.update(_wire_attrs(attrs))
        return self

    def __bool__(self) -> bool:
        return True

    def __enter__(self) -> "_LiveSpan":
        tracer = self._tracer
        self.parent_id = tracer.current_span_id
        tracer._stack.append(self.span_id)
        self.start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self.end_ns = time.perf_counter_ns()
        tracer = self._tracer
        if tracer._stack and tracer._stack[-1] == self.span_id:
            tracer._stack.pop()
        tracer.spans.append(SpanRecord(
            name=self.name, span_id=self.span_id, parent_id=self.parent_id,
            trace_id=tracer.trace_id, lane=tracer.lane,
            start_ns=self.start_ns, end_ns=self.end_ns, attrs=self.attrs,
        ))
        if self._hist is not None and tracer.metrics is not None:
            tracer.metrics.histogram(self._hist).observe(
                (self.end_ns - self.start_ns) / 1e9)
        return False


class Tracer:
    """Collects :class:`SpanRecord`\\ s for one process lane.

    The span *stack* (implicit parents, :meth:`span`) is single-threaded by
    design: every instrumented layer in this repo runs its hot path on one
    thread per process, and the multiproc backend gives each worker process
    its own tracer.  A forked sampler process (``utils/ahead.py``) records
    nothing: it stamps its draws, and the epoch loop records them here
    through :meth:`add_span` with an explicit parent.
    """

    def __init__(self, lane: str = "coordinator",
                 trace_id: Optional[str] = None) -> None:
        self.lane = lane
        self.trace_id = trace_id or new_trace_id()
        self.enabled = False
        self.spans: List[SpanRecord] = []
        self._stack: List[int] = []
        #: Set by :class:`~repro.obs.ObsRuntime` so ``span(..., hist=...)``
        #: can observe durations without a circular import.
        self.metrics = None

    # -- configuration --------------------------------------------------
    def configure(self, lane: Optional[str] = None,
                  trace_id: Optional[str] = None) -> None:
        if lane is not None:
            self.lane = lane
        if trace_id is not None:
            self.trace_id = trace_id

    def reset(self) -> None:
        self.spans = []
        self._stack = []

    # -- recording ------------------------------------------------------
    @property
    def current_span_id(self) -> int:
        """Innermost open span id (0 at the root)."""
        return self._stack[-1] if self._stack else 0

    def span(self, name: str, parent_id: Optional[int] = None,
             hist: Optional[str] = None, **attrs):
        """A context-manager span; the null no-op while disabled.

        ``parent_id`` overrides the implicit parent (the innermost open
        span) — used to hang a worker's epoch span off the coordinator
        span id carried in the ``run`` token.  ``hist`` names a histogram
        to observe the span's duration (seconds) into on exit.
        """
        if not self.enabled:
            return NULL_SPAN
        out = _LiveSpan(self, name, attrs, hist)
        if parent_id is not None:
            # The explicit parent wins over the stack; __enter__ would
            # overwrite it, so wrap the assignment.
            return _ExplicitParent(out, parent_id)
        return out

    def add_span(self, name: str, start_ns: int, end_ns: int,
                 parent_id: int = 0, lane: Optional[str] = None,
                 sim_start: Optional[float] = None,
                 sim_end: Optional[float] = None, **attrs) -> SpanRecord:
        """Record an already-timed span (no context manager)."""
        rec = SpanRecord(
            name=name, span_id=_next_span_id(), parent_id=parent_id,
            trace_id=self.trace_id, lane=lane or self.lane,
            start_ns=int(start_ns), end_ns=int(end_ns),
            attrs=_wire_attrs(attrs), sim_start=sim_start, sim_end=sim_end,
        )
        self.spans.append(rec)
        return rec

    def add_sim_span(self, name: str, sim_start: float, sim_end: float,
                     parent_id: int = 0, lane: Optional[str] = None,
                     **attrs) -> SpanRecord:
        """Record a simulator-priced span (sim-clock seconds)."""
        return self.add_span(name, 0, 0, parent_id=parent_id, lane=lane,
                             sim_start=float(sim_start),
                             sim_end=float(sim_end), **attrs)

    def add_timeline(self, timeline) -> None:
        """Export a :class:`~repro.pipeline.events.Timeline` — the one
        emitter of simulated stage spans, for a training epoch and a serving
        run alike: one sim-clock span per placement, named
        ``stage.<Stage.value>`` on lane ``machine-<k>`` (``cluster`` for the
        all-machine all-reduce), keyed by its ``machine`` / ``step`` attrs
        and parented on the innermost open span."""
        parent = self.current_span_id
        for (stage, machine, step), (start, duration) in timeline.items():
            self.add_sim_span(
                f"stage.{stage.value}", start, start + duration,
                parent_id=parent,
                lane=f"machine-{machine}" if machine >= 0 else "cluster",
                machine=machine, step=step, resource=stage.resource)

    def drain(self) -> List[SpanRecord]:
        """Return recorded spans and clear the buffer."""
        out, self.spans = self.spans, []
        return out

    def merge_remote(self, spans: Iterable[SpanRecord],
                     remote_anchor: tuple, local_anchor: tuple) -> int:
        """Rebase remote wall spans into this tracer's clock and keep them.

        Sim-clock spans pass through untouched (the sim clock is already
        global).  Returns the number of spans merged.
        """
        n = 0
        for rec in spans:
            if rec.sim_start is None:
                rec.start_ns = rebase_ns(rec.start_ns, remote_anchor,
                                         local_anchor)
                rec.end_ns = rebase_ns(rec.end_ns, remote_anchor,
                                       local_anchor)
            rec.trace_id = self.trace_id
            self.spans.append(rec)
            n += 1
        return n


class _ExplicitParent:
    """Wraps a :class:`_LiveSpan` to pin its parent id on entry."""

    __slots__ = ("_span", "_parent_id")

    def __init__(self, span: _LiveSpan, parent_id: int) -> None:
        self._span = span
        self._parent_id = parent_id

    def __enter__(self) -> _LiveSpan:
        span = self._span.__enter__()
        span.parent_id = self._parent_id
        return span

    def __exit__(self, *exc) -> bool:
        return self._span.__exit__(*exc)
