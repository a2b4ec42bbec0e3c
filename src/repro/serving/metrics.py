"""Serving metrics: the per-request latency ledger and run report.

Latency is *simulated*, not measured: every flush window the service
executes is emitted as :class:`~repro.pipeline.events.StageEvent`\\ s and
priced through :meth:`CostModel.event_duration` — the exact pricing path
the training engines' traces flow through (PR 3's unified event path) — so
serving latencies are deterministic, machine-independent, and directly
comparable to simulated training epoch times on the same cluster spec.

The service's latency model is *sequential per machine*: a machine runs one
flush window at a time (sampling → request exchange → peer serve slice →
feature payload → per-batch slice/H2D/gather/forward), and a window starts
at ``max(flush time, machine busy-until)``.  Queueing delay therefore
emerges from the event clock rather than being assumed.
"""

from __future__ import annotations

import functools
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.distributed.feature_store import GatherStats
from repro.distributed.records import StepRecord
from repro.obs import OBS
from repro.obs.metrics import Histogram
from repro.pipeline.events import EventTrace, Timeline

#: Bucket geometry for the serving latency histogram: 1 µs underflow edge,
#: ``2 ** (1/64)`` growth (≈ 1.09 % per bucket).  Percentiles read from the
#: histogram are within one bucket width of the exact order statistics —
#: tight enough that benchmark orderings (e.g. vip-refresh p99 < static
#: p99) survive the bucketing.
LATENCY_HIST_LO = 1e-6
LATENCY_HIST_GROWTH = 2.0 ** (1.0 / 64.0)


@dataclass
class RequestRecord:
    """One request's simulated lifecycle (all times in seconds).

    ``formed`` is when the batcher flushed the request into a micro-batch
    (queueing wait ends — the quantity ``max_wait_ms`` bounds), ``started``
    when its window began executing, ``completed`` when its micro-batch's
    forward pass finished.

    ``status`` is the availability outcome: ``"ok"`` (full-fidelity
    answer), ``"degraded"`` (answered from resident state while a partition
    it needed was down — unavailable rows zero-filled, never silently
    substituted), or ``"shed"`` (refused per its SLO class; no prediction
    exists and ``completed`` is the refusal time).  ``retries`` counts
    requeues the request took before this outcome.  ``step`` is the trace
    step of the micro-batch that answered it (``-1`` when shed): the key of
    its :class:`StepRecord` and of its placements in the run's timeline.
    """

    rid: int
    machine: int
    num_seeds: int
    arrival: float
    formed: float
    started: float
    completed: float
    slo: str = "standard"
    status: str = "ok"
    retries: int = 0
    step: int = -1

    @property
    def queue_wait(self) -> float:
        return self.formed - self.arrival

    @property
    def latency(self) -> float:
        return self.completed - self.arrival


def note_request(record: RequestRecord) -> None:
    """Mirror one request's final record into the metrics registry — the
    request-level twin of
    :func:`~repro.distributed.feature_store.note_gather`.

    Called exactly where a :class:`RequestRecord` is appended (one per
    request: its final outcome and the retries it took), so with
    ``repro.obs`` on ``serving.requests`` / ``serve.degraded_requests`` /
    ``serve.shed_requests`` / ``serve.retries`` equal the report's
    :class:`AvailabilityLedger` (``answered`` / ``degraded`` / ``shed`` /
    ``retries``) instead of being counted beside it, and the exported trace
    holds one admission→reply ``serve.request`` span per request — shed
    ones included — on the simulated clock (queueing is the gap to its
    micro-batch's ``stage.*`` spans, same ``machine`` / ``step``).  A no-op
    unless ``OBS.enabled``.
    """
    if not OBS.enabled:
        return
    OBS.tracer.add_sim_span(
        "serve.request", record.arrival, record.completed,
        lane=f"machine-{record.machine}", rid=record.rid,
        machine=record.machine, step=record.step, status=record.status,
        retries=record.retries, num_seeds=record.num_seeds,
        formed=record.formed, started=record.started,
    )
    m = OBS.metrics
    if record.status == "shed":
        m.counter("serve.shed_requests").inc()
    else:
        m.counter("serving.requests").inc()
        if record.status == "degraded":
            m.counter("serve.degraded_requests").inc()
    if record.retries:
        m.counter("serve.retries").inc(record.retries)


@dataclass
class AvailabilityLedger:
    """What happened to every request while partitions were (un)healthy.

    The availability counterpart of the latency ledger: requests are
    counted exactly once as ``served_ok``, ``degraded``, or ``shed`` (so
    ``answered + shed == total``), and ``retries`` / ``unavailable_rows``
    measure the cost of outages that did not show up as refusals.  A
    fault-free run is all ``served_ok`` with every other counter zero.
    Never incremented: :meth:`from_records` derives it when the report is
    built.
    """

    served_ok: int = 0
    degraded: int = 0
    shed: int = 0
    retries: int = 0
    #: Demand-fetch rows that a down peer never delivered (zero-filled in
    #: the degraded responses; excluded from comm pricing and comm totals).
    unavailable_rows: int = 0

    @property
    def total(self) -> int:
        return self.served_ok + self.degraded + self.shed

    @property
    def answered(self) -> int:
        return self.served_ok + self.degraded

    def availability(self) -> float:
        """Fraction of requests answered (full-fidelity or degraded)."""
        return self.answered / max(self.total, 1)

    def ok_fraction(self) -> float:
        """Fraction of requests answered at full fidelity."""
        return self.served_ok / max(self.total, 1)

    @classmethod
    def from_records(cls, records: Sequence[RequestRecord],
                     unavailable_rows: int = 0) -> "AvailabilityLedger":
        """The ledger a run's request records (one per request: its final
        outcome and the retries it took) and summed gather stats imply."""
        status = Counter(r.status for r in records)
        return cls(served_ok=status["ok"], degraded=status["degraded"],
                   shed=status["shed"],
                   retries=sum(r.retries for r in records),
                   unavailable_rows=unavailable_rows)


@dataclass
class ServingReport:
    """Everything one :meth:`InferenceService.run` produced.

    ``predictions[rid]`` holds one predicted class per requested seed, in
    the request's seed order.  ``trace`` is the validated per-machine
    :class:`EventTrace` (``machine_of_step`` set) the latencies were priced
    from, ``timeline`` where the serving clock placed each of its events,
    and ``steps`` holds one :class:`StepRecord` per served micro-batch,
    keyed ``(machine, trace step)``.  Everything else is
    derived from those when the report is built: ``gather`` is
    :meth:`GatherStats.sum` over ``steps``, ``availability`` the ledger
    ``records`` imply, window / batch counts are the trace's, and the
    latency histogram is filled from ``records`` on first use.
    """

    records: List[RequestRecord]
    predictions: Dict[int, np.ndarray]
    trace: EventTrace
    steps: List[StepRecord]
    makespan: float
    timeline: Timeline = field(default_factory=Timeline)
    gather: GatherStats = field(init=False)
    #: Availability outcomes (ok / degraded / shed / retries); a fault-free
    #: run is all ``served_ok``.
    availability: AvailabilityLedger = field(init=False)

    def __post_init__(self):
        self.gather = GatherStats.sum(s.gather for s in self.steps)
        self.availability = AvailabilityLedger.from_records(
            self.records, self.gather.unavailable_rows)

    @property
    def num_windows(self) -> int:
        return len(self.trace.windows)

    @property
    def num_batches(self) -> int:
        return self.trace.num_steps

    # -- latency --------------------------------------------------------
    def latencies(self) -> np.ndarray:
        """Latencies of *answered* requests (shed requests have no
        completion to measure; they are counted in ``availability``)."""
        return np.array([r.latency for r in self.records
                         if r.status != "shed"])

    @functools.cached_property
    def latency_hist(self) -> Histogram:
        """Streaming log-bucket histogram of the answered requests'
        latencies — what the percentiles read."""
        hist = Histogram("serving.latency_s",
                         help="simulated request latency (seconds)",
                         lo=LATENCY_HIST_LO, growth=LATENCY_HIST_GROWTH)
        for rec in self.records:
            if rec.status != "shed":
                hist.observe(rec.latency)
        return hist

    def latency_percentile(self, p: float) -> float:
        """Latency percentile in seconds (``p`` in [0, 100]).

        Streaming estimate: within one log-bucket width
        (:data:`LATENCY_HIST_GROWTH`) of the exact order statistic.
        """
        hist = self.latency_hist
        if hist.count == 0:
            return 0.0
        return hist.percentile(p)

    @property
    def p50(self) -> float:
        return self.latency_percentile(50.0)

    @property
    def p95(self) -> float:
        return self.latency_percentile(95.0)

    @property
    def p99(self) -> float:
        return self.latency_percentile(99.0)

    def max_queue_wait(self) -> float:
        """Worst formation wait — the deadline batcher's SLO quantity
        (answered requests; a shed request never forms a batch)."""
        waits = [r.queue_wait for r in self.records if r.status != "shed"]
        return float(max(waits)) if waits else 0.0

    # -- rates ----------------------------------------------------------
    @property
    def num_requests(self) -> int:
        return len(self.records)

    def throughput_rps(self) -> float:
        """Completed requests per simulated second."""
        return self.num_requests / max(self.makespan, 1e-12)

    def mean_batch_requests(self) -> float:
        """Average requests per micro-batch (batching effectiveness)."""
        return self.num_requests / max(self.num_batches, 1)

    def summary(self) -> Dict[str, float]:
        """The headline scalars, ready for a results table."""
        return {
            "requests": float(self.num_requests),
            "windows": float(self.num_windows),
            "p50_ms": self.p50 * 1e3,
            "p95_ms": self.p95 * 1e3,
            "p99_ms": self.p99 * 1e3,
            "max_queue_wait_ms": self.max_queue_wait() * 1e3,
            "throughput_rps": self.throughput_rps(),
            "comm_rows": float(self.gather.comm_rows()),
            "cache_hit_rate": self.gather.cache_hit_rate(),
            "degraded": float(self.availability.degraded),
            "shed": float(self.availability.shed),
            "availability": self.availability.availability(),
        }
