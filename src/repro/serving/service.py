"""The online inference service: SLO-aware micro-batching over the store.

:class:`InferenceService` is the serving-side counterpart of
:class:`~repro.distributed.executor.DistributedTrainer` — the consumer the
ROADMAP's "heavy traffic from millions of users" north star has been
missing.  Each of the K machines runs a request queue, a micro-batching
policy (:mod:`repro.serving.batcher`), a forward-only L-hop sampler, and
the shared :class:`~repro.distributed.feature_store.PartitionedFeatureStore`;
a single discrete-event clock drives all of them:

1. requests *arrive* (open-loop Poisson / trace, or closed-loop clients —
   see :mod:`repro.serving.workload`) carrying seeds in the caller's
   **original dataset numbering**; the service translates them once into
   the reordered (partition-contiguous) id space everything below the API
   boundary uses, and routes them to a machine's queue;
2. the machine's batcher *flushes* — on a full batch, at the ``max_wait_ms``
   deadline, or by cache affinity — producing up to ``max_in_flight``
   micro-batches that form one **flush window**;
3. each micro-batch is sampled (one MFG over the union of its requests'
   seeds — shared seeds expand once) and the window is gathered exactly as
   a training comm window is (:func:`~repro.distributed.engine.gather_window`:
   the fetch plans are **coalesced**, so remote ids needed by several
   in-flight micro-batches cross the wire once; dynamic caches adapt to
   the observed traffic), and a forward pass yields one prediction per
   requested seed;
4. the window's :class:`~repro.pipeline.events.StageEvent`\\ s are priced
   by :meth:`CostModel.event_duration` — the same unified event path the
   training engines feed — and placed on the machine's clock in the run's
   :class:`~repro.pipeline.events.Timeline`, giving every request a
   simulated completion time, and thus the p50/p95/p99 ledger in
   :class:`~repro.serving.metrics.ServingReport`.

The per-machine latency model is sequential (a machine serves one window
at a time; windows queue behind ``busy_until``), so queueing delay under
load emerges from the clock instead of being assumed.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.distributed.engine import gather_window
from repro.distributed.records import StepRecord, sage_forward_flops
from repro.graph.csr import sorted_unique
from repro.graph.mutable import land_batch
from repro.obs import OBS
from repro.obs.span import now_ns
from repro.distributed.feature_store import (
    FetchPlan,
    GatherArena,
    PartitionedFeatureStore,
    note_gather,
)
from repro.pipeline.costmodel import CostModel
from repro.pipeline.events import (
    EventTrace,
    Stage,
    Timeline,
    emit_step_events,
    emit_window_comm_events,
)
from repro.sampling.mfg import MFG
from repro.sampling.neighbor import NeighborSampler
from repro.serving.batcher import MicroBatcher, make_batcher
from repro.serving.metrics import (
    RequestRecord,
    ServingReport,
    note_request,
)
from repro.serving.workload import ClosedLoopWorkload, Request
from repro.utils.rng import SeedLike, derive_seed
from repro.vip.incremental import VIPTracker

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids an import cycle
    from repro.core.config import RunConfig, ServingConfig, StreamingConfig
    from repro.core.system import SalientPP
    from repro.graph.mutable import EdgeBatch

#: Event kinds, in tie-break order at equal simulated time.  Health
#: transitions sort first (a machine down at an arrival's instant is down
#: for that arrival's routing); mutations next: a batch timestamped with an
#: arrival's instant is already part of the graph that arrival samples.
#: ``_REQUEUE`` re-enqueues an already-admitted (internal-numbering)
#: request — a retry backoff expiring, or a down machine's queue being
#: evacuated.
_HEALTH, _MUTATE, _ARRIVE, _TIMER, _COMPLETE, _REQUEUE = -2, -1, 0, 1, 2, 3

#: Degraded-mode serving: what to do with a request whose fetch plan
#: touches a down machine, per SLO class — ``"retry"`` (requeue with
#: backoff, :data:`RETRY_BACKOFF_MS` doubling per attempt, until the
#: partition returns or :data:`RETRY_LIMIT` retries are spent, then
#: degrade), ``"degrade"`` (serve immediately from resident state, remote
#: rows zero-filled, the request marked ``degraded``), or ``"shed"``
#: (refuse, no prediction).  Unlisted SLO classes degrade.  Never silently
#: wrong: every choice lands in the availability ledger.
SLO_ACTIONS = {"interactive": "retry", "standard": "degrade", "batch": "shed"}
RETRY_LIMIT = 3
RETRY_BACKOFF_MS = 5.0

#: Default micro-batches of recently served seeds a machine remembers —
#: the request-distribution estimate its vip-refresh provider scores
#: against (shrunk to twice the refresh interval for refreshing caches).
_RECENT_WINDOW = 50


@dataclass(frozen=True)
class Outage:
    """One machine's unavailability interval on the simulated clock.

    While down, the machine serves nothing (its queue is evacuated to live
    machines, routing skips it) and its feature partition is unreachable:
    demand fetches that would hit it are handled per the requesting
    request's SLO class (retry / degrade / shed — see
    :data:`SLO_ACTIONS`).  Rows resident elsewhere — local to
    the serving machine or held in its cache — keep serving at full
    fidelity.  ``end=inf`` models a machine that never comes back.
    """

    machine: int
    start: float
    end: float = math.inf

    def validate(self, num_machines: int) -> "Outage":
        if not 0 <= self.machine < num_machines:
            raise ValueError(
                f"outage names machine {self.machine}, service has "
                f"{num_machines} machines"
            )
        if not 0 <= self.start < math.inf:
            raise ValueError(
                f"outage start must be >= 0 and finite, got {self.start}")
        if not self.end > self.start:
            raise ValueError(
                f"outage end ({self.end}) must be after start ({self.start})"
            )
        return self


def forward_flops(mfg: MFG, in_dim: int, hidden_dim: int, out_dim: int) -> float:
    """Forward-pass GEMM FLOPs of a SAGE stack on this MFG — the inference
    third of :meth:`StepRecord.flops` (no backward), priced with the same
    shared :func:`sage_forward_flops` formula training uses."""
    block_sizes = [(b.num_src, b.num_dst, b.num_edges) for b in mfg.blocks]
    return sage_forward_flops(block_sizes, in_dim, hidden_dim, out_dim)


class InferenceService:
    """SLO-aware online inference over a partitioned feature store.

    Parameters
    ----------
    store / model / cost_model:
        The serving substrate — typically a trained (or freshly built)
        system's store, first model replica, and cost model (see
        :meth:`from_system`).
    serving:
        The :class:`~repro.core.config.ServingConfig` knobs (batcher,
        ``max_batch``, ``max_wait_ms``, ``max_in_flight``).
    fanouts:
        Forward-only sampling fanouts (:meth:`from_system` passes the
        training fanouts).
    seed:
        Sampler randomness; one derived stream per machine, so runs are
        reproducible bit-for-bit.
    """

    def __init__(
        self,
        store: PartitionedFeatureStore,
        model,
        cost_model: CostModel,
        serving: "ServingConfig",
        *,
        fanouts: Sequence[int],
        seed: SeedLike = 0,
        streaming: Optional["StreamingConfig"] = None,
    ):
        from repro.core.config import StreamingConfig

        self.store = store
        self.model = model
        self.cost_model = cost_model
        self.spec = serving.validate()
        self.streaming = streaming or StreamingConfig()
        self.fanouts = tuple(int(f) for f in fanouts)
        self.graph = store.reordered.dataset.graph
        self.num_machines = store.num_machines
        self.samplers = [
            NeighborSampler(self.graph, self.fanouts,
                            seed=derive_seed(seed, "serve-sampler", k))
            for k in range(self.num_machines)
        ]
        self.batchers: List[MicroBatcher] = [
            make_batcher(self.spec.batcher, self.spec, store=store, machine=k)
            for k in range(self.num_machines)
        ]
        dims = cost_model.dims
        self._dims = (dims.in_dim, dims.hidden_dim, dims.out_dim)
        self._rr_next = 0  # round-robin routing cursor
        # Reusable gather outputs, keyed by (machine, micro-batch slot): a
        # window's features are consumed (forward pass, predictions copied)
        # before the machine serves another window.
        self._gather_arena = GatherArena()
        # Sliding window of recently served seed sets per machine — the
        # observed request distribution the vip-refresh score provider
        # re-runs Proposition 1 against (see _request_vip_scores).  The
        # window tracks the refresh cadence: scoring over much more history
        # than two refresh periods would blur a drifting hot set.
        window = _RECENT_WINDOW
        if store.has_dynamic_caches:
            spec0 = next(s.cache.spec for s in store.stores
                         if s.has_dynamic_cache)
            if spec0.refresh_interval > 0:
                window = max(4, 2 * spec0.refresh_interval)
            store.set_refresh_score_provider(self._request_vip_scores)
        self._recent_seeds: List[deque] = [
            deque(maxlen=window) for _ in range(self.num_machines)
        ]
        #: Scores refreshes rank on: Proposition 1 on the graph the samplers
        #: read (the pre-churn one with streaming.refresh_on_mutation off).
        self.tracker = VIPTracker(self.graph, self.fanouts)
        self.mutations_applied = 0

    # ------------------------------------------------------------------
    def _request_vip_scores(self, machine: int) -> np.ndarray:
        """Proposition-1 VIP over the machine's *observed request traffic* —
        the paper's §3 machinery pointed at inference.

        A training-time refresh re-scores against the machine's training
        set; a serving refresh must instead rank by the probability a
        vertex lands in the sampled frontier of an *incoming micro-batch*.
        The initial distribution ``p[0](u)`` is therefore estimated
        empirically — the fraction of the machine's recent micro-batches
        whose seed set contained ``u`` — and fed through the same analytic
        recursion (:func:`vip_probabilities`), so a hot seed appearing in
        every batch (p0 ≈ 1) outranks a cold one-off (p0 = 1/window) and
        the whole sampled closure of the hot set is scored, hops the cache
        never even saw yet included.  Before any traffic is observed the
        scores are zero and the cost-aware swap planner keeps the
        warm-start contents.

        :attr:`tracker` runs the recursion on the graph it follows —
        O(churn + seed drift) once that is a mutating overlay.
        """
        recent = self._recent_seeds[machine]
        if not recent:
            return np.zeros(self.graph.num_vertices)
        counts = np.zeros(self.graph.num_vertices, dtype=np.float64)
        for seeds in recent:  # seeds are unique within a micro-batch
            counts[seeds] += 1.0
        return self.tracker.access({machine: counts / len(recent)})[machine]

    @classmethod
    def from_system(cls, system: "SalientPP") -> "InferenceService":
        """Serve from an existing system's store, model, and cost model.

        With a dynamic ``vip-refresh`` cache, constructing the service
        rewires the store's refresh score provider from training-set VIP
        (which says nothing about a drifting request hot set) to
        request-traffic VIP (:meth:`_request_vip_scores`).
        """
        config = system.config
        return cls(
            system.store,
            system.trainer.models[0],
            system.cost_model,
            config.serving,
            fanouts=config.fanouts,
            seed=derive_seed(config.seed, "serving"),
            streaming=config.streaming,
        )

    @classmethod
    def build(
        cls,
        dataset,
        config: "RunConfig",
        *,
        planner=None,
        partition=None,
        vip_matrix=None,
    ) -> "InferenceService":
        """Build the serving substrate through the preprocessing planner.

        Identical artifact reuse to :meth:`SalientPP.build`: a shared
        planner serves partition / VIP / reorder / cache-selection from its
        cache, and since no preprocessing stage fingerprints the
        ``serving`` config slice, serving sweeps (batchers, windows)
        recompute nothing.
        """
        from repro.core.planner import Planner

        if planner is None:
            planner = Planner()
        return planner.build_service(dataset, config, partition=partition,
                                     vip_matrix=vip_matrix)

    # ------------------------------------------------------------------
    def _admit(self, request: Request) -> Request:
        """Translate an arriving request into the internal id space.

        Callers name vertices in the *original* dataset numbering (the only
        one they know); the store, sampler, and batchers all speak the
        reordered numbering.  The translated copy is what flows through the
        service; the caller's object is kept untouched (and is what
        closed-loop ``on_complete`` receives back), with predictions
        reported in the caller's seed order.
        """
        if request.rid in self._originals:
            raise ValueError(f"duplicate request id {request.rid}")
        seeds = np.asarray(request.seeds, dtype=np.int64)
        n = self.graph.num_vertices
        if len(seeds) and (seeds.min() < 0 or seeds.max() >= n):
            raise ValueError(
                f"request {request.rid} names vertices outside [0, {n})"
            )
        self._originals[request.rid] = request
        return Request(
            rid=request.rid,
            seeds=self.store.reordered.new_of_old[seeds],
            arrival=request.arrival,
            client=request.client,
            slo=request.slo,
        )

    def _route(self) -> int:
        """Pick the serving machine round-robin; down machines are skipped
        while at least one machine is up (with every machine down, the
        next choice stands — the request waits in that queue for an up
        transition or the end-of-run shed)."""
        for _ in range(self.num_machines):
            machine = self._rr_next
            self._rr_next = (self._rr_next + 1) % self.num_machines
            if not self._down[machine]:
                return machine
        return machine  # every machine down

    def _push(self, time: float, kind: int, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time, kind, self._seq, payload))

    # ------------------------------------------------------------------
    def run(
        self,
        workload: Union[Sequence[Request], ClosedLoopWorkload],
        *,
        mutations: Optional[Sequence[Tuple[float, "EdgeBatch"]]] = None,
        outages: Optional[Sequence[Union[Outage, Tuple]]] = None,
    ) -> ServingReport:
        """Serve ``workload`` to completion; returns the priced report.

        ``workload`` is either a request list (open loop — arrivals are
        fixed) or a :class:`ClosedLoopWorkload` (each completion issues the
        client's next request).  Every request is answered: end of stream
        force-drains the queues, so ``fixed-size`` cannot strand a partial
        batch.

        ``mutations`` makes the graph itself part of the workload: each
        ``(time, EdgeBatch)`` lands on the simulated clock between request
        windows (endpoints in the caller's original numbering, like
        request seeds).  The first batch wraps the graph in a delta-CSR
        overlay (:class:`~repro.graph.mutable.MutableGraph`); samplers
        read through it immediately, and vip-refresh scores follow per
        ``streaming.refresh_on_mutation`` (scored on the mutated graph vs the
        frozen stale baseline).  Refresh fetch traffic stays priced
        through the existing ``CACHE_REFRESH`` stage event.

        ``outages`` adds partition loss to the scenario: each
        :class:`Outage` (or ``(machine, start, end)`` tuple) takes one
        machine down for an interval of the simulated clock.  Down
        machines serve nothing (their queues are evacuated, routing skips
        them) and their feature partitions are unreachable; a request
        whose gather would touch a down partition is retried with
        backoff, served degraded from resident state (unavailable rows
        zero-filled), or shed — per its SLO class
        (:data:`SLO_ACTIONS`) — and every outcome is counted
        in the report's :class:`~repro.serving.metrics.
        AvailabilityLedger`.  Requests whose gathers avoid every down
        partition are served at full fidelity throughout.
        """
        closed = hasattr(workload, "on_complete")
        initial = workload.initial() if closed else list(workload)
        spans = [o if isinstance(o, Outage) else Outage(*o)
                 for o in (outages or ())]
        for o in spans:
            o.validate(self.num_machines)

        self._heap: list = []
        self._seq = 0
        self._queues: List[List[Request]] = [[] for _ in range(self.num_machines)]
        self._timer_at: List[Optional[float]] = [None] * self.num_machines
        self._busy = [0.0] * self.num_machines
        self._trace = EventTrace(
            engine="serving", num_machines=self.num_machines, num_steps=0,
            windows=[], machine_of_step=[],
        )
        self._steps: List[StepRecord] = []
        self._timeline = Timeline()
        self._records: List[RequestRecord] = []
        self._predictions = {}
        self._originals = {}
        # Machine-health view: _down[k] while machine k is inside >= 1
        # outage interval (_down_depth handles overlapping outages).
        self._down: List[bool] = [False] * self.num_machines
        self._down_depth: List[int] = [0] * self.num_machines
        self._retries: Dict[int, int] = {}

        for req in initial:
            self._push(req.arrival, _ARRIVE, req)
        for when, batch in (mutations or ()):
            self._push(float(when), _MUTATE, batch)
        for o in spans:
            self._push(o.start, _HEALTH, (o.machine, True))
            if math.isfinite(o.end):
                self._push(o.end, _HEALTH, (o.machine, False))

        now = 0.0
        while self._heap:
            time, kind, _, payload = heapq.heappop(self._heap)
            now = max(now, time)
            if kind == _HEALTH:
                self._on_health(payload, now)
            elif kind == _MUTATE:
                self._apply_mutation(payload)
            elif kind == _ARRIVE:
                machine = self._route()
                self._queues[machine].append(self._admit(payload))
                self._try_flush(machine, now)
            elif kind == _REQUEUE:
                machine = self._route()
                self._queues[machine].append(payload)
                self._try_flush(machine, now)
            elif kind == _TIMER:
                self._timer_at[payload] = None
                self._try_flush(payload, now)
            else:  # _COMPLETE
                machine, group = payload
                if closed:
                    for req in group:
                        nxt = workload.on_complete(
                            self._originals[req.rid], now
                        )
                        if nxt is not None:
                            self._push(nxt.arrival, _ARRIVE, nxt)
            if not self._heap:
                # No arrival can ever trigger another flush: drain what the
                # policies are still holding (fixed-size partial batches).
                for machine in range(self.num_machines):
                    if self._down[machine] and self._queues[machine]:
                        # Only reachable with every machine down (routing
                        # never queues on a down machine otherwise), and
                        # an empty heap means no up-transition is ever
                        # coming: refuse rather than wedge.
                        self._shed(machine, self._queues[machine], now)
                        self._queues[machine] = []
                        continue
                    while self._queues[machine]:
                        groups = self.batchers[machine].flush(
                            self._queues[machine], now, force=True
                        )
                        if not groups:  # defensive: a policy must drain
                            raise RuntimeError(
                                f"batcher {self.spec.batcher!r} refused a "
                                f"forced flush with requests queued"
                            )
                        self._serve_window(machine, groups, now)

        records = sorted(self._records, key=lambda r: r.rid)
        makespan = 0.0
        if records:
            makespan = (max(r.completed for r in records)
                        - min(r.arrival for r in records))
        report = ServingReport(
            records=records,
            predictions=self._predictions,
            trace=self._trace.validate(),
            steps=self._steps,
            makespan=makespan,
            timeline=self._timeline,
        )
        if OBS.enabled:
            OBS.tracer.add_timeline(report.timeline)
            OBS.metrics.counter("serving.windows").inc(report.num_windows)
            OBS.metrics.counter("serving.batches").inc(report.num_batches)
        return report

    # ------------------------------------------------------------------
    def _apply_mutation(self, batch: "EdgeBatch") -> None:
        """Land one edge-churn batch on the serving graph.

        The first batch wraps the (reordered) base CSR in a
        :class:`~repro.graph.mutable.MutableGraph`; every sampler reads
        through it from then on.  Endpoints arrive in the original dataset
        numbering and are translated exactly like request seeds.  Edges
        only: the feature store has no rows for new vertices.
        """
        self.graph = land_batch(self.graph, batch,
                                new_of_old=self.store.reordered.new_of_old)
        for sampler in self.samplers:
            sampler.graph = self.graph
        if self.streaming.refresh_on_mutation:
            self.tracker.graph = self.graph
        self.mutations_applied += 1

    def _on_health(self, payload: Tuple[int, bool], now: float) -> None:
        """Apply one machine up/down transition (depth-counted, so
        overlapping outages compose)."""
        machine, going_down = payload
        if going_down:
            self._down_depth[machine] += 1
            if self._down_depth[machine] == 1:
                self._down[machine] = True
                if OBS.enabled:
                    OBS.metrics.counter("serve.outages").inc()
                # Evacuate: everything queued on the dying machine is
                # re-routed to live machines (original arrivals kept, so
                # the outage's queueing cost stays visible in latency).
                pending, self._queues[machine] = self._queues[machine], []
                for req in pending:
                    self._push(now, _REQUEUE, req)
        else:
            self._down_depth[machine] -= 1
            if self._down_depth[machine] == 0:
                self._down[machine] = False
                self._try_flush(machine, now)

    def _unavailable_mask(self, plan: FetchPlan) -> np.ndarray:
        """Which of ``plan.remote_ids`` are owned by a down machine.

        Only *demand* fetches can be unavailable: local rows and cached
        (resident) rows keep serving through an owner's outage.
        """
        owners = self.store.reordered.owner_of(plan.remote_ids)
        down = np.asarray(self._down, dtype=bool)
        return down[owners]

    def _record(self, record: RequestRecord) -> None:
        """A request's final outcome: into the report's records, and from
        there into the registry (:func:`note_request`)."""
        self._records.append(record)
        note_request(record)

    def _shed(self, machine: int, reqs: List[Request], now: float) -> None:
        """Refuse ``reqs`` per their SLO class: recorded (status
        ``"shed"``), no prediction, completion event at the refusal time
        so closed-loop clients continue."""
        for req in reqs:
            self._record(RequestRecord(
                rid=req.rid, machine=machine, num_seeds=req.num_seeds,
                arrival=req.arrival, formed=now, started=now, completed=now,
                slo=req.slo, status="shed",
                retries=self._retries.get(req.rid, 0),
            ))
        self._push(now, _COMPLETE, (machine, list(reqs)))

    def _apply_slo_actions(self, machine: int, group: List[Request],
                           now: float) -> List[Request]:
        """Split one down-partition-touching micro-batch by SLO class.

        Returns the requests to serve degraded now; ``retry``-class
        requests with budget left are requeued with exponential backoff
        (they re-route on re-delivery, after the partition may have
        returned), exhausted retriers degrade, ``shed``-class requests are
        refused on the spot.
        """
        kept: List[Request] = []
        for req in group:
            action = SLO_ACTIONS.get(req.slo, "degrade")
            if action == "retry":
                attempt = self._retries.get(req.rid, 0)
                if attempt < RETRY_LIMIT:
                    self._retries[req.rid] = attempt + 1
                    delay = RETRY_BACKOFF_MS / 1e3 * (2.0 ** attempt)
                    self._push(now + delay, _REQUEUE, req)
                    continue
                kept.append(req)  # retry budget spent: serve degraded
            elif action == "shed":
                self._shed(machine, [req], now)
            else:
                kept.append(req)
        return kept

    def _try_flush(self, machine: int, now: float) -> None:
        """Flush as long as the batcher is due, then arm its deadline."""
        if self._down[machine]:
            return  # a down machine serves nothing until its up event
        while True:
            groups = self.batchers[machine].flush(self._queues[machine], now)
            if not groups:
                break
            self._serve_window(machine, groups, now)
        deadline = self.batchers[machine].next_deadline(self._queues[machine])
        if deadline is not None:
            deadline = max(deadline, now)
            armed = self._timer_at[machine]
            if armed is None or deadline < armed - 1e-15:
                self._push(deadline, _TIMER, machine)
                self._timer_at[machine] = deadline

    def _serve_window(self, machine: int, groups: List[List[Request]],
                      now: float) -> None:
        """Execute one flush window: sample, coalesce, gather, forward.

        Emits the window's stage events (``TRAIN`` carries forward-only
        FLOPs; the comm events charge the peers' serve slice into this
        window's critical path, since the requester waits for it), places
        them on the machine's clock in the run's timeline, and schedules
        the per-micro-batch completions that clock reads.

        While tracing is on, each served micro-batch's draw is a wall
        ``stage.sample`` span keyed ``(machine, step)`` — the twin of its
        simulated placement.  It runs from the draw's start to the end of
        the group's last draw (a degraded resample included); a group
        dropped whole gets none.
        """
        trace = self._trace
        step0 = trace.num_steps
        sampler = self.samplers[machine]
        degraded_mode = any(self._down)
        traced = OBS.enabled
        flags: Dict[int, str] = {}
        kept_groups: List[List[Request]] = []
        mfgs = []
        plans: List[FetchPlan] = []
        masks: List[Optional[np.ndarray]] = []
        for group in groups:
            seeds = sorted_unique(np.concatenate([r.seeds for r in group]))
            start = now_ns() if traced else 0
            mfg = sampler.sample(seeds)
            end = now_ns() if traced else 0
            plan = self.store.plan_gather(machine, mfg.n_id)
            mask = None
            if degraded_mode:
                mask = self._unavailable_mask(plan)
                if mask.any():
                    # This micro-batch needs a down partition: split it by
                    # SLO class, then resample over what actually serves.
                    kept = self._apply_slo_actions(machine, group, now)
                    if not kept:
                        continue
                    if len(kept) != len(group):
                        seeds = sorted_unique(
                            np.concatenate([r.seeds for r in kept]))
                        mfg = sampler.sample(seeds)
                        end = now_ns() if traced else 0
                        plan = self.store.plan_gather(machine, mfg.n_id)
                        mask = self._unavailable_mask(plan)
                    group = kept
                    if mask.any():
                        for req in group:
                            flags[req.rid] = "degraded"
            # Only a served group's final seed set enters the window: a
            # group shed whole must not push out the oldest served one.
            self._recent_seeds[machine].append(seeds)
            kept_groups.append(group)
            mfgs.append(mfg)
            plans.append(plan)
            masks.append(mask)
            if traced:
                OBS.tracer.add_span("stage.sample", start, end,
                                    parent_id=OBS.tracer.current_span_id,
                                    machine=machine, step=step0 + len(mfgs) - 1)
        if not kept_groups:
            return
        groups = kept_groups
        _fresh, feats, steps = gather_window(
            self.store, self._gather_arena, machine, step0, mfgs, plans,
            self.graph.degrees)
        # One StepRecord per micro-batch.  Its stage events carry what the
        # store moved; then, for a degraded gather, the rows owned by a down
        # machine — which never arrived: the in-process store "fetched"
        # them, but the modeled peer is gone — are zero-filled and leave the
        # record's demand counts, so the record, the comm events below and
        # the registry mirror count only what arrived.
        down = np.asarray(self._down, dtype=bool)
        sampling, compute = [], []  # the window's SAMPLEs; the rest per batch
        for rec, plan, mask, out in zip(steps, plans, masks, feats):
            events = emit_step_events(
                trace, rec, sage_forward_flops(rec.block_sizes, *self._dims))
            sampling += [ev for ev in events if ev.stage is Stage.SAMPLE]
            compute.append([ev for ev in events
                            if ev.stage is not Stage.SAMPLE])
            if mask is not None and mask.any():
                out[plan.remote_pos[mask]] = 0
                rec.gather.mark_unavailable(down, int(mask.sum()))
            note_gather(rec.gather)
        self._steps.extend(steps)
        demand_rows = sum(rec.gather.remote_rows for rec in steps)
        refresh_rows = sum(rec.gather.refresh_fetch_rows for rec in steps)
        mfg_edges = sum(rec.mfg_edges for rec in steps)
        comm = emit_window_comm_events(trace, step0, machine,
                                       demand_rows, demand_rows,
                                       mfg_edges=mfg_edges)
        trace.add(Stage.CACHE_REFRESH, machine, step0, rows=refresh_rows)
        refresh = trace.events[-1]
        trace.windows.append((step0, step0 + len(groups)))
        trace.machine_of_step.extend([machine] * len(groups))
        trace.num_steps += len(groups)

        # The machine's clock walks the window in sequence: every
        # micro-batch sampled, one coalesced exchange, then slice → H2D →
        # gather → forward per micro-batch.  The cache-refresh fetch runs
        # after the responses are out: it holds the machine (delaying the
        # next window) but not these requests.
        price, timeline = self.cost_model.event_duration, self._timeline
        start = max(now, self._busy[machine])
        clock = timeline.place_run(sampling, price, start)
        clock = timeline.place_run(comm, price, clock)
        for i, group in enumerate(groups):
            clock = timeline.place_run(compute[i], price, clock)
            self._finish_batch(machine, step0 + i, mfgs[i], feats[i], group,
                               formed=now, started=start, completed=clock,
                               flags=flags)
        self._busy[machine] = timeline.place(refresh, clock, price(refresh))

    def _finish_batch(self, machine: int, step: int, mfg: MFG,
                      feats: np.ndarray, group: List[Request], *,
                      formed: float, started: float, completed: float,
                      flags: Dict[int, str]) -> None:
        """Forward pass → per-seed predictions, records, completion event."""
        self.model.eval()
        logits = self.model(feats, mfg)
        preds = logits.data.argmax(axis=1)
        for req in group:
            status = flags.get(req.rid, "ok")
            # mfg.seeds is the sorted unique union of the group's seeds.
            pos = np.searchsorted(mfg.seeds, req.seeds)
            self._predictions[req.rid] = preds[pos].copy()
            self._record(RequestRecord(
                rid=req.rid, machine=machine, num_seeds=req.num_seeds,
                arrival=req.arrival, formed=formed, started=started,
                completed=completed, slo=req.slo, status=status,
                retries=self._retries.get(req.rid, 0), step=step,
            ))
        self._push(completed, _COMPLETE, (machine, group))
