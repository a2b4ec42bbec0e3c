"""Execution engines: the one epoch loop, and the report assembled from it.

The paper's §4.3 / Appendix D describe *one* per-machine pipeline — sample,
slice, request exchange, feature all-to-all, H2D, train, all-reduce — and
this module writes it once.  :meth:`ExecutionEngine.run_machines` is the
only epoch loop in the repo: a loop over *comm windows* that, per window,
takes the sampled in-flight batches of every machine in its **machine set**,
gathers them, then trains the window's steps in order.  The registered
engines are parameter choices over that loop, not loops of their own:

``bsp``
    Bulk-synchronous parallel — the paper's semantics: windows of one step,
    a gradient all-reduce closing every step.

``pipelined``
    §4.3 made *functional*: windows of ``depth`` steps per machine, drawn
    together.  Every window's :class:`FetchPlan`\\ s are coalesced
    (:func:`gather_window`) — remote vertex ids needed by several in-flight
    batches are fetched from peers exactly once — so deep pipelines reduce
    real communication, not just hide it; a window of one coalesces to
    itself, which is why depth is the only difference from ``bsp``.
    Training math is step-for-step identical to ``bsp`` (same sample
    streams, same per-step all-reduce), so losses match bit-for-bit while
    comm shrinks.

``async``
    Bounded-staleness data parallelism: windows of one step, each replica
    applies its own gradient immediately, and replicas re-converge by
    parameter averaging every ``staleness + 1`` steps — fewer
    synchronization barriers, and the allreduce events thin out to match.

Sampling runs ahead of training
-------------------------------
§4.3's point is that batch preparation overlaps training.  The part of
preparation that depends on nothing a training step produces — neighbourhood
sampling: per-machine seeded streams over a graph that is read-only within
an epoch — is drawn by one generator (:meth:`ExecutionEngine._sample_windows`,
a ``{machine: [MFG, ...]}`` per comm window).  On a host with a spare core
(:func:`repro.utils.ahead.spare_core`: a core for every compute process and
one for each one's sampler; never for ``dry_run``) the engine runs that
generator in its **sampler process** — one
:class:`~repro.utils.ahead.AheadProcess` per engine, forked at the first
trained epoch and inheriting the trainer's graph and samplers.  Per epoch
the parent sends the epoch, the window tiling, every machine's sampler
cursor (:meth:`~repro.sampling.neighbor.NeighborSampler.rng_state`) and
training ids; the child streams each window back as one wire frame — its
MFGs as one :func:`~repro.sampling.mfg.pack_window` pair of int64 arrays,
which the parent unpacks into views — at most two windows beyond the one
being trained, then its cursors, which the parent restores — so the
parent's samplers stay the authority (checkpoints, restored cursors,
training-set swaps need no restart) and the draws are bit-identical to
sampling inline.  Then the child guesses the next epoch's request (the
same request, epoch + 1, from the cursors it returned:
:meth:`~ExecutionEngine._next_epoch`) and draws up to two of its windows
before it arrives; the next request is served from them only if its
content hash is the guess's, and every epoch's draws start by setting
each cursor and training set that differs, so a wrong guess leaves no
trace.  The child is re-forked only when the graph its samplers read
changes (identity or ``version``); a sampler over a
:class:`~repro.graph.mutable.MutableGraph` samples inline (a drift epoch
samples little, and re-forking a large process at every phase boundary
costs more in copy-on-write faults than it hides), as does a process that
cannot fork (:func:`~repro.utils.ahead.can_fork`).  Any exception out of
:meth:`~ExecutionEngine.run_machines` closes the child: a stream abandoned
half-way cannot be resumed.  Planning, gathering, the collective, the
registry mirror, training and the optimizer stay in the calling process in
one order.  The gather deliberately does not run ahead (docs/architecture.md:
it buys 3 more points on ``train_static`` for +8 % ``peak_rss_mb`` on
``train_drift``).

The machine set and the collective
----------------------------------
The in-process backend runs the loop over all ``K`` machines; a multiproc
worker runs the *same* loop over ``{k}``.  The loop reaches its peers only
through a three-method **collective**:

``fetched(w0, w1, plans, first_request)``
    called once per machine after it gathered window ``[w0, w1)`` (the
    executed plans and their first-request masks);
``post(step)``
    opens a sync step's exchange: the machine set's gradients (or
    parameters, for ``async``) leave for their peers;
``collect(step)``
    closes it: on return every replica in the machine set holds the
    synchronized gradients (or parameters).

Between the two halves of the exchange that closes a comm window the loop
draws the *next* window, so the wait for the peers hides the sampling it
would otherwise be followed by (never past the epoch's last window).  The
draws are the same draws in the same order on the same streams; only when
they happen moves.

:class:`InProcessCollective` is the all-``K`` implementation (a no-op, the
reduce — :func:`all_reduce_gradients` / :func:`average_parameters` — and a
no-op); the worker's (:mod:`repro.distributed.multiproc.worker`) audits its
plans, fires scheduled faults, publishes its gradient slab with a ``step``
token and waits for the coordinator's ``avg``.

The loop produces only machine-local output — each machine's
:class:`StepRecord`\\ s.  Everything cross-machine — ``(step, machine)``
record order, :class:`CommLedger` bytes, who served whom, the
:class:`EventTrace` the simulator prices — is derived afterwards by the pure
:func:`assemble_report`, which both backends call on the K record lists.
Backend parity therefore holds by construction, not by a second copy of the
schedule.  Register new engines with ``@ENGINES.register(name)`` — the name
immediately becomes valid for ``RunConfig.engine``.

Evaluation is the same forward over the same machine set
(:meth:`ExecutionEngine.score_machines`): each machine samples the split ids
it owns from its own ``"inference"`` stream, gathers each batch as a window
of one through :func:`gather_window`, and counts its replica's correct
predictions — in-process over all ``K``, in each multiproc worker over
``{k}``.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.cluster import ring_all_reduce_bytes
from repro.distributed.comm import (
    CommLedger,
    all_reduce_gradients,
    average_parameters,
    bind_replicas,
    gradient_nbytes,
    replica_params,
)
from repro.distributed.feature_store import (
    FetchPlan,
    GatherArena,
    note_gather,
)
from repro.distributed.records import (
    EpochReport,
    StepRecord,
    served_rows_matrix,
)
from repro.graph.mutable import MutableGraph
from repro.nn.functional import cross_entropy
from repro.obs import OBS
from repro.obs.span import now_ns
from repro.pipeline.events import (
    EventTrace,
    Stage,
    emit_step_events,
    emit_window_comm_events,
)
from repro.sampling.mfg import MFG, pack_window, unpack_window
from repro.sampling.neighbor import NeighborSampler
from repro.utils.ahead import AheadProcess, can_fork
from repro.utils.registry import Registry

#: Execution engine registry (``RunConfig.engine``).  Entries are engine
#: classes; construct through :func:`make_engine` so per-engine knobs
#: (pipeline depth, staleness bound) are routed uniformly.
ENGINES = Registry("execution engine")


def make_engine(name: str, trainer, *, pipeline_depth: int = 10,
                staleness: int = 0) -> "ExecutionEngine":
    """Build the named engine for ``trainer``.

    ``pipeline_depth`` configures ``pipelined`` (ignored by others);
    ``staleness`` configures ``async``.  Unknown names raise with the
    sorted list of registered engines.
    """
    cls = ENGINES.get(name)
    return cls._build(trainer, pipeline_depth=pipeline_depth,
                      staleness=staleness)


def train_batch(model, feats: np.ndarray, mfg: MFG,
                labels: np.ndarray) -> float:
    """Forward/backward one minibatch on one replica; returns the loss.

    The single sequence of floating-point operations run per (machine,
    step), whichever cluster backend hosts the machine — its one call site
    is the epoch loop (:meth:`ExecutionEngine.run_machines`).
    """
    model.train()
    logits = model(feats, mfg)
    loss = cross_entropy(logits, labels)
    model.zero_grad()
    loss.backward()
    return loss.item()


def accuracy(scored: Sequence[Tuple[int, int]]) -> float:
    """Σ correct / Σ total over per-machine ``(correct, total)`` counts."""
    return (sum(c for c, _t in scored)
            / max(sum(t for _c, t in scored), 1))


def gather_window(store, arena: GatherArena, machine: int, step0: int,
                  mfgs: Sequence[MFG], plans: Sequence[FetchPlan],
                  degrees: np.ndarray):
    """Gather one machine's comm window — ``plans[i]`` is the fetch plan
    of ``mfgs[i]``, step ``step0 + i`` — the way every caller does: the
    training loop per ``depth`` batches, evaluation per batch, serving per
    flush window.

    Outputs come from ``arena`` (keyed by ``(machine, in-flight slot)``),
    the plans are coalesced into one peer exchange (a window of one
    coalesces to itself) and executed, and each batch becomes a
    :class:`StepRecord`.  Returns ``(first-request masks, features per
    batch, records)``; mirroring the records into the registry
    (:func:`note_gather`) is left to the caller, who knows when they are
    final.
    """
    dtype = store.stores[machine].local_features.dtype
    outs = [arena.out((machine, slot), len(plan.ids), store.feature_dim, dtype)
            for slot, plan in enumerate(plans)]
    cplan = FetchPlan.coalesce(plans)
    results = store.execute_coalesced(cplan, outs=outs)
    records = [
        StepRecord.for_batch(machine, step0 + i, mfg, degrees, stats)
        for i, (mfg, (_feats, stats)) in enumerate(zip(mfgs, results))
    ]
    return cplan.first_request, outs, records


@dataclass(frozen=True)
class Schedule:
    """The shape of one epoch under one engine: ``windows`` tile
    ``range(steps)`` into comm windows (half-open pairs); ``sync_steps``
    are the steps closed by a collective synchronization."""

    engine: str
    steps: int
    windows: Tuple[Tuple[int, int], ...]
    sync_steps: Tuple[int, ...]


class InProcessCollective:
    """The collective over all K replicas inside this interpreter: nothing
    to tell anyone about a gather, and a step's exchange is the reduce of
    the model replicas themselves, done at ``post`` (``reduce`` is
    :func:`all_reduce_gradients`, or :func:`average_parameters` for
    ``async``) over the replica table built here, once — nothing is left
    to wait for at ``collect``.  The update after a gradient reduce is
    the loop's: one optimizer step, bound to every replica."""

    def __init__(self, models, reduce):
        self._models = models
        self._table = replica_params(models)
        self._reduce = reduce

    def fetched(self, w0: int, w1: int, plans, first_request) -> None:
        pass

    def post(self, step: int) -> None:
        self._reduce(self._models, table=self._table)

    def collect(self, step: int) -> None:
        pass


class ExecutionEngine:
    """The epoch loop over a trainer's state, parameterised by the class
    attributes the registered engines set.

    The engine owns *scheduling* only — model math, storage, and the
    collective live in the trainer's components, so all engines train the
    same model on the same sample streams.  ``trainer`` is a
    :class:`~repro.distributed.executor.DistributedTrainer` or anything
    with its machine-indexed surface (``models`` / ``optimizers`` indexable
    by machine, ``batches(machine, epoch)``, ``steps_per_epoch()``,
    ``batch_size``, ``store``, ``ds.labels``, ``ds.graph``) — a multiproc
    worker passes one holding only its own machine.
    """

    name: str = "?"
    #: Batches each machine keeps in flight = steps per comm window.
    depth: int = 1
    #: Apply each replica's own gradient every step; a sync step's exchange
    #: then averages parameters instead of gradients.
    local_apply: bool = False

    def __init__(self, trainer):
        self.trainer = trainer
        # Reusable gather outputs, keyed by (machine, in-flight slot): a
        # batch's features are consumed (trained on) before the same slot
        # gathers again, so the per-step feature-matrix allocation — the
        # hot path's largest — happens only at the high-water mark.
        self._gather_arena = GatherArena()
        # The sampler process (forked at the first trained epoch on a host
        # with a spare core) and the graphs it was forked over, with their
        # versions: a change to either means a re-fork.
        self._ahead: Optional[AheadProcess] = None
        self._ahead_graphs: list = []

    @classmethod
    def _build(cls, trainer, **_knobs) -> "ExecutionEngine":
        return cls(trainer)

    def sync_steps(self, steps: int) -> List[int]:
        """Steps closed by a synchronization (every step unless overridden)."""
        return list(range(steps))

    def schedule(self, steps: int) -> Schedule:
        """This engine's window tiling and sync points for ``steps`` steps."""
        return Schedule(
            engine=self.name, steps=steps,
            windows=tuple((w, min(w + self.depth, steps))
                          for w in range(0, steps, self.depth)),
            sync_steps=tuple(self.sync_steps(steps)),
        )

    def _gather_window(self, k: int, w0: int, mfgs: List[MFG], collective):
        """Plan, gather and report one machine's window; returns
        ``(features per batch, records)``."""
        tr = self.trainer
        plans = [tr.store.plan_gather(k, mfg.n_id) for mfg in mfgs]
        first_request, feats, records = gather_window(
            tr.store, self._gather_arena, k, w0, mfgs, plans,
            tr.ds.graph.degrees)
        collective.fetched(w0, w0 + len(mfgs), plans, first_request)
        for rec in records:
            note_gather(rec.gather)
        return feats, records

    def _sample_windows(self, epoch: int, machines: List[int],
                        windows: Sequence[Tuple[int, int]]):
        """Every machine's in-flight batches, one ``({machine: [MFG, ...]},
        stamps)`` per comm window — the part of an epoch that depends on
        nothing the training step produces, and so the only part that may
        run ahead of it.  Samplers are drawn in machine order within a
        window, exactly as the loop used to draw them, each advancing as
        that many sequential draws would, so every engine sees ``bsp``'s
        batches.  ``stamps`` holds one ``(machine, step, start_ns,
        end_ns)`` per draw on :func:`~repro.obs.span.now_ns`
        (``CLOCK_MONOTONIC``, one clock for a process and its forked
        sampler), from which the loop records the wall ``stage.sample``
        span while tracing is on."""
        streams = {k: self.trainer.batches(k, epoch) for k in machines}
        for w0, w1 in windows:
            drawn, stamps = {}, []
            for k in machines:
                drawn[k], start = [], now_ns()
                for step, mfg in zip(range(w0, w1), streams[k]):
                    end = now_ns()
                    drawn[k].append(mfg)
                    stamps.append((k, step, start, end))
                    start = end
                if len(drawn[k]) != w1 - w0:
                    raise RuntimeError(
                        f"machine {k} batch stream ended early "
                        f"({len(drawn[k])}/{w1 - w0} batches in window {w0})")
            yield drawn, stamps

    def _sampler_process(self, machines: List[int]) -> Optional[AheadProcess]:
        """The sampler process to draw ``machines``' epoch in, forked on
        first use and re-forked when a graph its samplers read was replaced
        or bumped its ``version``; ``None`` where sampling stays inline (a
        :class:`MutableGraph`, or a process that cannot fork)."""
        graphs = [self.trainer.samplers[k].graph for k in machines]
        key = [(g, g.version) for g in graphs]
        if self._ahead is not None and not (
                len(key) == len(self._ahead_graphs) and all(
                    g is h and v == w for (g, v), (h, w)
                    in zip(key, self._ahead_graphs))):
            self.close_sampler()
        if self._ahead is None and can_fork() and not any(
                isinstance(g, MutableGraph) for g in graphs):
            self._ahead = AheadProcess(self._draw_ahead, 2, owner=self,
                                       follow=self._next_epoch)
            self._ahead_graphs = key
        return self._ahead

    def close_sampler(self) -> None:
        """Kill this engine's sampler process, if it has one (the next
        trained epoch on a spare core forks a fresh one)."""
        if self._ahead is not None:
            self._ahead.close()
            self._ahead, self._ahead_graphs = None, []

    def _draw_ahead(self, request):
        """The sampler process's side of an epoch (runs in the child):
        take the parent's cursors and training ids, then stream
        :meth:`_sample_windows`, each window's MFGs, machine by machine, as
        one :func:`~repro.sampling.mfg.pack_window` ``(flat, layout)`` with
        its stamps; returns the cursors the draws left."""
        tr, machines = self.trainer, request["machines"]
        for k, cursor, ids in zip(machines, request["cursors"],
                                  request["local_train"]):
            if tr.samplers[k].rng_state() != cursor:
                tr.samplers[k].set_rng_state(cursor)
            tr.local_train[k] = ids
        for window, stamps in self._sample_windows(
                request["epoch"], machines, request["windows"]):
            yield (*pack_window([mfg for k in machines for mfg in window[k]]),
                   stamps)
        return [tr.samplers[k].rng_state() for k in machines]

    @staticmethod
    def _next_epoch(request, cursors):
        """The sampler process's guess at the request after ``request``:
        the next epoch, from the cursors ``request``'s draws left, with
        nothing else changed — what back-to-back trained epochs send."""
        return {**request, "epoch": request["epoch"] + 1, "cursors": cursors}

    def _sample_ahead(self, proc: AheadProcess, epoch: int,
                      machines: List[int],
                      windows: Sequence[Tuple[int, int]]):
        """:meth:`_sample_windows` drawn by ``proc``: the same windows,
        yielded as ``(window, stamps, waited)`` — ``waited``: none was in
        the pipe when asked.  The child's cursors are restored into this
        process's samplers with the last window."""
        tr = self.trainer
        proc.request({
            "epoch": epoch, "machines": machines, "windows": list(windows),
            "cursors": [tr.samplers[k].rng_state() for k in machines],
            "local_train": [tr.local_train[k] for k in machines],
        })
        for i, (w0, w1) in enumerate(windows):
            (flat, layout, stamps), waited = proc.take()
            mfgs, n = unpack_window(flat, layout), w1 - w0
            window = {k: mfgs[j * n:(j + 1) * n]
                      for j, k in enumerate(machines)}
            if i == len(windows) - 1:
                for k, cursor in zip(machines, proc.result()):
                    tr.samplers[k].set_rng_state(cursor)
            yield window, stamps, waited

    def run_machines(self, epoch: int, machines: Iterable[int], collective,
                     *, dry_run: bool = False) -> List[List[StepRecord]]:
        """Run one epoch for ``machines`` — *the* epoch loop.

        Per comm window: every machine's sampled in-flight batches are
        taken from :meth:`_sample_windows`, gathered (coalesced across the
        window) and reported to ``collective.fetched``; then, unless
        ``dry_run``, the window's steps train in order, each sync step
        closed by ``collective.post``, ``collective.collect`` and the
        update: for ``async`` every machine's optimizer already stepped on
        its own gradient; otherwise the first machine's optimizer steps
        once and every other replica's parameters are rebound to its
        arrays (the reduced gradients are one shared array, so the K
        updates would be the same bits).  When the step that closes a
        window syncs and another window follows, that window is drawn
        between ``post`` and ``collect`` — while the peers' half of the
        exchange is in flight — instead of at the top of its own window.
        On a host with a spare core (``trainer.spare_core``) the sampling
        of a trained epoch runs up to two windows ahead in the engine's
        sampler process (:meth:`_sampler_process`), whose cursors come
        back with the last window.  Any exception out of this method
        closes that process and puts every sampler's cursor back where the
        epoch began, so a window drawn and then dropped by an aborted
        exchange leaves no trace on either side of the spare-core rule.
        Everything else runs in the calling process in this order, so the
        two paths are bit-identical.

        While tracing is on, each draw is a wall ``stage.sample`` span
        (lane ``<lane>/sampler`` when the process drew it) and each
        :func:`train_batch` call a wall ``stage.train`` span, both keyed
        ``(machine, step)``, and each sync step's exchange with the
        update it closes a wall ``stage.allreduce`` span keyed
        ``(-1, step)`` — the measured twins of the simulated placements of
        the same name and key (histogram ``engine.train_batch_s``).
        Obtaining a window is an ``engine.sample_wait`` span: a child of
        the ``engine.window`` it feeds, or of the ``stage.allreduce`` it
        was drawn inside; only the former can count as an
        ``engine.pipeline_stalls``.  Returns each machine's step records,
        in ``machines`` order — machine-local output only;
        :func:`assemble_report` derives the rest.
        """
        machines = list(machines)
        samplers = self.trainer.samplers
        cursors = [samplers[k].rng_state() for k in machines]
        try:
            return self._run_machines(epoch, machines, collective, dry_run)
        except BaseException:
            self.close_sampler()
            for k, cursor in zip(machines, cursors):
                if samplers[k].rng_state() != cursor:
                    samplers[k].set_rng_state(cursor)
            raise

    def _run_machines(self, epoch: int, machines: List[int], collective,
                      dry_run: bool) -> List[List[StepRecord]]:
        tr = self.trainer
        steps = tr.steps_per_epoch()
        sched = self.schedule(steps)
        sync_at = set(sched.sync_steps)
        # Binding the replicas to the lead's stepped arrays is safe because
        # nothing writes a sync replica's weights in place (Adam rebinds).
        replicas = replica_params([tr.models[k] for k in machines])
        proc = (self._sampler_process(machines)
                if tr.spare_core and not dry_run else None)
        records: dict = {k: [] for k in machines}
        with OBS.span("engine.epoch", engine=self.name, epoch=epoch,
                      steps=steps, machines=len(machines),
                      depth=self.depth) as span:
            lane = None if proc is None else f"{OBS.tracer.lane}/sampler"
            # (window, stamps, whether the loop had to wait for it): always,
            # inline.
            sampled = (
                ((window, stamps, True) for window, stamps
                 in self._sample_windows(epoch, machines, sched.windows))
                if proc is None else
                self._sample_ahead(proc, epoch, machines, sched.windows))

            first_wait = None  # window 0's, told whether it was guessed

            def draw(stall: bool):
                """The next window's MFGs per machine; a wait for it counts
                as a stall where ``stall`` (at the top of its window)."""
                nonlocal first_wait
                with OBS.span("engine.sample_wait",
                              hist="engine.sample_wait_s") as wait:
                    drawn, stamps, waited = next(sampled)
                first_wait = first_wait or wait
                if OBS.enabled:
                    # Inline, the draws ran inside the wait; ahead, beside
                    # the epoch, on the sampler's lane.
                    parent = (wait if proc is None else span).span_id
                    for k, step, t0, t1 in stamps:
                        OBS.tracer.add_span(
                            "stage.sample", t0, t1, machine=k, step=step,
                            parent_id=parent, lane=lane)
                    if waited and stall:
                        OBS.metrics.counter("engine.pipeline_stalls").inc()
                return drawn

            with closing(sampled):
                next_window = None  # when drawn inside an exchange
                for w0, w1 in sched.windows:
                    with OBS.span("engine.window", window=w0, steps=w1 - w0,
                                  hist="engine.window_wall_s"):
                        drawn = (draw(True) if next_window is None
                                 else next_window)
                        next_window = None
                        gathered = {}
                        for k in machines:
                            gathered[k] = feats, recs = self._gather_window(
                                k, w0, drawn[k], collective)
                            records[k].extend(recs)
                        if dry_run:
                            continue
                        for i, step in enumerate(range(w0, w1)):
                            for k in machines:
                                mfg, (feats, recs) = drawn[k][i], gathered[k]
                                with OBS.span("stage.train", machine=k,
                                              step=step,
                                              hist="engine.train_batch_s"):
                                    recs[i].loss = train_batch(
                                        tr.models[k], feats[i], mfg,
                                        tr.ds.labels[mfg.seeds])
                                if self.local_apply:
                                    tr.optimizers[k].step()
                            if step in sync_at:
                                with OBS.span("stage.allreduce", machine=-1,
                                              step=step):
                                    collective.post(step)
                                    if step == w1 - 1 and w1 < steps:
                                        next_window = draw(False)
                                    collective.collect(step)
                                    if not self.local_apply:
                                        tr.optimizers[machines[0]].step()
                                        bind_replicas(replicas)
            if OBS.enabled:
                OBS.metrics.counter("engine.steps").inc(steps)
                if proc is not None and first_wait:
                    OBS.metrics.counter(
                        "engine.sample_guess_hits" if proc.guessed
                        else "engine.sample_guess_misses").inc()
                    first_wait.set(guessed=proc.guessed)
        return [records[k] for k in machines]

    def score_machines(self, shards: Mapping[int, Tuple[np.ndarray, int]],
                       fanouts: Sequence[int]) -> List[Tuple[int, int]]:
        """Evaluate ``shards`` — machine ``k`` → (the split ids it owns, the
        seed of its inference stream) — the way the epoch loop trains.

        Forward only: ``batch_size`` ids at a time in id order, sampled
        with ``fanouts``, gathered as a window of one through
        :func:`gather_window` into this engine's arena, and forwarded
        through ``models[k]`` in eval mode.  No record reaches the registry
        (no :func:`note_gather`), so the ``store.*`` counters still describe
        the training epochs.  Returns each machine's ``(correct, total)``,
        in ``shards`` order.
        """
        tr = self.trainer
        scored = []
        for k, (ids, seed) in shards.items():
            sampler = NeighborSampler(tr.ds.graph, fanouts, seed=seed)
            model = tr.models[k].eval()
            correct = 0
            for mfg in sampler.batches(ids, tr.batch_size, shuffle=False):
                _, (feats,), _ = gather_window(
                    tr.store, self._gather_arena, k, 0, [mfg],
                    [tr.store.plan_gather(k, mfg.n_id)], tr.ds.graph.degrees)
                pred = model(feats, mfg).data.argmax(axis=1)
                correct += int((pred == tr.ds.labels[mfg.seeds]).sum())
            scored.append((correct, len(ids)))
        return scored

    def report(self, epoch: int, per_machine: Sequence[List[StepRecord]],
               cache_churn=None) -> EpochReport:
        """:func:`assemble_report` with this engine's schedule and its
        trainer's row size, model widths and gradient size."""
        tr = self.trainer
        return assemble_report(
            self.schedule(tr.steps_per_epoch()), per_machine, epoch=epoch,
            bytes_per_row=tr.store.bytes_per_row,
            dims=(tr.ds.feature_dim, tr.hidden_dim, tr.ds.num_classes),
            grad_nbytes=gradient_nbytes(tr.models[0]),
            cache_churn=cache_churn,
        )

    def run_epoch(self, epoch: int, *, dry_run: bool = False) -> EpochReport:
        """One epoch over all K in-process machines, assembled."""
        tr = self.trainer
        churn_before = tr.store.cache_churn()
        collective = InProcessCollective(
            tr.models,
            average_parameters if self.local_apply else all_reduce_gradients)
        per_machine = self.run_machines(epoch, range(tr.num_machines),
                                        collective, dry_run=dry_run)
        churn = None
        if churn_before is not None:
            churn = [after.delta(before) for after, before
                     in zip(tr.store.cache_churn(), churn_before)]
        return self.report(epoch, per_machine, cache_churn=churn)


def assemble_report(schedule: Schedule,
                    per_machine: Sequence[List[StepRecord]], *, epoch: int,
                    bytes_per_row: int, dims: Tuple[int, int, int],
                    grad_nbytes: int, cache_churn=None) -> EpochReport:
    """Everything cross-machine about one epoch, from the K machines' step
    records alone (``per_machine[k][s]`` is machine ``k``'s record of step
    ``s``).

    Pure: records in ``(step, machine)`` order, the :class:`CommLedger`
    (feature/request bytes per record, one ring all-reduce per sync step of
    a trained epoch), who served whom per window, the per-step and
    per-window stage events plus an ``ALLREDUCE`` per sync step — validated
    — and the mean loss in record order.  The in-process engine calls it
    after its loop and the multiproc coordinator after collecting its
    workers' records, which is what makes their reports identical.
    """
    K = len(per_machine)
    ledger = CommLedger(K)
    trace = EventTrace(
        engine=schedule.engine, num_machines=K, num_steps=schedule.steps,
        windows=list(schedule.windows),
        allreduce_steps=list(schedule.sync_steps),
    )
    sync_at = set(schedule.sync_steps)
    records: List[StepRecord] = []
    for w0, w1 in schedule.windows:
        served = np.zeros(K, dtype=np.int64)
        for step in range(w0, w1):
            row = [per_machine[k][step] for k in range(K)]
            records.extend(row)
            served += served_rows_matrix(row, K)
            for rec in row:
                emit_step_events(trace, rec, rec.flops(*dims))
            if step in sync_at:
                trace.add(Stage.ALLREDUCE, -1, step)
        for k in range(K):
            recs = per_machine[k][w0:w1]
            for rec in recs:
                g = rec.gather
                ledger.record_feature_fetch(k, g.remote_per_peer,
                                            bytes_per_row)
                if g.refresh_fetch_per_peer is not None:
                    ledger.record_feature_fetch(k, g.refresh_fetch_per_peer,
                                                bytes_per_row)
            emit_window_comm_events(
                trace, w0, k,
                int(sum(rec.gather.comm_rows() for rec in recs)),
                int(served[k]),
                mfg_edges=int(sum(rec.mfg_edges for rec in recs)),
            )
    losses = [rec.loss for rec in records if rec.loss is not None]
    if losses and K > 1:
        for _step in schedule.sync_steps:
            ledger.record_all_reduce(ring_all_reduce_bytes(K, grad_nbytes))
    return EpochReport(
        epoch=epoch,
        records=records,
        ledger=ledger,
        mean_loss=float(np.mean(losses)) if losses else None,
        steps_per_machine=schedule.steps,
        events=trace.validate(),
        cache_churn=cache_churn,
    )


@ENGINES.register("bsp")
class BSPEngine(ExecutionEngine):
    """Bulk-synchronous parallel: the seed trainer's loop, byte-for-byte.

    One batch in flight per machine; every step gathers its window of one
    plan (≡ ``execute(plan)``), trains each replica, and closes
    with a gradient all-reduce.  The trace has one comm window and one
    allreduce barrier per step.
    """

    name = "bsp"


@ENGINES.register("pipelined")
class PipelinedEngine(ExecutionEngine):
    """Depth-P in-flight batches per machine with coalesced fetches (§4.3).

    Each comm window prefetches up to ``depth`` batches per machine,
    coalesces their fetch plans (:meth:`FetchPlan.coalesce` deduplicates
    remote vertex ids across the in-flight set), executes one shared peer
    exchange, then trains the window's batches in step order with the same
    per-step all-reduce as ``bsp``.  Feature bytes are identical to
    ``bsp``'s (every row comes from its owner), so losses match
    bit-for-bit; only *where* rows travel changes — duplicated remote rows
    cross the wire once instead of once per batch.
    """

    name = "pipelined"

    def __init__(self, trainer, depth: int = 10):
        super().__init__(trainer)
        if depth < 1:
            raise ValueError(f"pipeline depth must be >= 1, got {depth}")
        self.depth = int(depth)

    @classmethod
    def _build(cls, trainer, *, pipeline_depth: int = 10, **_knobs):
        return cls(trainer, depth=pipeline_depth)


@ENGINES.register("async")
class AsyncEngine(ExecutionEngine):
    """Bounded-staleness execution: local applies, periodic re-convergence.

    Every step each replica applies its *own* gradient immediately (no
    barrier); replicas re-synchronize by parameter averaging every
    ``staleness + 1`` steps and at epoch end, so no replica's weights ever
    lag the slowest peer by more than ``staleness`` local updates.
    ``staleness = 0`` synchronizes every step (BSP cadence with parameter
    instead of gradient averaging).  The allreduce events exist only at
    the sync points — the simulator sees the thinner barrier structure,
    which is the mode's entire performance argument.
    """

    name = "async"
    local_apply = True

    def __init__(self, trainer, staleness: int = 0):
        super().__init__(trainer)
        if staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {staleness}")
        self.staleness = int(staleness)

    @classmethod
    def _build(cls, trainer, *, staleness: int = 0, **_knobs):
        return cls(trainer, staleness=staleness)

    def sync_steps(self, steps: int) -> List[int]:
        period = self.staleness + 1
        out = [s for s in range(steps) if (s + 1) % period == 0]
        if steps and (steps - 1) not in out:
            out.append(steps - 1)  # epoch end always re-converges
        return out
