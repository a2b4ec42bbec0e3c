"""The coordinator: owns the segments and the workers, serves their
collective, and assembles their records.

:class:`MultiprocBackend` holds no schedule either: an epoch is "broadcast
``run``, serve the workers' collective (:meth:`MultiprocBackend._serve_collective`
— expect each step token (window token on a dry run), average the gradient
slabs, release the barrier), collect every worker's records, and hand them
to the engine's :func:`~repro.distributed.engine.assemble_report`" — the
same function the in-process engine calls on the same records.  Evaluation
holds no schedule either: one ``eval`` round, each worker scoring its own
shard, and a sum of the ``scored`` counts.

Everything it says to the workers is a :meth:`~MultiprocBackend._round`
over their :class:`~repro.distributed.multiproc.channel.Channel`\\ s: send
each rank a frame, then read each rank's reply in rank order.
"""

from __future__ import annotations

import dataclasses
import math
import secrets
import time
import weakref
from itertools import repeat
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.cluster import CLUSTER_BACKENDS, ClusterBackend
from repro.distributed.engine import accuracy
from repro.distributed.faults import FaultPlan
from repro.distributed.multiproc.channel import Channel, ChannelError
from repro.distributed.multiproc.pool import (
    WORKER_POOL,
    spawn_worker,
    stop_workers,
)
from repro.distributed.multiproc.segments import (
    DIGEST_HEAD,
    SegmentSpec,
    WorkerSpec,
    _cluster_fingerprint,
    _create_segment,
    _stats_digest,
)
from repro.distributed.records import EpochReport, StepRecord
from repro.distributed.shm_plane import (
    GradientPlane,
    SlabLayout,
    SlabStateError,
)
from repro.distributed.wire import WireError, content_hash, decode_dataclass
from repro.obs import OBS, SpanRecord, clock_anchor
from repro.utils.ahead import spare_core
from repro.utils.rng import derive_seed, machine_stream_seed

#: Engines the multiproc backend can schedule (async applies local updates
#: between barriers, which has no lock-step wire protocol).
SUPPORTED_ENGINES = ("bsp", "pipelined")

_READY_TIMEOUT_S = 120.0
_PARK_TIMEOUT_S = 15.0


class WorkerFailedError(RuntimeError):
    """A worker process died, hung, or violated the wire protocol.

    On a fail-fast backend (the default), raised by the coordinator *after*
    it has shut the whole cluster down (no orphan processes, no leaked
    shared-memory segments remain).  On a ``recoverable=True`` backend the
    cluster is left standing in a faulted state instead — call
    :meth:`MultiprocBackend.recover` to replace the failed ranks, or
    :meth:`~MultiprocBackend.close` to tear down.
    """

    def __init__(self, message: str, machine: Optional[int] = None):
        super().__init__(message)
        self.machine = machine


@CLUSTER_BACKENDS.register("multiproc")
class MultiprocBackend(ClusterBackend):
    """Coordinator for K worker processes over shared-memory segments.

    Built lazily: the first :meth:`run_epoch` creates the segments and
    forks (or takes from :data:`WORKER_POOL`) the workers; they persist
    across epochs (sampler and optimizer state live worker-side, exactly
    as the in-process trainer's persists across epochs).  :meth:`evaluate`
    is one more round: the workers score their own shards.  After a non-dry
    epoch the synchronized model weights are still loaded back into the
    system's in-process replicas, because ``models_in_sync``, serving and
    checkpoints read those.

    Parameters
    ----------
    system:
        A built :class:`~repro.core.system.SalientPP` (``bsp`` or
        ``pipelined`` engine, static caches, partitioned storage).
    timeout_s:
        Per-message coordinator patience before declaring a worker hung;
        a positive, finite number of seconds.
    keep_warm:
        Park the workers into the module-level :data:`WORKER_POOL` on clean
        close instead of stopping them, so the next backend — of any
        configuration — skips the forks.  Off by default — with it
        off, ``close()`` leaves every worker process dead (the teardown
        contract the fault suite asserts).  Mutable attribute; fault-
        injected or mid-epoch clusters are never parked regardless.
    faults:
        A :class:`~repro.distributed.faults.FaultPlan` scheduling kill /
        hang / corrupt / torn faults on specific machines at specific
        ``(epoch, step)`` points; validated against the cluster shape at
        :meth:`start`.
    recoverable:
        With this set, a worker failure *mid-epoch* or mid-checkpoint
        marks the backend faulted instead of tearing the cluster down;
        :meth:`recover` replaces the failed ranks (parked workers first),
        quiesces the survivors and the gradient plane, and restores a
        :meth:`capture_checkpoint` snapshot so the interrupted epoch can be
        replayed bit-identically.  Off by default — fail-stop teardown
        remains the contract for everyone else.

    Wire accounting: :attr:`wire_sent` / :attr:`wire_received` map message
    kind to ``[message_count, total_bytes]`` — the regression test for
    "pipes carry control tokens only" reads these.
    """

    name = "multiproc"

    def __init__(self, system, *, timeout_s: float = 120.0,
                 keep_warm: bool = False,
                 faults: Optional[FaultPlan] = None,
                 recoverable: bool = False):
        super().__init__(system)
        store = system.trainer.store
        engine = system.config.engine
        if engine not in SUPPORTED_ENGINES:
            raise ValueError(
                f"multiproc backend supports engines {SUPPORTED_ENGINES}, "
                f"got {engine!r}"
            )
        if store.has_dynamic_caches:
            raise ValueError(
                "multiproc backend requires static caches: workers attach "
                "feature segments read-only, dynamic caches mutate per gather"
            )
        if store.is_replicated:
            raise ValueError(
                "multiproc backend requires partitioned storage; full "
                "replication would copy the whole feature matrix per segment"
            )
        if not (math.isfinite(timeout_s) and timeout_s > 0):
            raise ValueError(
                f"timeout_s must be a positive, finite number of seconds, "
                f"got {timeout_s!r}")
        self.timeout_s = float(timeout_s)
        self.keep_warm = bool(keep_warm)
        self.fault_plan = FaultPlan(faults or ())
        self.recoverable = bool(recoverable)
        #: Ranks whose workers faulted in the current (unrecovered) episode.
        self._faulted_machines: set = set()
        self._faulted = False
        self._recovered = False
        self._in_recovery = False
        #: True inside an epoch or a checkpoint capture, where a rank's
        #: failure is recoverable.
        self._recoverable_phase = False
        #: Cumulative count of ranks replaced by :meth:`recover`.
        self.restarts_total = 0
        self._started = False
        self._closing = False
        self._idle = True
        #: One channel per rank; a reaped rank's stays, closed, until
        #: :meth:`recover` replaces it in place.
        self._channels: List[Channel] = []
        self._segments: List = []
        self._holders: List = []
        self._grad_plane: Optional[GradientPlane] = None
        #: Content hash of the cluster's configuration (set by start()) —
        #: the key :class:`~repro.distributed.recovery.RecoveryManager`
        #: persists checkpoints under.
        self.fingerprint: Optional[str] = None
        self.segment_names: List[str] = []
        #: Per-machine specs shipped to the workers (set by start()) —
        #: inspectable so tests can assert the derived seed contract.
        self.worker_specs: List[WorkerSpec] = []
        #: True when start() bound parked workers from the warm pool (any
        #: it lacked were forked).
        self.reused_pool = False
        #: kind -> [message_count, total_bytes] for each pipe direction.
        self.wire_sent: Dict[str, List[int]] = {}
        self.wire_received: Dict[str, List[int]] = {}
        self._finalizer = None
        #: Span id of the epoch currently running (0 outside an epoch or
        #: with observability off) — broadcast to workers so their epoch
        #: spans parent onto the coordinator's.
        self._epoch_span_id = 0

    # -- lifecycle -----------------------------------------------------
    @property
    def is_live(self) -> bool:
        return self._started and self._finalizer is not None \
            and self._finalizer.alive

    @property
    def processes(self) -> List:
        """The workers' :class:`~repro.utils.ahead.ForkedChild` handles
        (test hook; empty before start)."""
        return [ch.proc for ch in self._channels]

    def start(self) -> None:
        """Create segments, fork or take workers, bind their specs.  Refused
        (``RuntimeError``) while this process runs a second thread."""
        if self._started:
            return
        tr = self.system.trainer
        K = tr.num_machines
        steps = tr.steps_per_epoch()
        self.fault_plan.validate(num_machines=K, steps_per_epoch=steps)
        prefix = f"rpmp{secrets.token_hex(4)}"

        specs: Dict[str, SegmentSpec] = {}
        try:
            arrays = {f"feat{k}": tr.store.stores[k].local_features
                      for k in range(K)}
            arrays["indptr"] = tr.ds.graph.indptr
            arrays["indices"] = tr.ds.graph.indices
            arrays["labels"] = tr.ds.labels
            for key, arr in arrays.items():
                shm, seg = _create_segment(f"{prefix}{key}", arr)
                self._segments.append(shm)
                self.segment_names.append(seg.name)
                specs[key] = seg

            # The gradient plane: K worker slabs + the averaged slab, laid
            # out from the coordinator replica's parameter order (workers
            # re-derive the same layout and verify by size).
            layout = SlabLayout.from_templates(
                [p.data for _n, p in tr.models[0].named_parameters()])
            plane_shm = shared_memory.SharedMemory(
                create=True, name=f"{prefix}grads",
                size=max(layout.plane_nbytes(K), 1))
            self._segments.append(plane_shm)
            self.segment_names.append(plane_shm.name)
            specs["grads"] = SegmentSpec(
                name=plane_shm.name, shape=(layout.plane_nbytes(K),),
                dtype="|u1")
            self._grad_plane = GradientPlane(plane_shm.buf, K, layout)
            self._grad_plane.reset()
            self._holders.append(self._grad_plane)

            cfg = self.system.config
            spare = spare_core(K)  # one reading of the host for all K
            for k in range(K):
                self.worker_specs.append(WorkerSpec(
                    machine=k,
                    num_machines=K,
                    sampler_seed=machine_stream_seed(tr.seed, "sampler", k),
                    order_seed=machine_stream_seed(tr.seed, "order", k),
                    model_seed=derive_seed(tr.seed, "model"),
                    num_vertices=tr.ds.num_vertices,
                    num_classes=tr.ds.num_classes,
                    feature_dim=tr.ds.feature_dim,
                    fanouts=tr.fanouts,
                    batch_size=tr.batch_size,
                    hidden_dim=tr.hidden_dim,
                    lr=float(cfg.lr),
                    engine=cfg.engine,
                    pipeline_depth=int(cfg.pipeline_depth),
                    steps_per_epoch=steps,
                    gpu_rows=tr.store.stores[k].gpu_rows,
                    part_offsets=np.asarray(tr.reordered.part_offsets,
                                            dtype=np.int64),
                    local_train=tr.local_train[k],
                    cache_ids=np.asarray(tr.store.stores[k].cache_ids,
                                         dtype=np.int64),
                    segments=specs,
                    faults=tuple(self.fault_plan.for_machine(k)),
                    spare_core=spare,
                ))
            self.fingerprint = _cluster_fingerprint(self.worker_specs)

            taken = WORKER_POOL.take(K)
            self.reused_pool = bool(taken)
            if OBS.enabled:
                OBS.metrics.counter(
                    "mp.warm_pool_hits" if self.reused_pool
                    else "mp.warm_pool_misses").inc()
            fresh = list(range(len(taken), K))
            self._channels.extend(taken)
            self._channels.extend(spawn_worker() for _k in fresh)
            for k, ch in enumerate(self._channels):
                self._adopt(k, ch)

            self._started = True
            self._finalizer = weakref.finalize(
                self, MultiprocBackend._cleanup,
                self._channels, self._segments, self._holders,
            )
            self._bind(range(K), fresh=fresh)
        except WorkerFailedError:
            raise
        except Exception:
            self._started = True  # make close() tear down what exists
            self.close()
            raise

    def _adopt(self, k: int, ch: Channel) -> None:
        """Make ``ch`` rank ``k``'s channel, counting into this backend's
        wire tables.  In place: the finalizer holds the same list, so the
        exit-time cleanup covers a replacement like any other rank."""
        ch.attach(k, self.wire_sent, self.wire_received)
        self._channels[k] = ch

    def _bind(self, ranks: Iterable[int], fresh: Iterable[int],
              clear_faults: bool = False) -> None:
        """The bind handshake, shared by :meth:`start` and :meth:`recover`:
        freshly forked ranks first announce ``ready``; every rank in
        ``ranks`` is sent its :class:`WorkerSpec` and must answer ``bound``
        with its own machine id.  ``clear_faults`` binds an empty fault
        schedule (a replayed fault would re-fire identically and recovery
        would never converge)."""
        deadline = time.monotonic() + _READY_TIMEOUT_S
        self._round(fresh, None, (), "ready", deadline=deadline)
        ranks = list(ranks)
        specs = (dataclasses.replace(self.worker_specs[k], faults=())
                 if clear_faults else self.worker_specs[k] for k in ranks)
        self._round(ranks, "bind", specs, "bound", deadline=deadline)

    def close(self) -> None:
        """Stop (or park, with :attr:`keep_warm`) the workers and release
        every runtime resource; idempotent."""
        if not self._closing:
            self._closing = True
            # Parkable: clean, idle, and either never fault-scheduled or
            # fully recovered.  A faulted-unrecovered cluster (or one whose
            # plan never fired) is torn down — the fault suite's teardown
            # contract — while a recovered-then-clean cluster is as generic
            # as any (parked workers hold no spec, let alone a fault).
            if (self.keep_warm and not self._faulted
                    and (self._recovered or not self.fault_plan)
                    and self._idle and self.is_live):
                try:
                    self._park_to_pool()
                except WorkerFailedError:
                    pass  # _fail already tore the cluster down
        if self._finalizer is not None:
            self._finalizer()  # runs _cleanup at most once
        elif self._segments:
            # start() failed before the finalizer existed.
            MultiprocBackend._cleanup(self._channels, self._segments,
                                      self._holders)

    def _park_to_pool(self) -> None:
        """Hand the quiescent workers to :data:`WORKER_POOL`.

        On success the channel list is emptied in place, so the
        finalizer's teardown skips the workers and only unlinks segments.
        A protocol hiccup fails the round, which tears the cluster down.
        """
        self._round(range(len(self._channels)), "park", repeat(None),
                    "parked", deadline=time.monotonic() + _PARK_TIMEOUT_S)
        WORKER_POOL.park(self._channels)
        self._channels.clear()

    @staticmethod
    def _cleanup(channels, segments, holders) -> None:
        """Full teardown: stop the workers (:func:`stop_workers`), drop
        shared-memory views, unlink segments.  Static + in-place so the
        ``weakref`` finalizer can run it without resurrecting the
        backend."""
        stop_workers(channels)
        for holder in holders:
            try:
                holder.release()
            except Exception:
                pass
        holders.clear()
        for shm in segments:
            for release in (shm.close, shm.unlink):
                try:
                    release()
                except Exception:
                    pass
        segments.clear()

    @property
    def closed(self) -> bool:
        return self._started and not self.is_live

    # -- the protocol --------------------------------------------------
    def _fail(self, machine: Optional[int], why: str) -> None:
        message = f"worker {machine}: {why}" if machine is not None else why
        if (self.recoverable and machine is not None and self._recoverable_phase
                and not self._in_recovery and not self._closing):
            # Recoverable mode: mark the rank faulted and surface the error
            # without teardown — the cluster stays up (segments, survivors,
            # pipes) so recover() can replace just this rank and replay.
            self._faulted = True
            self._faulted_machines.add(machine)
            if OBS.enabled:
                OBS.metrics.counter("mp.faults_detected").inc()
            raise WorkerFailedError(message, machine=machine)
        self._closing = True  # a failed cluster is never parked
        self.close()
        raise WorkerFailedError(message, machine=machine)

    def _round(self, ranks: Iterable[int], kind: Optional[str], payloads,
               want: Optional[str], *, match: Optional[dict] = None,
               deadline: Optional[float] = None,
               discard: bool = False) -> List[dict]:
        """One exchange with ``ranks``: send each its ``kind`` frame (the
        matching item of ``payloads``; nothing when ``kind`` is None), then
        read each one's ``want`` reply in rank order (nothing when ``want``
        is None).  A reply is a dict carrying every ``match`` field, and one
        naming a machine names its own rank.  ``discard`` skips frames of
        other kinds first (the quiesce: an aborted epoch's in-flight
        tokens).  ``deadline`` defaults to ``timeout_s`` per message.

        Every receive also watches each rank not yet reaped (a reaped
        rank's channel is closed), so a death anywhere fails the round at
        once, attributed to the rank that died."""
        ranks, replies = list(ranks), []
        try:
            if kind is not None:
                for k, payload in zip(ranks, payloads):
                    self._channels[k].send(kind, payload)
            for k in (ranks if want is not None else ()):
                live = [ch for ch in self._channels if not ch.closed]
                while True:
                    got, payload = self._channels[k].recv(
                        deadline or time.monotonic() + self.timeout_s, live)
                    if got == want or not discard:
                        break
                if (got != want or not isinstance(payload, dict)
                        or payload.get("machine", k) != k
                        or any(payload.get(f) != v
                               for f, v in (match or {}).items())):
                    self._fail(k, f"expected {want!r} {match or ''}, got "
                                  f"{got!r} {payload!r:.200}")
                replies.append(payload)
        except ChannelError as exc:
            self._fail(exc.machine, exc.why)
        return replies

    # -- audits --------------------------------------------------------
    def _audit_digests(self, k: int, digests, records: List[StepRecord]) -> None:
        """Cross-check a worker's plan digests against its reported stats.

        The digests were computed worker-side from the fetch plans
        themselves (ownership recomputed from the reorder offsets), so a
        worker whose stats disagree with what its plans imply fails here —
        the batched replacement for auditing full wire-encoded plans."""
        K = self.system.trainer.num_machines
        digests = np.asarray(digests)
        if digests.shape != (len(records), DIGEST_HEAD + K) \
                or digests.dtype != np.int64:
            self._fail(k, f"plan digest matrix has shape {digests.shape} "
                          f"({digests.dtype}), expected "
                          f"({len(records)}, {DIGEST_HEAD + K}) int64")
        for s, rec in enumerate(records):
            if rec.machine != k or rec.step != s:
                self._fail(k, f"record {s} reports machine {rec.machine} "
                              f"step {rec.step}")
            if not np.array_equal(digests[s], _stats_digest(rec.gather)):
                self._fail(k, f"step {s}: fetch-plan digest disagrees with "
                              f"reported gather stats")

    # -- recovery ------------------------------------------------------
    def _cache_fingerprint(self) -> str:
        """Hash of every machine's static cache selection — recorded in
        checkpoints so a snapshot can never be restored into a cluster
        whose resident cache contents differ."""
        return content_hash([np.asarray(spec.cache_ids, dtype=np.int64)
                             for spec in self.worker_specs])

    def capture_checkpoint(self, epoch: int) -> dict:
        """Snapshot the cluster's training state at an epoch boundary.

        Asks every worker for its model weights, Adam moments, and sampler
        RNG cursor.  Weights and moments are identical across replicas
        after the allreduce, so one copy is kept; sampler cursors are per
        machine.  The result is plain data — wire-encodable, and
        persistable through the ArtifactCache's ``checkpoint`` codec
        (:mod:`repro.distributed.recovery`).  On a recoverable backend a
        worker lost mid-capture faults its rank, as it would mid-epoch.
        """
        if not self.is_live:
            raise RuntimeError("cannot checkpoint a closed backend")
        if self._faulted:
            raise RuntimeError("cannot checkpoint a faulted backend — "
                               "recover() first")
        self._recoverable_phase = True
        try:
            with OBS.span("mp.checkpoint", epoch=epoch):
                states = self._round(range(len(self._channels)), "ckpt",
                                     repeat(None), "state")
        finally:
            self._recoverable_phase = False
        return {
            "epoch": int(epoch),
            "model": states[0]["model"],
            "adam": states[0]["adam"],
            "samplers": [s["sampler"] for s in states],
            "cache_fp": self._cache_fingerprint(),
        }

    def _restore_all(self, checkpoint: Optional[dict]) -> None:
        """Send every rank its slice of ``checkpoint`` (``None`` rewinds to
        epoch-0 initial state) and wait for the ``restored`` acks."""
        K = len(self._channels)
        payloads = repeat(None) if checkpoint is None else (
            {"model": checkpoint["model"], "adam": checkpoint["adam"],
             "sampler": checkpoint["samplers"][k]} for k in range(K))
        self._round(range(K), "restore", payloads, "restored")

    def recover(self, checkpoint: Optional[dict] = None) -> int:
        """Replace the failed ranks and rewind the cluster to ``checkpoint``.

        The recovery sequence: (1) reap every faulted rank's process (it
        may be alive — hung, or having corrupted its wire stream — so the
        kill is unconditional); (2) quiesce the survivors with an ``abort``
        and drain their stale in-flight traffic; (3) reset the gradient
        plane's seqlock slabs; (4) bind a replacement for each failed rank
        — a parked worker from :data:`WORKER_POOL` while any is left, a
        fresh fork otherwise — with the fault schedule cleared (a replayed
        fault would re-fire identically and recovery would never
        converge); (5) restore every rank from ``checkpoint`` (``None``
        rewinds to epoch-0 initial state).

        Returns the number of ranks replaced (0 if the backend never
        faulted).  Any failure *during* recovery — a replacement dying
        included — escalates to full teardown and raises; recovery is
        attempted at most once per call.
        """
        if not self._started or not self.is_live:
            raise RuntimeError("cannot recover a closed backend")
        if checkpoint is not None \
                and checkpoint.get("cache_fp") is not None \
                and checkpoint["cache_fp"] != self._cache_fingerprint():
            self._closing = True
            self.close()
            raise WorkerFailedError(
                "checkpoint cache fingerprint does not match this "
                "cluster's cache selection")
        if not self._faulted:
            # Warm start: a healthy cluster adopting a persisted checkpoint
            # (load_persisted) — nothing to respawn, but every rank still
            # rewinds to the snapshot.
            if checkpoint is not None:
                self._restore_all(checkpoint)
            return 0
        self._in_recovery = True
        try:
            K = len(self._channels)
            with OBS.span("mp.recovery", machines=K,
                          hist="mp.recovery_wall_s"):
                # Every rank marked faulted, plus any other process found
                # dead (a second failure noticed late), gets replaced.
                failed = sorted(self._faulted_machines | {
                    j for j, ch in enumerate(self._channels)
                    if not ch.proc.is_alive()})
                stop_workers([self._channels[j] for j in failed],
                             polite=False)
                self._round([k for k in range(K) if k not in failed],
                            "abort", repeat(None), "aborted", discard=True,
                            deadline=time.monotonic() + self.timeout_s)
                self._grad_plane.reset()

                spares = WORKER_POOL.take(len(failed))
                fresh = failed[len(spares):]
                for j, ch in zip(failed, spares):
                    self._adopt(j, ch)
                for j in fresh:
                    self._adopt(j, spawn_worker())
                self._bind(failed, fresh=fresh, clear_faults=True)
                self._restore_all(checkpoint)

                self.restarts_total += len(failed)
                if OBS.enabled:
                    OBS.metrics.counter("mp.restarts_total").inc(len(failed))
                    if spares:
                        OBS.metrics.counter("mp.warm_respawns").inc(
                            len(spares))
                self._faulted = False
                self._faulted_machines.clear()
                self._recovered = True
                return len(failed)
        except WorkerFailedError:
            raise  # _fail is fatal during recovery — cluster already down
        except Exception:
            self._closing = True
            self.close()
            raise
        finally:
            self._in_recovery = False

    # -- epochs --------------------------------------------------------
    def _start_usable(self) -> None:
        """:meth:`start`, unless the backend is closed or faulted."""
        if self._started and not self.is_live:
            raise RuntimeError("multiproc backend is closed")
        if self._faulted:
            raise RuntimeError(
                "multiproc backend is faulted — call recover() to replace "
                "the failed ranks before running another epoch")
        self.start()

    def run_epoch(self, epoch: int, *, dry_run: bool = False) -> EpochReport:
        self._start_usable()
        self._idle = False
        self._recoverable_phase = True
        tr = self.system.trainer
        try:
            with OBS.span("mp.epoch", epoch=epoch, dry_run=dry_run,
                          engine=self.system.config.engine,
                          machines=tr.num_machines,
                          hist="mp.epoch_wall_s") as span:
                self._epoch_span_id = span.span_id
                self._broadcast_run(epoch, dry_run)
                self._serve_collective(dry_run)
                per_machine, state = self._collect_done()
                if state is not None:
                    # Post-allreduce weights are identical on every worker;
                    # load them into every in-process replica for the
                    # readers of those (models_in_sync, serving,
                    # checkpoints).
                    for model in tr.models:
                        model.load_state_dict(state)
                report = tr.engine.report(epoch, per_machine)
        except WorkerFailedError:
            raise
        except Exception:
            self.close()
            raise
        finally:
            self._recoverable_phase = False
            self._epoch_span_id = 0
        if OBS.enabled:
            self._note_wire_gauges()
        self._idle = True
        return report

    def evaluate(self, split: str, *,
                 fanouts: Optional[Sequence[int]] = None) -> float:
        """One ``eval`` round: each worker scores the ``split`` ids its
        machine owns with its own engine and replica
        (:meth:`~repro.distributed.engine.ExecutionEngine.score_machines`
        over ``{k}``), and the coordinator sums the ``scored`` counts."""
        shards, fanouts = self.system.trainer.eval_shards(split, fanouts)
        self._start_usable()
        replies = self._round(
            shards, "eval", ({"ids": ids, "seed": seed, "fanouts": fanouts}
                             for ids, seed in shards.values()), "scored")
        for k, reply in zip(shards, replies):
            if not all(isinstance(reply.get(n), int) for n in ("correct", "total")):
                self._fail(k, f"malformed scored reply {reply!r:.200}")
        return accuracy([(r["correct"], r["total"]) for r in replies])

    def _note_wire_gauges(self) -> None:
        """Mirror cumulative wire accounting and cluster health into the
        metrics registry.  Gauges (not counters) because the wire tables
        are cumulative across epochs — setting is idempotent."""
        m = OBS.metrics
        for way, table in (("sent", self.wire_sent),
                           ("received", self.wire_received)):
            m.gauge(f"mp.wire_{way}_bytes").set(
                sum(b for _n, b in table.values()))
            m.gauge(f"mp.wire_{way}_msgs").set(
                sum(n for n, _b in table.values()))
        m.gauge("mp.workers_alive").set(
            sum(1 for p in self.processes if p.is_alive()))

    def _broadcast_run(self, epoch: int, dry_run: bool) -> None:
        payload: dict = {"epoch": epoch, "dry_run": dry_run}
        if OBS.enabled:
            payload["trace"] = {"trace_id": OBS.tracer.trace_id,
                                "parent": self._epoch_span_id}
        self._round(range(len(self._channels)), "run", repeat(payload), None)

    def _serve_collective(self, dry_run: bool) -> None:
        """The coordinator's half of the workers' collective
        (:class:`~repro.distributed.multiproc.worker._PipeCollective`),
        walked over the engine's own schedule: a dry run expects every
        worker's ``window`` token per comm window; a training epoch expects
        its ``step`` token per step and closes the step with
        :meth:`_average_step`."""
        tr = self.system.trainer
        machines = range(tr.num_machines)
        for w0, w1 in tr.engine.schedule(tr.steps_per_epoch()).windows:
            if dry_run:
                self._round(machines, None, (), "window", match={"w0": w0})
                continue
            for step in range(w0, w1):
                self._round(machines, None, (), "step", match={"step": step})
                self._average_step(step)

    def _average_step(self, step: int) -> None:
        """Average the worker slabs for ``step`` in place, publish the
        result, and release the barrier with per-worker ``avg`` tokens."""
        try:
            self._grad_plane.average(step)
        except SlabStateError as exc:
            self._fail(exc.machine,
                       f"gradient-slab protocol violation at step {step}: "
                       f"{exc}")
        self._round(range(len(self._channels)), "avg",
                    repeat({"step": step}), None)

    def _collect_done(self) -> Tuple[List[List[StepRecord]], Optional[dict]]:
        """Receive every worker's batched epoch-end telemetry: its step
        records (decoded and audited against its plan digests here), and —
        for a training epoch — the synchronized model state.  Returns the
        K record lists and that state (``None`` for a dry run)."""
        steps = self.system.trainer.steps_per_epoch()
        per_machine, state = [], None
        machines = range(self.system.trainer.num_machines)
        for k, payload in zip(machines,
                              self._round(machines, None, (), "done")):
            try:
                records = [decode_dataclass(StepRecord, r)
                           for r in payload["records"]]
                digests = payload["digests"]
                if state is None:
                    state = payload.get("state")
            except (WireError, KeyError, TypeError, AttributeError) as exc:
                self._fail(k, f"undecodable done payload: {exc}")
            if len(records) != steps:
                self._fail(k, f"reported {len(records)} step records, "
                              f"expected {steps}")
            self._audit_digests(k, digests, records)
            if OBS.enabled and payload.get("spans") is not None:
                # Merge the worker's batched spans into the coordinator
                # trace, rebasing their perf_counter timestamps through
                # the worker's (perf, wall) clock anchor.
                try:
                    remote = [decode_dataclass(SpanRecord, s)
                              for s in payload["spans"]]
                    anchor = tuple(int(t) for t in payload["clock"])
                    OBS.tracer.merge_remote(remote, anchor, clock_anchor())
                    snap = payload.get("metrics")
                    if snap:
                        OBS.metrics.merge_snapshot(snap)
                except (KeyError, TypeError, ValueError) as exc:
                    self._fail(k, f"undecodable telemetry in done "
                                  f"payload: {exc}")
            per_machine.append(records)
        return per_machine, state
