"""The coordinator: owns the segments and the workers, serves their
collective, and assembles their records.

:class:`MultiprocBackend` holds no schedule either: an epoch is "broadcast
``run``, serve the workers' collective (:meth:`MultiprocBackend._serve_collective`
— expect each step token (window token on a dry run), average the gradient
slabs, release the barrier), collect every worker's records, and hand them
to the engine's :func:`~repro.distributed.engine.assemble_report`" — the
same function the in-process engine calls on the same records.
"""

from __future__ import annotations

import dataclasses
import secrets
import time
import weakref
from collections import deque
from multiprocessing import connection as mp_connection
from multiprocessing import shared_memory
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.distributed.cluster import CLUSTER_BACKENDS, ClusterBackend
from repro.distributed.faults import FaultPlan
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
from repro.distributed.wire import (
    WireError,
    content_hash,
    decode_dataclass,
    pack_message,
    unpack_message,
)
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
    spawns (or acquires from :data:`WORKER_POOL`) the workers; they persist
    across epochs (sampler and optimizer state live worker-side, exactly
    as the in-process trainer's persists across epochs).  After a non-dry
    epoch the synchronized model weights are loaded back into the system's
    in-process replicas, so ``system.evaluate()`` sees the trained model.

    Parameters
    ----------
    system:
        A built :class:`~repro.core.system.SalientPP` (``bsp`` or
        ``pipelined`` engine, static caches, partitioned storage).
    timeout_s:
        Per-message coordinator patience before declaring a worker hung.
    keep_warm:
        Park the workers into the module-level :data:`WORKER_POOL` on clean
        close instead of stopping them, so the next backend with the same
        cluster fingerprint skips the spawn cost.  Off by default — with it
        off, ``close()`` leaves every worker process dead (the teardown
        contract the fault suite asserts).  Mutable attribute; fault-
        injected or mid-epoch clusters are never parked regardless.
    faults:
        A :class:`~repro.distributed.faults.FaultPlan` scheduling kill /
        hang / corrupt / torn faults on specific machines at specific
        ``(epoch, step)`` points; validated against the cluster shape at
        :meth:`start`.
    recoverable:
        With this set, a worker failure *mid-epoch* marks the backend
        faulted instead of tearing the cluster down; :meth:`recover`
        replaces the failed ranks (warm spares when the pool has matching
        workers), quiesces the survivors and the gradient plane, and
        restores a :meth:`capture_checkpoint` snapshot so the interrupted
        epoch can be replayed bit-identically.  Off by default — fail-stop
        teardown remains the contract for everyone else.

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
        self.timeout_s = float(timeout_s)
        self.keep_warm = bool(keep_warm)
        self.fault_plan = FaultPlan(faults or ())
        self.recoverable = bool(recoverable)
        #: Ranks whose workers faulted in the current (unrecovered) episode.
        self._faulted_machines: set = set()
        self._faulted = False
        self._recovered = False
        self._in_recovery = False
        self._epoch_active = False
        #: Cumulative count of ranks replaced by :meth:`recover`.
        self.restarts_total = 0
        self._started = False
        self._closing = False
        self._idle = True
        self._procs: List = []
        self._conns: List = []
        self._segments: List = []
        self._holders: List = []
        self._inboxes: List[deque] = []
        self._conn_open: List[bool] = []
        self._grad_plane: Optional[GradientPlane] = None
        self._pool_key: Optional[str] = None
        self.segment_names: List[str] = []
        #: Per-machine specs shipped to the workers (set by start()) —
        #: inspectable so tests can assert the derived seed contract.
        self.worker_specs: List[WorkerSpec] = []
        #: True when start() rebound a parked warm-pool cluster instead of
        #: spawning fresh processes.
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
        """The worker Process objects (test hook; empty before start)."""
        return list(self._procs)

    def start(self) -> None:
        """Create segments, spawn or acquire workers, bind their specs."""
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
                    dropout=float(cfg.dropout),
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
            self._pool_key = _cluster_fingerprint(self.worker_specs)

            pooled = WORKER_POOL.acquire(self._pool_key)
            self.reused_pool = pooled is not None
            if OBS.enabled:
                OBS.metrics.counter(
                    "mp.warm_pool_hits" if self.reused_pool
                    else "mp.warm_pool_misses").inc()
            for proc, conn in pooled or (spawn_worker(k) for k in range(K)):
                self._procs.append(proc)
                self._conns.append(conn)

            self._inboxes = [deque() for _ in range(K)]
            self._conn_open = [True] * K
            self._started = True
            self._finalizer = weakref.finalize(
                self, MultiprocBackend._cleanup,
                self._procs, self._conns, self._segments, self._holders,
            )
            self._bind(range(K), fresh=() if self.reused_pool else range(K))
        except WorkerFailedError:
            raise
        except Exception:
            self._started = True  # make close() tear down what exists
            self.close()
            raise

    def _bind(self, ranks: Iterable[int], fresh: Iterable[int],
              clear_faults: bool = False) -> None:
        """The bind handshake, shared by :meth:`start` and :meth:`recover`:
        freshly spawned ranks first announce ``ready``; every rank in
        ``ranks`` is sent its :class:`WorkerSpec` and must answer ``bound``
        with its own machine id.  ``clear_faults`` binds an empty fault
        schedule (a replayed fault would re-fire identically and recovery
        would never converge)."""
        deadline = time.monotonic() + _READY_TIMEOUT_S
        for k in fresh:
            kind, _payload = self._recv(k, deadline=deadline)
            if kind != "ready":
                self._fail(k, f"expected ready handshake, got {kind!r}")
        ranks = list(ranks)
        for k in ranks:
            spec = self.worker_specs[k]
            if clear_faults:
                spec = dataclasses.replace(spec, faults=())
            self._send(k, "bind", spec)
        for k in ranks:
            kind, payload = self._recv(k, deadline=deadline)
            if kind != "bound":
                self._fail(k, f"expected bound handshake, got {kind!r}")
            if not isinstance(payload, dict) or payload.get("machine") != k:
                self._fail(k, "bound handshake reported the wrong machine")

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
                except Exception:
                    pass
        if self._finalizer is not None:
            self._finalizer()  # runs _cleanup at most once
        elif self._segments:
            # start() failed before the finalizer existed.
            MultiprocBackend._cleanup(self._procs, self._conns,
                                      self._segments, self._holders)

    def _park_to_pool(self) -> bool:
        """Hand the quiescent workers to :data:`WORKER_POOL`.

        On success the proc/conn lists are emptied in place, so the
        finalizer's teardown skips them and only unlinks segments.  Any
        protocol hiccup aborts parking and falls back to full teardown.
        """
        if not self._procs or self._pool_key is None:
            return False
        K = len(self._procs)
        try:
            for k in range(K):
                self._send(k, "park", None)
            deadline = time.monotonic() + _PARK_TIMEOUT_S
            for k in range(K):
                kind, _payload = self._recv(k, deadline=deadline)
                if kind != "parked" or self._inboxes[k]:
                    return False
        except WorkerFailedError:
            return False  # _fail already tore the cluster down
        WORKER_POOL.park(self._pool_key, list(zip(self._procs, self._conns)))
        self._procs.clear()
        self._conns.clear()
        self._inboxes = []
        self._conn_open = []
        return True

    @staticmethod
    def _cleanup(procs, conns, segments, holders) -> None:
        """Full teardown: stop the workers (:func:`stop_workers`), drop
        shared-memory views, unlink segments.  Static + in-place so the
        ``weakref`` finalizer can run it without resurrecting the
        backend."""
        stop_workers(procs, conns)
        conns.clear()
        for holder in holders:
            try:
                holder.release()
            except Exception:
                pass
        holders.clear()
        for shm in segments:
            try:
                shm.close()
            except Exception:
                pass
            try:
                shm.unlink()
            except Exception:
                pass
        segments.clear()

    @property
    def closed(self) -> bool:
        return self._started and not self.is_live

    # -- wire helpers --------------------------------------------------
    @staticmethod
    def _count(table: Dict[str, List[int]], kind: str, nbytes: int) -> None:
        entry = table.setdefault(kind, [0, 0])
        entry[0] += 1
        entry[1] += nbytes

    def _fail(self, machine: Optional[int], why: str) -> None:
        message = f"worker {machine}: {why}" if machine is not None else why
        if (self.recoverable and machine is not None and self._epoch_active
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

    def _send(self, k: int, kind: str, payload) -> None:
        data = pack_message(kind, payload)
        self._count(self.wire_sent, kind, len(data))
        try:
            self._conns[k].send_bytes(data)
        except (BrokenPipeError, OSError):
            self._fail(k, "pipe closed while sending")

    def _drain(self, j: int) -> None:
        """Pull every already-complete message off pipe ``j`` into its
        inbox; worker errors surface immediately."""
        conn = self._conns[j]
        while True:
            try:
                if not conn.poll(0):
                    return
                data = conn.recv_bytes()
            except (EOFError, OSError):
                self._conn_open[j] = False
                return
            try:
                kind, payload = unpack_message(data, machine=j)
            except WireError as exc:
                self._fail(j, f"malformed message: {exc}")
            self._count(self.wire_received, kind, len(data))
            if kind == "error":
                tb = payload.get("traceback", "") \
                    if isinstance(payload, dict) else ""
                self._fail(j, f"worker raised:\n{tb}")
            self._inboxes[j].append((kind, payload))

    def _pump(self, timeout: float) -> None:
        """Block until any worker pipe (or process sentinel) is ready,
        then drain every readable pipe — event-driven, so there is no
        polling granularity and a machine-order receive can't starve
        behind a slow worker: every arriving message lands in its inbox
        as soon as it is readable."""
        targets = {}
        for j in range(len(self._conns)):
            if self._conn_open[j]:
                targets[self._conns[j]] = j
                targets[self._procs[j].sentinel] = j
        if not targets:
            return
        ready = mp_connection.wait(list(targets), timeout=max(timeout, 0.0))
        for obj in ready:
            j = targets[obj]
            if obj is self._conns[j]:
                self._drain(j)
            # A ready sentinel needs no action here: _recv notices the
            # dead process right after this pump returns.

    def _recv(self, k: int, deadline: Optional[float] = None):
        if deadline is None:
            deadline = time.monotonic() + self.timeout_s
        inbox = self._inboxes[k]
        while not inbox:
            self._pump(min(1.0, max(deadline - time.monotonic(), 0.0)))
            if inbox:
                break
            # Fail fast on any dead worker: the lock-step protocol cannot
            # make progress without it, and waiting for machine k while
            # machine j is gone would only time out later.
            for j in range(len(self._procs)):
                if j in self._faulted_machines:
                    # Already-reaped rank (recovery in progress): its dead
                    # process must not fail the survivors' quiesce drain.
                    continue
                if self._inboxes[j]:
                    continue
                if not self._procs[j].is_alive():
                    self._drain(j)  # its last flush may still be buffered
                    if self._inboxes[j]:
                        continue
                    self._fail(j, "process died "
                                  f"(exit code {self._procs[j].exitcode})")
                if not self._conn_open[j] and j == k:
                    self._fail(k, "connection closed mid-epoch")
            if time.monotonic() > deadline:
                self._fail(k, f"no message within {self.timeout_s:.0f}s")
        return inbox.popleft()

    def _expect(self, k: int, want: str):
        kind, payload = self._recv(k)
        if kind != want:
            self._fail(k, f"expected {want!r} message, got {kind!r}")
        return payload

    def _expect_token(self, k: int, want: str, field: str, value: int) -> None:
        payload = self._expect(k, want)
        if not isinstance(payload, dict) or payload.get(field) != value:
            self._fail(k, f"expected {want} token for {field} {value}, "
                          f"got {payload!r}")

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

        Asks every worker for its model weights, Adam moments, and RNG
        cursors (sampler + dropout streams).  Weights and moments are
        identical across replicas after the allreduce, so one copy is
        kept; RNG cursors are per machine.  The result is plain data —
        wire-encodable, and persistable through the ArtifactCache's
        ``checkpoint`` codec (:mod:`repro.distributed.recovery`).
        """
        if not self.is_live:
            raise RuntimeError("cannot checkpoint a closed backend")
        if self._faulted:
            raise RuntimeError("cannot checkpoint a faulted backend — "
                               "recover() first")
        K = self.system.trainer.num_machines
        with OBS.span("mp.checkpoint", epoch=epoch):
            for k in range(K):
                self._send(k, "ckpt", None)
            states = []
            for k in range(K):
                payload = self._expect(k, "state")
                if not isinstance(payload, dict):
                    self._fail(k, "malformed checkpoint state payload")
                states.append(payload)
        return {
            "epoch": int(epoch),
            "model": states[0]["model"],
            "adam": states[0]["adam"],
            "samplers": [s["sampler"] for s in states],
            "layer_rngs": [s["layer_rngs"] for s in states],
            "cache_fp": self._cache_fingerprint(),
        }

    def _restore_all(self, checkpoint: Optional[dict]) -> None:
        """Send every rank its slice of ``checkpoint`` (``None`` rewinds to
        epoch-0 initial state) and wait for the ``restored`` acks."""
        K = len(self._procs)
        for k in range(K):
            payload = None
            if checkpoint is not None:
                payload = {
                    "model": checkpoint["model"],
                    "adam": checkpoint["adam"],
                    "sampler": checkpoint["samplers"][k],
                    "layer_rngs": checkpoint["layer_rngs"][k],
                }
            self._send(k, "restore", payload)
        for k in range(K):
            self._expect_token(k, "restored", "machine", k)

    def recover(self, checkpoint: Optional[dict] = None) -> int:
        """Replace the failed ranks and rewind the cluster to ``checkpoint``.

        The recovery sequence: (1) reap every faulted rank's process (it
        may be alive — hung, or having corrupted its wire stream — so the
        kill is unconditional); (2) quiesce the survivors with an ``abort``
        and drain their stale in-flight traffic; (3) reset the gradient
        plane's seqlock slabs; (4) bind a replacement for each failed rank
        — a warm spare from :data:`WORKER_POOL` when one of this cluster's
        fingerprint is parked, a fresh spawn otherwise — with the fault
        schedule cleared (a replayed fault would re-fire identically and
        recovery would never converge); (5) restore every rank from
        ``checkpoint`` (``None`` rewinds to epoch-0 initial state).

        Returns the number of ranks replaced (0 if the backend never
        faulted).  Any failure *during* recovery escalates to full
        teardown and raises — recovery is attempted at most once per call.
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
            K = len(self._procs)
            with OBS.span("mp.recovery", machines=K,
                          hist="mp.recovery_wall_s"):
                # Every rank marked faulted, plus any other process found
                # dead (a second failure noticed late), gets replaced.
                failed = set(self._faulted_machines)
                for j, proc in enumerate(self._procs):
                    if not proc.is_alive():
                        failed.add(j)
                self._faulted_machines = set(failed)
                failed = sorted(failed)

                stop_workers([self._procs[j] for j in failed],
                             [self._conns[j] for j in failed], polite=False)
                for j in failed:
                    self._conn_open[j] = False
                    self._inboxes[j].clear()

                survivors = [k for k in range(K) if k not in failed]
                for k in survivors:
                    self._send(k, "abort", None)
                deadline = time.monotonic() + self.timeout_s
                for k in survivors:
                    # Discard whatever the aborted epoch still had in
                    # flight (step/window/done tokens) up to the ack.
                    while True:
                        kind, _payload = self._recv(k, deadline=deadline)
                        if kind == "aborted":
                            break

                self._grad_plane.reset()

                warm = 0
                fresh_ranks = []
                for j in failed:
                    spare = (WORKER_POOL.acquire_spare(self._pool_key)
                             if self._pool_key else None)
                    if spare is not None:
                        warm += 1
                    else:
                        spare = spawn_worker(j)
                        fresh_ranks.append(j)
                    # In-place rank replacement: the finalizer holds these
                    # same list objects, so the new process is covered by
                    # the exit-time cleanup like any other.
                    self._procs[j], self._conns[j] = spare
                    self._inboxes[j] = deque()
                    self._conn_open[j] = True
                self._bind(failed, fresh=fresh_ranks, clear_faults=True)

                self._restore_all(checkpoint)

                self.restarts_total += len(failed)
                if OBS.enabled:
                    OBS.metrics.counter("mp.restarts_total").inc(len(failed))
                    if warm:
                        OBS.metrics.counter("mp.warm_respawns").inc(warm)
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
    def run_epoch(self, epoch: int, *, dry_run: bool = False) -> EpochReport:
        if self._started and not self.is_live:
            raise RuntimeError("multiproc backend is closed")
        if self._faulted:
            raise RuntimeError(
                "multiproc backend is faulted — call recover() to replace "
                "the failed ranks before running another epoch")
        self.start()
        self._idle = False
        self._epoch_active = True
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
                    # load them into every in-process replica so evaluate()
                    # works.
                    for model in tr.models:
                        model.load_state_dict(state)
                report = tr.engine.report(epoch, per_machine)
        except WorkerFailedError:
            raise
        except Exception:
            self.close()
            raise
        finally:
            self._epoch_active = False
            self._epoch_span_id = 0
        if OBS.enabled:
            self._note_wire_gauges()
        self._idle = True
        return report

    def _note_wire_gauges(self) -> None:
        """Mirror cumulative wire accounting and cluster health into the
        metrics registry.  Gauges (not counters) because the wire tables
        are cumulative across epochs — setting is idempotent."""
        m = OBS.metrics
        m.gauge("mp.wire_sent_bytes").set(
            sum(b for _n, b in self.wire_sent.values()))
        m.gauge("mp.wire_received_bytes").set(
            sum(b for _n, b in self.wire_received.values()))
        m.gauge("mp.wire_sent_msgs").set(
            sum(n for n, _b in self.wire_sent.values()))
        m.gauge("mp.wire_received_msgs").set(
            sum(n for n, _b in self.wire_received.values()))
        m.gauge("mp.workers_alive").set(
            sum(1 for p in self._procs if p.is_alive()))

    def _broadcast_run(self, epoch: int, dry_run: bool) -> None:
        payload: dict = {"epoch": epoch, "dry_run": dry_run}
        if OBS.enabled:
            payload["trace"] = {"trace_id": OBS.tracer.trace_id,
                                "parent": self._epoch_span_id}
        for k in range(self.system.trainer.num_machines):
            self._send(k, "run", payload)

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
                for k in machines:
                    self._expect_token(k, "window", "w0", w0)
                continue
            for step in range(w0, w1):
                for k in machines:
                    self._expect_token(k, "step", "step", step)
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
        for k in range(len(self._procs)):
            self._send(k, "avg", {"step": step})

    def _collect_done(self) -> Tuple[List[List[StepRecord]], Optional[dict]]:
        """Receive every worker's batched epoch-end telemetry: its step
        records (decoded and audited against its plan digests here), and —
        for a training epoch — the synchronized model state.  Returns the
        K record lists and that state (``None`` for a dry run)."""
        steps = self.system.trainer.steps_per_epoch()
        per_machine, state = [], None
        for k in range(self.system.trainer.num_machines):
            payload = self._expect(k, "done")
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
