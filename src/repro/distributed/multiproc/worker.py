"""The worker process: machine ``k``'s trainer surface, run by the engine.

A worker holds no schedule of its own.  It rebuilds machine ``k``'s state
from a :class:`WorkerSpec` (:class:`_WorkerRuntime` — the same surface the
engine reads off a :class:`~repro.distributed.executor.DistributedTrainer`,
holding one machine), runs
:meth:`~repro.distributed.engine.ExecutionEngine.run_machines` over the
machine set ``{k}``, and ships the resulting step records; an ``eval``
is :meth:`~repro.distributed.engine.ExecutionEngine.score_machines` over
the same ``{k}``, answered with one ``scored`` count.  Everything it
says to its peers goes through :class:`_PipeCollective`, the worker-side
implementation of the engine's three-method collective, over its one
:class:`~repro.distributed.multiproc.channel.Channel` to the coordinator.
"""

from __future__ import annotations

import gc
import os
import time
import traceback
from multiprocessing import shared_memory
from types import SimpleNamespace
from typing import Tuple

import numpy as np

from repro.distributed.engine import make_engine
from repro.distributed.feature_store import MachineStore, PartitionedFeatureStore
from repro.distributed.multiproc.channel import Channel
from repro.distributed.multiproc.segments import (
    DIGEST_HEAD,
    WorkerSpec,
    _attach_segment,
    _plan_digest,
)
from repro.distributed.shm_plane import GradientPlane, SlabLayout
from repro.distributed.wire import decode_dataclass
from repro.graph.csr import CSRGraph, sorted_unique
from repro.nn.models import GraphSAGE
from repro.nn.optim import Adam
from repro.obs import OBS, clock_anchor
from repro.sampling.neighbor import NeighborSampler


class _EpochAborted(Exception):
    """Coordinator told this worker to abandon the in-flight epoch (another
    machine faulted); unwind to the command loop and acknowledge."""


class _PartMap:
    """Worker-side stand-in for :class:`ReorderedDataset`: the reorder
    offsets are all the feature store needs (ownership bisection and part
    ranges), so workers never ship the dataset itself."""

    def __init__(self, part_offsets: np.ndarray):
        self.part_offsets = np.asarray(part_offsets, dtype=np.int64)
        self.num_parts = len(self.part_offsets) - 1

    def owner_of(self, new_ids: np.ndarray) -> np.ndarray:
        ids = np.asarray(new_ids, dtype=np.int64)
        return np.searchsorted(self.part_offsets, ids, side="right") - 1

    def part_range(self, k: int) -> Tuple[int, int]:
        return int(self.part_offsets[k]), int(self.part_offsets[k + 1])


class _WorkerRuntime:
    """Machine ``k``'s trainer surface inside its worker process.

    ``samplers`` / ``models`` / ``optimizers`` / ``local_train`` are
    machine-indexed like the in-process trainer's, holding the single key
    ``k``; the store's K
    machine stores are views into the shared segments — so "remote" fetches
    really cross a process boundary in plan terms while the rows come from
    shared memory.
    """

    def __init__(self, spec: WorkerSpec, channel: Channel):
        self.spec = spec
        self.channel = channel
        k, K = spec.machine, spec.num_machines

        # Chaos state: scheduled faults not yet fired, plus the steps a
        # torn fault leaves with the slab seqlock odd after the publish (a
        # corrupt fault arms the channel's next frame instead).
        self._pending_faults = list(spec.faults)
        self.torn_steps = set()

        # Attach every data segment; keep the SharedMemory objects alive
        # while the runtime exists (views borrow their buffers).  The
        # gradient plane attaches writable, below.
        self._shms = []
        views = {}
        for key, seg in spec.segments.items():
            if key == "grads":
                continue
            shm, view = _attach_segment(seg)
            self._shms.append(shm)
            views[key] = view
        self.ds = SimpleNamespace(
            labels=views["labels"],
            graph=CSRGraph(views["indptr"], views["indices"], check=False))

        part_map = _PartMap(spec.part_offsets)
        dim = spec.feature_dim
        feat_dtype = views["feat0"].dtype
        empty_ids = np.empty(0, dtype=np.int64)
        empty_rows = np.empty((0, dim), dtype=feat_dtype)

        # This machine's cache rows, gathered from the owners' segments —
        # bit-identical to the build-time ds.features[cache_ids] slice.
        cache_ids = np.asarray(spec.cache_ids, dtype=np.int64)
        cache_rows = np.empty((len(cache_ids), dim), dtype=feat_dtype)
        if len(cache_ids):
            owners = part_map.owner_of(cache_ids)
            for peer in sorted_unique(owners):
                sel = owners == peer
                lo, _hi = part_map.part_range(int(peer))
                cache_rows[sel] = views[f"feat{int(peer)}"][cache_ids[sel] - lo]

        stores = []
        for j in range(K):
            lo, hi = part_map.part_range(j)
            stores.append(MachineStore(
                part_id=j, lo=lo, hi=hi,
                local_features=views[f"feat{j}"],
                gpu_rows=spec.gpu_rows if j == k else 0,
                cache_ids=cache_ids if j == k else empty_ids,
                cache_features=cache_rows if j == k else empty_rows,
                num_vertices=spec.num_vertices,
            ))
        self.store = PartitionedFeatureStore(stores, part_map, dim,
                                             feat_dtype.itemsize)

        self.samplers, self.models, self.optimizers = {}, {}, {}
        self.local_train = {k: spec.local_train}
        self._init_training_state()
        self.spare_core = spec.spare_core  # the coordinator's reading
        self.batch_size = spec.batch_size
        self.engine = make_engine(spec.engine, self,
                                  pipeline_depth=spec.pipeline_depth)

        # Gradient plane: this worker's slab (write) + the averaged slab
        # (read).  Both sides derive the layout from named_parameters()
        # order; the segment size check catches any disagreement.
        params = [p.data for _n, p in self.models[k].named_parameters()]
        shm = shared_memory.SharedMemory(name=spec.segments["grads"].name)
        self._shms.append(shm)
        self.grad_plane = GradientPlane(shm.buf, K,
                                        SlabLayout.from_templates(params))
        self.my_slab = self.grad_plane.worker_slabs[k]
        self.avg_slab = self.grad_plane.avg_slab
        self.avg_bufs = [np.empty_like(p) for p in params]

    # -- the engine's trainer surface ----------------------------------
    def steps_per_epoch(self) -> int:
        return self.spec.steps_per_epoch

    def batches(self, machine: int, epoch: int):
        return self.samplers[machine].batches(
            self.local_train[machine], self.spec.batch_size,
            drop_last=True, epoch=epoch, seed=self.spec.order_seed,
        )

    # -- training state ------------------------------------------------
    def _init_training_state(self) -> None:
        """(Re)build the sampler/model/optimizer at epoch-0 initial state.

        Seeding mirrors DistributedTrainer exactly: the sampler stream seed
        is this machine's ``machine_stream_seed`` (spawn-order independent),
        the model seed is shared by every replica (identical initial
        weights, no broadcast needed).  Called at bind time and again on a
        ``restore`` with no checkpoint — replaying epoch 0 after a fault
        needs exactly the bind-time state back.
        """
        spec = self.spec
        k = spec.machine
        self.samplers[k] = NeighborSampler(self.ds.graph, spec.fanouts,
                                           seed=spec.sampler_seed)
        self.models[k] = GraphSAGE(
            spec.feature_dim, spec.hidden_dim, spec.num_classes,
            len(spec.fanouts), seed=spec.model_seed,
        )
        self.optimizers[k] = Adam(self.models[k].parameters(), lr=spec.lr)

    def capture_state(self) -> dict:
        """Wire-encodable snapshot of everything that advances per step:
        model weights, Adam moments, and the sampler's RNG cursor (the
        model draws no randomness).  Taken at an epoch boundary, this is
        sufficient to replay the next epoch bit-identically."""
        k = self.spec.machine
        return {
            "model": dict(self.models[k].state_dict()),
            "adam": self.optimizers[k].state_dict(),
            "sampler": self.samplers[k].rng_state(),
        }

    def restore_state(self, payload) -> None:
        """Load a :meth:`capture_state` snapshot (``None`` → epoch-0 fresh
        state)."""
        if payload is None:
            self._init_training_state()
            return
        k = self.spec.machine
        self.models[k].load_state_dict(payload["model"])
        self.optimizers[k].load_state_dict(payload["adam"])
        self.samplers[k].set_rng_state(payload["sampler"])

    def release(self) -> None:
        """Drop every view into shared memory and close the attachments —
        required before this process can be parked (the coordinator will
        unlink the segments) or rebound to a new cluster."""
        self.engine.close_sampler()
        self.grad_plane.release()
        self.grad_plane = self.my_slab = self.avg_slab = None
        self.ds = self.store = self.engine = None
        self.samplers = self.models = self.optimizers = None
        gc.collect()
        for shm in self._shms:
            try:
                shm.close()
            except Exception:
                pass
        self._shms = []

    # -- protocol ------------------------------------------------------
    def inject_faults(self, epoch: int, step_lo: int, step_hi: int) -> None:
        """Fire any scheduled fault whose injection point falls in this
        epoch's ``[step_lo, step_hi)`` (the comm window being reported).
        Each fault fires at most once."""
        for fault in list(self._pending_faults):
            if fault.epoch != epoch or not step_lo <= fault.step < step_hi:
                continue
            self._pending_faults.remove(fault)
            if fault.kind == "kill":
                os._exit(13)  # simulated hard crash (no cleanup, no goodbye)
            elif fault.kind == "hang":
                time.sleep(fault.duration_s)  # wedged past any timeout_s
            elif fault.kind == "corrupt":
                # The frame stays well-formed but fails its CRC: the
                # coordinator must reject it, not decode it.
                self.channel.corrupt_next = True
            elif fault.kind == "torn":
                self.torn_steps.add(fault.step)

    def run_epoch(self, epoch: int, dry_run: bool, trace_ctx=None) -> None:
        """Run the engine over ``{k}`` and ship the epoch's telemetry —
        step records, fetch-plan audit digests, the synchronized model
        state — batched into one ``done`` message."""
        spec = self.spec
        k = spec.machine
        if trace_ctx:
            # The coordinator shipped its trace context in the run token:
            # record this epoch's spans under the same trace id, parented
            # on the coordinator's epoch span, and batch them into the
            # done message (no extra hot-path wire traffic).
            OBS.enable(lane=f"worker-{k}",
                       trace_id=trace_ctx.get("trace_id"))
            OBS.tracer.drain()
            OBS.metrics.reset()
        parent = int(trace_ctx.get("parent") or 0) if trace_ctx else None
        collective = _PipeCollective(self, epoch, dry_run)
        try:
            with OBS.span("worker.epoch", parent_id=parent, machine=k,
                          epoch=epoch, engine=spec.engine, dry_run=dry_run):
                (records,) = self.engine.run_machines(
                    epoch, (k,), collective, dry_run=dry_run)
        except _EpochAborted:
            # Another machine faulted; the coordinator is quiescing the
            # cluster.  Drop the partial epoch (a later "restore" rewinds
            # the training state) and acknowledge.
            if trace_ctx:
                OBS.disable()
            self.channel.send("aborted", {"machine": k})
            return

        digests = collective.digests
        done = {
            "records": records,
            "digests": (np.stack(digests) if digests else np.zeros(
                (0, DIGEST_HEAD + spec.num_machines), dtype=np.int64)),
            "state": None if dry_run else dict(self.models[k].state_dict()),
        }
        if trace_ctx:
            done["spans"] = OBS.tracer.drain()
            done["clock"] = list(clock_anchor())
            done["metrics"] = OBS.metrics.snapshot()
            OBS.disable()
        self.channel.send("done", done)


class _PipeCollective:
    """The engine's collective as one worker sees it: its peers are behind
    the coordinator's pipe and the shared-memory gradient plane.

    ``fetched`` audits the window's plans into digests and fires any fault
    scheduled inside the window; ``post`` publishes this step's gradients
    into the worker's slab and sends the ``step`` token; ``collect`` waits
    for the coordinator's ``avg`` (an ``abort`` instead unwinds the epoch)
    and reads the averaged slab back as the replica's gradients.  Between
    the two the engine draws its next window, so the sampling overlaps
    the coordinator's wait for the other workers.  A training epoch's
    ``step`` tokens already prove each window was gathered; a dry run never
    syncs, so there ``fetched`` reports the window itself (``window``
    token).
    """

    def __init__(self, runtime: _WorkerRuntime, epoch: int, dry_run: bool):
        self.rt = runtime
        self.epoch = epoch
        self.dry_run = dry_run
        self.digests = []
        self.params = [p for _name, p in
                       runtime.models[runtime.spec.machine].named_parameters()]

    def fetched(self, w0: int, w1: int, plans, first_request) -> None:
        rt = self.rt
        owner_of = rt.store.reordered.owner_of
        self.digests.extend(
            _plan_digest(plan, owner_of, rt.spec.num_machines, fresh)
            for plan, fresh in zip(plans, first_request))
        rt.inject_faults(self.epoch, w0, w1)
        if self.dry_run:
            rt.channel.send("window", {"w0": w0})

    def post(self, step: int) -> None:
        rt = self.rt
        rt.my_slab.write([p.grad for p in self.params], step)
        if step in rt.torn_steps:
            # "torn" fault: re-enter a write (seqlock odd) after the
            # publish, then report the step anyway — the coordinator's
            # average() must see the in-flight write and attribute it here.
            rt.torn_steps.discard(step)
            rt.my_slab.begin_write()
        rt.channel.send("step", {"step": step})

    def collect(self, step: int) -> None:
        rt = self.rt
        kind, payload = rt.channel.recv()
        if kind == "abort":
            raise _EpochAborted
        if kind != "avg":
            raise RuntimeError(f"expected avg, got {kind!r}")
        if payload["step"] != step:
            raise RuntimeError(
                f"avg token for step {payload['step']}, expected {step}")
        rt.avg_slab.read_into(rt.avg_bufs, step)
        for p, g in zip(self.params, rt.avg_bufs):
            p.grad = g


def _worker_main(channel: Channel) -> None:
    """Worker process entry point, over its channel to the coordinator.

    Generic: the process is forked bare
    (:func:`~repro.distributed.multiproc.pool.spawn_worker`), announces
    ``ready``, and builds its runtime only when the coordinator ``bind``\\ s
    a :class:`WorkerSpec` over the pipe — which is also how a parked
    warm-pool worker is rebound by a later backend.  ``park`` releases
    every shared-memory view and returns the process to the idle loop.
    """
    runtime = None

    def bound(kind: str) -> _WorkerRuntime:
        if runtime is None:
            raise RuntimeError(f"{kind} received before bind")
        return runtime

    def unbind() -> None:
        # Drop every shared-memory view before a rebind, a park, or a
        # normal exit (SharedMemory.__del__ would hit BufferError).
        nonlocal runtime
        if runtime is not None:
            runtime.release()
            runtime = None

    try:
        channel.send("ready", {"pid": os.getpid()})
        while True:
            kind, payload = channel.recv()
            if kind == "stop":
                unbind()
                return
            elif kind == "bind":
                unbind()
                runtime = _WorkerRuntime(
                    decode_dataclass(WorkerSpec, payload), channel)
                channel.send("bound", {"machine": runtime.spec.machine})
            elif kind == "park":
                unbind()
                channel.send("parked", {"pid": os.getpid()})
            elif kind == "run":
                bound(kind).run_epoch(payload["epoch"], payload["dry_run"],
                                      payload.get("trace"))
            elif kind == "abort":
                # Recovery quiesce reached an already-idle worker (its
                # epoch finished, or it never started one): nothing to
                # unwind, acknowledge immediately.
                machine = None if runtime is None else runtime.spec.machine
                channel.send("aborted", {"machine": machine})
            elif kind == "eval":
                k = bound(kind).spec.machine
                ((correct, total),) = runtime.engine.score_machines(
                    {k: (payload["ids"], payload["seed"])}, payload["fanouts"])
                channel.send("scored", {"machine": k, "correct": correct,
                                        "total": total})
            elif kind == "ckpt":
                channel.send("state", bound(kind).capture_state())
            elif kind == "restore":
                bound(kind).restore_state(payload)
                channel.send("restored", {"machine": runtime.spec.machine})
            else:
                raise RuntimeError(f"unexpected coordinator message {kind!r}")
    except Exception:
        # Report the traceback if the coordinator is still listening (it
        # is not when the exception is its pipe closing), then die.
        try:
            channel.send("error", {
                "machine": None if runtime is None else runtime.spec.machine,
                "traceback": traceback.format_exc(),
            })
        except Exception:
            pass
        raise
    finally:
        channel.close()
