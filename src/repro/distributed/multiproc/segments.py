"""What the coordinator and its workers both know: the worker spec, the
shared-memory segments it names, and the fetch-plan audit digest.

The coordinator creates every segment and owns its lifecycle; workers
attach (untracked) and never unlink.  A :class:`WorkerSpec` crosses the
pipe through the wire format's dataclass codec, so there is no spec codec
to keep in step with its fields.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Tuple

import numpy as np

from repro.distributed.faults import FaultSpec
from repro.distributed.feature_store import FetchPlan, GatherStats
from repro.distributed.wire import content_hash

#: Leading columns of a fetch-plan audit digest row (before the per-peer
#: remote counts): total, gpu, cpu, cached, remote, coalesced.
DIGEST_HEAD = 6


@dataclass(frozen=True)
class SegmentSpec:
    """One shared-memory segment: name + the array layout inside it."""

    name: str
    shape: Tuple[int, ...]
    dtype: str


@dataclass
class WorkerSpec:
    """Everything one worker needs to rebuild its machine's runtime.

    Plain wire-encodable data only (ints, strings, ndarrays, segment
    names) — the coordinator ships it over the pipe in a ``bind`` message,
    so a parked warm worker can be rebound without respawning.  Seeds
    arrive fully derived: the coordinator computes each machine's stream
    seeds with :func:`machine_stream_seed` (functions of run seed, stream
    name, and machine id only), so a worker's RNG streams can never depend
    on spawn order, pids, or import order — and are exactly the in-process
    trainer's streams for the same machine.
    """

    machine: int
    num_machines: int
    sampler_seed: int
    order_seed: int
    model_seed: int
    num_vertices: int
    num_classes: int
    feature_dim: int
    fanouts: Tuple[int, ...]
    batch_size: int
    hidden_dim: int
    lr: float
    engine: str
    pipeline_depth: int
    steps_per_epoch: int
    gpu_rows: int
    part_offsets: np.ndarray
    local_train: np.ndarray
    cache_ids: np.ndarray
    #: "feat0".."featK-1", "indptr", "indices", "labels", "grads"
    segments: Dict[str, SegmentSpec]
    #: Chaos injection: this machine's slice of the backend's
    #: :class:`~repro.distributed.faults.FaultPlan` (kill / hang / corrupt /
    #: torn at an ``(epoch, step)`` point).  Excluded from the cluster
    #: fingerprint — faults are a property of one run, not of the workers.
    faults: Tuple[FaultSpec, ...] = ()
    #: Whether this host has a core for each of the K workers and one for
    #: each worker's sampler process (:func:`repro.utils.ahead.spare_core`,
    #: judged once by the coordinator): the worker's engine then samples
    #: ahead of training.
    #: A property of the host, not of the cluster — outside the fingerprint.
    spare_core: bool = False


def _cluster_fingerprint(specs: List[WorkerSpec]) -> str:
    """Content hash identifying a worker cluster's full configuration.

    Two backends whose spec lists hash equal bind byte-identical runtimes,
    so a checkpoint one of them took restores into the other — the key
    :class:`~repro.distributed.recovery.RecoveryManager` persists
    checkpoints under (``MultiprocBackend.fingerprint``).  Segment *names*
    are excluded (random per backend), as are the fault schedule (a run's
    property, not the cluster's) and the host's ``spare_core`` reading;
    segment shapes/dtypes, every seed, every id array, and every
    hyperparameter are included.
    """
    def view(spec: WorkerSpec) -> dict:
        fields = {f.name: getattr(spec, f.name)
                  for f in dataclasses.fields(spec)}
        del fields["faults"], fields["spare_core"]
        fields["segments"] = {key: (seg.shape, seg.dtype)
                              for key, seg in spec.segments.items()}
        return fields

    return content_hash([view(spec) for spec in specs])


# ----------------------------------------------------------------------
# shared-memory plumbing
# ----------------------------------------------------------------------

def _create_segment(name: str, arr: np.ndarray):
    """Create + fill one segment; returns ``(SharedMemory, SegmentSpec)``.

    No numpy view of the buffer survives this function — the coordinator
    must be able to ``close()``/``unlink()`` without BufferError.
    """
    shm = shared_memory.SharedMemory(create=True, name=name,
                                     size=max(int(arr.nbytes), 1))
    if arr.size:
        view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)
        view[...] = arr
        del view
    spec = SegmentSpec(name=shm.name, shape=tuple(arr.shape),
                       dtype=arr.dtype.str)
    return shm, spec


def _attach_shm(name: str):
    """Attach an existing segment without resource-tracker registration.

    On Python < 3.13 attaching registers the segment with the resource
    tracker, which the coordinator's later ``unlink`` would then
    double-unregister (the tracker keys by name, shared across the spawn
    tree) — and a worker dying uncleanly would make the tracker unlink a
    segment it does not own.  The coordinator created the segment and owns
    its lifecycle, so the attach is made invisible to the tracker
    (``track=False`` is the 3.13+ spelling of the same thing).
    """
    orig_register = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = orig_register


def _attach_segment(spec: SegmentSpec):
    """Attach one segment read-only; returns ``(SharedMemory, view)``."""
    shm = _attach_shm(spec.name)
    view = np.ndarray(spec.shape, dtype=np.dtype(spec.dtype), buffer=shm.buf)
    view.flags.writeable = False
    return shm, view


# ----------------------------------------------------------------------
# fetch-plan audit digests
# ----------------------------------------------------------------------

def _plan_digest(plan: FetchPlan, owner_of, num_machines: int,
                 fresh: np.ndarray) -> np.ndarray:
    """One audit-digest row for a fetch plan, computed *from the plan*.

    ``[total, gpu, cpu, cached, remote, coalesced]`` followed by the
    per-peer remote row counts.  ``fresh`` (the plan's first-request mask
    in its comm window) splits the plan's remote ids into genuinely remote
    vs coalesced, matching how ``execute_coalesced`` attributes them.  The
    coordinator compares these rows against the reported
    :class:`GatherStats` (:func:`_stats_digest`), so a worker that
    miscounts its remote rows fails the epoch loudly without round-tripping
    full encoded plans on the hot path.
    """
    remote_ids = plan.remote_ids[fresh]
    coalesced = int(len(plan.remote_ids) - len(remote_ids))
    if len(remote_ids):
        per_peer = np.bincount(owner_of(remote_ids), minlength=num_machines)
    else:
        per_peer = np.zeros(num_machines, dtype=np.int64)
    head = np.array([len(plan.ids), plan.gpu_rows, plan.cpu_rows,
                     len(plan.cached_ids), len(remote_ids), coalesced],
                    dtype=np.int64)
    return np.concatenate([head, per_peer.astype(np.int64, copy=False)])


def _stats_digest(g: GatherStats) -> np.ndarray:
    """The digest row a :class:`GatherStats` implies (coordinator side)."""
    head = np.array([g.total_rows, g.gpu_rows, g.cpu_rows, g.cached_rows,
                     g.remote_rows, g.coalesced_rows], dtype=np.int64)
    return np.concatenate([
        head, np.asarray(g.remote_per_peer, dtype=np.int64).ravel()])
