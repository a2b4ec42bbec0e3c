"""Multiproc cluster backend: one worker process per logical machine.

The in-process backend *simulates* K machines inside one interpreter; this
package runs them as K real worker processes, which is the gateway to every
wall-clock scale claim the repo makes.  The contract is strict functional
parity — bit-identical per-step losses, identical
:class:`~repro.distributed.records.StepRecord` volumes, an identical
:class:`~repro.distributed.comm.CommLedger`, an event trace of identical
shape — and it holds by construction: there is no multiproc schedule.  A
worker runs the engine's one epoch loop
(:meth:`~repro.distributed.engine.ExecutionEngine.run_machines`) over the
machine set ``{k}`` behind a pipe-backed collective, and the coordinator
hands the K workers' records to the same
:func:`~repro.distributed.engine.assemble_report` the in-process engine
calls.  ``tests/distributed/test_multiproc_parity.py`` still holds the
backend to all four, as a regression net rather than as the mechanism.

Modules
-------
:mod:`~repro.distributed.multiproc.channel`
    The transport: one ``Channel`` per pipe end — send one wire frame,
    receive one before a deadline while watching the peers' processes,
    count both directions — and the machine-attributed ``ChannelError``.
:mod:`~repro.distributed.multiproc.segments`
    What both sides know: :class:`WorkerSpec` (shipped through the wire
    format's dataclass codec), the shared-memory segments it names, the
    cluster fingerprint (the checkpoint key), the fetch-plan audit digest.
:mod:`~repro.distributed.multiproc.worker`
    The worker process: rebuild machine ``k``'s trainer surface from the
    spec over the shared segments, run the engine, ship the records.
:mod:`~repro.distributed.multiproc.pool`
    Worker processes as a resource: a fork of the coordinator per worker
    (named ``repro-mp-worker``), the one stop → join → terminate
    → kill ladder, and the pool of generic idle workers
    (:data:`WORKER_POOL`: ``park(workers)`` / ``take(n)``).
:mod:`~repro.distributed.multiproc.coordinator`
    :class:`MultiprocBackend`: segments, and the protocol as rounds over
    the channels — bind, the coordinator's half of the collective,
    checkpoint, recovery, park, teardown.

Data plane
----------
The coordinator copies each machine's local feature rows, the reordered
graph's CSR arrays, and the labels into ``multiprocessing.shared_memory``
segments, plus one ``grads`` segment holding the
:class:`~repro.distributed.shm_plane.GradientPlane` — ``K + 1`` seqlock-
guarded gradient slabs (one per worker plus the averaged result).  Workers
are forked with an inert ``resource_tracker`` (:func:`repro.utils.ahead.fork`),
so their attaches go untracked (the coordinator owns the lifecycle, so only
its create/unlink pair is ever tracked); their
feature store's K machine stores are views into the segments, so "remote"
fetches cross a process boundary in plan terms while the rows come from
shared memory.

Pipes carry **control tokens only**, in one dialect whatever the engine or
its depth — only ``dry_run`` decides which tokens an epoch needs:

=========== ========= ====================================================
token       direction sent
=========== ========= ====================================================
``run``     → worker  once per epoch (epoch, ``dry_run``, trace context)
``step``    ← worker  training epoch: per step, after the worker wrote its
                      gradients into its slab (``post``); it also proves
                      the step's comm window was gathered
``avg``     → worker  training epoch: per step, once the averaged slab is
                      published — the barrier release, which the worker
                      reads (``collect``) after drawing its next window
                      when the step closes one
``window``  ← worker  dry run only (nothing syncs): per comm window, after
                      the worker gathered it (``fetched``)
``done``    ← worker  once per epoch: records, digests, model state
=========== ========= ====================================================

So a training step costs two ~30-byte messages per worker (``step`` in,
``avg`` out) under ``bsp`` and ``pipelined`` alike.  Between them the
coordinator averages the slabs in place
(:func:`~repro.distributed.comm.average_into` — the one averaging body the
in-process collective also calls) and publishes the averaged
slab.  Telemetry is batched: step records, the
fetch-plan audit digests, and the synchronized model state ship once per
epoch in the ``done`` message; the coordinator cross-checks every digest
against the reported gather stats, so a worker that miscounts its remote
rows still fails the epoch loudly.  Receiving is event-driven: each
``Channel.recv`` waits on its own pipe and on the process sentinel of
every rank not yet reaped, so a death anywhere ends the wait at once.

Failure semantics
-----------------
A worker that dies, hangs past ``timeout_s``, sends a frame that fails its
CRC, violates the slab seqlock protocol, or reports an exception raises a
machine-attributed :class:`WorkerFailedError`.  What happens next is the
backend's ``recoverable`` flag:

* **fail-stop** (default): the whole cluster is shut down first — every
  worker terminated and joined, every pipe closed, every segment unlinked —
  and the backend refuses further epochs;
* **recoverable**: a *mid-epoch* failure leaves the cluster standing in a
  faulted state; :meth:`MultiprocBackend.recover` reaps the failed ranks,
  quiesces the survivors (``abort``), resets the gradient plane, binds
  replacements (parked workers from the pool first, then fresh forks)
  with the fault schedule cleared, and restores a
  :meth:`~MultiprocBackend.capture_checkpoint` snapshot, after which the
  interrupted epoch replays bit-identically
  (:mod:`repro.distributed.recovery` drives the policy).  A failure during
  recovery itself is fail-stop.

Faults are injected declaratively (:class:`~repro.distributed.faults.FaultPlan`:
kill / hang / corrupt / torn at an ``(epoch, step)``).  A
``weakref.finalize`` guard performs the teardown at interpreter exit if a
caller forgets :meth:`MultiprocBackend.close`.  A coordinator that dies
without either (killed, ``os._exit``) leaves nothing running: each worker
holds no pipe but its own, so it reads end-of-stream and exits, and the
coordinator's resource tracker unlinks the segments.  Faulted or
fault-scheduled clusters are never parked into the warm pool.

Scope: ``bsp`` and ``pipelined`` engines, static caches, partitioned
storage.  Dynamic caches mutate per gather (workers attach read-only) and
``async`` applies local updates between barriers; both are rejected at
validation.
"""

from repro.distributed.multiproc.coordinator import (
    SUPPORTED_ENGINES,
    MultiprocBackend,
    WorkerFailedError,
)
from repro.distributed.multiproc.pool import WORKER_POOL, WorkerPool
from repro.distributed.multiproc.segments import (  # noqa: F401
    SegmentSpec,
    WorkerSpec,
    _cluster_fingerprint,
)

__all__ = [
    "MultiprocBackend",
    "WorkerFailedError",
    "WorkerPool",
    "WORKER_POOL",
    "SUPPORTED_ENGINES",
    "SegmentSpec",
    "WorkerSpec",
]
