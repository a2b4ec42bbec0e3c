"""Worker processes as a resource: starting, stopping, and the warm pool.

A worker is forked from the coordinator (:func:`spawn_worker`), so it
starts with the coordinator's imports in place: tens of milliseconds for
K = 2, where a fresh interpreter importing numpy and scipy took about half
a second each.  A backend with ``keep_warm`` set **parks** its workers into
:data:`WORKER_POOL` on clean close (they release every segment view and
wait idle, holding no spec); the next backend — of any configuration —
takes as many as it needs and binds them, saving the forks.
:func:`stop_workers` is the one teardown ladder every owner of worker
processes — a backend, the pool, recovery reaping a failed rank — goes
through.
"""

from __future__ import annotations

import atexit
import ctypes
import time
from typing import List

from repro.distributed.multiproc.channel import Channel
from repro.distributed.multiproc.worker import _worker_main
from repro.obs import OBS
from repro.utils.ahead import can_fork, fork

_PR_SET_NAME = 15


def _serve(channel: Channel) -> None:
    """A forked worker's life: named ``repro-mp-worker`` (its sampler
    process inherits the name — what the orphan probes match), with the
    coordinator's telemetry dropped, then the generic worker loop."""
    prctl = ctypes.CDLL(None).prctl
    prctl.argtypes = (ctypes.c_int, ctypes.c_char_p) + (ctypes.c_ulong,) * 3
    prctl.restype = ctypes.c_int
    prctl(_PR_SET_NAME, b"repro-mp-worker", 0, 0, 0)
    OBS.disable().reset()
    _worker_main(channel)


def spawn_worker() -> Channel:
    """Fork one generic worker from this process
    (:func:`repro.utils.ahead.fork`); returns the coordinator's channel to
    it.  Refused while the process runs a second thread: a fork copies only
    the calling thread, so a lock another thread holds would stay held in
    the worker."""
    if not can_fork():
        raise RuntimeError(
            "multiproc backend cannot start workers: they are forked from "
            "this process, which runs more than one thread (or has no "
            "os.fork)")
    return fork(_serve)


def stop_workers(channels: List[Channel], *, polite: bool = True) -> None:
    """Stop worker processes and close their channels; never raises.

    The escalation ladder: a polite ``stop`` frame and one shared 5 s
    join (skipped with ``polite=False`` — a rank known to be hung or to
    have corrupted its stream is not asked), then ``terminate``, then
    ``kill``.  Best-effort by design: it runs from finalizers and
    ``atexit``, over processes and pipes in any state.
    """
    procs = [ch.proc for ch in channels]
    if polite:
        for ch in channels:
            try:
                ch.send("stop", None)
            except Exception:
                pass
        deadline = time.monotonic() + 5.0
        for proc in procs:
            try:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
            except Exception:
                pass
    for escalate in ("terminate", "kill"):
        signalled = []
        for proc in procs:
            try:
                if proc.is_alive():
                    getattr(proc, escalate)()
                    signalled.append(proc)
            except Exception:
                pass
        for proc in signalled:
            try:
                proc.join(timeout=5.0)
            except Exception:
                pass
    for ch in channels:
        ch.close()


class WorkerPool:
    """Parked warm workers: live, idle processes holding no spec and no
    shared-memory attachment — a started process with its imports in
    place.  Any worker can be bound as any rank of
    any cluster, so the pool is one list.  Dead workers found at
    :meth:`take` time are disposed of; :meth:`clear` (also registered
    ``atexit``) stops everything politely, then escalates.
    """

    def __init__(self):
        self._idle: List[Channel] = []

    @property
    def num_parked(self) -> int:
        return len(self._idle)

    def park(self, workers: List[Channel]) -> None:
        for ch in workers:
            ch.attach()
        self._idle.extend(workers)

    def take(self, n: int) -> List[Channel]:
        """Up to ``n`` live parked workers, most recently parked first."""
        taken: List[Channel] = []
        while self._idle and len(taken) < n:
            ch = self._idle.pop()
            if ch.proc.is_alive():
                taken.append(ch)
            else:
                stop_workers([ch])
        return taken

    def clear(self) -> None:
        stop_workers(self._idle)
        self._idle.clear()


#: The process-wide warm pool (see :class:`WorkerPool`); cleared atexit.
WORKER_POOL = WorkerPool()
atexit.register(WORKER_POOL.clear)
