"""Worker processes as a resource: spawning, stopping, and the warm pool.

Spawning K interpreters and importing numpy in each costs seconds; binding
a spec costs milliseconds.  A backend with ``keep_warm`` set **parks** its
workers into :data:`WORKER_POOL` on clean close (they release every segment
view and wait idle, holding no spec); the next backend — of any
configuration — takes as many as it needs and binds them, amortizing the
spawn cost across ``SalientPP`` runs.  :func:`stop_workers` is the one
teardown ladder every owner of worker processes — a backend, the pool,
recovery reaping a failed rank — goes through.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import sys
import time
from multiprocessing import get_context
from typing import List

from repro.distributed.multiproc.channel import Channel
from repro.distributed.multiproc.worker import _worker_main


@contextlib.contextmanager
def _spawn_safe_main():
    """Make ``Process.start()`` safe when ``__main__`` has no real file.

    The spawn context re-imports the parent's ``__main__`` in every child;
    with code fed via stdin (``python -``, heredocs) the recorded path is
    the pseudo-file ``"<stdin>"`` and the child dies in ``runpy`` before
    reaching the worker target.  Our workers are self-contained (the target
    is :func:`~repro.distributed.multiproc.worker._worker_main`, the state
    a wire-encoded spec), so when the main module's file does not actually
    exist we drop its ``__file__`` for the duration of the spawn —
    ``get_preparation_data`` then skips the main-module fixup entirely.
    """
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    strip = (path is not None
             and getattr(main, "__spec__", None) is None
             and not os.path.exists(path))
    if strip:
        del main.__file__
    try:
        yield
    finally:
        if strip and not hasattr(main, "__file__"):
            main.__file__ = path


def spawn_worker(k: int) -> Channel:
    """Spawn one generic worker; returns the coordinator's channel to it."""
    ctx = get_context("spawn")
    parent, child = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=_worker_main, args=(child,),
                       daemon=True, name=f"repro-mp-worker-{k}")
    with _spawn_safe_main():
        proc.start()
    child.close()
    return Channel(parent, proc, machine=k)


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
    shared-memory attachment — just the imported interpreter (the
    expensive part of a spawn).  Any worker can be bound as any rank of
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
