"""Worker processes as a resource: spawning, stopping, and the warm pool.

Spawning K interpreters and importing numpy in each costs seconds; binding
a spec costs milliseconds.  A backend with ``keep_warm`` set **parks** its
workers into :data:`WORKER_POOL` on clean close (they release every segment
view and wait idle); the next backend whose cluster *fingerprint* matches
acquires them and rebinds, amortizing the spawn cost across ``SalientPP``
runs.  :func:`stop_workers` is the one teardown ladder every owner of
worker processes — a backend, the pool, recovery reaping a failed rank —
goes through.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import sys
import time
from multiprocessing import get_context
from typing import Dict, List, Optional

from repro.distributed.multiproc.worker import _worker_main
from repro.distributed.wire import pack_message


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


def spawn_worker(k: int):
    """Spawn one generic worker; returns ``(process, parent_conn)``."""
    ctx = get_context("spawn")
    parent, child = ctx.Pipe(duplex=True)
    proc = ctx.Process(target=_worker_main, args=(child,),
                       daemon=True, name=f"repro-mp-worker-{k}")
    with _spawn_safe_main():
        proc.start()
    child.close()
    return proc, parent


def stop_workers(procs: list, conns: list, *, polite: bool = True) -> None:
    """Stop worker processes and close their pipes; never raises.

    The escalation ladder: a polite ``stop`` message and one shared 5 s
    join (skipped with ``polite=False`` — a rank known to be hung or to
    have corrupted its stream is not asked), then ``terminate``, then
    ``kill``.  Best-effort by design: it runs from finalizers and
    ``atexit``, over processes and pipes in any state.
    """
    if polite:
        for conn in conns:
            try:
                conn.send_bytes(pack_message("stop", None))
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
    for conn in conns:
        try:
            conn.close()
        except Exception:
            pass


class WorkerPool:
    """Parked warm worker clusters, keyed by cluster fingerprint.

    A parked worker is a live, idle process holding no shared-memory
    attachments — just the imported interpreter (the expensive part of a
    spawn).  Clusters park and acquire as a unit: machine ``k``'s pipe
    stays machine ``k``'s pipe.  Dead clusters found at acquire time are
    disposed of; :meth:`clear` (also registered ``atexit``) stops
    everything politely, then escalates.
    """

    def __init__(self):
        self._clusters: Dict[str, List[list]] = {}
        # Loose parked workers left over when recovery broke a cluster up
        # for a single-rank replacement; same fingerprint key.
        self._spares: Dict[str, list] = {}

    @property
    def num_parked(self) -> int:
        """Total parked worker processes across all fingerprints."""
        return sum(len(workers) for stack in self._clusters.values()
                   for workers in stack) \
            + sum(len(v) for v in self._spares.values())

    def park(self, key: str, workers: list) -> None:
        self._clusters.setdefault(key, []).append(list(workers))

    def acquire(self, key: str) -> Optional[list]:
        """Pop one fully-alive parked cluster for ``key``, or ``None``."""
        stack = self._clusters.get(key)
        while stack:
            workers = stack.pop()
            if not stack:
                self._clusters.pop(key, None)
            if all(proc.is_alive() for proc, _conn in workers):
                return workers
            self._dispose(workers)
        self._clusters.pop(key, None)
        return None

    def acquire_spare(self, key: str):
        """Pop one live parked worker for ``key`` — recovery's warm path.

        Prefers a loose spare; otherwise breaks up a parked cluster of the
        same fingerprint (the remainder becomes spares — parked workers
        are generic, so any of them can be rebound as any rank).  Returns
        a ``(process, conn)`` pair or ``None``.
        """
        spares = self._spares.get(key, [])
        while spares:
            proc, conn = spares.pop()
            if not spares:
                self._spares.pop(key, None)
            if proc.is_alive():
                return proc, conn
            self._dispose([(proc, conn)])
        cluster = self.acquire(key)
        if cluster is None:
            return None
        taken = cluster.pop()
        if cluster:
            self._spares.setdefault(key, []).extend(cluster)
        return taken

    def clear(self) -> None:
        for stack in self._clusters.values():
            for workers in stack:
                self._dispose(workers)
        self._clusters.clear()
        for spares in self._spares.values():
            self._dispose(spares)
        self._spares.clear()

    @staticmethod
    def _dispose(workers: list) -> None:
        stop_workers([proc for proc, _conn in workers],
                     [conn for _proc, conn in workers])


#: The process-wide warm pool (see :class:`WorkerPool`); cleared atexit.
WORKER_POOL = WorkerPool()
atexit.register(WORKER_POOL.clear)
