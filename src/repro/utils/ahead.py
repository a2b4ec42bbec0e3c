"""Run a generator ahead of its consumer — the repo's one background thread.

:func:`run_ahead` iterates a generator on a daemon thread behind a bounded
hand-off, so work that depends on nothing its consumer produces (an epoch's
neighbourhood sampling, §4.3) overlaps the consumer's own.  Whether to use
it is decided by one observable property of the host, :func:`spare_core`,
not by a knob.
"""

from __future__ import annotations

import os
import queue
import threading

#: Name of every :func:`run_ahead` thread — what ``tests/conftest.py``
#: looks for after each test: none may outlive the epoch that started it.
THREAD_NAME = "repro-run-ahead"


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the platform
    has one, else the machine's count)."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def spare_core(compute_processes: int) -> bool:
    """*The* rule for running ahead: a background thread only helps when
    the host has a core the cluster's ``compute_processes`` (1 in-process,
    ``K`` multiproc workers) do not already occupy."""
    return usable_cores() > compute_processes


def run_ahead(generator, slots: int):
    """Iterate ``generator`` on a daemon thread, never more than ``slots``
    items beyond the last one the consumer took; yields ``(item, waited)``
    — ``waited`` is whether the hand-off was empty when the consumer asked.

    Items arrive in order; an exception raised by ``generator`` is re-raised
    by the ``next()`` that would have returned its item, traceback intact.
    On *every* exit — exhaustion, a producer exception, the consumer's
    ``close()`` (reach it with ``contextlib.closing``: a frame that raised
    keeps its locals alive) — the producer is stopped and **joined** and
    ``generator`` closed, so it is never touched by two threads and no
    thread outlives its consumer.  Nothing blocks without a way out: the
    hand-off queue is unbounded (the bound is the ``slots`` semaphore, taken
    *before* an item is produced) and the exit path releases that semaphore
    after setting the stop flag.  The thread starts at the first ``next()``.
    """
    items = queue.SimpleQueue()
    free, stop = threading.Semaphore(slots), threading.Event()

    def produce() -> None:
        try:
            while True:
                free.acquire()
                if stop.is_set():
                    return
                items.put((next(generator), None))
        except BaseException as exc:  # StopIteration too: the end of the
            items.put((None, exc))    # stream travels like any other exit

    thread = threading.Thread(target=produce, name=THREAD_NAME, daemon=True)
    thread.start()
    try:
        while True:
            waited = items.empty()
            item, exc = items.get()
            if isinstance(exc, StopIteration):
                return
            if exc is not None:
                raise exc
            free.release()
            yield item, waited
    finally:
        stop.set()
        free.release()
        thread.join()
        generator.close()
