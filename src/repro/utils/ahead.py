"""Run a generator ahead of its consumer — in a forked process, the repo's
one background worker.

An :class:`AheadProcess` is a child forked from the consumer that answers
each request by iterating ``produce(request)`` and streaming the items back
over one :class:`~repro.distributed.multiproc.channel.Channel`, never more
than ``slots`` beyond the last one the parent took, then the generator's
return value.  Work that depends on nothing its consumer produces (an
epoch's neighbourhood sampling, §4.3) so runs beside the consumer's own on
another core — not on a thread that takes turns with it on the GIL.
Whether to use it is decided by one observable property of the host,
:func:`spare_core`, not by a knob; :func:`can_fork` says whether this
process may fork at all.

The child inherits the parent's memory as it was at the fork, so it only
ever serves requests about state that cannot have moved since (the engine
re-forks when the graph its samplers read changes).  It keeps no file
descriptor but its end of the channel, ends with ``os._exit`` (no
inherited ``atexit`` hook or finalizer runs in it — the multiproc
backend's ``/dev/shm`` cleanup among them), and exits on end-of-stream
from its parent.  The parent kills and reaps it from :meth:`close`, which
a ``weakref.finalize`` on the owner also calls.
"""

from __future__ import annotations

import gc
import os
import signal
import sys
import time
import traceback
import weakref
from multiprocessing import connection
from typing import Any, Callable, Iterator, Optional, Tuple

#: Every :class:`AheadProcess` not yet closed — what ``tests/conftest.py``
#: reads after each test: none may outlive its owner.
OPEN: "set[AheadProcess]" = set()


def usable_cores() -> int:
    """Cores this process may run on (its affinity mask where the platform
    has one, else the machine's count)."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


def spare_core(compute_processes: int) -> bool:
    """*The* rule for running ahead: each of the cluster's
    ``compute_processes`` (1 in-process, ``K`` multiproc workers) gets a
    sampler process beside it, so the host needs a core for each of both.

    The trade-off: with ``K`` multiproc workers on fewer than ``2K``
    cores, the workers sample inline.  Inline is not all on a worker's
    critical path: the epoch loop draws every window after the first
    inside the gradient exchange that closes the window before it, while
    the worker waits for the coordinator's average
    (:meth:`~repro.distributed.engine.ExecutionEngine.run_machines`).  At
    ``K = 2`` on 2 cores that saves about 7.5 % of a ``train_multiproc``
    epoch (docs/performance.md, "The next window is drawn inside the
    exchange").  What a sampler process per worker would add on ``K + 1``
    … ``2K − 1`` cores is unmeasured."""
    return usable_cores() >= 2 * compute_processes


def can_fork() -> bool:
    """Whether this process may fork: the platform has ``os.fork`` and the
    interpreter runs one thread (a fork copies only the calling thread, so
    a lock another thread holds would stay held in the child)."""
    return hasattr(os, "fork") and len(sys._current_frames()) == 1


class ForkedChild:
    """The parent's handle on a forked child, with what a
    :class:`~repro.distributed.multiproc.channel.Channel` reads off a
    process: ``join(timeout)`` and ``exitcode`` (negative: the signal that
    ended it).

    Not a ``multiprocessing`` fork ``Process``: the multiproc backend's
    workers are daemonic, and ``Process.start`` refuses to start a child
    from a daemonic process — yet a worker forks its sampler like any
    engine."""

    def __init__(self, pid: int):
        self.pid = pid
        self.exitcode: Optional[int] = None

    def join(self, timeout: Optional[float] = None) -> None:
        deadline = None if timeout is None else time.monotonic() + timeout
        while self.exitcode is None:
            pid, status = os.waitpid(
                self.pid, 0 if deadline is None else os.WNOHANG)
            if pid:
                self.exitcode = os.waitstatus_to_exitcode(status)
            elif time.monotonic() >= deadline:
                return
            else:
                time.sleep(0.001)

    def kill(self) -> None:
        """End the child now (idempotent) and reap it."""
        if self.exitcode is None:
            os.kill(self.pid, signal.SIGKILL)  # a zombie takes it too
            self.join()


def fork(serve: Callable[[Any], None]):
    """Fork a child that runs ``serve(channel)`` on its end of a fresh
    pipe and then ends with ``os._exit`` — 0 when ``serve`` returned, 1
    when it raised.  Returns the parent's
    :class:`~repro.distributed.multiproc.channel.Channel`, whose ``proc``
    is the child's :class:`ForkedChild`."""
    # Imported here: the multiproc package imports the engine, which
    # imports this module.
    from repro.distributed.multiproc.channel import Channel

    parent_end, child_end = connection.Pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            fd = child_end.fileno()
            os.closerange(3, fd)
            os.closerange(fd + 1, os.sysconf("SC_OPEN_MAX"))
            gc.freeze()  # the inherited heap is never collected here
            serve(Channel(child_end))
            code = 0
        finally:
            os._exit(code)
    child_end.close()
    return Channel(parent_end, ForkedChild(pid))


def _serve(channel, produce: Callable[[Any], Iterator], slots: int) -> None:
    """The child's loop: per ``request`` frame, iterate ``produce(request)``
    — taking a ``credit`` before every item beyond the first ``slots`` —
    send each as an ``item`` frame and the return value as ``done``.
    Credits sent for the end of the stream are skipped at the next
    request.  Returns on end-of-stream; a failure of ``produce`` is sent
    as an ``error`` frame (its traceback) and re-raised."""
    from repro.distributed.multiproc.channel import ChannelError

    while True:
        try:
            kind, request = channel.recv()
        except ChannelError:
            return  # the parent closed its end
        if kind == "credit":
            continue
        items, credits = produce(request), slots
        try:
            while True:
                if not credits:
                    channel.recv()
                    credits = 1
                try:
                    item = next(items)
                except StopIteration as end:
                    channel.send("done", end.value)
                    break
                channel.send("item", item)
                credits -= 1
        except ChannelError:
            return
        except BaseException:
            channel.send("error", {"traceback": traceback.format_exc()})
            raise


class AheadProcess:
    """One forked child running ``produce(request)`` generators ahead of
    the parent, never more than ``slots`` items beyond the last one taken.

    Per request the parent calls :meth:`request`, then :meth:`take` once per
    item and :meth:`result` for the generator's return value.  A failure in
    the child — an exception in ``produce`` (its traceback), its death (its
    exit code) — is raised by the call that was waiting, as a
    :class:`~repro.distributed.multiproc.channel.ChannelError`.  A stream
    abandoned half-way cannot be resumed: :meth:`close` the process.  It is
    forked at construction, from ``owner``'s process, and closed at the
    latest when ``owner`` is collected.
    """

    def __init__(self, produce: Callable[[Any], Iterator], slots: int,
                 owner):
        self.channel = fork(lambda channel: _serve(channel, produce, slots))
        self.pid = self.channel.proc.pid
        self.owner = weakref.ref(owner)
        OPEN.add(self)
        self._finalizer = weakref.finalize(owner, self.close)

    def request(self, payload) -> None:
        self.channel.send("request", payload)

    def take(self) -> Tuple[Any, bool]:
        """The next item and whether the parent had to wait for it (none
        was in the pipe when asked); hands the child one credit."""
        waited = not self.channel.conn.poll()
        _kind, item = self.channel.recv()
        self.channel.send("credit", None)
        return item, waited

    def result(self):
        """The return value of the request's generator."""
        _kind, value = self.channel.recv()
        return value

    def close(self) -> None:
        """Kill and reap the child (idempotent)."""
        if self in OPEN:
            OPEN.discard(self)
            self._finalizer.detach()
            # Kill before closing the pipe: a child that reads EOF first
            # ends on its own, and the kill then only reaps it.
            self.channel.proc.kill()
            self.channel.close()
