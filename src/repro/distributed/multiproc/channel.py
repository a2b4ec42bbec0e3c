"""The transport: one :class:`Channel` per coordinator↔worker pipe end.

A channel is the only thing in the package that touches a pipe.  ``send``
writes one :mod:`~repro.distributed.wire` frame and counts it; ``recv``
returns one decoded frame or raises :class:`ChannelError` naming the
machine — on end-of-stream (with the process's exit code when the channel
knows its process), a frame that fails its CRC, a frame of kind ``error``
(the worker's last word: its traceback), or an expired deadline; a
``send`` into a pipe whose process has gone raises that process's last
word the same way.  Liveness
is part of the transport too: ``recv(deadline, watch=...)`` waits on its
own pipe *and* the process sentinels of the ``watch``\\ ed peers, so a
death anywhere ends the wait at once, attributed to the peer that died.

The coordinator holds one channel per rank, the worker holds one to the
coordinator, and :func:`~repro.distributed.multiproc.pool.stop_workers`
sends its ``stop`` through them.  A second transport (sockets between
hosts) is a second implementation of these four methods.
"""

from __future__ import annotations

import time
from multiprocessing import connection
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.distributed.wire import WireError, pack_message, unpack_message


class ChannelError(RuntimeError):
    """A peer failed on the wire; ``machine`` names it (``None``: a peer
    that is no machine's worker), ``why`` says how."""

    def __init__(self, machine: Optional[int], why: str):
        super().__init__(why if machine is None else f"worker {machine}: {why}")
        self.machine = machine
        self.why = why


class Channel:
    """One pipe end, the frames that cross it, and (coordinator side) the
    process at its other end.

    ``sent`` / ``received`` map message kind to ``[count, bytes]``; the
    coordinator points them at its backend's ``wire_sent`` /
    ``wire_received`` tables (:meth:`attach`), so every frame is counted
    exactly once, by the channel that carried it.
    """

    def __init__(self, conn, proc=None, machine: Optional[int] = None):
        self.conn = conn
        self.proc = proc
        #: Armed by a ``corrupt`` fault: the next frame leaves with one
        #: payload byte flipped (just inside its CRC32 trailer).
        self.corrupt_next = False
        self.attach(machine)

    def attach(self, machine: Optional[int] = None,
               sent: Optional[Dict[str, List[int]]] = None,
               received: Optional[Dict[str, List[int]]] = None) -> None:
        """Attribute failures to ``machine`` and count frames into the
        given tables (fresh ones when omitted — a parked worker belongs to
        no backend)."""
        self.machine = machine
        self.sent = {} if sent is None else sent
        self.received = {} if received is None else received

    @property
    def closed(self) -> bool:
        return self.conn.closed

    def send(self, kind: str, payload: Any) -> None:
        data = pack_message(kind, payload)
        _count(self.sent, kind, len(data))
        if self.corrupt_next:
            self.corrupt_next = False
            torn = bytearray(data)
            torn[-5] ^= 0xFF
            data = bytes(torn)
        try:
            self.conn.send_bytes(data)
        except OSError as exc:
            if self.proc is not None and not self.closed:
                self.last_word()  # the peer's own failure, when it has one
            raise ChannelError(self.machine,
                               "pipe closed while sending") from exc

    def recv(self, deadline: Optional[float] = None,
             watch: Iterable["Channel"] = ()) -> Tuple[str, Any]:
        """The next frame, waiting until ``deadline`` (``time.monotonic``
        seconds; ``None`` blocks).  A ``watch``\\ ed peer whose process
        exits first raises that peer's failure instead."""
        peers = {c.proc.sentinel: c for c in watch
                 if c is not self and c.proc is not None}
        t0 = time.monotonic()
        timeout = None if deadline is None else max(deadline - t0, 0.0)
        ready = connection.wait([self.conn, *peers], timeout)
        if self.conn in ready:
            return self._read()
        for sentinel in ready:
            peers[sentinel].last_word()
        raise ChannelError(self.machine, f"no message within {timeout:.0f}s")

    def last_word(self) -> None:
        """Raise the failure of a peer whose process has exited: the error
        it reported, if its buffered frames hold one, else its death."""
        while True:
            self._read()

    def close(self) -> None:
        try:
            self.conn.close()
        except OSError:
            pass

    def _read(self) -> Tuple[str, Any]:
        try:
            data = self.conn.recv_bytes()
        except (EOFError, OSError):
            if self.proc is None:
                raise ChannelError(self.machine, "connection closed") from None
            self.proc.join(timeout=1.0)
            raise ChannelError(
                self.machine,
                f"process died (exit code {self.proc.exitcode})") from None
        try:
            kind, payload = unpack_message(data, machine=self.machine)
        except WireError as exc:
            raise ChannelError(self.machine,
                               f"malformed message: {exc}") from exc
        _count(self.received, kind, len(data))
        if kind == "error":
            tb = payload.get("traceback", "") \
                if isinstance(payload, dict) else ""
            raise ChannelError(self.machine, f"worker raised:\n{tb}")
        return kind, payload


def _count(table: Dict[str, List[int]], kind: str, nbytes: int) -> None:
    entry = table.setdefault(kind, [0, 0])
    entry[0] += 1
    entry[1] += nbytes
