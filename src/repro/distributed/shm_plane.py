"""Zero-copy shared-memory gradient plane for the multiproc backend.

The first multiproc data plane shipped every per-step gradient (and the
averaged reply) through the pipe as wire-encoded frames — K encode /
decode round trips per training step, all on the coordinator's critical
path.  This module replaces that with one shared-memory segment holding
``K + 1`` fixed-layout *slabs*: one per worker (worker-written, coordinator-
read) plus one for the averaged result (coordinator-written, worker-read).
Pipes then carry only tiny control tokens; the arrays never leave shared
memory.

Layout
------
Every slab is ``HEADER_NBYTES`` of int64 doorbell words followed by the
flattened parameter fields, each aligned to its own itemsize, the whole
slab padded to a 64-byte boundary so slabs never share a cache line::

    word 0   seq   — seqlock version: odd while a write is in flight,
                     even when the payload is stable; bumped twice per write
    word 1   step  — the training step the stable payload belongs to
                     (initialized to -1: "nothing published yet")
    words 2+       — reserved (zero)

Both sides compute the layout independently from their model replica's
``named_parameters()`` order — identical by construction, and verified at
bind time by comparing total payload bytes against the segment size.

Synchronization contract
------------------------
The *pipe tokens* are the real synchronization: a worker publishes its slab
before sending its step token, and the coordinator publishes the averaged
slab before sending the avg tokens, so neither side ever reads a slab that
the other may still be writing.  The seqlock words are an integrity check
on top — a reader that observes an odd ``seq``, a stale ``step`` tag, or a
``seq`` change across its copy raises :class:`SlabStateError` /
:class:`TornReadError` instead of silently averaging garbage (e.g. after a
worker crashed mid-write or desynchronized from the step protocol).

Averaging semantics
-------------------
:meth:`GradientPlane.average` must keep multiproc training bit-identical to
the in-process oracle, so it calls the collective's single floating-point
definition (:func:`repro.distributed.comm.average_into`): machine 0's field
first, then ``+= g_1 ... += g_{K-1}``, then one division by K — the function
the in-process all-reduce calls, applied in place over the shared slabs
with zero copies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.distributed.comm import average_into
from repro.obs import OBS

#: Doorbell words at the head of every slab (int64 each).
HEADER_WORDS = 8
HEADER_NBYTES = HEADER_WORDS * 8

_SEQ = 0
_STEP = 1

#: Slab stride alignment: no two slabs share a cache line.
_SLAB_ALIGN = 64


class SlabStateError(RuntimeError):
    """A slab's doorbell words disagree with the protocol state.

    ``machine`` identifies the offending worker slab when known (the
    averaged slab reports ``None``)."""

    def __init__(self, message: str, machine: Optional[int] = None):
        super().__init__(message)
        self.machine = machine


class TornReadError(SlabStateError):
    """The slab's seq changed while a reader was copying the payload."""


@dataclass(frozen=True)
class SlabField:
    """One flattened parameter's placement inside a slab's payload."""

    offset: int  # bytes from the payload start (header excluded)
    shape: Tuple[int, ...]
    dtype: str


def _align(offset: int, alignment: int) -> int:
    return -(-offset // alignment) * alignment


@dataclass(frozen=True)
class SlabLayout:
    """Field placement shared by every slab of one gradient plane."""

    fields: Tuple[SlabField, ...]
    payload_nbytes: int

    @classmethod
    def from_templates(cls, templates: Sequence[np.ndarray]) -> "SlabLayout":
        """Lay the arrays out back to back, each aligned to its itemsize.

        ``templates`` is the parameter order both sides share (the model's
        ``named_parameters()`` values); gradients always match their
        parameter's shape and dtype.
        """
        fields: List[SlabField] = []
        offset = 0
        for arr in templates:
            dt = np.dtype(arr.dtype)
            offset = _align(offset, dt.itemsize)
            fields.append(SlabField(offset=offset, shape=tuple(arr.shape),
                                    dtype=dt.str))
            offset += int(arr.size) * dt.itemsize
        return cls(fields=tuple(fields), payload_nbytes=offset)

    @property
    def slab_nbytes(self) -> int:
        """Full slab stride: header + payload, cache-line padded."""
        return _align(HEADER_NBYTES + self.payload_nbytes, _SLAB_ALIGN)

    def plane_nbytes(self, num_workers: int) -> int:
        """Segment size for ``num_workers`` worker slabs + the avg slab."""
        return (num_workers + 1) * self.slab_nbytes


class GradSlab:
    """One slab: seqlock doorbell + typed views over the payload fields.

    Single-writer: the owning side bumps ``seq`` to odd, writes every
    field, then bumps ``seq`` to even and tags ``step``.  Readers verify
    stability before *and* after touching the payload.
    """

    def __init__(self, buf: memoryview, layout: SlabLayout):
        if len(buf) < HEADER_NBYTES + layout.payload_nbytes:
            raise ValueError(
                f"slab buffer too small: need "
                f"{HEADER_NBYTES + layout.payload_nbytes} bytes, have {len(buf)}"
            )
        self._header = np.frombuffer(buf, dtype=np.int64, count=HEADER_WORDS)
        self.fields: List[np.ndarray] = []
        for f in layout.fields:
            dt = np.dtype(f.dtype)
            count = 1
            for dim in f.shape:
                count *= dim
            view = np.frombuffer(buf, dtype=dt, count=count,
                                 offset=HEADER_NBYTES + f.offset)
            self.fields.append(view.reshape(f.shape))

    # -- doorbell ------------------------------------------------------
    @property
    def seq(self) -> int:
        return int(self._header[_SEQ])

    @property
    def step(self) -> int:
        return int(self._header[_STEP])

    def reset(self) -> None:
        self._header[:] = 0
        self._header[_STEP] = -1

    def begin_write(self) -> None:
        """Mark the payload unstable (seq -> odd)."""
        self._header[_SEQ] += 1

    def publish(self, step: int) -> None:
        """Mark the payload stable (seq -> even) and tag its step."""
        self._header[_STEP] = step
        self._header[_SEQ] += 1

    def check_stable(self, step: int, machine: Optional[int] = None) -> int:
        """Require an even seq and a matching step tag; returns the seq."""
        if OBS.enabled:
            OBS.metrics.counter("shm.seqlock_checks").inc()
        seq = self.seq
        if seq % 2 != 0:
            if OBS.enabled:
                OBS.metrics.counter("shm.slab_state_errors").inc()
            raise SlabStateError(
                f"slab write in flight (seq {seq})", machine=machine)
        if self.step != step:
            if OBS.enabled:
                OBS.metrics.counter("shm.slab_state_errors").inc()
            raise SlabStateError(
                f"slab holds step {self.step}, expected {step}",
                machine=machine)
        return seq

    # -- payload -------------------------------------------------------
    def write(self, arrays: Sequence[Optional[np.ndarray]], step: int) -> None:
        """Publish one gradient set (``None`` entries become zeros)."""
        if len(arrays) != len(self.fields):
            raise ValueError(
                f"expected {len(self.fields)} gradient arrays, "
                f"got {len(arrays)}"
            )
        self.begin_write()
        for dst, src in zip(self.fields, arrays):
            if src is None:
                dst[...] = 0.0
            else:
                dst[...] = src
        self.publish(step)
        if OBS.enabled:
            OBS.metrics.counter("shm.slab_writes").inc()

    def read_into(self, outs: Sequence[np.ndarray], step: int,
                  machine: Optional[int] = None) -> None:
        """Copy the stable payload tagged ``step`` into ``outs``.

        Raises :class:`SlabStateError` if the slab is mid-write or holds a
        different step, :class:`TornReadError` if the writer intervened
        while we were copying.
        """
        seq = self.check_stable(step, machine=machine)
        for dst, src in zip(outs, self.fields):
            dst[...] = src
        if self.seq != seq:
            # No retry here by design: the control tokens are the real
            # synchronization, so a torn read is a protocol fault worth
            # surfacing, not a transient to spin on.  The counter makes
            # detections visible in the registry.
            if OBS.enabled:
                OBS.metrics.counter("shm.torn_reads").inc()
            raise TornReadError(
                f"slab rewritten during read (seq {seq} -> {self.seq})",
                machine=machine)

    def release(self) -> None:
        """Drop every view so the underlying buffer can be closed."""
        self._header = None
        self.fields = []


class GradientPlane:
    """K worker slabs + one averaged slab over a single shared buffer.

    The coordinator constructs one over the segment it created; each worker
    constructs one over its read-write attachment and uses
    ``worker_slabs[machine]`` (its own, write) and ``avg_slab`` (read).
    """

    def __init__(self, buf: memoryview, num_workers: int, layout: SlabLayout):
        need = layout.plane_nbytes(num_workers)
        if len(buf) < need:
            raise ValueError(
                f"gradient plane needs {need} bytes, segment has {len(buf)} "
                f"— worker and coordinator disagree on the slab layout"
            )
        self.layout = layout
        stride = layout.slab_nbytes
        self.worker_slabs = [GradSlab(buf[i * stride:(i + 1) * stride], layout)
                             for i in range(num_workers)]
        self.avg_slab = GradSlab(
            buf[num_workers * stride:(num_workers + 1) * stride], layout)

    def reset(self) -> None:
        for slab in self.worker_slabs:
            slab.reset()
        self.avg_slab.reset()

    def average(self, step: int) -> None:
        """Average the worker slabs for ``step`` into the avg slab, in place.

        Verifies every worker slab is stable and tagged ``step`` before the
        reduction and unchanged after it (seqlock check), then publishes the
        averaged slab under the same step tag.  Floating-point semantics are
        :func:`~repro.distributed.comm.average_into` — exactly the
        in-process collective's.
        """
        seqs = [slab.check_stable(step, machine=k)
                for k, slab in enumerate(self.worker_slabs)]
        self.avg_slab.begin_write()
        average_into(
            [slab.fields for slab in self.worker_slabs],
            self.avg_slab.fields,
        )
        for k, (slab, seq) in enumerate(zip(self.worker_slabs, seqs)):
            if slab.seq != seq:
                if OBS.enabled:
                    OBS.metrics.counter("shm.torn_reads").inc()
                raise TornReadError(
                    f"worker slab rewritten during averaging "
                    f"(seq {seq} -> {slab.seq})", machine=k)
        self.avg_slab.publish(step)
        if OBS.enabled:
            OBS.metrics.counter("shm.averages").inc()

    def release(self) -> None:
        """Drop every numpy view into the buffer (required before the
        owning ``SharedMemory`` can be closed without BufferError)."""
        for slab in self.worker_slabs:
            slab.release()
        self.avg_slab.release()
        self.worker_slabs = []
        self.avg_slab = None
