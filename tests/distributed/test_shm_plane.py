"""Property and protocol tests for the shared-memory gradient plane.

The hypothesis suite drives arbitrary field layouts (shapes, dtypes, worker
counts) through write/average/read round trips and demands bit-exact
results against the collective's frozen reference semantics
(``reference_average.average_gradient_arrays``, beside this file).  The
protocol tests exercise the seqlock doorbell: mid-write reads, stale step
tags, torn reads under a genuinely concurrent writer thread, and the
``None``-gradient (zeros) contract.
"""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_average import average_gradient_arrays
from repro.distributed.shm_plane import (
    HEADER_NBYTES,
    GradientPlane,
    GradSlab,
    SlabLayout,
    SlabStateError,
    TornReadError,
)

# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------


def _make_plane(templates, num_workers):
    layout = SlabLayout.from_templates(templates)
    buf = memoryview(bytearray(layout.plane_nbytes(num_workers)))
    plane = GradientPlane(buf, num_workers, layout)
    plane.reset()
    return plane


def _random_grads(rng, templates):
    return [rng.standard_normal(t.shape).astype(t.dtype) for t in templates]


_TEMPLATE_DTYPES = [np.dtype(s) for s in ("float32", "float64")]


@st.composite
def _layouts(draw):
    """A plausible parameter list: 1-6 fields, mixed dtypes and ranks."""
    num_fields = draw(st.integers(min_value=1, max_value=6))
    templates = []
    for _ in range(num_fields):
        # Real parameters are rank >= 1 (rank-0 "gradients" would also be
        # misread as scalar-None contributions by the reference collective).
        rank = draw(st.integers(min_value=1, max_value=2))
        shape = tuple(draw(st.integers(min_value=1, max_value=7))
                      for _ in range(rank))
        dtype = draw(st.sampled_from(_TEMPLATE_DTYPES))
        templates.append(np.zeros(shape, dtype=dtype))
    return templates


# ----------------------------------------------------------------------
# layout
# ----------------------------------------------------------------------


@given(_layouts())
@settings(max_examples=50, deadline=None)
def test_layout_fields_disjoint_and_aligned(templates):
    layout = SlabLayout.from_templates(templates)
    spans = []
    for f, t in zip(layout.fields, templates):
        dt = np.dtype(f.dtype)
        assert f.offset % dt.itemsize == 0
        assert f.shape == t.shape
        spans.append((f.offset, f.offset + t.size * dt.itemsize))
    for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
        assert a1 <= b0  # back to back, never overlapping
    assert layout.payload_nbytes == spans[-1][1]
    assert layout.slab_nbytes % 64 == 0
    assert layout.slab_nbytes >= HEADER_NBYTES + layout.payload_nbytes
    assert layout.plane_nbytes(4) == 5 * layout.slab_nbytes


def test_plane_rejects_short_buffer():
    templates = [np.zeros((3, 3), dtype=np.float64)]
    layout = SlabLayout.from_templates(templates)
    buf = memoryview(bytearray(layout.plane_nbytes(2) - 1))
    with pytest.raises(ValueError, match="disagree on the slab layout"):
        GradientPlane(buf, 2, layout)


# ----------------------------------------------------------------------
# round trips (hypothesis)
# ----------------------------------------------------------------------


@given(_layouts(), st.integers(min_value=1, max_value=5),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_write_average_read_matches_reference(templates, num_workers, seed):
    """The plane's whole per-step cycle is bit-identical to the in-process
    collective: worker writes -> coordinator average -> worker read."""
    rng = np.random.default_rng(seed)
    plane = _make_plane(templates, num_workers)
    per_machine = [_random_grads(rng, templates) for _ in range(num_workers)]

    for k, grads in enumerate(per_machine):
        plane.worker_slabs[k].write(grads, step=0)
    plane.average(0)

    reference = average_gradient_arrays(per_machine, templates)
    outs = [np.empty_like(t) for t in templates]
    plane.avg_slab.read_into(outs, step=0)
    for got, want in zip(outs, reference):
        np.testing.assert_array_equal(got, want)


@given(_layouts(), st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_slab_roundtrip_is_exact(templates, seed):
    rng = np.random.default_rng(seed)
    plane = _make_plane(templates, 1)
    slab = plane.worker_slabs[0]
    for step in range(3):
        grads = _random_grads(rng, templates)
        slab.write(grads, step=step)
        outs = [np.empty_like(t) for t in templates]
        slab.read_into(outs, step=step)
        for got, want in zip(outs, grads):
            np.testing.assert_array_equal(got, want)
        assert slab.seq == 2 * (step + 1)  # two bumps per write, always even


def test_none_gradients_average_as_zeros():
    """A ``None`` gradient (parameter untouched by the batch) contributes
    zeros — exactly the scalar-0.0 contribution of the reference."""
    templates = [np.zeros((2, 2), dtype=np.float64),
                 np.zeros(3, dtype=np.float64)]
    rng = np.random.default_rng(7)
    plane = _make_plane(templates, 3)
    per_machine = [
        _random_grads(rng, templates),
        [None, rng.standard_normal(3)],
        [None, None],
    ]
    for k, grads in enumerate(per_machine):
        plane.worker_slabs[k].write(grads, step=5)
    plane.average(5)
    reference = average_gradient_arrays(per_machine, templates)
    outs = [np.empty_like(t) for t in templates]
    plane.avg_slab.read_into(outs, step=5)
    for got, want in zip(outs, reference):
        np.testing.assert_array_equal(got, want)


# ----------------------------------------------------------------------
# seqlock protocol
# ----------------------------------------------------------------------


def test_read_rejects_unpublished_step():
    templates = [np.zeros(4, dtype=np.float64)]
    plane = _make_plane(templates, 1)
    outs = [np.empty(4, dtype=np.float64)]
    with pytest.raises(SlabStateError, match="holds step -1"):
        plane.worker_slabs[0].read_into(outs, step=0)


def test_read_rejects_stale_step_tag():
    templates = [np.zeros(4, dtype=np.float64)]
    plane = _make_plane(templates, 1)
    slab = plane.worker_slabs[0]
    slab.write([np.ones(4)], step=0)
    outs = [np.empty(4, dtype=np.float64)]
    with pytest.raises(SlabStateError, match="holds step 0, expected 1"):
        slab.read_into(outs, step=1)


def test_read_rejects_write_in_flight():
    templates = [np.zeros(4, dtype=np.float64)]
    plane = _make_plane(templates, 1)
    slab = plane.worker_slabs[0]
    slab.write([np.ones(4)], step=0)
    slab.begin_write()  # seq now odd: writer died mid-write
    outs = [np.empty(4, dtype=np.float64)]
    with pytest.raises(SlabStateError, match="write in flight"):
        slab.read_into(outs, step=0)


def test_average_attributes_violation_to_machine():
    templates = [np.zeros(4, dtype=np.float64)]
    plane = _make_plane(templates, 3)
    for k in range(3):
        plane.worker_slabs[k].write([np.full(4, float(k))], step=0)
    plane.worker_slabs[1].begin_write()  # machine 1 desynchronized
    with pytest.raises(SlabStateError) as excinfo:
        plane.average(0)
    assert excinfo.value.machine == 1


def test_torn_read_detected_under_concurrent_writer():
    """A writer thread racing the reader must surface as TornReadError (or
    a stale-step SlabStateError if the reader starts after a republish) —
    never as a silently inconsistent payload."""
    templates = [np.zeros((64, 64), dtype=np.float64)]
    layout = SlabLayout.from_templates(templates)
    buf = memoryview(bytearray(layout.plane_nbytes(1)))
    plane = GradientPlane(buf, 1, layout)
    plane.reset()
    slab = plane.worker_slabs[0]
    # A second slab object over the same bytes — the reader's own mapping,
    # as another process would hold one over the shared segment.
    reader_slab = GradSlab(buf[:layout.slab_nbytes], layout)
    stop = threading.Event()

    def writer():
        step = 0
        while not stop.is_set():
            slab.write([np.full((64, 64), float(step))], step=step)
            step += 1

    slab.write([np.zeros((64, 64))], step=0)
    t = threading.Thread(target=writer)
    t.start()
    outs = [np.empty((64, 64), dtype=np.float64)]
    attempts = 0
    try:
        for _ in range(2000):
            step = reader_slab.step
            attempts += 1
            try:
                reader_slab.read_into(outs, step=step)
            except TornReadError:
                continue  # the race fired and was detected — the contract
            except SlabStateError:
                continue  # republished between the step peek and the check
            # A read that *claims* success must be internally consistent:
            # every element equals the single step it was written under.
            assert np.all(outs[0] == outs[0].flat[0])
    finally:
        stop.set()
        t.join()
    assert attempts == 2000


def test_reset_clears_doorbell():
    templates = [np.zeros(4, dtype=np.float64)]
    plane = _make_plane(templates, 2)
    plane.worker_slabs[0].write([np.ones(4)], step=3)
    plane.reset()
    assert plane.worker_slabs[0].seq == 0
    assert plane.worker_slabs[0].step == -1
    assert plane.avg_slab.step == -1


def test_write_rejects_wrong_arity():
    templates = [np.zeros(4, dtype=np.float64)]
    plane = _make_plane(templates, 1)
    with pytest.raises(ValueError, match="expected 1 gradient arrays"):
        plane.worker_slabs[0].write([np.ones(4), np.ones(4)], step=0)


def test_release_allows_buffer_close():
    """After release() no view pins the buffer — the shared segment can be
    closed without BufferError (the coordinator teardown path)."""
    import multiprocessing.shared_memory as shm_mod

    templates = [np.zeros((8, 8), dtype=np.float64)]
    layout = SlabLayout.from_templates(templates)
    shm = shm_mod.SharedMemory(create=True, size=layout.plane_nbytes(2))
    try:
        plane = GradientPlane(shm.buf, 2, layout)
        plane.reset()
        plane.worker_slabs[0].write([np.ones((8, 8))], step=0)
        plane.release()
        shm.close()  # raises BufferError if any view survived
    finally:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass
