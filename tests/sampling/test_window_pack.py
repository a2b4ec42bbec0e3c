"""A window of MFGs as two int64 arrays: ``pack_window`` / ``unpack_window``.

What the sampler process sends per comm window.  The round trip must give
back every array and every size exactly, as views into the one received
array, through the constructors that check a block; a layout that does not
add up must raise, never build a wrong MFG.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import load_dataset
from repro.sampling import MFG, MFGBlock, NeighborSampler
from repro.sampling.mfg import pack_window, unpack_window


@st.composite
def mfgs(draw):
    """A valid MFG: 0-4 hops, each hop adding 0-3 vertices to the last
    (so one-vertex MFGs), 0-3 sampled sources per destination (so blocks
    without an edge)."""
    hops = draw(st.integers(0, 4))
    sizes = [draw(st.integers(1, 3))]
    for _ in range(hops):
        sizes.append(sizes[-1] + draw(st.integers(0, 3)))
    n_id = np.array(draw(st.lists(st.integers(0, 2**40), min_size=sizes[-1],
                                  max_size=sizes[-1], unique=True)),
                    dtype=np.int64)
    blocks = []
    for num_dst, num_src in zip(sizes, sizes[1:]):
        counts = draw(st.lists(st.integers(0, 3), min_size=num_dst,
                               max_size=num_dst))
        src = draw(st.lists(st.integers(0, num_src - 1), min_size=sum(counts),
                            max_size=sum(counts)))
        blocks.append(MFGBlock(np.concatenate([[0], np.cumsum(counts)]),
                               np.array(src, dtype=np.int64), num_src,
                               num_dst))
    return MFG(n_id=n_id, blocks=blocks, seeds=n_id[:sizes[0]].copy())


def assert_same(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.array_equal(a.n_id, b.n_id) and a.n_id.dtype == np.int64
        assert np.array_equal(a.seeds, b.seeds)
        assert a.num_hops == b.num_hops
        for x, y in zip(a.blocks, b.blocks):
            assert (x.num_src, x.num_dst) == (y.num_src, y.num_dst)
            assert np.array_equal(x.dst_ptr, y.dst_ptr)
            assert np.array_equal(x.src_index, y.src_index)


@given(windows=st.lists(st.lists(mfgs(), min_size=1, max_size=10),
                        min_size=1, max_size=3))
@settings(max_examples=150, deadline=None)
def test_a_window_round_trips_as_views_into_one_array(windows):
    """``windows``: 1-10 MFGs per machine, packed machine by machine."""
    window = [mfg for machine in windows for mfg in machine]
    flat, layout = pack_window(window)
    assert flat.dtype == layout.dtype == np.int64
    got = unpack_window(flat, layout)
    assert_same(got, window)
    for mfg in got:
        for array in (mfg.n_id, mfg.seeds, *(a for b in mfg.blocks
                                             for a in (b.dst_ptr,
                                                       b.src_index))):
            assert array.base is flat or array.size == 0
    if len(flat):
        with pytest.raises(ValueError, match="window"):
            unpack_window(flat[:-1], layout)


def test_an_empty_window_round_trips():
    flat, layout = pack_window([])
    assert flat.tolist() == [] and layout.tolist() == [0]
    assert unpack_window(flat, layout) == []


@pytest.fixture(scope="module")
def sampled():
    """A real window: eight tiny-dataset minibatches, three hops."""
    ds = load_dataset("tiny")
    sampler = NeighborSampler(ds.graph, (5, 4, 3), seed=0)
    return list(sampler.batches(ds.train_idx, 16))[:8]


def test_a_sampled_window_round_trips(sampled):
    assert_same(unpack_window(*pack_window(sampled)), sampled)


def test_a_truncated_or_padded_window_raises(sampled):
    flat, layout = pack_window(sampled)
    with pytest.raises(ValueError, match=r"wants \d+ values at offset"):
        unpack_window(flat[:-1], layout)
    with pytest.raises(ValueError, match="does not add up"):
        unpack_window(np.append(flat, 7), layout)
    with pytest.raises(ValueError, match="ends before its last block"):
        unpack_window(flat, layout[:-1])


@pytest.mark.parametrize("more", [1, -1])
def test_a_wrong_block_count_raises(sampled, more):
    """The first MFG's hop count one off: the layout no longer adds up."""
    flat, layout = pack_window(sampled)
    wrong = layout.copy()
    wrong[1] += more
    with pytest.raises(ValueError):
        unpack_window(flat, wrong)
    last = pack_window(sampled[-1:])
    wrong = last[1].copy()
    wrong[1] += more
    with pytest.raises(ValueError, match="ends before|does not add up"):
        unpack_window(last[0], wrong)


def test_a_block_the_constructor_rejects_raises(sampled):
    """Every ``MFGBlock`` check runs on what was received: a source index
    out of range, sizes otherwise intact."""
    flat, layout = pack_window(sampled[:1])
    mfg = sampled[0]
    src_at = len(mfg.n_id) + len(mfg.seeds) + len(mfg.blocks[0].dst_ptr)
    flat[src_at] = mfg.blocks[0].num_src
    with pytest.raises(ValueError, match="src_index out of range"):
        unpack_window(flat, layout)


def test_a_corrupted_window_frame_is_a_channel_error(sampled):
    """The window still travels as one CRC-checked wire message: a flipped
    byte is refused by the channel before anything is unpacked."""
    from multiprocessing import connection

    from repro.distributed.multiproc.channel import Channel, ChannelError

    ends = connection.Pipe()
    sender, receiver = (Channel(end) for end in ends)
    try:
        frame = (*pack_window(sampled), [(0, 0, 1, 2)])
        sender.send("item", frame)
        _kind, (flat, layout, stamps) = receiver.recv()
        assert_same(unpack_window(flat, layout), sampled)
        assert stamps == [(0, 0, 1, 2)]
        sender.corrupt_next = True
        sender.send("item", frame)
        with pytest.raises(ChannelError, match="malformed message"):
            receiver.recv()
    finally:
        sender.close()
        receiver.close()
