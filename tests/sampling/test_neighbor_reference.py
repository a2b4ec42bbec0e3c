"""``sample_neighbors`` held to its frozen predecessor, bit for bit.

The production function argsorts only the keys below a per-row threshold
and computes edge positions for the *picked* candidates only;
``reference_neighbor.py`` (never edit it) argsorts every candidate's key and
builds every candidate's edge position first.  Same outputs
(``np.array_equal``) and the same generator state afterwards, over a static
CSR and a streaming overlay with edited and emptied rows, hub rows far
above the fanout, capped / uncapped / mixed fanouts, empty rows, isolated
targets, rows the threshold cuts short, and with or without a shared arena.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_neighbor import sample_neighbors as reference_sample_neighbors
from test_neighbor import star_graph
from repro.graph import erdos_renyi, load_dataset
from repro.graph.csr import CSRGraph
from repro.graph.generators import chung_lu
from repro.graph.mutable import MutableGraph
from repro.sampling import NeighborSampler
from repro.sampling.neighbor import (SampleArena, _key_thresholds,
                                     sample_neighbors)


def overlay(graph: CSRGraph, seed: int) -> MutableGraph:
    """Undirected ``graph`` under an overlay that edits rows, empties its
    largest row, and isolates two more vertices (every edge deleted)."""
    gen = np.random.default_rng(seed)
    n = graph.num_vertices
    mg = MutableGraph(graph, compact_cutoff=None)
    src = gen.integers(0, n, size=12)
    dst = (src + 1 + gen.integers(0, n - 1, size=12)) % n
    mg.add_edges(src, dst)
    for victim in (int(np.argmax(graph.degrees)), *gen.integers(0, n, 2)):
        nbrs = mg.neighbors(victim)
        mg.remove_edges(np.full(len(nbrs), victim), nbrs)
    return mg


def assert_same_draw(graph, targets, fanout, seed, *, shared_arena):
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    arenas = (SampleArena(), SampleArena()) if shared_arena else (None, None)
    for _ in range(3 if shared_arena else 1):  # reused scratch, moving RNG
        got = sample_neighbors(graph, targets, fanout, rng_new,
                               arena=arenas[0])
        want = reference_sample_neighbors(graph, targets, fanout, rng_ref,
                                          arena=arenas[1])
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[1].dtype == want[1].dtype
        assert rng_new.bit_generator.state == rng_ref.bit_generator.state


@given(
    n=st.integers(8, 90),
    avg_deg=st.floats(0.5, 9.0),
    fanout=st.sampled_from([-1, 1, 2, 3, 5, 8, 40]),
    seed=st.integers(0, 2**31 - 1),
    streaming=st.booleans(),
    shared_arena=st.booleans(),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_equals_frozen_reference(n, avg_deg, fanout, seed, streaming,
                                 shared_arena, data):
    graph = erdos_renyi(n, avg_deg, seed=seed)
    if streaming:
        graph = overlay(graph, seed)
    targets = np.array(data.draw(st.lists(
        st.integers(0, graph.num_vertices - 1), max_size=40, unique=True)),
        dtype=np.int64)
    assert_same_draw(graph, targets, fanout, seed + 1,
                     shared_arena=shared_arena)


@pytest.mark.parametrize("fanout", [-1, 1, 3])
@pytest.mark.parametrize("streaming", [False, True])
def test_empty_rows_and_isolated_targets(fanout, streaming):
    """Targets whose rows are empty (isolated vertices; on the overlay also
    an emptied row) between targets that have neighbours, rows the overlay
    edited; and a frontier with no candidates at all."""
    src = np.array([0, 0, 0, 2, 5, 5])
    dst = np.array([2, 3, 5, 5, 1, 4])
    graph = CSRGraph.from_edges(np.concatenate([src, dst]),
                                np.concatenate([dst, src]), 8)
    if streaming:
        graph = MutableGraph(graph, compact_cutoff=None)
        graph.add_edges([6, 1], [0, 4])
        graph.remove_edges([2, 2], [0, 5])  # row 2 emptied; 7 stays isolated
    everyone = np.arange(graph.num_vertices, dtype=np.int64)
    for targets in (everyone, everyone[::-1], everyone[graph.degrees == 0],
                    everyone[:0]):
        for shared_arena in (False, True):
            assert_same_draw(graph, targets, fanout, 11,
                             shared_arena=shared_arena)


def hub_graph(seed: int) -> CSRGraph:
    """A Chung-Lu power-law graph (degree exponent ~2.1, mean ~10) whose
    hubs have degree far above every fanout under test."""
    n = 1500
    weights = (1.0 + np.arange(n)) ** (-1 / 1.1)
    return chung_lu(weights * (10 * n / weights.sum()), seed=seed)


@pytest.mark.parametrize("fanout", [1, 3, 5, 15, -1])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_hub_rows(fanout, seed):
    """Rows with ``deg >> fanout`` — where the threshold cuts hardest —
    beside low-degree rows, on a power-law graph and a hand-built star."""
    graph = hub_graph(seed)
    by_degree = np.argsort(graph.degrees, kind="stable")[::-1]
    assert graph.degrees[by_degree[0]] > 10 * 15
    gen = np.random.default_rng(seed)
    targets = np.union1d(by_degree[:25],
                         gen.choice(graph.num_vertices, 200, replace=False))
    for shared_arena in (False, True):
        assert_same_draw(graph, gen.permutation(targets), fanout, seed + 7,
                         shared_arena=shared_arena)
    hub = star_graph(600)
    for targets in ([0], [3, 0, 9], np.arange(601)):
        assert_same_draw(hub, np.asarray(targets, dtype=np.int64), fanout,
                         seed, shared_arena=False)


def short_rows(graph, targets, fanout: int, seed: int) -> np.ndarray:
    """Which rows keep fewer than ``take`` keys below their first threshold,
    for the keys a fresh ``default_rng(seed)`` draws for this frontier."""
    deg = graph.degrees[targets]
    take = np.minimum(deg, fanout)
    keys = np.random.default_rng(seed).random(int(deg.sum()))
    rows = np.split(keys, np.cumsum(deg)[:-1])
    return np.array([np.count_nonzero(row < t) < k for row, t, k
                     in zip(rows, _key_thresholds(take, deg), take)])


@pytest.mark.parametrize("fanout", [1, 2, 5])
def test_short_row_fallback(fanout):
    """A frontier where the first threshold leaves some rows (not all) with
    fewer than ``take`` survivors: those rows are filtered again with every
    key and the draw is still the reference's."""
    # deg >> take maximises the chance of a short row (~e^-7 per row at
    # take = 1); with 300 such rows about one seed in five has one.
    rows, deg = 300, 200
    indptr = np.arange(rows + 1, dtype=np.int64) * deg
    indices = (7 * np.arange(rows)[:, None] + np.arange(deg)) % rows
    graph = CSRGraph(indptr, indices.ravel(), check=False)
    targets = np.arange(rows, dtype=np.int64)
    seed = next(s for s in range(5000)
                if short_rows(graph, targets, fanout, s).any())
    assert not short_rows(graph, targets, fanout, seed).all()
    for shared_arena in (False, True):
        assert_same_draw(graph, targets, fanout, seed,
                         shared_arena=shared_arena)


def assert_same_stream(graph, ids, fanouts, batch_size, monkeypatch):
    """A whole minibatch stream (shared arena, one generator across hops
    and batches): every MFG array and the final cursor are the reference's."""
    import repro.sampling.neighbor as neighbor

    def stream():
        sampler = NeighborSampler(graph, fanouts, seed=3)
        out = [(m.n_id, [(b.dst_ptr, b.src_index) for b in m.blocks])
               for m in sampler.batches(ids, batch_size, epoch=1, seed=9)]
        return out, sampler.rng_state()

    got, got_state = stream()
    with monkeypatch.context() as patch:
        patch.setattr(neighbor, "sample_neighbors", reference_sample_neighbors)
        want, want_state = stream()
    assert got_state == want_state and len(got) == len(want)
    for (n_id, blocks), (ref_n_id, ref_blocks) in zip(got, want):
        assert np.array_equal(n_id, ref_n_id)
        for (ptr, src), (ref_ptr, ref_src) in zip(blocks, ref_blocks):
            assert np.array_equal(ptr, ref_ptr)
            assert np.array_equal(src, ref_src)


@pytest.mark.parametrize("fanouts", [(15, 10, 5), (5, -1), (2, 2)])
def test_sampler_streams_match_reference(fanouts, monkeypatch):
    assert_same_stream(overlay(erdos_renyi(400, 9.0, seed=5), 5),
                       np.arange(0, 400, 2), fanouts, 32, monkeypatch)


@pytest.mark.parametrize("fanouts", [(5, 4, 3), (15, 10, 5), (8, 5)])
def test_papers_mini_streams_match_reference(fanouts, monkeypatch):
    """The configurations the e2e workloads run, on papers-mini's degree
    distribution (scaled to 12k vertices)."""
    ds = load_dataset("papers-mini", scale=0.1)
    assert_same_stream(ds.graph, ds.train_idx, fanouts, 64, monkeypatch)
