"""Property-based tests for the CSR substrate (hypothesis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph
from repro.graph.csr import (MAX_PACKED_VERTICES, sorted_edge_keys,
                             sorted_unique, take_into)
from repro.graph.mutable import MutableGraph


@st.composite
def edge_lists(draw, max_vertices=30, max_edges=120):
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    m = draw(st.integers(min_value=0, max_value=max_edges))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    return n, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_from_edges_roundtrip(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    assert g.num_edges == len(src)
    s2, d2 = g.edges()
    # Edge multiset is preserved.
    orig = sorted(zip(src.tolist(), dst.tolist()))
    back = sorted(zip(s2.tolist(), d2.tolist()))
    assert orig == back


@given(edge_lists())
@settings(max_examples=60, deadline=None)
def test_to_undirected_is_symmetric_and_idempotent(data):
    n, src, dst = data
    u = CSRGraph.from_edges(src, dst, n).to_undirected()
    # to_undirected presets the flag; a fresh graph computes it.
    assert u.is_undirected() and CSRGraph(u.indptr, u.indices).is_undirected()
    assert u.to_undirected() == u


@given(edge_lists(), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_relabel_preserves_degree_multiset(data, perm_seed):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    perm_rng = np.random.default_rng(perm_seed)
    order = perm_rng.permutation(n)
    new_of_old = np.empty(n, dtype=np.int64)
    new_of_old[order] = np.arange(n)
    h = g.relabel(new_of_old)
    assert sorted(g.degrees.tolist()) == sorted(h.degrees.tolist())
    assert h.num_edges == g.num_edges


@given(edge_lists())
@settings(max_examples=40, deadline=None)
def test_reverse_involution(data):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    assert g.reverse().reverse() == g


# ----------------------------------------------------------------------
# from_edges sorts one packed key per edge; the two-key lexsort it replaced
# is the oracle.
# ----------------------------------------------------------------------

def lexsort_csr(src, dst, n, *, dedup=False, sort_neighbors=True):
    """``(indptr, indices)`` the way ``from_edges`` built them originally."""
    src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
    order = (np.lexsort((dst, src)) if (sort_neighbors or dedup)
             else np.argsort(src, kind="stable"))
    src, dst = src[order], dst[order]
    if dedup and src.size:
        keep = np.ones(src.size, dtype=bool)
        keep[1:] = (src[1:] != src[:-1]) | (dst[1:] != dst[:-1])
        src, dst = src[keep], dst[keep]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, dst


def assert_same_csr(graph, oracle):
    indptr, indices = oracle
    assert graph.indptr.dtype == graph.indices.dtype == np.int64
    assert np.array_equal(graph.indptr, indptr)
    assert np.array_equal(graph.indices, indices)


@given(edge_lists(), st.booleans(), st.booleans(), st.integers(0, 5))
@settings(max_examples=120, deadline=None)
def test_from_edges_matches_lexsort_formulation(data, dedup, sort_neighbors,
                                                isolated):
    n, src, dst = data  # 30 vertices, 120 edges: duplicates and self loops
    n += isolated       # trailing vertices with no edges
    g = CSRGraph.from_edges(src, dst, n, dedup=dedup,
                            sort_neighbors=sort_neighbors)
    assert_same_csr(g, lexsort_csr(src, dst, n, dedup=dedup,
                                   sort_neighbors=sort_neighbors))
    # The sortedness a dedup build presets is what the check computes.
    assert g.has_sorted_neighbors() == CSRGraph(
        g.indptr, g.indices).has_sorted_neighbors()


@given(edge_lists(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_from_edges_infers_num_vertices(data, dedup):
    _, src, dst = data
    n = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
    assert_same_csr(CSRGraph.from_edges(src, dst, dedup=dedup),
                    lexsort_csr(src, dst, n, dedup=dedup))


def test_from_edges_empty_input():
    for n in (0, 4):
        for dedup in (False, True):
            g = CSRGraph.from_edges([], [], n, dedup=dedup)
            assert_same_csr(g, (np.zeros(n + 1, dtype=np.int64),
                                np.empty(0, dtype=np.int64)))
    assert CSRGraph.from_edges([], []).num_vertices == 0


@given(edge_lists(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_transformations_match_lexsort_formulation(data, perm_seed):
    n, src, dst = data
    g = CSRGraph.from_edges(src, dst, n)
    es, ed = g.edges()
    assert_same_csr(g.to_undirected(), lexsort_csr(
        np.concatenate([es, ed]), np.concatenate([ed, es]), n, dedup=True))
    new_of_old = np.random.default_rng(perm_seed).permutation(n)
    assert_same_csr(g.relabel(new_of_old),
                    lexsort_csr(new_of_old[es], new_of_old[ed], n))
    assert_same_csr(g.reverse(), lexsort_csr(ed, es, n))


@given(edge_lists(), edge_lists(max_vertices=30, max_edges=40),
       edge_lists(max_vertices=30, max_edges=40))
@settings(max_examples=60, deadline=None)
def test_mutable_compact_matches_lexsort_formulation(base, adds, dels):
    n, src, dst = base
    mg = MutableGraph(CSRGraph.from_edges(src, dst, n).to_undirected(),
                      compact_cutoff=None)
    edges = set(zip(src.tolist(), dst.tolist()))
    edges |= {(d, s) for s, d in edges}
    for (_, s, d), insert in ((adds, True), (dels, False)):
        s, d = s % n, d % n
        (mg.add_edges if insert else mg.remove_edges)(s, d)
        batch = set(zip(s.tolist(), d.tolist()))
        batch |= {(d, s) for s, d in batch}  # both directions change
        edges = edges | batch if insert else edges - batch
    want = np.array(sorted(edges), dtype=np.int64).reshape(-1, 2)
    rows = [mg.neighbors(v).copy() for v in range(n)]  # read through overlay
    compacted = mg.compact()
    assert_same_csr(compacted, lexsort_csr(want[:, 0], want[:, 1], n))
    assert all(np.array_equal(compacted.neighbors(v), rows[v])
               for v in range(n))


def test_packed_key_overflow_is_rejected():
    top = MAX_PACKED_VERTICES - 1  # largest id of the largest legal graph
    keys = sorted_edge_keys(np.array([top, 0]), np.array([top, 1]),
                            MAX_PACKED_VERTICES)
    assert keys.tolist() == [1, MAX_PACKED_VERTICES ** 2 - 1]
    assert MAX_PACKED_VERTICES ** 2 < 2 ** 63 <= (MAX_PACKED_VERTICES + 1) ** 2
    with pytest.raises(ValueError, match=str(MAX_PACKED_VERTICES)):
        CSRGraph.from_edges([0], [1], MAX_PACKED_VERTICES + 1)


# ----------------------------------------------------------------------
# Array idioms beside the CSR builder: sort-based unique, in-place take.

@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.integers(-2**40, 2**40), max_size=60),
       dtype=st.sampled_from([np.int64, np.int32, np.uint32, np.float64]))
def test_sorted_unique_matches_np_unique(values, dtype):
    arr = np.abs(np.array(values, dtype=np.int64)).astype(dtype)
    before = arr.copy()
    got = sorted_unique(arr)
    want = np.unique(arr)
    assert got.dtype == want.dtype == arr.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(arr, before)  # the input is not sorted in place


def test_sorted_unique_empty_keeps_dtype():
    for dtype in (np.int64, np.int32, np.float64):
        got = sorted_unique(np.empty(0, dtype=dtype))
        assert got.dtype == dtype and got.shape == (0,)


@settings(max_examples=100, deadline=None)
@given(rows=st.integers(1, 12), width=st.integers(1, 5),
       idx=st.lists(st.integers(0, 11), max_size=20))
def test_take_into_matches_fancy_index(rows, width, idx):
    src = np.arange(rows * width, dtype=np.float32).reshape(rows, width)
    idx = np.array([i % rows for i in idx], dtype=np.int64)
    out = np.full((len(idx), width), -1.0, dtype=np.float32)
    take_into(src, idx, out)
    assert np.array_equal(out, src[idx])


@pytest.mark.parametrize("bad", [-1, 5, 6, -7])
def test_take_into_refuses_out_of_range_instead_of_clamping(bad):
    """``mode="clip"`` would silently clamp; the up-front check must raise,
    for a negative index (which plain numpy would wrap) as well."""
    src = np.arange(10.0).reshape(5, 2)
    out = np.zeros((2, 2))
    with pytest.raises(IndexError, match="out of bounds"):
        take_into(src, np.array([0, bad]), out)
    assert not out.any()  # nothing written before the refusal
