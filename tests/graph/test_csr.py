"""Unit tests for the CSR graph substrate."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.graph import CSRGraph


def path_graph(n):
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    return CSRGraph.from_edges(np.r_[src, dst], np.r_[dst, src], n)


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges([0, 0, 1, 2], [1, 2, 2, 0], 3)
        assert g.num_vertices == 3
        assert g.num_edges == 4
        assert list(g.neighbors(0)) == [1, 2]
        assert list(g.neighbors(1)) == [2]
        assert list(g.neighbors(2)) == [0]

    def test_from_edges_infers_num_vertices(self):
        g = CSRGraph.from_edges([0, 5], [5, 0])
        assert g.num_vertices == 6

    def test_from_edges_dedup(self):
        g = CSRGraph.from_edges([0, 0, 0], [1, 1, 2], 3, dedup=True)
        assert g.num_edges == 2
        assert list(g.neighbors(0)) == [1, 2]

    def test_from_edges_keeps_parallel_edges_without_dedup(self):
        g = CSRGraph.from_edges([0, 0], [1, 1], 2)
        assert g.num_edges == 2

    def test_from_edges_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges([0], [3], 2)
        with pytest.raises(ValueError, match="out of range"):
            CSRGraph.from_edges([-1], [0], 2)

    def test_from_edges_rejects_length_mismatch(self):
        with pytest.raises(ValueError, match="equal length"):
            CSRGraph.from_edges([0, 1], [1], 3)

    def test_empty_graph(self):
        g = CSRGraph.from_edges([], [], 4)
        assert g.num_vertices == 4
        assert g.num_edges == 0
        assert g.max_degree == 0
        assert len(g.neighbors(0)) == 0

    def test_validation_rejects_bad_indptr(self):
        with pytest.raises(ValueError, match="indptr\\[0\\]"):
            CSRGraph(np.array([1, 2]), np.array([0, 1]))
        with pytest.raises(ValueError, match="non-decreasing"):
            CSRGraph(np.array([0, 2, 1]), np.array([0]))
        with pytest.raises(ValueError, match="len\\(indices\\)"):
            CSRGraph(np.array([0, 3]), np.array([0]))

    def test_validation_rejects_bad_indices(self):
        with pytest.raises(ValueError, match="neighbor index"):
            CSRGraph(np.array([0, 1]), np.array([5]))

    def test_scipy_roundtrip(self):
        g = CSRGraph.from_edges([0, 1, 2], [1, 2, 0], 3)
        assert CSRGraph.from_scipy(g.to_scipy()) == g

    def test_from_scipy_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            CSRGraph.from_scipy(sp.csr_matrix((2, 3)))


class TestProperties:
    def test_degrees(self):
        g = CSRGraph.from_edges([0, 0, 1], [1, 2, 2], 4)
        assert list(g.degrees) == [2, 1, 0, 0]
        assert g.degree(0) == 2
        assert g.max_degree == 2
        assert g.avg_degree == pytest.approx(0.75)

    def test_edges_roundtrip(self):
        g = CSRGraph.from_edges([2, 0, 1], [0, 1, 2], 3)
        src, dst = g.edges()
        g2 = CSRGraph.from_edges(src, dst, 3)
        assert g2 == g

    def test_has_sorted_neighbors(self):
        g = CSRGraph.from_edges([0, 0], [2, 1], 3)  # sorted during build
        assert g.has_sorted_neighbors()
        unsorted = CSRGraph(np.array([0, 2, 2, 2]), np.array([2, 1]))
        assert not unsorted.has_sorted_neighbors()

    def test_equality(self):
        a = CSRGraph.from_edges([0], [1], 2)
        b = CSRGraph.from_edges([0], [1], 2)
        c = CSRGraph.from_edges([1], [0], 2)
        assert a == b
        assert a != c


class TestTransforms:
    def test_reverse(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3)
        r = g.reverse()
        assert list(r.neighbors(1)) == [0]
        assert list(r.neighbors(2)) == [1]
        assert r.reverse() == g

    def test_to_undirected_symmetric(self):
        g = CSRGraph.from_edges([0, 1, 3], [1, 2, 0], 4)
        u = g.to_undirected()
        # to_undirected presets the flag; a fresh graph computes it.
        assert u.is_undirected() and CSRGraph(u.indptr, u.indices).is_undirected()
        assert u.num_edges == 6  # three undirected edges, both directions

    def test_to_undirected_removes_self_loops_on_request(self):
        g = CSRGraph.from_edges([0, 0], [0, 1], 2)
        assert g.to_undirected(remove_self_loops=True).num_edges == 2
        assert g.to_undirected().num_edges == 3  # self loop kept once

    def test_remove_self_loops(self):
        g = CSRGraph.from_edges([0, 1], [0, 0], 2)
        assert g.remove_self_loops().num_edges == 1

    def test_relabel_preserves_structure(self):
        g = path_graph(5)
        perm = np.array([4, 3, 2, 1, 0])
        h = g.relabel(perm)
        assert sorted(h.degrees) == sorted(g.degrees)
        # neighborhood of new vertex perm[v] = relabeled neighbors of v
        for v in range(5):
            assert set(h.neighbors(perm[v])) == set(perm[g.neighbors(v)])

    def test_relabel_rejects_non_permutation(self):
        g = path_graph(3)
        with pytest.raises(ValueError, match="permutation"):
            g.relabel(np.array([0, 0, 1]))
        with pytest.raises(ValueError, match="one entry per vertex"):
            g.relabel(np.array([0, 1]))

    def test_induced_subgraph(self):
        g = path_graph(6)
        sub, ids = g.induced_subgraph(np.array([1, 2, 3]))
        assert list(ids) == [1, 2, 3]
        assert sub.num_vertices == 3
        assert sub.num_edges == 4  # 1-2, 2-3 both directions
        assert set(sub.neighbors(1)) == {0, 2}

    def test_induced_subgraph_dedups_input(self):
        g = path_graph(4)
        sub, ids = g.induced_subgraph(np.array([2, 1, 2]))
        assert list(ids) == [1, 2]
        assert sub.num_vertices == 2


class TestUndirectedCheck:
    def test_is_undirected(self):
        assert path_graph(4).is_undirected()
        assert not CSRGraph.from_edges([0], [1], 2).is_undirected()

    def test_is_undirected_counts_parallel_edges(self):
        assert CSRGraph.from_edges([0, 0, 1, 1], [1, 1, 0, 0], 2).is_undirected()
        assert not CSRGraph.from_edges([0, 0, 1], [1, 1, 0], 2).is_undirected()
        # 256 one-way copies: a count that wraps in 8 bits reads as none.
        assert not CSRGraph.from_edges([0] * 256, [1] * 256, 2).is_undirected()
