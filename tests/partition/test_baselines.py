"""Baseline partitioner tests."""

import numpy as np
import pytest

from repro.partition import (
    bfs_partition,
    evaluate_partition,
    hash_partition,
    ldg_partition,
    random_partition,
)


class TestRandomAndHash:
    def test_random_balanced(self):
        p = random_partition(103, 4, seed=0)
        assert p.sizes().max() - p.sizes().min() <= 1

    def test_hash_deterministic(self):
        a = hash_partition(50, 3)
        b = hash_partition(50, 3)
        assert np.array_equal(a.assignment, b.assignment)

    def test_rejects_nonpositive_parts(self):
        with pytest.raises(ValueError):
            random_partition(10, 0)
        with pytest.raises(ValueError):
            hash_partition(10, -1)


class TestBFS:
    def test_covers_and_roughly_balanced(self, community_graph):
        g, _ = community_graph
        p = bfs_partition(g, 4, seed=0)
        assert np.all(p.assignment >= 0)
        assert evaluate_partition(g, p).vertex_balance < 1.3

    def test_locality_beats_random(self, community_graph):
        g, _ = community_graph
        cut_bfs = evaluate_partition(g, bfs_partition(g, 4, seed=0)).edge_cut_fraction
        cut_rnd = evaluate_partition(
            g, random_partition(g.num_vertices, 4, seed=0)).edge_cut_fraction
        assert cut_bfs < cut_rnd


class TestLDG:
    def test_covers_and_balanced(self, community_graph):
        g, _ = community_graph
        p = ldg_partition(g, 4, seed=0)
        assert np.all(p.assignment >= 0)
        assert evaluate_partition(g, p).vertex_balance < 1.25

    def test_locality_beats_random(self, community_graph):
        g, _ = community_graph
        cut_ldg = evaluate_partition(g, ldg_partition(g, 4, seed=0)).edge_cut_fraction
        cut_rnd = evaluate_partition(
            g, random_partition(g.num_vertices, 4, seed=0)).edge_cut_fraction
        assert cut_ldg < cut_rnd

    def test_matches_per_neighbour_counting(self, community_graph):
        """The vectorised neighbour count places every vertex where the
        textbook loop (one increment per placed neighbour) does."""
        g, _ = community_graph
        k, n = 5, g.num_vertices
        order = np.random.default_rng(2).permutation(n)
        want = np.full(n, -1, dtype=np.int64)
        sizes, capacity = np.zeros(k), max(1.0, 1.1 * n / k)
        for v in order:
            conn = np.zeros(k)
            for u in g.neighbors(int(v)):
                if want[u] >= 0:
                    conn[want[u]] += 1.0
            score = conn * np.maximum(1.0 - sizes / capacity, 0.0)
            p = int(np.argmin(sizes) if np.all(score <= 0) else np.argmax(score))
            want[v] = p
            sizes[p] += 1.0
        got = ldg_partition(g, k, order=order)
        assert np.array_equal(got.assignment, want)

    def test_too_many_parts(self, tiny_graph):
        with pytest.raises(ValueError, match="cannot split"):
            ldg_partition(tiny_graph, tiny_graph.num_vertices + 1)
