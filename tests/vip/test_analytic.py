"""Analytic VIP (Proposition 1) tests: closed forms, ranges, monotonicity."""

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.partition import Partition
from repro.vip import (
    expected_remote_volume,
    partitionwise_vip,
    vip_for_training_set,
    vip_probabilities,
)
from repro.vip.analytic import vertex_transition_values


def star_graph(leaves):
    hub = np.zeros(leaves, dtype=np.int64)
    leaf = np.arange(1, leaves + 1, dtype=np.int64)
    return CSRGraph.from_edges(np.r_[hub, leaf], np.r_[leaf, hub], leaves + 1)


def path_graph(n):
    src = np.arange(n - 1)
    dst = np.arange(1, n)
    return CSRGraph.from_edges(np.r_[src, dst], np.r_[dst, src], n)


class TestTransitionProbabilities:
    def test_uniform_graphsage(self):
        g = star_graph(4)  # hub degree 4, leaves degree 1
        t = vertex_transition_values(2, g.degrees)
        # A leaf samples its one neighbor surely: min(1, 2/1) = 1.
        assert np.allclose(t[1:], 1.0)
        # The hub samples a given leaf with probability 2/4.
        assert t[0] == pytest.approx(0.5)

    def test_full_expansion(self):
        g = star_graph(3)
        assert np.allclose(vertex_transition_values(-1, g.degrees), 1.0)

    def test_rejects_zero_fanout(self):
        with pytest.raises(ValueError, match="fanout"):
            vertex_transition_values(0, star_graph(2).degrees)


class TestClosedForms:
    def test_star_one_hop(self):
        """Hub in minibatch w.p. q: leaf inclusion after 1 hop = q*min(1,f/d)."""
        leaves = 10
        g = star_graph(leaves)
        q = 0.4
        p0 = np.zeros(leaves + 1)
        p0[0] = q
        res = vip_probabilities(g, p0, (3,))
        expect_leaf = q * 3.0 / leaves
        assert np.allclose(res.hopwise[0][1:], expect_leaf)
        # Hub is not reachable at hop 1 (leaves have p0 = 0).
        assert res.hopwise[0][0] == pytest.approx(0.0)

    def test_path_full_expansion_is_reachability(self):
        """With fanout >= max degree, hop-h inclusion = exact reachability."""
        g = path_graph(6)
        p0 = np.zeros(6)
        p0[0] = 1.0
        res = vip_probabilities(g, p0, (-1, -1))
        # Hop 1 reaches vertex 1 surely; hop 2 reaches 0 and 2 surely.
        assert res.hopwise[0][1] == pytest.approx(1.0)
        assert res.hopwise[1][2] == pytest.approx(1.0)
        assert res.hopwise[1][0] == pytest.approx(1.0)  # back to the seed
        assert res.total[2] == pytest.approx(1.0)
        assert res.total[5] == pytest.approx(0.0)

    def test_random_walk_linearization(self):
        """Single seed, fanout 1: p[1] equals the walk transition row."""
        g = path_graph(5)
        p0 = np.zeros(5)
        p0[2] = 1.0
        res = vip_probabilities(g, p0, (1,))
        # Vertex 2 has two neighbors; each is sampled w.p. 1/2.
        assert res.hopwise[0][1] == pytest.approx(0.5)
        assert res.hopwise[0][3] == pytest.approx(0.5)


class TestRangesAndMonotonicity:
    def test_probabilities_in_unit_interval(self, small_er_graph, rng):
        g = small_er_graph
        p0 = rng.random(g.num_vertices) * 0.3
        res = vip_probabilities(g, p0, (4, 3, 2))
        for arr in [res.total] + res.hopwise:
            assert np.all(arr >= 0.0) and np.all(arr <= 1.0)

    def test_monotone_in_fanout(self, small_er_graph):
        g = small_er_graph
        train = np.arange(0, g.num_vertices, 4)
        lo = vip_for_training_set(g, train, (2, 2), 10).total
        hi = vip_for_training_set(g, train, (5, 5), 10).total
        assert np.all(hi >= lo - 1e-12)

    def test_monotone_in_batch_size(self, small_er_graph):
        g = small_er_graph
        train = np.arange(0, g.num_vertices, 3)
        lo = vip_for_training_set(g, train, (3, 3), 5).total
        hi = vip_for_training_set(g, train, (3, 3), 20).total
        assert np.all(hi >= lo - 1e-12)

    def test_rejects_bad_inputs(self, small_er_graph):
        g = small_er_graph
        with pytest.raises(ValueError, match="one probability per vertex"):
            vip_probabilities(g, np.zeros(3), (2,))
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            vip_probabilities(g, np.full(g.num_vertices, 1.5), (2,))
        with pytest.raises(ValueError, match="ndim"):
            vip_probabilities(g, np.float64(0.5), (2,))

    def test_rejects_a_matrix_of_distributions(self, small_er_graph):
        """One call evaluates one distribution: an ``(N, k)`` ``initial``
        is refused by its rank, however many columns it has."""
        g = small_er_graph
        n = g.num_vertices
        for shape in ((n, 2), (n, 1), (n, 0), (n, 2, 1)):
            with pytest.raises(ValueError, match="ndim=1"):
                vip_probabilities(g, np.zeros(shape), (2,))


class TestPartitionwise:
    def test_rows_cover_partitions(self, tiny_dataset, tiny_partition):
        ds = tiny_dataset
        vip = partitionwise_vip(ds.graph, tiny_partition, ds.train_idx, (5, 5), 32)
        assert vip.shape == (4, ds.num_vertices)
        # Each row is seeded by local training vertices only: the initial
        # probability mass lives inside the partition.
        for k in range(4):
            local_train = ds.train_idx[tiny_partition.assignment[ds.train_idx] == k]
            assert vip[k][local_train].min() > 0

    def test_empty_partition_training_set(self, tiny_dataset):
        ds = tiny_dataset
        # All train vertices in part 0: row 1 must be all zeros.
        assignment = np.zeros(ds.num_vertices, dtype=np.int64)
        part = Partition(assignment, 2)
        vip = partitionwise_vip(ds.graph, part, ds.train_idx, (3,), 8)
        assert np.all(vip[1] == 0)

    def test_expected_remote_volume_decreases_with_cache(self, tiny_dataset, tiny_partition):
        ds = tiny_dataset
        vip = partitionwise_vip(ds.graph, tiny_partition, ds.train_idx, (5, 5), 32)
        steps = np.full(4, 3)
        base = expected_remote_volume(vip, tiny_partition, steps)
        cached = np.zeros((4, ds.num_vertices), dtype=bool)
        for k in range(4):
            remote = np.flatnonzero(tiny_partition.assignment != k)
            top = remote[np.argsort(-vip[k][remote])[:50]]
            cached[k][top] = True
        with_cache = expected_remote_volume(vip, tiny_partition, steps, cached)
        assert with_cache < base
