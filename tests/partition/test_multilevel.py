"""Multilevel (METIS-like) partitioner tests."""

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.partition import (
    evaluate_partition,
    metis_like_partition,
    random_partition,
)


class TestBasics:
    def test_single_part(self, tiny_graph):
        p = metis_like_partition(tiny_graph, 1, seed=0)
        assert p.num_parts == 1
        assert np.all(p.assignment == 0)

    def test_covers_all_vertices(self, tiny_graph):
        p = metis_like_partition(tiny_graph, 4, seed=0)
        assert p.num_vertices == tiny_graph.num_vertices
        assert set(np.unique(p.assignment)) == {0, 1, 2, 3}

    def test_rejects_bad_args(self, tiny_graph):
        with pytest.raises(ValueError, match="num_parts"):
            metis_like_partition(tiny_graph, 0)
        with pytest.raises(ValueError, match="cannot split"):
            metis_like_partition(tiny_graph, tiny_graph.num_vertices + 1)
        with pytest.raises(ValueError, match="balance_tolerance"):
            metis_like_partition(tiny_graph, 2, balance_tolerance=0.9)

    def test_deterministic(self, tiny_graph):
        a = metis_like_partition(tiny_graph, 4, seed=11)
        b = metis_like_partition(tiny_graph, 4, seed=11)
        assert np.array_equal(a.assignment, b.assignment)


class TestQuality:
    def test_beats_random_cut(self, community_graph):
        g, _ = community_graph
        p = metis_like_partition(g, 4, seed=0)
        pr = random_partition(g.num_vertices, 4, seed=0)
        cut = evaluate_partition(g, p).edge_cut_fraction
        cut_r = evaluate_partition(g, pr).edge_cut_fraction
        assert cut < 0.6 * cut_r

    def test_recovers_planted_communities_approximately(self, community_graph):
        g, _ = community_graph
        p = metis_like_partition(g, 3, seed=0)
        # Planted intra-fraction is 0.9; a decent 3-way cut stays well under
        # the random baseline of 2/3.
        assert evaluate_partition(g, p).edge_cut_fraction < 0.45

    def test_vertex_balance_within_tolerance(self, community_graph):
        g, _ = community_graph
        p = metis_like_partition(g, 4, balance_tolerance=1.1, seed=0)
        assert evaluate_partition(g, p).vertex_balance <= 1.1 + 1e-9

    def test_multi_constraint_balance(self, tiny_dataset):
        ds = tiny_dataset
        role = np.zeros((ds.num_vertices, 2))
        role[:, 0] = 1.0
        role[ds.train_idx, 1] = 1.0
        p = metis_like_partition(ds.graph, 4, vertex_weights=role,
                                 balance_tolerance=1.15, seed=0)
        rep = evaluate_partition(ds.graph, p, {"train": ds.train_idx})
        assert rep.vertex_balance <= 1.2
        assert rep.role_balance["train"] <= 1.3  # small counts: coarse quanta

    def test_rejects_negative_weights(self, tiny_graph):
        w = -np.ones((tiny_graph.num_vertices, 1))
        with pytest.raises(ValueError, match="non-negative"):
            metis_like_partition(tiny_graph, 2, vertex_weights=w)

    def test_rejects_nan_weights(self, tiny_graph):
        w = np.ones((tiny_graph.num_vertices, 1))
        w[3] = np.nan
        with pytest.raises(ValueError, match="non-negative"):
            metis_like_partition(tiny_graph, 2, vertex_weights=w)

    def test_rejects_a_directed_graph(self):
        # A path stored one way only: each edge lacks its reverse.
        directed = CSRGraph.from_edges(np.arange(299), np.arange(1, 300), 300)
        with pytest.raises(ValueError, match="undirected"):
            metis_like_partition(directed, 2, seed=0)
        # Both directions, but one edge twice in one direction only.
        src = np.r_[np.arange(299), np.arange(1, 300), 0]
        dst = np.r_[np.arange(1, 300), np.arange(299), 1]
        with pytest.raises(ValueError, match="undirected"):
            metis_like_partition(CSRGraph.from_edges(src, dst, 300), 2, seed=0)
        assert metis_like_partition(directed.to_undirected(), 2,
                                    seed=0).num_parts == 2

    def test_weight_shape_mismatch(self, tiny_graph):
        with pytest.raises(ValueError, match="rows"):
            metis_like_partition(tiny_graph, 2, vertex_weights=np.ones((3, 1)))
