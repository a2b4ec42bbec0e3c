"""Partition-contiguous (VIP) reordering tests — §4.1 invariants."""

import numpy as np
import pytest

from repro.partition import Partition, reorder_dataset


class TestReorderInvariants:
    def test_assignment_contiguous(self, tiny_reordered):
        assert np.all(np.diff(tiny_reordered.partition.assignment) >= 0)

    def test_permutation_inverse(self, tiny_reordered, tiny_dataset):
        n = tiny_dataset.num_vertices
        rd = tiny_reordered
        assert np.array_equal(rd.new_of_old[rd.old_of_new], np.arange(n))
        assert np.array_equal(rd.old_of_new[rd.new_of_old], np.arange(n))

    def test_features_follow_vertices(self, tiny_reordered, tiny_dataset):
        rd = tiny_reordered
        for v_old in (0, 17, 123, 399):
            v_new = rd.new_of_old[v_old]
            assert np.array_equal(rd.dataset.features[v_new],
                                  tiny_dataset.features[v_old])
            assert rd.dataset.labels[v_new] == tiny_dataset.labels[v_old]

    def test_graph_structure_preserved(self, tiny_reordered, tiny_dataset):
        rd = tiny_reordered
        for v_old in (5, 50, 250):
            v_new = rd.new_of_old[v_old]
            expect = set(rd.new_of_old[tiny_dataset.graph.neighbors(v_old)].tolist())
            assert expect == set(rd.dataset.graph.neighbors(v_new).tolist())

    def test_splits_remapped(self, tiny_reordered, tiny_dataset):
        rd = tiny_reordered
        assert np.array_equal(
            np.sort(rd.old_of_new[rd.dataset.train_idx]),
            np.sort(tiny_dataset.train_idx))

    def test_owner_and_local_index(self, tiny_reordered):
        rd = tiny_reordered
        ids = np.arange(rd.dataset.num_vertices)
        owners = rd.owner_of(ids)
        assert np.array_equal(owners, rd.partition.assignment)
        local = rd.local_index(ids)
        for k in range(rd.num_parts):
            lo, hi = rd.part_range(k)
            assert np.array_equal(local[lo:hi], np.arange(hi - lo))

    def test_part_sizes_match(self, tiny_reordered, tiny_partition):
        for k in range(4):
            assert tiny_reordered.part_size(k) == int(
                (tiny_partition.assignment == k).sum())

    def test_local_train_ids(self, tiny_reordered):
        rd = tiny_reordered
        got = np.sort(np.concatenate([rd.local_train_ids(k) for k in range(rd.num_parts)]))
        assert np.array_equal(got, rd.dataset.train_idx)


class TestScoreOrdering:
    def test_descending_within_part(self, tiny_dataset, tiny_partition):
        rng = np.random.default_rng(1)
        score = rng.random(tiny_dataset.num_vertices)
        rd = reorder_dataset(tiny_dataset, tiny_partition, within_part_score=score)
        for k in range(4):
            lo, hi = rd.part_range(k)
            s = score[rd.old_of_new[lo:hi]]
            assert np.all(np.diff(s) <= 1e-15)

    def test_no_score_keeps_id_order(self, tiny_dataset, tiny_partition):
        rd = reorder_dataset(tiny_dataset, tiny_partition)
        n = tiny_dataset.num_vertices
        assert np.array_equal(  # partition id major, old id minor
            rd.old_of_new, np.lexsort((np.arange(n), tiny_partition.assignment)))
        for k in range(4):
            lo, hi = rd.part_range(k)
            assert np.all(np.diff(rd.old_of_new[lo:hi]) > 0)

    def test_rejects_mismatched_inputs(self, tiny_dataset):
        bad = Partition(np.zeros(10, dtype=np.int64), 1)
        with pytest.raises(ValueError, match="covers"):
            reorder_dataset(tiny_dataset, bad)
        ok = Partition(np.zeros(tiny_dataset.num_vertices, dtype=np.int64), 1)
        with pytest.raises(ValueError, match="one entry per vertex"):
            reorder_dataset(tiny_dataset, ok, within_part_score=np.ones(3))
