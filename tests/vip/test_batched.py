"""Batched Proposition 1: an ``(N, k)`` ``initial`` is k evaluations, bit
for bit.

:func:`vip_probabilities` takes one distribution per column and runs every
hop as the one product ``rows @ g`` with k columns; a sparse hop pushes
from the union of the columns' frontiers.  Column ``j`` of every returned array must
``==`` the 1-D evaluation of column ``j`` and the batched dense sweep — at
every sparse cutoff (0 pins all-rows hops, 1 pins frontier pushes), on
sorted and shuffled rows, directed and undirected, with full-expansion ``-1``
fanouts, and with all-zero columns (a partition without training
vertices) beside live ones.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vip_cases import sparse_p0, vip_case
from repro.graph import erdos_renyi
from repro.vip import vip_probabilities
from repro.vip.analytic import SPARSE_HOP_CUTOFF


def assert_columns_match(graph, columns, fanouts, sparse_cutoff):
    initial = np.column_stack(columns)
    batched = vip_probabilities(graph, initial, fanouts,
                                sparse_cutoff=sparse_cutoff)
    assert batched.total.shape == (graph.num_vertices, len(columns))
    assert len(batched.hopwise) == len(fanouts)
    # The same columns through the dense sweep at every hop.
    swept = vip_probabilities(graph, initial, fanouts, sparse_cutoff=0.0)
    assert np.array_equal(batched.total, swept.total)
    for got, want in zip(batched.hopwise, swept.hopwise):
        assert np.array_equal(got, want)
    for j, p0 in enumerate(columns):
        alone = vip_probabilities(graph, p0, fanouts,
                                  sparse_cutoff=sparse_cutoff)
        assert np.array_equal(batched.total[:, j], alone.total)
        for got, want in zip(batched.hopwise, alone.hopwise):
            assert np.array_equal(got[:, j], want)
        assert np.array_equal(batched.initial[:, j], alone.initial)
        assert np.array_equal(batched.access[:, j], alone.access)


class TestColumnsAreOneDEvaluations:
    @settings(max_examples=120, deadline=None)
    @given(case=vip_case(), k=st.integers(1, 4),
           supports=st.lists(st.integers(0, 80), min_size=4, max_size=4),
           zero_column=st.integers(-1, 3),
           cutoff=st.sampled_from([0.0, SPARSE_HOP_CUTOFF, 1.0]))
    def test_matches_per_column(self, case, k, supports, zero_column, cutoff):
        n = case.graph.num_vertices
        columns = [sparse_p0(n, min(supports[j], n), case.p0_seed + j)
                   for j in range(k)]
        if 0 <= zero_column < k:
            columns[zero_column] = np.zeros(n)
        assert_columns_match(case.graph, columns, case.fanouts, cutoff)

    @pytest.mark.parametrize("cutoff", [0.0, SPARSE_HOP_CUTOFF, 1.0])
    def test_disjoint_local_seeds_full_expansion(self, cutoff):
        """Seeds far apart, so one column's frontier rows are another's
        dead rows (they sum only ``+0.0`` there)."""
        g = erdos_renyi(300, 3.0, seed=2)
        columns = []
        for lo in (0, 100, 200):
            p0 = np.zeros(300)
            p0[lo:lo + 3] = 0.5
            columns.append(p0)
        columns.append(np.zeros(300))
        assert_columns_match(g, columns, (-1, 2, -1), cutoff)

    def test_shape_checked(self):
        g = erdos_renyi(20, 3.0, seed=0)
        with pytest.raises(ValueError, match="one probability per vertex"):
            vip_probabilities(g, np.zeros((19, 2)), (2,))
        with pytest.raises(ValueError, match=r"lie in \[0, 1\]"):
            vip_probabilities(g, np.full((20, 2), 1.5), (2,))
        with pytest.raises(ValueError, match="ndim"):
            vip_probabilities(g, np.zeros((20, 2, 1)), (2,))
        # No columns at all: an IndexError from the frontier once.
        with pytest.raises(ValueError, match=r"shape \(20, 0\)"):
            vip_probabilities(g, np.zeros((20, 0)), (2,))

