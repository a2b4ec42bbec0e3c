"""Production Proposition 1: every row set is the all-rows evaluation, bit
for bit, and that is the frozen dense oracle up to summation order.

:func:`vip_probabilities` (one sparse product per hop: a push from the
frontier or a pull over all rows, vertex-factored transitions, shared
:class:`TransitionTable`) must return *identical* bits whichever each hop
picks — a CSR product sums each row from ``+0.0`` in stored order, the
push adds a row's frontier sources in ascending order (the stored order
on sorted rows; other graphs always pull), and an inactive source adds an
exact ``+0.0`` — for every graph, seed distribution and fanout list
(including full expansion).  The all-rows evaluation is held
to the seed implementation in ``reference_dense.py`` (numpy's pairwise
``reduceat``) within ``count * eps * sum|x|`` per hop
(:func:`vip_cases.oracle_slack`).  This file is the static-graph half of
the enforcement (``tests/streaming/`` is the overlay half, over the same
:func:`vip_cases.vip_case` strategy), plus the kernel's order pin, the
transition-dedup cases and the reference test for the vectorized
:func:`expected_remote_volume`.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from reference_dense import _compute_edge_transition, vip_probabilities_dense
from vip_cases import (assert_matches_full, assert_within_oracle_bound,
                       full_evaluation, oracle_slack, random_base,
                       shuffle_rows, sparse_p0, vip_case)
from repro.graph import erdos_renyi
from repro.graph.csr import rows_concat
from repro.partition import Partition, metis_like_partition
from repro.vip import (
    VIPTracker,
    expected_remote_volume,
    partitionwise_vip,
    transition_table,
    uniform_minibatch_probability,
    vip_for_training_set,
    vip_probabilities,
)
from repro.vip import analytic
from repro.vip.analytic import (SPARSE_HOP_CUTOFF, hop_values, row_set,
                                vertex_transition_values)


def _assert_partitionwise(graph, part, train, fanouts, batch_size):
    """Row ``k`` of :func:`partitionwise_vip` is the full evaluation seeded
    by partition ``k``'s training set, ``==``; that is within the oracle's
    bound."""
    got = partitionwise_vip(graph, part, train, fanouts, batch_size)
    owner = part.assignment[train]
    for k in range(part.num_parts):
        local = train[owner == k]
        if not len(local):
            assert not got[k].any()
            continue
        p0 = uniform_minibatch_probability(graph.num_vertices, local,
                                           batch_size)
        full = full_evaluation(graph, p0, fanouts)
        assert np.array_equal(got[k], full.access)
        assert_within_oracle_bound(full, graph, p0, fanouts)


class TestActiveSetParity:
    @settings(max_examples=100, deadline=None)
    @given(vip_case())
    def test_matches_dense(self, case):
        """Directed and undirected graphs, sorted and shuffled rows, at the
        drawn cutoff."""
        p0 = case.p0()
        active = vip_probabilities(case.graph, p0, case.fanouts,
                                   sparse_cutoff=case.sparse_cutoff)
        assert_matches_full(active, case.graph, p0, case.fanouts)
        # The refresh path's static branch is the same evaluation.
        tracker = VIPTracker(case.graph, case.fanouts)
        assert np.array_equal(tracker.access({"a": p0})["a"], active.access)

    @settings(max_examples=40, deadline=None)
    @given(vip_case(), st.integers(1, 4), st.integers(1, 64))
    def test_partitionwise_matches_dense(self, case, num_parts, batch_size):
        g = case.graph
        rng = np.random.default_rng(case.churn_seed)
        part = Partition(rng.integers(0, num_parts, g.num_vertices),
                         num_parts)
        _assert_partitionwise(g, part, np.flatnonzero(case.p0()),
                              case.fanouts, batch_size)

    @settings(max_examples=25, deadline=None)
    @given(vip_case())
    def test_matches_dense_directed(self, case):
        """Directed graphs only, every cutoff on every example: the push
        must read the reverse adjacency's rows, not the (asymmetric)
        forward rows."""
        assume(case.directed)
        p0 = case.p0()
        for cutoff in (0.0, SPARSE_HOP_CUTOFF, 1.0):
            active = vip_probabilities(case.graph, p0, case.fanouts,
                                       sparse_cutoff=cutoff)
            assert_matches_full(active, case.graph, p0, case.fanouts)

    @pytest.mark.parametrize("cutoff", [SPARSE_HOP_CUTOFF, 1.0])
    def test_shuffled_rows_take_the_dense_sweep(self, cutoff):
        """A push sums each row's frontier sources in ascending order; on
        rows stored in another order that differs from the pull in the
        last ulp (2.2e-16 here without the row-order guard), so such a
        graph must sweep every hop."""
        g = shuffle_rows(erdos_renyi(400, 8.0, seed=11), seed=11)
        assert not g.has_sorted_neighbors()
        p0 = sparse_p0(400, 40, seed=3)
        assert_matches_full(vip_probabilities(g, p0, (5, 4, 3),
                                              sparse_cutoff=cutoff),
                            g, p0, (5, 4, 3))

    @pytest.mark.parametrize("cutoff", [0.0, SPARSE_HOP_CUTOFF, 1.0])
    def test_disjoint_local_seeds_full_expansion(self, cutoff):
        """Seed groups far apart under full-expansion hops: most rows touch
        no frontier vertex and sum only ``+0.0``, whichever way each hop
        runs."""
        g = erdos_renyi(300, 3.0, seed=2)
        p0 = np.zeros(300)
        for lo in (0, 100, 200):
            p0[lo:lo + 3] = 0.5
        assert_matches_full(vip_probabilities(g, p0, (-1, 2, -1),
                                              sparse_cutoff=cutoff),
                            g, p0, (-1, 2, -1))

    def test_zero_distribution_reaches_nothing(self):
        """A partition without training vertices seeds nothing: every hop
        is all zeros at every cutoff."""
        g = erdos_renyi(300, 3.0, seed=2)
        p0 = np.zeros(300)
        for cutoff in (0.0, SPARSE_HOP_CUTOFF, 1.0):
            result = vip_probabilities(g, p0, (-1, 2, -1),
                                       sparse_cutoff=cutoff)
            assert not result.total.any()
            assert not any(h.any() for h in result.hopwise)
            assert_matches_full(result, g, p0, (-1, 2, -1))

    @pytest.mark.parametrize("directed", [False, True])
    def test_push_reads_only_the_frontier_rows(self, monkeypatch, directed):
        """A sparse hop's operator holds exactly the frontier's own rows of
        the incoming graph, ``deg[frontier].sum()`` entries — the cost the
        cutoff tests — not every row containing a frontier vertex."""
        g = random_base(300, 4.0, directed, seed=7)
        deg = transition_table(g).incoming().degrees
        p0 = sparse_p0(300, 5, seed=1)
        entries = []

        def recording(tv, p_prev, rows, **kw):
            entries.append(rows.nnz)
            return hop_values(tv, p_prev, rows, **kw)

        monkeypatch.setattr(analytic, "hop_values", recording)
        result = vip_probabilities(g, p0, (3, 3, 3), sparse_cutoff=1.0)
        previous = [p0, *result.hopwise[:-1]]
        assert entries == [int(deg[np.flatnonzero(p)].sum())
                           for p in previous]

    def test_partition_restricted_p0(self, tiny_dataset, tiny_partition):
        """The production shape: p0 confined to one partition's training
        set, evaluated per partition (both paths, both cutoff extremes)."""
        ds = tiny_dataset
        train = ds.train_idx
        owner = tiny_partition.assignment[train]
        for k in range(tiny_partition.num_parts):
            p0 = uniform_minibatch_probability(
                ds.num_vertices, train[owner == k], 32)
            for cutoff in (0.0, SPARSE_HOP_CUTOFF, 1.0):
                active = vip_probabilities(ds.graph, p0, (5, 4, 3),
                                           sparse_cutoff=cutoff)
                assert_matches_full(active, ds.graph, p0, (5, 4, 3))

    def test_partitionwise_matrix_bit_identical(self, tiny_dataset,
                                                tiny_partition):
        ds = tiny_dataset
        _assert_partitionwise(ds.graph, tiny_partition, ds.train_idx,
                              (5, 5), 32)

    def test_vip_for_training_set_uses_active_path(self, tiny_dataset):
        ds = tiny_dataset
        res = vip_for_training_set(ds.graph, ds.train_idx[:10], (3, 3), 8)
        p0 = uniform_minibatch_probability(ds.num_vertices,
                                           ds.train_idx[:10], 8)
        assert_matches_full(res, ds.graph, p0, (3, 3))

    def test_oracle_slack_is_stated(self, tiny_dataset):
        """The measured slack: the largest deviation from the oracle, as a
        fraction of the bound, is 0.11 here (0.06-0.08 on tiny,
        products-mini and papers-mini at fanouts (15, 10, 5)) — nonzero,
        since the orders do differ, and well inside the bound."""
        ds = tiny_dataset
        p0 = uniform_minibatch_probability(ds.num_vertices, ds.train_idx, 64)
        full = full_evaluation(ds.graph, p0, (5, 4, 3))
        assert 0.0 < oracle_slack(full, ds.graph, p0, (5, 4, 3)) < 0.25

    @settings(max_examples=20, deadline=None)
    @given(vip_case())
    def test_rejects_bad_inputs_like_dense(self, case):
        g = case.graph
        for fn in (vip_probabilities, vip_probabilities_dense):
            with pytest.raises(ValueError, match="one probability per vertex"):
                fn(g, np.zeros(g.num_vertices + 1), (2,))
            with pytest.raises(ValueError, match="entries must lie"):
                fn(g, np.full(g.num_vertices, 1.5), (2,))
            nan = np.zeros(g.num_vertices)
            nan[-1] = np.nan
            with pytest.raises(ValueError, match="initial entries must be "
                                                 "finite"):
                fn(g, nan, (2,))

    def test_nan_p0_rejected(self):
        """One NaN in ``p[0]`` used to pass the range check (``np.min`` of
        a NaN vector is NaN, so both comparisons were False) and come back
        as NaN access for the NaN vertex's neighborhood."""
        g = erdos_renyi(200, 6.0, seed=0)
        p0 = uniform_minibatch_probability(200, np.arange(0, 200, 4), 10)
        p0[3] = np.nan
        with pytest.raises(ValueError, match="initial"):
            vip_probabilities(g, p0, (5, 5))


class TestKernelOrder:
    @settings(max_examples=60, deadline=None)
    @given(vip_case(), st.integers(0, 2**16))
    def test_hop_values_is_a_left_to_right_loop(self, case, seed):
        """Equation (3) of a row set ``==`` a plain Python loop that adds
        each row's log factors left to right from ``+0.0``, in stored
        order — the order is the definition, not an accident of numpy."""
        g = case.graph
        rng = np.random.default_rng(seed)
        rows = np.unique(rng.integers(0, g.num_vertices, g.num_vertices))
        p_prev = case.p0()
        tv = vertex_transition_values(case.fanouts[0], g.degrees)
        got = hop_values(tv, p_prev, row_set(g, rows))
        # The factors and 1 - exp are elementwise (computed as the kernel
        # does, so only the order of the sum is under test).
        with np.errstate(divide="ignore"):
            g_log = np.log(np.maximum(1.0 - tv * p_prev, 0.0))
        counts, flat = rows_concat(g, rows)
        sums, pos = [], 0
        for count in counts:
            s = 0.0
            for v in flat[pos:pos + count]:
                s += float(g_log[v])
            pos += count
            sums.append(s)
        want = np.clip(1.0 - np.exp(np.array(sums)), 0.0, 1.0)
        assert np.array_equal(got, want)

    def test_inactive_sources_change_no_bit(self):
        """``active`` leaves every other factor at ``+0.0``: the same row
        set gives the same bits with the factors restricted to the
        support of ``p[h-1]``."""
        g = erdos_renyi(300, 8.0, seed=5)
        p_prev = uniform_minibatch_probability(300, np.arange(0, 300, 7), 9)
        tv = vertex_transition_values(3, g.degrees)
        rows = row_set(g, np.arange(300))
        assert np.array_equal(
            hop_values(tv, p_prev, rows),
            hop_values(tv, p_prev, rows, active=np.flatnonzero(p_prev)))

    def test_all_rows_operator_shares_the_graph(self):
        """The dense hop's cached operator is the graph's own CSR arrays
        with a ones array beside them — no copy of the structure."""
        g = erdos_renyi(100, 5.0, seed=3)
        op = transition_table(g).all_rows()
        assert op is transition_table(g).all_rows()
        assert np.shares_memory(op.indptr, g.indptr)
        assert np.shares_memory(op.indices, g.indices)
        assert op.shape == (g.num_vertices, g.num_vertices)
        assert np.array_equal(op.data, np.ones(g.num_edges))


class TestTransitionCache:
    def test_repeated_fanouts_compute_once(self):
        """Fanouts (5, 5, 5) must not recompute an identical transition
        array three times — one compute, the rest cache hits."""
        g = erdos_renyi(150, 5.0, seed=2)
        table = transition_table(g)
        p0 = uniform_minibatch_probability(150, np.arange(0, 150, 5), 16)
        vip_probabilities(g, p0, (5, 5, 5))
        assert table.vertex_computes == 1
        assert table.vertex_hits >= 2

    def test_partitionwise_shares_transitions_across_partitions(self):
        """K seeded recursions over L distinct fanouts compute at most L
        transition vectors for the whole matrix (was K x L passes)."""
        g = erdos_renyi(200, 6.0, seed=4)
        part = metis_like_partition(g, 4, seed=0)
        table = transition_table(g)
        before = table.vertex_computes
        partitionwise_vip(g, part, np.arange(0, 200, 3), (5, 4, 3), 16)
        assert table.vertex_computes - before <= 3

    def test_negative_fanouts_share_one_entry(self):
        g = erdos_renyi(60, 3.0, seed=1)
        table = transition_table(g)
        assert table.vertex_transition(-1) is table.vertex_transition(-2)
        assert table.vertex_computes == 1

    def test_cached_arrays_match_uncached_and_are_readonly(self):
        g = erdos_renyi(80, 4.0, seed=9)
        table = transition_table(g)
        for fanout in (1, 3, -1):
            cached = table.vertex_transition(fanout)
            assert np.array_equal(
                cached, vertex_transition_values(fanout, g.degrees))
            assert not cached.flags.writeable
        with pytest.raises(ValueError, match="fanout"):
            table.vertex_transition(0)

    def test_vertex_factoring_matches_edge_transition(self):
        """Gathering the per-vertex factorization along ``indices`` is the
        oracle's per-edge array, bit for bit (the kernel's correctness
        core)."""
        g = erdos_renyi(100, 5.0, seed=3)
        table = transition_table(g)
        for fanout in (1, 2, 7, -1):
            per_vertex = table.vertex_transition(fanout)
            assert np.array_equal(per_vertex[g.indices],
                                  _compute_edge_transition(g, fanout))

    def test_table_is_per_graph(self):
        g1 = erdos_renyi(50, 3.0, seed=1)
        g2 = erdos_renyi(50, 3.0, seed=2)
        assert transition_table(g1) is transition_table(g1)
        assert transition_table(g1) is not transition_table(g2)


class TestExpectedRemoteVolume:
    @staticmethod
    def _reference(vip_matrix, partition, steps, cached=None):
        """The seed implementation: one boolean mask per machine."""
        K, _ = vip_matrix.shape
        owner = partition.assignment
        total = 0.0
        for k in range(K):
            remote = owner != k
            if cached is not None:
                remote = remote & ~cached[k]
            total += float(steps[k]) * float(vip_matrix[k, remote].sum())
        return total

    @settings(max_examples=30, deadline=None)
    @given(st.integers(2, 6), st.integers(5, 60), st.integers(0, 2**16))
    def test_matches_reference(self, K, n, seed):
        rng = np.random.default_rng(seed)
        part = Partition(rng.integers(0, K, n), K)
        vip = rng.random((K, n))
        steps = rng.integers(1, 10, K)
        cached = rng.random((K, n)) < 0.3
        got = expected_remote_volume(vip, part, steps)
        assert got == pytest.approx(self._reference(vip, part, steps))
        got_cached = expected_remote_volume(vip, part, steps, cached)
        assert got_cached == pytest.approx(
            self._reference(vip, part, steps, cached))
        assert got_cached <= got + 1e-9

    def test_rejects_shape_mismatches(self):
        part = Partition(np.zeros(10, dtype=np.int64), 2)
        vip = np.zeros((2, 10))
        with pytest.raises(ValueError, match="steps_per_epoch"):
            expected_remote_volume(vip, part, np.ones(3))
        with pytest.raises(ValueError, match="cached"):
            expected_remote_volume(vip, part, np.ones(2),
                                   cached=np.zeros((2, 9), dtype=bool))
        with pytest.raises(ValueError, match="2-D"):
            expected_remote_volume(np.zeros(10), part, np.ones(2))
