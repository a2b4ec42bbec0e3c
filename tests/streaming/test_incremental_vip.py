"""Incremental VIP ≡ the production full Proposition 1 on the compacted
graph, bit for bit, and that within the frozen oracle's summation-order
bound.

The whole point of :func:`incremental_vip` is that a dirty-frontier refresh
is *indistinguishable* from throwing the snapshot away and evaluating
Proposition 1 from scratch on ``materialize()`` — not approximately, not
"to float tolerance": the arrays must match bit for bit.  Each row sums its
sources left to right from ``+0.0``, so a recomputed row is the full
evaluation's row by construction.  Production ``vip_probabilities`` alone
cannot be the referee (it runs the same row kernel, so a kernel bug would
cancel); the full evaluation is also held to the seed implementation
frozen in ``tests/vip/reference_dense.py`` within ``count * eps * sum|x|``
per hop (:func:`vip_cases.oracle_slack`).  This file is the enforcement: a
hypothesis differential suite over the strategy shared with
``tests/vip/test_active_set.py`` (undirected graphs, full-expansion ``-1``
fanouts, random insert/delete/mixed churn and emptied rows, drifting seed
distributions, chained multi-round refreshes, compaction, and the churn
cutoff at {0, default, 1}: 1.0 pins the incremental path, 0.0 pins the
full-recompute fallback — all must agree).  Plus ``initial`` checked like
the full path's, and the :class:`TransitionTable` version-token regression
(stale transitions must not survive a graph mutation).
"""

import numpy as np
import pytest
from hypothesis import given, settings

from vip_cases import assert_matches_full, random_batch, sparse_p0, vip_case
from repro.graph import CSRGraph, erdos_renyi
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.vip import incremental
from repro.vip import (
    incremental_vip,
    snapshot_vip,
    transition_table,
    vip_probabilities,
)


def assert_snapshot_matches_full(snap, mgraph):
    """The snapshot must be bit-identical to the full evaluation on the
    materialized (compacted) graph."""
    assert_matches_full(snap.result, mgraph.materialize(), snap.initial,
                          snap.fanouts)
    assert np.array_equal(snap.access, snap.result.access)


def isolate(mg, v):
    """Delete every edge of ``v`` — the emptied-row churn."""
    nbrs = mg.neighbors(v).copy()
    mg.remove_edges(np.full(len(nbrs), v), nbrs)


class TestIncrementalParity:
    @settings(max_examples=60, deadline=None)
    @given(vip_case(overlay=True))
    def test_bit_identical_across_churn(self, case):
        rng = np.random.default_rng(case.churn_seed)
        mg = MutableGraph(case.graph, compact_cutoff=None)
        everyone = np.arange(mg.num_vertices)
        snap = snapshot_vip(mg, case.p0(), case.fanouts)
        assert_snapshot_matches_full(snap, mg)
        for _ in range(case.rounds):
            mg.apply(random_batch(rng, everyone, int(rng.integers(1, 8))))
            if rng.random() < 0.3:
                isolate(mg, int(rng.choice(everyone)))
            snap = incremental_vip(mg, snap, churn_cutoff=case.churn_cutoff)
            assert_snapshot_matches_full(snap, mg)

    @settings(max_examples=40, deadline=None)
    @given(vip_case(overlay=True))
    def test_bit_identical_with_p0_drift(self, case):
        """Seed-distribution drift (the training-set swap case) rides the
        same refresh and must stay exact."""
        rng = np.random.default_rng(case.churn_seed)
        mg = MutableGraph(case.graph, compact_cutoff=None)
        everyone = np.arange(mg.num_vertices)
        snap = snapshot_vip(mg, case.p0(), case.fanouts)
        for i in range(case.rounds):
            mg.apply(random_batch(rng, everyone, int(rng.integers(1, 6))))
            snap = incremental_vip(mg, snap, case.p0(drift=i + 1),
                                   churn_cutoff=case.churn_cutoff)
            assert_snapshot_matches_full(snap, mg)

    @settings(max_examples=20, deadline=None)
    @given(vip_case(overlay=True))
    def test_survives_compaction(self, case):
        rng = np.random.default_rng(case.churn_seed)
        mg = MutableGraph(case.graph, compact_cutoff=None)
        everyone = np.arange(mg.num_vertices)
        snap = snapshot_vip(mg, case.p0(), case.fanouts)
        mg.apply(random_batch(rng, everyone, 3))
        snap = incremental_vip(mg, snap, churn_cutoff=case.churn_cutoff)
        assert_snapshot_matches_full(snap, mg)
        mg.compact()
        mg.apply(random_batch(rng, everyone, 4))
        snap = incremental_vip(mg, snap, churn_cutoff=case.churn_cutoff)
        assert_snapshot_matches_full(snap, mg)


class TestDeadSourceInsert:
    def test_row_unchanged_and_still_recomputed(self):
        """Inserting an edge from a source with ``p0 = 0`` adds an exact
        ``+0.0`` log term, and a left-to-right sum is unchanged by it: the
        row's value keeps every bit.  The refresh still recomputes the dirty
        rows (a changed source list may hold a live source at some hop),
        finds them unchanged, and propagates nothing."""
        g = erdos_renyi(30, 6.0, seed=1)
        rng = np.random.default_rng(1)
        p0 = np.zeros(30)
        p0[rng.choice(30, 20, replace=False)] = rng.random(20)
        assert p0[2] == 0.0
        before = vip_probabilities(g, p0, [3])
        mg = MutableGraph(g, compact_cutoff=None)
        snap = snapshot_vip(mg, p0, [3])
        mg.add_edges([2], [13])
        out = incremental_vip(mg, snap, churn_cutoff=1.0)
        assert out.stats.mode == "incremental"
        assert out.stats.rows_recomputed >= 2  # rows 2 and 13, both dirty
        after = vip_probabilities(mg.materialize(), p0, [3])
        assert before.hopwise[0][13] == after.hopwise[0][13]
        assert out.stats.rows_changed == 0
        assert_snapshot_matches_full(out, mg)


class TestRefreshModes:
    def _setup(self):
        g = erdos_renyi(80, 5.0, seed=11)
        mg = MutableGraph(g, compact_cutoff=None)
        p0 = sparse_p0(80, 12, seed=1)
        return mg, snapshot_vip(mg, p0, (3, 3))

    def test_noop_without_churn(self):
        mg, snap = self._setup()
        again = incremental_vip(mg, snap)
        assert again.stats.mode == "noop"
        assert np.array_equal(again.result.total, snap.result.total)

    def test_incremental_mode_touches_few_rows(self):
        mg, snap = self._setup()
        mg.add_edges([0], [40])
        out = incremental_vip(mg, snap, churn_cutoff=1.0)
        assert out.stats.mode == "incremental"
        assert out.stats.rows_recomputed < mg.num_vertices * len(snap.fanouts)
        assert_snapshot_matches_full(out, mg)

    def test_full_fallback_past_cutoff(self):
        mg, snap = self._setup()
        rng = np.random.default_rng(0)
        mg.add_edges(rng.integers(0, 80, 400), rng.integers(0, 80, 400))
        out = incremental_vip(mg, snap, churn_cutoff=0.0)
        assert out.stats.mode == "full"
        assert_snapshot_matches_full(out, mg)

    def test_gate_trips_before_a_hop_it_would_discard(self, monkeypatch):
        """A seed swap (the training-set phase boundary) moves ``p[0]`` on
        most vertices, so hop 1's rows already cover most of the graph;
        projected over the hop still to come that passes the budget, and
        the refresh goes full without evaluating a hop it would throw
        away.  Cutoff 1.0 still never trips."""
        mg, snap = self._setup()
        evaluated = []
        kernel = incremental.hop_values
        monkeypatch.setattr(
            incremental, "hop_values",
            lambda *a, **k: evaluated.append(1) or kernel(*a, **k))
        swapped = sparse_p0(80, 60, seed=5)
        out = incremental_vip(mg, snap, swapped)
        assert out.stats.mode == "full"
        assert not evaluated
        # One hop's volume was counted: under the budget on its own (the
        # old cumulative gate would have computed it), over it projected.
        assert 0.5 * mg.num_edges < out.stats.edges_touched <= mg.num_edges
        assert_snapshot_matches_full(out, mg)
        kept = incremental_vip(mg, snap, swapped, churn_cutoff=1.0)
        assert kept.stats.mode == "incremental" and len(evaluated) == 2
        assert_snapshot_matches_full(kept, mg)

    def test_cancelled_churn_is_noop(self):
        """A batch and its inverse cancel out: the exact frontier is empty,
        so the refresh carries the snapshot over untouched."""
        mg, snap = self._setup()
        v = int(np.argmax(mg.degrees))
        u = int(mg.neighbors(v)[0])
        mg.apply(EdgeBatch(add_src=[0], add_dst=[40], del_src=[v],
                           del_dst=[u]))
        mg.apply(EdgeBatch(add_src=[v], add_dst=[u], del_src=[0],
                           del_dst=[40]))
        again = incremental_vip(mg, snap, churn_cutoff=1.0)
        assert again.stats.mode == "noop"
        assert_snapshot_matches_full(again, mg)


class TestInitialChecked:
    """``initial`` goes through the check ``vip_probabilities`` applies —
    rejected when out of range or non-finite, clipped when within
    tolerance — whichever path the refresh takes."""

    def _setup(self):
        mg = MutableGraph(erdos_renyi(80, 5.0, seed=11), compact_cutoff=None)
        p0 = sparse_p0(80, 12, seed=1)
        snap = snapshot_vip(mg, p0, (3, 3))
        mg.add_edges([0], [40])
        return mg, snap, p0

    @pytest.mark.parametrize("churn_cutoff", [0.0, 1.0])
    def test_out_of_range_p0_rejected_on_both_paths(self, churn_cutoff):
        mg, snap, p0 = self._setup()
        bad = p0.copy()
        bad[5] = 2.0
        with pytest.raises(ValueError, match="initial entries must lie"):
            incremental_vip(mg, snap, bad, churn_cutoff=churn_cutoff)

    @pytest.mark.parametrize("churn_cutoff", [0.0, 1.0])
    def test_in_tolerance_p0_equals_full(self, churn_cutoff):
        mg, snap, p0 = self._setup()
        # Zero entries in the rows the churn dirtied: the refresh reads them.
        touched = np.union1d(mg.neighbors(0), mg.neighbors(40))
        p0 = p0.copy()
        p0[touched[p0[touched] == 0.0]] = -5e-13
        got = incremental_vip(mg, snap, p0, churn_cutoff=churn_cutoff)
        want = vip_probabilities(mg.materialize(), p0, snap.fanouts)
        assert np.array_equal(got.result.total, want.total)
        for a, b in zip(got.result.hopwise, want.hopwise):
            assert np.array_equal(a, b)
        assert np.array_equal(got.result.initial, want.initial)
        assert np.array_equal(got.access, want.access)

    def test_snapshot_stores_the_clipped_vector(self):
        mg = MutableGraph(erdos_renyi(30, 4.0, seed=2), compact_cutoff=None)
        p0 = np.zeros(30)
        p0[[1, 2]] = [-5e-13, 1 + 5e-13]
        snap = snapshot_vip(mg, p0, (2,))
        assert snap.initial[1] == 0.0 and snap.initial[2] == 1.0
        assert np.array_equal(snap.result.initial, p0)  # as vip_probabilities

    def test_nan_p0_rejected(self):
        mg, snap, p0 = self._setup()
        bad = p0.copy()
        bad[7] = np.nan
        with pytest.raises(ValueError, match="initial entries must be finite"):
            snapshot_vip(mg, bad, (3, 3))
        for churn_cutoff in (0.0, 1.0):
            with pytest.raises(ValueError, match="initial entries must be "
                                                 "finite"):
                incremental_vip(mg, snap, bad, churn_cutoff=churn_cutoff)

    def test_matrix_p0_rejected(self):
        """A snapshot or refresh scores one distribution: an ``(N, k)``
        matrix, which ``vip_probabilities`` accepts, is refused here."""
        mg, snap, p0 = self._setup()
        two = np.column_stack([p0, p0])
        with pytest.raises(ValueError, match="one probability per vertex"):
            snapshot_vip(mg, two, (3, 3))
        for churn_cutoff in (0.0, 1.0):
            with pytest.raises(ValueError, match="one probability per vertex"):
                incremental_vip(mg, snap, two, churn_cutoff=churn_cutoff)


class TestTransitionTableVersion:
    """Satellite regression: the per-graph transition cache must notice
    mutation.  ``CSRGraph.version`` is the token; ``bump_version`` is what
    in-place mutators call."""

    def test_cache_hit_at_same_version(self):
        g = erdos_renyi(40, 4.0, seed=0)
        assert transition_table(g) is transition_table(g)

    def test_bump_version_invalidates(self):
        g = erdos_renyi(40, 4.0, seed=0)
        t1 = transition_table(g)
        vt1 = t1.vertex_transition(5).copy()
        # Mutate the CSR arrays in place (sever one high-degree vertex's
        # row tail) and bump — the stale table must be discarded.
        g.bump_version()
        t2 = transition_table(g)
        assert t2 is not t1
        assert t2.version == g.version
        assert np.array_equal(vt1, t2.vertex_transition(5))  # same content

    def test_stale_transitions_would_differ(self):
        """The failure the token prevents: a transition row computed before
        a degree change is wrong afterwards, so serving it from a cache
        keyed only on object identity would corrupt every consumer."""
        g1 = CSRGraph.from_edges([0, 0], [1, 2], 3, dedup=True)
        g2 = CSRGraph.from_edges([0, 0, 1, 1], [1, 2, 0, 2], 3, dedup=True)
        stale = transition_table(g1).vertex_transition(1)
        fresh = transition_table(g2).vertex_transition(1)
        assert not np.array_equal(stale, fresh)

