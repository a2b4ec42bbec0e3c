"""Incremental VIP ≡ full Proposition 1 on the compacted graph, bit for bit.

The whole point of :func:`incremental_vip` is that a dirty-frontier refresh
is *indistinguishable* from throwing the snapshot away and re-running
:func:`vip_probabilities` on ``materialize()`` — not approximately, not "to
float tolerance": the incremental path replays the identical IEEE operation
sequence on changed rows only, so the arrays must match bit for bit.  This
file is the enforcement: a hypothesis differential suite over random graphs
(directed + undirected), random insert/delete churn, full-expansion ``-1``
fanouts, drifting seed distributions, chained multi-round refreshes, and
both churn-cutoff extremes (1.0 pins the incremental path, 0.0 pins the
full-recompute fallback — both must agree with the oracle).  Plus the
:class:`TransitionTable` version-token regression (satellite: stale
transitions must not survive a graph mutation).
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph, erdos_renyi
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.vip import (
    VIPTracker,
    incremental_vip,
    snapshot_vip,
    transition_table,
    vip_probabilities,
)


def assert_snapshot_matches_full(snap, mgraph):
    """The snapshot must be bit-identical to a fresh full evaluation on the
    materialized (compacted) graph."""
    ref = vip_probabilities(mgraph.materialize(), snap.initial, snap.fanouts)
    assert np.array_equal(snap.result.total, ref.total)
    assert len(snap.result.hopwise) == len(ref.hopwise)
    for a, b in zip(snap.result.hopwise, ref.hopwise):
        assert np.array_equal(a, b)
    assert np.array_equal(snap.access, ref.access)


def random_base(n, avg_deg, directed, seed):
    rng = np.random.default_rng(seed)
    if directed:
        m = int(avg_deg * n)
        return CSRGraph.from_edges(rng.integers(0, n, m),
                                   rng.integers(0, n, m), n, dedup=True)
    return erdos_renyi(n, avg_deg, seed=seed)


def sparse_p0(n, support, seed):
    rng = np.random.default_rng(seed)
    p0 = np.zeros(n)
    if support:
        idx = rng.choice(n, size=min(support, n), replace=False)
        p0[idx] = rng.random(len(idx))
    return p0


def random_batch(rng, alive, size):
    pick = lambda: rng.choice(alive, size=size)  # noqa: E731
    return EdgeBatch(add_src=pick(), add_dst=pick(),
                     del_src=pick(), del_dst=pick())


fanout_lists = st.lists(st.sampled_from([-1, 1, 2, 3, 7]),
                        min_size=1, max_size=3)


@st.composite
def churn_case(draw):
    n = draw(st.integers(min_value=2, max_value=60))
    directed = draw(st.booleans())
    g = random_base(n, draw(st.floats(0.0, 6.0)), directed,
                    draw(st.integers(0, 2**16)))
    fanouts = draw(fanout_lists)
    p0_seed = draw(st.integers(0, 2**16))
    support = draw(st.integers(0, n))
    churn_seed = draw(st.integers(0, 2**16))
    rounds = draw(st.integers(min_value=1, max_value=3))
    cutoff = draw(st.sampled_from([1.0, 0.0]))
    return g, directed, fanouts, p0_seed, support, churn_seed, rounds, cutoff


class TestIncrementalParity:
    @settings(max_examples=60, deadline=None)
    @given(churn_case())
    def test_bit_identical_across_churn(self, case):
        (g, directed, fanouts, p0_seed, support, churn_seed, rounds,
         cutoff) = case
        rng = np.random.default_rng(churn_seed)
        mg = MutableGraph(g, undirected=not directed, compact_cutoff=None)
        p0 = sparse_p0(mg.num_vertices, support, p0_seed)
        snap = snapshot_vip(mg, p0, fanouts)
        assert_snapshot_matches_full(snap, mg)
        for _ in range(rounds):
            alive = [v for v in range(mg.num_vertices)
                     if not mg.is_tombstoned(v)]
            if not alive:
                break
            mg.apply(random_batch(rng, alive, int(rng.integers(1, 8))))
            still = [v for v in alive if not mg.is_tombstoned(v)]
            if rng.random() < 0.3 and len(still) > 1:
                mg.remove_vertices([int(rng.choice(still))])
            snap = incremental_vip(mg, snap, churn_cutoff=cutoff)
            assert_snapshot_matches_full(snap, mg)

    @settings(max_examples=25, deadline=None)
    @given(churn_case())
    def test_bit_identical_with_p0_drift(self, case):
        """Seed-distribution drift (the training-set swap case) rides the
        same refresh and must stay exact — called directly, and through a
        :class:`VIPTracker` serving two consumers that starts on the static
        base, is re-pointed at the overlay, and whose second consumer
        refreshes only every other round (its snapshot lags the log)."""
        (g, directed, fanouts, p0_seed, support, churn_seed, rounds,
         cutoff) = case
        rng = np.random.default_rng(churn_seed)
        mg = MutableGraph(g, undirected=not directed, compact_cutoff=None)
        n = mg.num_vertices
        p0 = sparse_p0(n, support, p0_seed)
        snap = snapshot_vip(mg, p0, fanouts)
        tracker = VIPTracker(mg.base, fanouts)

        def assert_tracker_matches_full(consumer, p0):
            ref = vip_probabilities(mg.materialize(), p0, fanouts)
            assert np.array_equal(tracker.access(consumer, p0), ref.access)

        assert_tracker_matches_full("a", p0)
        assert not tracker.snapshots  # static graph: nothing to carry
        tracker.graph = mg
        for i in range(rounds):
            alive = [v for v in range(n) if not mg.is_tombstoned(v)]
            mg.apply(random_batch(rng, alive, int(rng.integers(1, 6))))
            p0 = sparse_p0(n, support, p0_seed + i + 1)
            snap = incremental_vip(mg, snap, p0, churn_cutoff=cutoff)
            assert_snapshot_matches_full(snap, mg)
            assert_tracker_matches_full("a", p0)
            if i % 2:
                assert_tracker_matches_full(
                    "b", sparse_p0(n, support, p0_seed + 2**16 + i))
            assert tracker.snapshots["a"].version == mg.version

    @settings(max_examples=20, deadline=None)
    @given(churn_case())
    def test_survives_vertex_growth_and_compaction(self, case):
        (g, directed, fanouts, p0_seed, support, churn_seed, rounds,
         cutoff) = case
        rng = np.random.default_rng(churn_seed)
        mg = MutableGraph(g, undirected=not directed, compact_cutoff=None)
        snap = snapshot_vip(mg, sparse_p0(mg.num_vertices, support, p0_seed),
                            fanouts)
        new = mg.add_vertices(3)
        old = [v for v in range(len(snap.initial))
               if not mg.is_tombstoned(v)]
        mg.add_edges([int(new[0]), int(new[1])],
                     [int(rng.choice(old)), int(rng.choice(old))])
        snap = incremental_vip(mg, snap, churn_cutoff=cutoff)
        assert_snapshot_matches_full(snap, mg)
        mg.compact()
        alive = [v for v in range(mg.num_vertices)
                 if not mg.is_tombstoned(v)]
        mg.apply(random_batch(rng, alive, 4))
        snap = incremental_vip(mg, snap, churn_cutoff=cutoff)
        assert_snapshot_matches_full(snap, mg)


class TestPairwiseSumTreeShape:
    def test_dead_source_insert_still_recomputed(self):
        """Regression: inserting an edge from a source with ``p0 = 0`` adds
        an exactly-zero log term, yet the row's value can still move by a
        ULP — numpy sums pairwise, so changing the segment *length* regroups
        the other operands.  A refresh that skips "dead" churn on that
        argument silently diverges from the oracle; dirty rows must always
        be recomputed.  This (graph, edge) pair is a found instance where
        the hop value provably moves."""
        g = erdos_renyi(30, 6.0, seed=1)
        rng = np.random.default_rng(1)
        p0 = np.zeros(30)
        p0[rng.choice(30, 20, replace=False)] = rng.random(20)
        assert p0[2] == 0.0
        before = vip_probabilities(g, p0, [3])
        mg = MutableGraph(g, undirected=True, compact_cutoff=None)
        snap = snapshot_vip(mg, p0, [3])
        mg.add_edges([2], [13])
        out = incremental_vip(mg, snap, churn_cutoff=1.0)
        assert out.stats.mode == "incremental"
        # The zero term really does perturb the row's value...
        ref = vip_probabilities(mg.materialize(), p0, [3])
        assert before.hopwise[0][13] != ref.hopwise[0][13]
        # ...and the refresh tracks it bit for bit.
        assert_snapshot_matches_full(out, mg)


class TestRefreshModes:
    def _setup(self):
        g = erdos_renyi(80, 5.0, seed=11)
        mg = MutableGraph(g, undirected=True, compact_cutoff=None)
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

    def test_trimmed_log_rejected(self):
        """A snapshot older than the delta log cannot be refreshed
        incrementally — the frontier query must refuse, not silently
        under-report."""
        mg, snap = self._setup()
        mg.add_edges([0], [40])
        mg.add_edges([1], [41])
        mg.trim_log(mg.version)
        mg.add_edges([2], [42])
        with pytest.raises(ValueError, match="predates"):
            incremental_vip(mg, snap)


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
