"""Delta-CSR overlay semantics, enforced against a pure-Python set oracle.

:class:`MutableGraph` is the substrate under incremental VIP and streaming
serving, so its contract is checked the hard way: a hypothesis property
replays random insert/delete/mixed batches, emptied rows and cancelled
reverts through both the overlay and a dict-of-sets oracle and demands
*exact* agreement on materialization, degrees, and — the part everything
downstream leans on — the dirty frontier at every historical version,
including mutations that cancel out inside the window (those must NOT be
reported).  Undirected bases (a directed one is rejected), with and without
auto-compaction, plus unit tests for input validation, compaction, the
frozen sampler read path, and ``from_edges`` dedup/self-loop handling.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import CSRGraph, erdos_renyi
from repro.graph.mutable import DeltaRecord, EdgeBatch, MutableGraph
from repro.sampling import sample_neighbors


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
class SetOracle:
    """Reference semantics: undirected adjacency as a dict of Python sets."""

    def __init__(self, graph: CSRGraph):
        self.n = graph.num_vertices
        self.rows = {v: set(graph.neighbors(v).tolist())
                     for v in range(self.n)}

    def snapshot(self):
        return {v: tuple(sorted(r)) for v, r in self.rows.items()}

    @staticmethod
    def _pairs(src, dst):
        pairs = list(zip(src, dst))
        return pairs + [(d, s) for s, d in pairs]

    def add_edges(self, src, dst):
        for s, d in self._pairs(src, dst):
            self.rows[s].add(d)

    def remove_edges(self, src, dst):
        for s, d in self._pairs(src, dst):
            self.rows[s].discard(d)

    def edges(self):
        src = [v for v, r in self.rows.items() for _ in r]
        dst = [u for r in self.rows.values() for u in sorted(r)]
        return np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64)

    def materialize(self):
        src, dst = self.edges()
        return CSRGraph.from_edges(src, dst, self.n, dedup=True)


@st.composite
def churn_script(draw):
    """An undirected base graph plus a script of mutation ops."""
    n = draw(st.integers(min_value=2, max_value=50))
    g = erdos_renyi(n, draw(st.floats(0.0, 6.0)), seed=draw(
        st.integers(0, 2**16)))
    num_ops = draw(st.integers(min_value=1, max_value=6))
    rng_seed = draw(st.integers(0, 2**16))
    ops = draw(st.lists(
        st.sampled_from(["add", "del", "isolate", "revert", "mixed"]),
        min_size=num_ops, max_size=num_ops))
    compact_cutoff = draw(st.sampled_from([None, 0.3]))
    return g, ops, rng_seed, compact_cutoff


def run_script(g, ops, rng_seed, compact_cutoff):
    """Replay the script on both implementations, snapshotting the oracle
    at every version."""
    rng = np.random.default_rng(rng_seed)
    mg = MutableGraph(g, compact_cutoff=compact_cutoff)
    oracle = SetOracle(g)
    snaps = {0: oracle.snapshot()}

    def apply(batch):
        mg.apply(batch)
        oracle.add_edges(batch.add_src, batch.add_dst)
        oracle.remove_edges(batch.del_src, batch.del_dst)
        snaps[mg.version] = oracle.snapshot()

    for op in ops:
        k = int(rng.integers(1, 6))
        pick = lambda: rng.integers(0, oracle.n, size=k)  # noqa: E731
        if op == "add":
            apply(EdgeBatch(add_src=pick(), add_dst=pick()))
        elif op == "del":
            # half absent-edge deletes (no-ops), half real ones
            s, d = pick(), pick()
            real = [(v, u) for v in oracle.rows for u in oracle.rows[v]][:k]
            if real:
                s = np.concatenate([s, [p[0] for p in real]])
                d = np.concatenate([d, [p[1] for p in real]])
            apply(EdgeBatch(del_src=s, del_dst=d))
        elif op == "isolate":  # empty one row: delete every incident edge
            v = int(rng.integers(oracle.n))
            nbrs = sorted(oracle.rows[v])
            apply(EdgeBatch(del_src=[v] * len(nbrs), del_dst=nbrs))
        elif op == "revert":  # add absent edges, then delete them again
            s, d = pick(), pick()
            fresh = [(a, b) for a, b in zip(s, d) if b not in oracle.rows[a]]
            s, d = [p[0] for p in fresh], [p[1] for p in fresh]
            apply(EdgeBatch(add_src=s, add_dst=d))
            apply(EdgeBatch(del_src=s, del_dst=d))
        else:  # mixed add+delete in one batch
            apply(EdgeBatch(add_src=pick(), add_dst=pick(),
                            del_src=pick(), del_dst=pick()))
    return mg, oracle, snaps


def expected_dirty(oracle, snaps, version):
    cur, then = oracle.snapshot(), snaps[version]
    return np.array(sorted(v for v in cur if cur[v] != then[v]),
                    dtype=np.int64)


class TestOracleParity:
    @settings(max_examples=80, deadline=None)
    @given(churn_script())
    def test_matches_set_oracle(self, script):
        mg, oracle, snaps = run_script(*script)
        ref = oracle.materialize()
        mat = mg.materialize()
        assert mat.num_vertices == ref.num_vertices
        assert np.array_equal(mat.indptr, ref.indptr)
        assert np.array_equal(mat.indices, ref.indices)
        assert np.array_equal(mg.degrees, ref.degrees)
        # The structure flags vip_probabilities reads, preset by
        # materialize() and the dedup build, agree with a fresh copy's.
        fresh = CSRGraph(mat.indptr, mat.indices)
        assert mat.is_undirected() == fresh.is_undirected() is True
        assert mat.has_sorted_neighbors() == fresh.has_sorted_neighbors() is True
        for v in range(mg.num_vertices):
            assert tuple(mg.neighbors(v).tolist()) == snaps[mg.version][v]
        # Exact dirty frontier at every historical version, and the rows
        # among it whose length changed (the refresh's stale transitions),
        # from the same walk of the log.
        for version in snaps:
            want = expected_dirty(oracle, snaps, version)
            assert np.array_equal(mg.dirty_frontier(version), want), \
                f"frontier mismatch at version {version}"
            dirty, stale = mg._dirty(version)
            assert np.array_equal(dirty, want)
            assert stale.tolist() == [v for v in want.tolist()
                                      if len(snaps[version][v])
                                      != mg.degrees[v]]

    @settings(max_examples=30, deadline=None)
    @given(churn_script())
    def test_frozen_read_path_matches_materialized(self, script):
        """row_starts/take_edges (the sampler protocol) must read the same
        adjacency as the materialized CSR."""
        mg, _, _ = run_script(*script)
        mat = mg.materialize()
        targets = np.arange(mg.num_vertices, dtype=np.int64)
        starts = mg.row_starts(targets)
        counts = mg.degrees
        for v in range(mg.num_vertices):
            pos = starts[v] + np.arange(counts[v])
            assert np.array_equal(np.sort(mg.take_edges(pos)),
                                  mat.neighbors(v))


class TestRevertNotDirty:
    def test_cancelled_mutations_not_reported(self):
        g = erdos_renyi(30, 4.0, seed=1)
        mg = MutableGraph(g)
        before = mg.neighbors(3).copy()
        mg.add_edges([3], [7])
        mg.remove_edges([3], [7])
        assert np.array_equal(mg.neighbors(3), before)
        assert len(mg.dirty_frontier(0)) == 0
        # ...but relative to the intermediate version the change is real
        assert 3 in mg.dirty_frontier(1)

    def test_delete_then_readd_existing_edge(self):
        g = erdos_renyi(30, 4.0, seed=2)
        v = int(np.argmax(g.degrees))
        u = int(g.neighbors(v)[0])
        mg = MutableGraph(g)
        mg.remove_edges([v], [u])
        mg.add_edges([v], [u])
        assert len(mg.dirty_frontier(0)) == 0
        assert np.array_equal(mg.materialize().indices, g.indices)


class TestValidation:
    def test_directed_base_rejected(self):
        g = CSRGraph.from_edges([0, 1], [1, 2], 3)
        with pytest.raises(ValueError, match="needs an undirected graph"):
            MutableGraph(g)

    def test_out_of_range_endpoint_raises(self):
        g = erdos_renyi(10, 2.0, seed=0)
        mg = MutableGraph(g)
        with pytest.raises(ValueError, match="out of range"):
            mg.add_edges([0], [10])
        with pytest.raises(ValueError, match="out of range"):
            mg.add_edges([-1], [0])
        assert mg.version == 0

    def test_negative_version_rejected(self):
        mg = MutableGraph(erdos_renyi(10, 2.0, seed=0))
        mg.add_edges([0], [5])
        with pytest.raises(ValueError, match="since_version"):
            mg.dirty_frontier(-1)


class TestCompaction:
    def test_compact_preserves_log_and_frontier(self):
        g = erdos_renyi(40, 4.0, seed=4)
        mg = MutableGraph(g, compact_cutoff=None)
        rng = np.random.default_rng(0)
        mg.add_edges(rng.integers(0, 40, 10), rng.integers(0, 40, 10))
        frontier_before = mg.dirty_frontier(0)
        assert mg.overlay_entries > 0
        mg.compact()
        assert mg.overlay_entries == 0
        assert np.array_equal(mg.dirty_frontier(0), frontier_before)
        assert all(isinstance(r, DeltaRecord) for r in mg.log)

    def test_auto_compact_fires(self):
        g = erdos_renyi(30, 3.0, seed=5)
        mg = MutableGraph(g, compact_cutoff=0.0)
        mg.add_edges([0, 1], [2, 3])
        assert mg.overlay_entries == 0  # compacted after every batch


class TestFromEdgesDedup:
    """``CSRGraph.from_edges(dedup=True)`` is the canonicalization under
    both ``materialize`` and ``compact`` — duplicates collapse, self-loops
    are kept (one copy), rows come out sorted."""

    def test_duplicates_collapse(self):
        g = CSRGraph.from_edges([0, 0, 0, 1], [1, 1, 1, 0], 3, dedup=True)
        assert g.num_edges == 2
        assert np.array_equal(g.neighbors(0), [1])

    def test_self_loops_dedup_to_one(self):
        g = CSRGraph.from_edges([2, 2, 2], [2, 2, 2], 3, dedup=True)
        assert g.num_edges == 1
        assert np.array_equal(g.neighbors(2), [2])

    def test_rows_sorted_unique(self):
        g = CSRGraph.from_edges([0, 0, 0], [3, 1, 3], 4, dedup=True)
        assert np.array_equal(g.neighbors(0), [1, 3])

    def test_overlay_dedups_via_compact(self):
        base = erdos_renyi(10, 2.0, seed=0)
        mg = MutableGraph(base)
        mg.add_edges([0, 0, 0], [4, 4, 4])  # duplicate inserts
        assert int(np.sum(mg.neighbors(0) == 4)) == 1
        compacted = mg.compact()
        assert int(np.sum(compacted.neighbors(0) == 4)) == 1


class TestSamplerParity:
    def test_empty_overlay_rng_stream_identical(self):
        """Wrapping a graph without mutating it must not perturb sampled
        neighbor streams — positions index the base CSR directly."""
        g = erdos_renyi(100, 8.0, seed=7)
        mg = MutableGraph(g)
        seeds = np.array([3, 17, 41, 99], dtype=np.int64)
        a = sample_neighbors(g, seeds, 5, np.random.default_rng(123))
        b = sample_neighbors(mg, seeds, 5, np.random.default_rng(123))
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_sampler_sees_overlay_edges(self):
        g = erdos_renyi(50, 3.0, seed=8)
        mg = MutableGraph(g)
        mg.add_edges([0], [49])
        src, dst = sample_neighbors(mg, np.array([0]), -1,
                                    np.random.default_rng(0))
        assert 49 in dst

