"""Node-wise sampler tests: distribution contract and MFG structure."""

import numpy as np
import pytest

from repro.graph import CSRGraph
from repro.sampling import NeighborSampler, num_batches, sample_neighbors


def star_graph(leaves):
    """Vertex 0 connected to 1..leaves (undirected)."""
    hub = np.zeros(leaves, dtype=np.int64)
    leaf = np.arange(1, leaves + 1, dtype=np.int64)
    return CSRGraph.from_edges(np.r_[hub, leaf], np.r_[leaf, hub], leaves + 1)


class TestSampleNeighbors:
    def test_counts_exact(self, small_er_graph, rng):
        g = small_er_graph
        targets = np.arange(g.num_vertices)
        ptr, src = sample_neighbors(g, targets, 3, rng)
        counts = np.diff(ptr)
        assert np.array_equal(counts, np.minimum(g.degrees, 3))
        assert len(src) == ptr[-1]

    def test_without_replacement(self, rng):
        g = star_graph(20)
        for _ in range(10):
            ptr, src = sample_neighbors(g, np.array([0]), 5, rng)
            assert len(np.unique(src)) == 5

    def test_samples_are_neighbors(self, small_er_graph, rng):
        g = small_er_graph
        targets = np.arange(0, g.num_vertices, 7)
        ptr, src = sample_neighbors(g, targets, 4, rng)
        for i, v in enumerate(targets):
            got = set(src[ptr[i]:ptr[i + 1]].tolist())
            assert got <= set(g.neighbors(v).tolist())

    def test_full_expansion(self, small_er_graph, rng):
        g = small_er_graph
        targets = np.arange(g.num_vertices)
        ptr, src = sample_neighbors(g, targets, -1, rng)
        assert np.array_equal(np.diff(ptr), g.degrees)

    def test_uniformity(self, rng):
        """Each leaf of a star is picked with probability f/d."""
        g = star_graph(10)
        hits = np.zeros(11)
        trials = 4000
        for _ in range(trials):
            _, src = sample_neighbors(g, np.array([0]), 3, rng)
            hits[src] += 1
        freq = hits[1:] / trials
        assert np.allclose(freq, 0.3, atol=0.035)  # ~4-sigma band

    def test_empty_frontier(self, small_er_graph, rng):
        ptr, src = sample_neighbors(small_er_graph, np.array([], dtype=np.int64), 3, rng)
        assert len(src) == 0 and list(ptr) == [0]


class TestSampleArena:
    """Arena-backed sampling is bit-identical to the allocating path."""

    def test_results_and_rng_stream_identical(self, small_er_graph):
        from repro.sampling.neighbor import SampleArena

        g = small_er_graph
        arena = SampleArena()
        rng_a = np.random.default_rng(11)
        rng_b = np.random.default_rng(11)
        targets = np.random.default_rng(2).choice(
            g.num_vertices, 60, replace=False)
        # Mixed fanouts exercise the key-selection and the take-all paths;
        # the shared arena must not perturb either the outputs or how many
        # variates each call consumes.
        for fanout in (3, -1, 5, 1, 50, 2):
            ptr_a, src_a = sample_neighbors(g, targets, fanout, rng_a)
            ptr_b, src_b = sample_neighbors(g, targets, fanout, rng_b,
                                            arena=arena)
            assert np.array_equal(ptr_a, ptr_b)
            assert np.array_equal(src_a, src_b)
        assert rng_a.random() == rng_b.random()  # streams stayed aligned

    def test_segment_ids_with_empty_rows(self):
        """The scatter/cumsum segment builder handles empty segments
        (including runs of them at either end) exactly like np.repeat."""
        from repro.sampling.neighbor import SampleArena, _segment_ids

        arena = SampleArena()
        for counts in ([0, 3, 0, 0, 2, 1, 0], [0, 0, 1], [2], [5, 0],
                       [1, 1, 1], [0, 4]):
            counts = np.asarray(counts, dtype=np.int64)
            offsets = np.zeros(len(counts) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            want = np.repeat(np.arange(len(counts), dtype=np.int64), counts)
            got = _segment_ids(arena, offsets, int(counts.sum()))
            assert np.array_equal(got, want), counts

    def test_buffers_are_reused(self, small_er_graph, rng):
        from repro.sampling.neighbor import SampleArena

        arena = SampleArena()
        big = arena.i64("seg", 100)
        again = arena.i64("seg", 40)
        assert again.base is big.base  # same backing allocation
        assert len(arena.ramp(64)) == 64
        assert np.array_equal(arena.ramp(8), np.arange(8))

    def test_outputs_not_aliased_to_arena(self, small_er_graph, rng):
        """Returned arrays must survive later calls on the same arena."""
        from repro.sampling.neighbor import SampleArena

        g = small_er_graph
        arena = SampleArena()
        targets = np.arange(0, g.num_vertices, 3)
        ptr1, src1 = sample_neighbors(g, targets, -1, rng, arena=arena)
        keep = src1.copy()
        sample_neighbors(g, targets, 4, rng, arena=arena)
        sample_neighbors(g, np.arange(g.num_vertices), -1, rng, arena=arena)
        assert np.array_equal(src1, keep)


class TestNeighborSampler:
    def test_mfg_structure(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (4, 3), seed=0)
        seeds = np.arange(10)
        mfg = s.sample(seeds)
        mfg.validate()
        assert np.array_equal(mfg.n_id[:10], seeds)
        assert mfg.num_hops == 2
        sizes = mfg.hop_sizes()
        assert sizes[0] == 10 and all(a <= b for a, b in zip(sizes, sizes[1:]))

    def test_fanout_bounds_per_block(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (4, 3), seed=0)
        mfg = s.sample(np.arange(20))
        for blk, f in zip(mfg.blocks, (4, 3)):
            assert blk.neighbor_counts().max() <= f

    def test_n_id_unique(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (4, 3, 2), seed=0)
        mfg = s.sample(np.arange(15))
        assert len(np.unique(mfg.n_id)) == len(mfg.n_id)

    def test_block_edges_reference_real_neighbors(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (4, 3), seed=1)
        mfg = s.sample(np.arange(12))
        blk = mfg.blocks[0]
        for i in range(blk.num_dst):
            v = mfg.n_id[i]
            nb = mfg.n_id[blk.src_index[blk.dst_ptr[i]:blk.dst_ptr[i + 1]]]
            assert set(nb.tolist()) <= set(small_er_graph.neighbors(v).tolist())

    def test_deterministic_given_seed(self, small_er_graph):
        a = NeighborSampler(small_er_graph, (4, 3), seed=42).sample(np.arange(10))
        b = NeighborSampler(small_er_graph, (4, 3), seed=42).sample(np.arange(10))
        assert np.array_equal(a.n_id, b.n_id)
        assert all(np.array_equal(x.src_index, y.src_index)
                   for x, y in zip(a.blocks, b.blocks))

    def test_rejects_duplicate_seeds(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (3,), seed=0)
        with pytest.raises(ValueError, match="unique"):
            s.sample(np.array([1, 1, 2]))
        with pytest.raises(ValueError, match="unique"):
            s.sample(np.array([4, 2, 7, 2]))

    def test_rejection_leaves_the_sampler_usable(self, small_er_graph):
        """A rejected call consumes no randomness and leaves no stamp that
        the next draw could mistake for its own."""
        s = NeighborSampler(small_er_graph, (4, 3), seed=5)
        fresh = NeighborSampler(small_er_graph, (4, 3), seed=5)
        for bad in ([3, 3], [-1, 2], [2, small_er_graph.num_vertices]):
            with pytest.raises(ValueError):
                s.sample(np.array(bad))
        a, b = s.sample(np.arange(2, 12)), fresh.sample(np.arange(2, 12))
        assert np.array_equal(a.n_id, b.n_id)
        assert all(np.array_equal(x.src_index, y.src_index)
                   for x, y in zip(a.blocks, b.blocks))
        assert s.rng_state() == fresh.rng_state()

    @pytest.mark.parametrize("seeds", [[-1, 2], [-1, 49], [0, -50]])
    def test_rejects_negative_seeds(self, seeds):
        """numpy would wrap -1 onto vertex N-1: ``[-1, 49]`` on a 50-vertex
        graph names one vertex twice and used to pass the unique check."""
        g = star_graph(49)
        s = NeighborSampler(g, (3,), seed=0)
        with pytest.raises(ValueError,
                           match=rf"seed {min(seeds)} is outside \[0, 50\)"):
            s.sample(np.array(seeds))

    def test_rejects_seeds_past_the_graph(self):
        s = NeighborSampler(star_graph(49), (3,), seed=0)
        with pytest.raises(ValueError, match=r"seed 50 is outside \[0, 50\)"):
            s.sample(np.array([3, 50]))
        assert s.sample(np.array([0, 49])).batch_size == 2  # both ends valid

    def test_rejects_bad_fanouts(self, small_er_graph):
        with pytest.raises(ValueError):
            NeighborSampler(small_er_graph, ())
        with pytest.raises(ValueError):
            NeighborSampler(small_er_graph, (3, 0))


class TestBatches:
    def test_epoch_coverage(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (3,), seed=0)
        ids = np.arange(0, 50)
        seen = []
        for mfg in s.batches(ids, 16, epoch=0, seed=1):
            seen.extend(mfg.seeds.tolist())
        assert sorted(seen) == list(range(50))

    def test_drop_last(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (3,), seed=0)
        batches = list(s.batches(np.arange(50), 16, drop_last=True))
        assert len(batches) == 3
        assert all(b.batch_size == 16 for b in batches)

    def test_shuffle_differs_by_epoch(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (3,), seed=0)
        a = next(iter(s.batches(np.arange(50), 16, epoch=0, seed=9)))
        b = next(iter(s.batches(np.arange(50), 16, epoch=1, seed=9)))
        assert not np.array_equal(a.seeds, b.seeds)

    def test_shuffle_reproducible(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (3,), seed=0)
        a = next(iter(s.batches(np.arange(50), 16, epoch=3, seed=9)))
        s2 = NeighborSampler(small_er_graph, (3,), seed=0)
        b = next(iter(s2.batches(np.arange(50), 16, epoch=3, seed=9)))
        assert np.array_equal(a.seeds, b.seeds)

    def test_num_batches(self):
        assert num_batches(50, 16) == 4
        assert num_batches(50, 16, drop_last=True) == 3
        assert num_batches(48, 16) == 3

    def test_rejects_bad_batch_size(self, small_er_graph):
        s = NeighborSampler(small_er_graph, (3,), seed=0)
        with pytest.raises(ValueError, match="batch_size"):
            list(s.batches(np.arange(10), 0))
