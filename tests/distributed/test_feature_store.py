"""Feature store tests: gather correctness for all storage tiers."""

import numpy as np
import pytest

from repro.distributed import PartitionedFeatureStore
from repro.distributed.feature_store import _rows_into
from repro.graph.csr import take_into
from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches


@pytest.fixture(scope="module")
def store_setup(request):
    rd = request.getfixturevalue("tiny_reordered")
    ctx = CacheContext(rd.dataset.graph, rd.partition, rd.dataset.train_idx,
                       (5, 5), 16, seed=0)
    caches = build_caches(VIPAnalyticPolicy(), ctx, alpha=0.25)
    store = PartitionedFeatureStore.build(rd, gpu_fraction=0.4, caches=caches)
    return rd, store


class TestGatherCorrectness:
    def test_matches_direct_indexing(self, store_setup, rng):
        rd, store = store_setup
        ids = rng.choice(rd.dataset.num_vertices, 200, replace=False)
        for k in range(store.num_machines):
            feats, stats = store.execute(store.plan_gather(k, ids))
            assert np.array_equal(feats, rd.dataset.features[ids])

    def test_stats_partition_rows(self, store_setup, rng):
        rd, store = store_setup
        ids = rng.choice(rd.dataset.num_vertices, 150, replace=False)
        for k in range(store.num_machines):
            _, stats = store.execute(store.plan_gather(k, ids))
            assert stats.total_rows == len(ids)
            assert (stats.gpu_rows + stats.cpu_rows + stats.cached_rows
                    + stats.remote_rows) == len(ids)
            assert stats.remote_per_peer[k] == 0
            assert stats.remote_per_peer.sum() == stats.remote_rows

    def test_gpu_prefix_counting(self, store_setup):
        rd, store = store_setup
        k = 0
        lo, hi = rd.part_range(k)
        gpu_rows = store.stores[k].gpu_rows
        # All-GPU-resident ids.
        ids = np.arange(lo, lo + min(gpu_rows, 5))
        _, stats = store.execute(store.plan_gather(k, ids))
        assert stats.gpu_rows == len(ids) and stats.cpu_rows == 0
        # All-CPU-resident ids.
        ids = np.arange(lo + gpu_rows, min(lo + gpu_rows + 5, hi))
        _, stats = store.execute(store.plan_gather(k, ids))
        assert stats.cpu_rows == len(ids) and stats.gpu_rows == 0

    def test_cached_rows_detected(self, store_setup):
        rd, store = store_setup
        k = 0
        cached_ids = store.stores[k].cache_ids[:5]
        if len(cached_ids):
            feats, stats = store.execute(store.plan_gather(k, cached_ids))
            assert stats.cached_rows == len(cached_ids)
            assert stats.remote_rows == 0
            assert np.array_equal(feats, rd.dataset.features[cached_ids])

    def test_remote_attribution_by_owner(self, store_setup):
        rd, store = store_setup
        lo1, hi1 = rd.part_range(1)
        # Remote ids owned by partition 1, excluding machine 0's cache.
        ids = np.array([v for v in range(lo1, hi1)
                        if not store.stores[0].is_cached(np.array([v]))[0]][:7])
        _, stats = store.execute(store.plan_gather(0, ids))
        assert stats.remote_per_peer[1] == len(ids)
        assert stats.remote_rows == len(ids)


class TestStatsEdgeCases:
    """GatherStats / FetchPlan arithmetic on empty and all-cached gathers."""

    def test_empty_gather(self, store_setup):
        rd, store = store_setup
        ids = np.empty(0, dtype=np.int64)
        plan = store.plan_gather(0, ids)
        assert plan.num_rows == 0
        feats, stats = store.execute(plan)
        assert feats.shape == (0, rd.dataset.feature_dim)
        assert stats.total_rows == 0
        assert stats.remote_fraction() == 0.0  # no division by zero
        assert stats.comm_rows() == 0
        assert stats.refresh_fetch_rows == 0
        assert stats.remote_per_peer.sum() == 0

    def test_all_cached_gather(self, store_setup):
        rd, store = store_setup
        cached_ids = store.stores[0].cache_ids
        assert len(cached_ids) > 0, "fixture must cache something"
        plan = store.plan_gather(0, cached_ids)
        assert plan.num_rows == len(cached_ids)
        assert len(plan.remote_ids) == 0 and len(plan.local_ids) == 0
        _, stats = store.execute(plan)
        assert stats.cached_rows == stats.total_rows == len(cached_ids)
        assert stats.remote_rows == 0
        assert stats.remote_fraction() == 0.0
        assert stats.comm_rows() == 0

    def test_remote_fraction_counts_only_demand(self, store_setup, rng):
        rd, store = store_setup
        ids = rng.choice(rd.dataset.num_vertices, 100, replace=False)
        _, stats = store.execute(store.plan_gather(0, ids))
        assert stats.remote_fraction() == stats.remote_rows / stats.total_rows
        # comm_rows adds refresh traffic on top of demand (zero for static).
        assert stats.comm_rows() == stats.remote_rows

    def test_plan_num_rows_matches_request(self, store_setup, rng):
        rd, store = store_setup
        ids = rng.choice(rd.dataset.num_vertices, 37, replace=False)
        plan = store.plan_gather(1, ids)
        assert plan.num_rows == 37
        assert (len(plan.local_ids) + len(plan.cached_ids)
                + len(plan.remote_ids)) == 37


class TestHitMask:
    def test_local_and_cached_ids_hit(self, store_setup):
        rd, store = store_setup
        lo, hi = rd.part_range(0)
        local = np.arange(lo, min(lo + 5, hi))
        assert store.hit_mask(0, local).all()
        cached = store.stores[0].cache_ids[:5]
        assert store.hit_mask(0, cached).all()

    def test_uncached_remote_ids_miss(self, store_setup):
        rd, store = store_setup
        lo, hi = rd.part_range(0)
        remote = np.setdiff1d(np.arange(rd.dataset.num_vertices),
                              np.arange(lo, hi))
        remote = np.setdiff1d(remote, store.stores[0].cache_ids)[:10]
        assert not store.hit_mask(0, remote).any()

    def test_read_only(self, store_setup):
        rd, store = store_setup
        before = store.stores[0].cache_ids.copy()
        store.hit_mask(0, np.arange(rd.dataset.num_vertices))
        assert np.array_equal(store.stores[0].cache_ids, before)


class TestBuildValidation:
    def test_rejects_local_vertices_in_cache(self, tiny_reordered):
        rd = tiny_reordered
        lo, hi = rd.part_range(0)
        with pytest.raises(ValueError, match="local"):
            PartitionedFeatureStore.build(
                rd, caches=[np.array([lo])] + [np.empty(0, dtype=np.int64)] * 3)

    def test_rejects_wrong_cache_count(self, tiny_reordered):
        with pytest.raises(ValueError, match="one cache per machine"):
            PartitionedFeatureStore.build(tiny_reordered, caches=[np.empty(0, dtype=np.int64)])

    def test_rejects_bad_gpu_fraction(self, tiny_reordered):
        with pytest.raises(ValueError, match="gpu_fraction"):
            PartitionedFeatureStore.build(tiny_reordered, gpu_fraction=1.5)


class TestMemoryAccounting:
    def test_partitioned_memory_multiple(self, store_setup):
        rd, store = store_setup
        assert store.memory_multiple() == pytest.approx(
            1.0 + store.replication_factor(), rel=0.05)

    def test_replication_factor_close_to_alpha(self, store_setup):
        rd, store = store_setup
        assert 0.0 < store.replication_factor() <= 0.25 + 1e-9


class TestReplicatedStore:
    def test_full_replication_gather(self, tiny_reordered, rng):
        rd = tiny_reordered
        store = PartitionedFeatureStore.build_replicated(rd)
        assert store.is_replicated
        ids = rng.choice(rd.dataset.num_vertices, 100, replace=False)
        for k in range(store.num_machines):
            feats, stats = store.execute(store.plan_gather(k, ids))
            assert np.array_equal(feats, rd.dataset.features[ids])
            assert stats.remote_rows == 0 and stats.cached_rows == 0

    def test_full_replication_memory_is_k(self, tiny_reordered):
        store = PartitionedFeatureStore.build_replicated(tiny_reordered)
        assert store.memory_multiple() == pytest.approx(store.num_machines)


class TestRowsWrittenOnce:
    """Rows land in the output with ``take_into`` (``mode="clip"`` after
    one range check): an out-of-range index must still raise, never be
    clamped to the last row."""

    @pytest.mark.parametrize("bad", [-1, 7, 100])
    def test_rows_into_refuses_out_of_range(self, bad):
        src = np.arange(14.0).reshape(7, 2)
        out = np.zeros((5, 2))
        with pytest.raises(IndexError):
            _rows_into(out, np.arange(1, 4), src, np.array([0, bad, 1]))
        if bad >= 0:  # the scattered-positions spelling is plain indexing
            with pytest.raises(IndexError):
                _rows_into(out, np.array([0, 2, 4]), src,
                           np.array([0, bad, 1]))

    def test_rows_into_contiguous_run(self):
        src = np.arange(14.0).reshape(7, 2)
        out = np.zeros((5, 2))
        _rows_into(out, np.arange(1, 4), src, np.array([6, 0, 3]))
        assert np.array_equal(out[1:4], src[[6, 0, 3]])
        assert not out[0].any() and not out[4].any()

    @pytest.mark.parametrize("run", [1, 40])
    def test_rows_into_several_runs(self, run, rng):
        """Positions in several runs take the fancy-index copy: the rows
        that land are the same, and nothing else is written."""
        src = rng.random((500, 3))
        pos = np.concatenate([np.arange(0, run), np.arange(run + 5, 2 * run + 5),
                              np.arange(3 * run + 9, 4 * run + 9)])
        idx = rng.integers(0, 500, len(pos))
        out = np.full((4 * run + 9, 3), -1.0)
        _rows_into(out, pos, src, idx)
        assert np.array_equal(out[pos], src[idx])
        rest = np.setdiff1d(np.arange(len(out)), pos)
        assert (out[rest] == -1.0).all()
        idx[-1] = 500
        with pytest.raises(IndexError):
            _rows_into(out, pos, src, idx)

    def test_fetch_remote_rows_refuses_ids_past_the_owner(self, store_setup):
        rd, store = store_setup
        n = rd.dataset.num_vertices
        lo, hi = rd.part_range(1)
        rows, per_peer = store._fetch_remote_rows(0, np.arange(lo, hi))
        assert np.array_equal(rows, rd.dataset.features[lo:hi])
        assert per_peer[1] == hi - lo and per_peer.sum() == hi - lo
        for ids in (np.array([lo, n]), np.array([-1, lo])):
            with pytest.raises(IndexError):
                store._fetch_remote_rows(0, ids)
        # An id past its owner's rows (bounds that lie about the owner)
        # must raise too, not read the owner's last row.
        peer = store.stores[1]
        with pytest.raises(IndexError):
            take_into(peer.local_features, np.array([hi - lo]),
                      np.empty((1, store.feature_dim),
                               dtype=peer.local_features.dtype))


class TestMissCopies:
    """A miss is copied out of the gathered matrix only for a cache that
    admits on miss; every miss is counted either way."""

    @pytest.mark.parametrize("policy", ["vip-refresh", "lru"])
    def test_admit_reads_rows_only_when_admitting(self, tiny_reordered,
                                                  policy, monkeypatch):
        from repro.distributed import DynamicCacheSpec
        from repro.distributed.dynamic_cache import DynamicCache

        rd = tiny_reordered
        spec = DynamicCacheSpec(policy=policy, capacity=40,
                                refresh_interval=50)
        store = PartitionedFeatureStore.build(rd, dynamic=spec)
        handed = []
        admit = DynamicCache.admit
        monkeypatch.setattr(
            DynamicCache, "admit",
            lambda self, ids, rows: handed.append((ids.copy(), rows))
            or admit(self, ids, rows))
        lo, hi = rd.part_range(1)
        ids = np.arange(lo, min(hi, lo + 25))
        for _ in range(2):  # lru admits a miss seen in an earlier batch
            _, stats = store.execute(store.plan_gather(0, ids))
        assert len(handed) == 2
        missed, rows = handed[-1]
        assert np.array_equal(missed, ids)
        churn = store.stores[0].cache.churn
        assert churn.misses == 2 * len(ids)
        if policy == "vip-refresh":
            assert rows is None and stats.cache_insertions == 0
        else:
            assert np.array_equal(rows, rd.dataset.features[ids])
            assert stats.cache_insertions == churn.insertions == len(ids)
            cache = store.stores[0].cache
            assert np.array_equal(cache.rows[cache.slots(ids)],
                                  rd.dataset.features[ids])
