"""Arena-backed gathers ≡ allocating gathers, bit for bit.

``execute(plan, out=...)`` / ``execute_coalesced(outs=...)`` must be
indistinguishable from the allocating path in every observable way:
returned features, :class:`GatherStats` (including dynamic-cache churn), and
the cache state left behind.  Two identically built stores are driven with
the same request sequence — one allocating, one through a shared
:class:`GatherArena` — and compared step by step.

Also covers the rewritten :meth:`FetchPlan.coalesce` (one concatenated
``unique(..., return_inverse=True)`` pass) against the seed's
``searchsorted``-per-plan bookkeeping.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distributed import (
    DynamicCacheSpec,
    FetchPlan,
    GatherArena,
    PartitionedFeatureStore,
)
from repro.graph.datasets import make_synthetic_dataset
from repro.partition import metis_like_partition, reorder_dataset
from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches


@pytest.fixture(scope="module")
def reordered():
    ds = make_synthetic_dataset(
        "arena-mini", num_vertices=900, avg_degree=7.0, feature_dim=12,
        num_classes=5, num_communities=6, intra_fraction=0.85, power=2.5,
        train_frac=0.4, seed=5,
    )
    part = metis_like_partition(ds.graph, 3, seed=0)
    return reorder_dataset(ds, part)


def build_store(rd, dynamic=None, alpha=0.3):
    caches = None
    if alpha > 0:
        ctx = CacheContext(rd.dataset.graph, rd.partition,
                           rd.dataset.train_idx, (4, 3), 16, seed=0)
        caches = build_caches(VIPAnalyticPolicy(), ctx, alpha=alpha)
    return PartitionedFeatureStore.build(rd, gpu_fraction=0.5, caches=caches,
                                         dynamic=dynamic)


def request_stream(rd, num_requests, seed):
    rng = np.random.default_rng(seed)
    n = rd.dataset.num_vertices
    for _ in range(num_requests):
        machine = int(rng.integers(0, rd.num_parts))
        size = int(rng.integers(1, 60))
        yield machine, np.sort(rng.choice(n, size=size, replace=False))


def assert_same_gather(a, b):
    feats_a, stats_a = a
    feats_b, stats_b = b
    assert np.array_equal(feats_a, feats_b)
    assert (stats_a.total_rows, stats_a.gpu_rows, stats_a.cpu_rows,
            stats_a.cached_rows, stats_a.remote_rows, stats_a.cache_insertions,
            stats_a.cache_evictions, stats_a.coalesced_rows) == \
           (stats_b.total_rows, stats_b.gpu_rows, stats_b.cpu_rows,
            stats_b.cached_rows, stats_b.remote_rows, stats_b.cache_insertions,
            stats_b.cache_evictions, stats_b.coalesced_rows)
    assert np.array_equal(stats_a.remote_per_peer, stats_b.remote_per_peer)
    if stats_a.refresh_fetch_per_peer is None:
        assert stats_b.refresh_fetch_per_peer is None
    else:
        assert np.array_equal(stats_a.refresh_fetch_per_peer,
                              stats_b.refresh_fetch_per_peer)


DYNAMIC_SPECS = [
    None,
    DynamicCacheSpec(policy="lru", capacity=100, aging_interval=5),
    DynamicCacheSpec(policy="vip-refresh", capacity=100, refresh_interval=4),
]


class TestGatherInto:
    @pytest.mark.parametrize("dynamic", DYNAMIC_SPECS,
                             ids=["static", "lru", "vip-refresh"])
    def test_bit_identical_including_churn(self, reordered, dynamic):
        """Twin stores, same request stream: the arena store's features,
        stats, churn counters, and final cache contents all match the
        allocating store's — across admissions, evictions, and refreshes."""
        rd = reordered
        plain = build_store(rd, dynamic=dynamic)
        arena_store = build_store(rd, dynamic=dynamic)
        arena = GatherArena()
        for machine, ids in request_stream(rd, 40, seed=7):
            ref = plain.execute(plain.plan_gather(machine, ids))
            out = arena.out(machine, len(ids), arena_store.feature_dim,
                            arena_store.stores[machine].local_features.dtype)
            out.fill(np.nan)  # handed out unfilled: every row must be written
            got = arena_store.execute(
                arena_store.plan_gather(machine, ids), out=out)
            assert got[0] is out  # filled in place, not reallocated
            assert_same_gather(ref, got)
        if dynamic is not None:
            for sp, sa in zip(plain.stores, arena_store.stores):
                assert np.array_equal(sp.cache.ids, sa.cache.ids)
                for f in ("hits", "misses", "insertions", "evictions",
                          "refreshes", "refresh_fetch_rows"):
                    assert getattr(sp.cache.churn, f) == \
                           getattr(sa.cache.churn, f), f

    def test_out_validation(self, reordered):
        store = build_store(reordered, alpha=0.0)
        ids = np.arange(10, dtype=np.int64)
        plan = store.plan_gather(0, ids)
        with pytest.raises(ValueError, match="shape"):
            store.execute(plan, out=np.empty((9, store.feature_dim),
                                             dtype=np.float32))
        with pytest.raises(ValueError, match="dtype"):
            store.execute(plan, out=np.empty((10, store.feature_dim),
                                             dtype=np.float64))

    def test_arena_grows_and_reuses(self, reordered):
        store = build_store(reordered, alpha=0.0)
        dtype = store.stores[0].local_features.dtype
        arena = GatherArena()
        small = arena.out("k", 8, store.feature_dim, dtype)
        grown = arena.out("k", 32, store.feature_dim, dtype)
        again = arena.out("k", 16, store.feature_dim, dtype)
        assert grown.base is again.base  # grown once, then reused
        assert small.shape == (8, store.feature_dim)


class TestCoalesceRewrite:
    @staticmethod
    def _seed_coalesce(plans):
        """The pre-rewrite bookkeeping: per-plan searchsorted + masks."""
        unique_remote = np.unique(
            np.concatenate([p.remote_ids for p in plans]))
        seen = np.zeros(len(unique_remote), dtype=bool)
        first_request = []
        for p in plans:
            slots = np.searchsorted(unique_remote, p.remote_ids)
            fresh = ~seen[slots]
            seen[slots] = True
            first_request.append(fresh)
        return unique_remote, first_request

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 14), st.integers(0, 2**16))
    def test_matches_seed_bookkeeping(self, reordered, depth, seed):
        """Depths past 10 are the satellite's target regime; the unique-
        with-inverse pass must reproduce the seed's pools and attribution
        masks exactly."""
        rd = reordered
        store = build_store(rd, alpha=0.2)
        rng = np.random.default_rng(seed)
        n = rd.dataset.num_vertices
        plans = [
            store.plan_gather(
                0, np.sort(rng.choice(n, size=int(rng.integers(1, 80)),
                                      replace=False)))
            for _ in range(depth)
        ]
        cplan = FetchPlan.coalesce(plans)
        ref_unique, ref_fresh = self._seed_coalesce(plans)
        assert np.array_equal(cplan.unique_remote_ids, ref_unique)
        for i, (fresh, want) in enumerate(zip(cplan.first_request, ref_fresh)):
            assert np.array_equal(fresh, want)
            assert np.array_equal(
                cplan.unique_remote_ids[cplan.slots[i]],
                plans[i].remote_ids,
            )

    def test_execute_coalesced_outs_variant(self, reordered):
        """outs= fills the caller's buffers with the exact same features
        and stats as the allocating execute_coalesced."""
        rd = reordered
        plain = build_store(rd, alpha=0.2)
        arena_store = build_store(rd, alpha=0.2)
        rng = np.random.default_rng(3)
        n = rd.dataset.num_vertices
        ids = [np.sort(rng.choice(n, size=50, replace=False))
               for _ in range(6)]
        ref = plain.execute_coalesced(
            FetchPlan.coalesce([plain.plan_gather(1, i) for i in ids]))
        arena = GatherArena()
        plans = [arena_store.plan_gather(1, i) for i in ids]
        dtype = arena_store.stores[1].local_features.dtype
        outs = [arena.out((1, j), len(p.ids), arena_store.feature_dim, dtype)
                for j, p in enumerate(plans)]
        for out in outs:
            out.fill(np.nan)  # handed out unfilled: every row must be written
        got = arena_store.execute_coalesced(FetchPlan.coalesce(plans),
                                            outs=outs)
        assert len(ref) == len(got)
        for (a, b), out in zip(zip(ref, got), outs):
            assert b[0] is out
            assert_same_gather(a, b)

    def test_coalesced_per_peer_counts_first_requests_by_owner(self, reordered):
        """Each plan's ``remote_per_peer`` is one count per remote row it
        is first in its window to request, at the row's owner."""
        rd = reordered
        store = build_store(rd, alpha=0.2)
        rng = np.random.default_rng(9)
        ids = [np.sort(rng.choice(rd.dataset.num_vertices, size=80,
                                  replace=False)) for _ in range(5)]
        plans = [store.plan_gather(2, i) for i in ids]
        seen = set()
        for plan, (_, stats) in zip(
                plans, store.execute_coalesced(FetchPlan.coalesce(plans))):
            want = np.zeros(rd.num_parts, dtype=np.int64)
            for v in plan.remote_ids.tolist():
                if v not in seen:
                    seen.add(v)
                    want[rd.owner_of(np.array([v]))[0]] += 1
            assert stats.remote_per_peer.dtype == np.int64
            assert np.array_equal(stats.remote_per_peer, want)
            assert stats.remote_rows == want.sum()
        empty = store.execute_coalesced(FetchPlan.coalesce(
            [store.plan_gather(2, np.arange(*rd.part_range(2))[:7])]))
        assert np.array_equal(empty[0][1].remote_per_peer,
                              np.zeros(rd.num_parts, dtype=np.int64))

    def test_outs_length_mismatch_raises(self, reordered):
        store = build_store(reordered, alpha=0.0)
        ids = np.arange(20, dtype=np.int64)
        cplan = FetchPlan.coalesce([store.plan_gather(0, ids)])
        with pytest.raises(ValueError, match="one matrix per sub-plan"):
            store.execute_coalesced(cplan, outs=[])
