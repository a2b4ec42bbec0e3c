"""Dynamic cache tests: gather correctness across churn, policy semantics,
refresh economics, and churn accounting."""

import numpy as np
import pytest

from repro.core import RunConfig, SalientPP
from repro.distributed import (
    DynamicCache,
    DynamicCacheSpec,
    PartitionedFeatureStore,
)
from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches

POLICIES = ["lru", "lfu", "clock", "vip-refresh"]


def make_cache(capacity, policy="lru", num_vertices=50, feature_dim=4, **kw):
    spec = DynamicCacheSpec(policy=policy, capacity=capacity,
                            admit_threshold=kw.pop("admit_threshold", 0),
                            **kw)
    return DynamicCache(num_vertices, feature_dim, np.float32, spec)


def rows_for(ids, feature_dim=4):
    """Deterministic fake feature rows keyed by vertex id."""
    ids = np.asarray(ids, dtype=np.int64)
    return np.repeat(ids[:, None], feature_dim, axis=1).astype(np.float32)


def access(cache, ids):
    """One batch against a bare cache: hits touch, misses admit."""
    ids = np.asarray(ids, dtype=np.int64)
    hit = cache.contains(ids)
    cache.note_hits(ids[hit])
    cache.admit(ids[~hit], rows_for(ids[~hit]))
    cache.end_batch(ids)


class TestReplacementSemantics:
    """Textbook policy behavior (admit_threshold=0: unconditional)."""

    def test_lru_evicts_least_recent(self):
        c = make_cache(2, "lru")
        access(c, [1])
        access(c, [2])
        access(c, [1])      # 2 is now least recent
        access(c, [3])
        assert set(c.ids) == {1, 3}

    def test_lfu_evicts_least_frequent(self):
        c = make_cache(2, "lfu")
        access(c, [1])
        access(c, [1])
        access(c, [1])
        access(c, [2])      # freq: 1 -> 3, 2 -> 1
        access(c, [3])      # 2 displaced despite being most recent
        assert set(c.ids) == {1, 3}

    def test_clock_second_chance(self):
        c = make_cache(2, "clock")
        access(c, [1, 2])   # both referenced
        access(c, [3])      # sweep clears both bits, evicts slot of 1
        assert 3 in set(c.ids)
        assert c.num_cached == 2

    def test_clock_hand_only_clears_swept_refs(self):
        from repro.distributed.dynamic_cache import ClockPolicy
        p = ClockPolicy(4)
        occupied = np.ones(4, dtype=bool)
        p.ref[:] = [False, True, True, True]
        v = p.victims(1, occupied)
        assert list(v) == [0]
        assert list(p.ref) == [False, True, True, True]  # query is pure
        p.note_evict(v)
        # The hand stopped right after slot 0: slots 1-3 keep their chance.
        assert list(p.ref) == [False, True, True, True]
        assert p.hand == 1

    def test_clock_gated_rejection_leaves_state_untouched(self):
        c = make_cache(2, "clock", admit_threshold=1)
        access(c, [1, 2])                 # cache full, both referenced
        for _ in range(3):
            access(c, [1, 2])             # establish frequency
        ref_before = c._policy.ref.copy()
        hand_before = c._policy.hand
        access(c, [30])                   # doorkeeper pass needs 2 sightings
        access(c, [30])                   # contest: freq 1 < established, lose
        assert set(c.ids) == {1, 2}
        assert np.array_equal(c._policy.ref, ref_before)
        assert c._policy.hand == hand_before

    def test_capacity_never_exceeded(self):
        c = make_cache(3, "lru")
        rng = np.random.default_rng(0)
        for _ in range(20):
            access(c, rng.choice(50, size=7, replace=False))
            assert c.num_cached <= 3
            c.check_invariants()

    def test_admission_doorkeeper_rejects_first_sight(self):
        c = make_cache(4, "lru", admit_threshold=1)
        access(c, [1, 2])            # never seen before: rejected
        assert c.num_cached == 0
        access(c, [1, 2])            # second sighting: admitted
        assert set(c.ids) == {1, 2}

    def test_gated_admission_protects_hot_entries(self):
        c = make_cache(1, "lfu", admit_threshold=1)
        for _ in range(5):
            access(c, [1])           # 1 becomes established
        access(c, [2])               # first sight: doorkeeper rejects
        access(c, [2])               # freq(2)=1 < freq(1)=5: gate rejects
        assert set(c.ids) == {1}

    def test_vip_refresh_never_admits_on_miss(self):
        c = make_cache(4, "vip-refresh", refresh_interval=100)
        access(c, [1, 2, 3])
        assert c.num_cached == 0
        assert c.churn.misses == 3


class TestRefresh:
    def test_full_swap_without_horizon(self):
        c = make_cache(2, "vip-refresh", refresh_interval=2)
        scores = np.zeros(50)
        scores[[7, 9]] = [0.5, 0.4]
        plan = c.plan_refresh(scores, horizon=0)
        assert set(plan.new_ids) == {7, 9}
        c.commit_refresh(plan, rows_for(plan.new_ids))
        assert set(c.ids) == {7, 9}
        assert c.churn.refreshes == 1
        assert c.churn.refresh_fetch_rows == 2

    def test_cost_aware_swap_prunes_low_gain(self):
        c = make_cache(2, "vip-refresh", refresh_interval=2, swap_margin=1.0)
        scores = np.zeros(50)
        scores[[7, 9]] = [0.5, 0.4]
        plan = c.plan_refresh(scores, horizon=0)
        c.commit_refresh(plan, rows_for(plan.new_ids))
        # New ranking barely reorders the tail: 9 -> 0.41 replaced by 11 ->
        # 0.45 saves 0.04 * 10 = 0.4 expected fetches < 1 fetch cost.
        scores2 = np.zeros(50)
        scores2[[7, 11, 9]] = [0.5, 0.45, 0.41]
        plan2 = c.plan_refresh(scores2, horizon=10)
        assert len(plan2.new_ids) == 0
        # A genuinely hot newcomer is worth the swap.
        scores3 = np.zeros(50)
        scores3[[7, 11, 9]] = [0.5, 0.9, 0.41]
        plan3 = c.plan_refresh(scores3, horizon=10)
        assert set(plan3.new_ids) == {11}
        assert set(plan3.evict_ids) == {9}

    def test_fills_into_free_slots_must_pay_off(self):
        c = make_cache(4, "vip-refresh", refresh_interval=2, swap_margin=1.0)
        scores = np.zeros(50)
        scores[[7, 9]] = [0.5, 0.05]  # 0.05 * 10 = 0.5 expected < 1 fetch
        plan = c.plan_refresh(scores, horizon=10)
        assert set(plan.new_ids) == {7}

    def test_request_refresh_forces_due(self):
        c = make_cache(2, "vip-refresh", refresh_interval=100)
        assert c.end_batch(np.array([1])) is False
        c.request_refresh()
        assert c.end_batch(np.array([1])) is True

    def test_observed_rates_unaffected_by_forced_refresh(self):
        """request_refresh must not dilute empirical per-batch rates: a
        vertex seen in every one of 3 observed batches has rate 1.0 even
        when the refresh was forced long before refresh_interval."""
        c = make_cache(2, "vip-refresh", refresh_interval=50)
        for _ in range(2):
            c.end_batch(np.array([7]))
        c.request_refresh()
        c.end_batch(np.array([7]))
        assert c.observed_scores()[7] == pytest.approx(1.0)


@pytest.fixture(scope="module")
def dynamic_setup(request):
    """Substrate shared by the store-level tests (built per policy)."""
    rd = request.getfixturevalue("tiny_reordered")
    ctx = CacheContext(rd.dataset.graph, rd.partition, rd.dataset.train_idx,
                       (5, 5), 16, seed=0)
    warm = build_caches(VIPAnalyticPolicy(), ctx, alpha=0.15)
    return rd, warm


def build_store(rd, warm, policy, **kw):
    budget = max(len(c) for c in warm)
    spec = DynamicCacheSpec(policy=policy, capacity=budget, **kw)
    return PartitionedFeatureStore.build(rd, gpu_fraction=0.4, caches=warm,
                                         dynamic=spec)


class TestGatherAcrossChurn:
    """The acceptance-critical invariant: gathers stay bit-identical to
    direct indexing and stats stay exact, no matter how the cache churns."""

    @pytest.mark.parametrize("policy", POLICIES)
    def test_bit_identical_and_exact_stats(self, dynamic_setup, policy, rng):
        rd, warm = dynamic_setup
        store = build_store(rd, warm, policy, refresh_interval=3,
                            admit_threshold=(0 if policy != "vip-refresh" else 1))
        n = rd.dataset.num_vertices
        for step in range(12):
            ids = rng.choice(n, size=120, replace=False)
            for k in range(store.num_machines):
                st = store.stores[k]
                # Snapshot the pre-gather cache state the stats must describe.
                pre_cached = st.is_cached(ids) & ~st.is_local(ids)
                feats, stats = store.execute(store.plan_gather(k, ids))
                assert np.array_equal(feats, rd.dataset.features[ids])
                assert stats.total_rows == len(ids)
                assert (stats.gpu_rows + stats.cpu_rows + stats.cached_rows
                        + stats.remote_rows) == len(ids)
                assert stats.cached_rows == int(pre_cached.sum())
                assert stats.remote_per_peer.sum() == stats.remote_rows
                assert stats.remote_per_peer[k] == 0
                st.cache.check_invariants()

    def test_insertion_and_eviction_counts_match_churn(self, dynamic_setup, rng):
        rd, warm = dynamic_setup
        store = build_store(rd, warm, "lru", admit_threshold=0)
        n = rd.dataset.num_vertices
        for _ in range(6):
            ids = rng.choice(n, size=100, replace=False)
            before = store.stores[0].cache.churn.copy()
            _, stats = store.execute(store.plan_gather(0, ids))
            delta = store.stores[0].cache.churn.delta(before)
            assert stats.cache_insertions == delta.insertions
            assert stats.cache_evictions == delta.evictions
            assert delta.hits == stats.cached_rows
            assert delta.misses == stats.remote_rows

    def test_refresh_fetch_reported_per_peer(self, dynamic_setup, rng):
        rd, warm = dynamic_setup
        store = build_store(rd, warm, "vip-refresh", refresh_interval=2,
                            swap_margin=0.0)
        # Empirical fallback scoring: counts drive the swap.
        n = rd.dataset.num_vertices
        saw_refresh = False
        for _ in range(6):
            ids = rng.choice(n, size=150, replace=False)
            _, stats = store.execute(store.plan_gather(0, ids))
            if stats.refresh_fetch_per_peer is not None:
                saw_refresh = True
                assert stats.refresh_fetch_per_peer[0] == 0  # never from self
                assert stats.refresh_fetch_rows == stats.refresh_fetch_per_peer.sum()
                assert stats.comm_rows() == stats.remote_rows + stats.refresh_fetch_rows
        assert saw_refresh
        # Refreshed contents still serve bit-identical rows.
        ids = store.stores[0].cache.ids
        if len(ids):
            feats, stats = store.execute(store.plan_gather(0, ids))
            assert np.array_equal(feats, rd.dataset.features[ids])
            assert stats.remote_rows == 0

    def test_static_store_reports_no_churn(self, dynamic_setup):
        rd, warm = dynamic_setup
        store = PartitionedFeatureStore.build(rd, caches=warm)
        assert not store.has_dynamic_caches
        assert store.cache_churn() is None
        _, stats = store.execute(store.plan_gather(0, np.arange(50)))
        assert stats.cache_insertions == 0 and stats.refresh_fetch_per_peer is None


class TestExecutorIntegration:
    @pytest.fixture(scope="class")
    def system(self, tiny_dataset):
        cfg = RunConfig(num_machines=4, replication_factor=0.15,
                        cache_policy="lfu", batch_size=16, fanouts=(5, 5),
                        seed=0)
        return SalientPP.build(tiny_dataset, cfg)

    def test_epoch_report_attributes_churn(self, system):
        report = system.train_epoch(0, dry_run=True).report
        assert report.cache_churn is not None
        churn = report.cache_churn
        assert sum(c.hits for c in churn) == report.total_cached_rows()
        assert sum(c.misses for c in churn) == report.total_remote_rows()

    def test_models_stay_in_sync_with_dynamic_cache(self, system):
        system.train_epoch(1)
        assert system.trainer.models_in_sync()

    def test_update_training_set_routes_and_validates(self, system):
        trainer = system.trainer
        full = system.reordered.dataset.train_idx
        trainer.update_training_set(full)
        for k, ids in enumerate(trainer.local_train):
            lo, hi = system.reordered.part_range(k)
            assert np.all((ids >= lo) & (ids < hi))
        lo, hi = system.reordered.part_range(0)
        with pytest.raises(ValueError, match="fewer than one batch"):
            trainer.update_training_set(np.arange(lo, lo + trainer.batch_size))

    def test_vip_refresh_stationary_matches_static(self, tiny_dataset):
        """With an unchanged training set, cost-aware vip-refresh must not
        move any traffic relative to the static VIP cache."""
        reports = {}
        for pol in ("vip", "vip-refresh"):
            cfg = RunConfig(num_machines=4, replication_factor=0.15,
                            cache_policy=pol, refresh_interval=2,
                            batch_size=16, fanouts=(5, 5), seed=0)
            system = SalientPP.build(tiny_dataset, cfg)
            reports[pol] = [system.train_epoch(e, dry_run=True).report
                            for e in range(2)]
        static = sum(r.total_comm_rows() for r in reports["vip"])
        dyn = sum(r.total_comm_rows() for r in reports["vip-refresh"])
        assert dyn == static


class TestSpecValidation:
    def test_rejects_unknown_policy(self):
        with pytest.raises(ValueError, match="unknown dynamic cache policy"):
            DynamicCacheSpec(policy="fifo")

    def test_rejects_negative_knobs(self):
        with pytest.raises(ValueError, match="capacity"):
            DynamicCacheSpec(policy="lru", capacity=-1)
        with pytest.raises(ValueError, match="refresh_interval"):
            DynamicCacheSpec(policy="lru", refresh_interval=-1)
        with pytest.raises(ValueError, match="admit_threshold"):
            DynamicCacheSpec(policy="lru", admit_threshold=-1)

    def test_warm_set_must_fit_capacity(self):
        spec = DynamicCacheSpec(policy="lru", capacity=1)
        with pytest.raises(ValueError, match="exceeds capacity"):
            DynamicCache(10, 4, np.float32, spec,
                         warm_ids=np.array([1, 2]), warm_rows=rows_for([1, 2]))

    def test_rejects_duplicate_warm_ids(self):
        spec = DynamicCacheSpec(policy="lru", capacity=4)
        with pytest.raises(ValueError, match="duplicate cache ids"):
            DynamicCache(10, 4, np.float32, spec,
                         warm_ids=np.array([5, 5]), warm_rows=rows_for([5, 5]))

    def test_zero_capacity_cache_is_inert(self):
        c = make_cache(0, "lru")
        access(c, [1, 2, 3])
        assert c.num_cached == 0
        assert c.churn.misses == 3
