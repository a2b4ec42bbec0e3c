"""Dynamic cache tests: gather correctness across churn, policy semantics,
refresh economics, and churn accounting."""

import numpy as np
import pytest

from repro.core import RunConfig, SalientPP
from repro.distributed import (
    CacheChurnStats,
    DynamicCache,
    DynamicCacheSpec,
    PartitionedFeatureStore,
)
from repro.distributed.dynamic_cache import PRIOR_WEIGHT, is_dynamic_policy
from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches

POLICIES = ["lru", "vip-refresh"]


def make_cache(capacity, policy="lru", num_vertices=50, feature_dim=4, **kw):
    spec = DynamicCacheSpec(policy=policy, capacity=capacity, **kw)
    return DynamicCache(num_vertices, feature_dim, np.float32, spec)


def make_primed(capacity, prior, warm=(), num_vertices=50, **kw):
    """An ``lru`` cache with VIP prior scores ``{vertex: score}``,
    warm-started with the ``warm`` ids."""
    scores = np.zeros(num_vertices)
    for v, score in prior.items():
        scores[v] = score
    spec = DynamicCacheSpec(policy="lru", capacity=capacity, **kw)
    warm = np.asarray(warm, dtype=np.int64)
    return DynamicCache(num_vertices, 4, np.float32, spec, warm_ids=warm,
                        warm_rows=rows_for(warm), prior_scores=scores)


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
    """Replacement behind the admission gate: a miss enters once seen in an
    earlier batch and only by out-scoring a least-recently-used entry."""

    def test_lru_evicts_least_recent(self):
        """Between entries of equal frequency, the least recent one is
        the one a newcomer must out-score."""
        c = make_cache(2, "lru", aging_interval=0)
        access(c, [1, 2])   # first sight: the doorkeeper rejects both
        access(c, [1, 2])   # second sight: both take free slots
        access(c, [1])
        access(c, [2])      # 1 is now least recent, at equal frequency
        assert np.array_equal(c.frequency_estimate(np.array([1, 2])), [3, 3])
        for _ in range(4):  # doorkeeper, then counts 1..3 lose to 3
            access(c, [3])
        assert set(c.ids) == {1, 2}
        access(c, [3])      # count 4 beats the least recent entry
        assert set(c.ids) == {2, 3}
        assert c.churn.evictions == 1

    def test_capacity_never_exceeded(self):
        c = make_cache(3, "lru")
        rng = np.random.default_rng(0)
        for _ in range(20):
            access(c, rng.choice(50, size=7, replace=False))
            assert c.num_cached <= 3
            c.check_invariants()

    def test_admission_doorkeeper_rejects_first_sight(self):
        c = make_cache(4, "lru")
        access(c, [1, 2])            # never seen before: rejected
        assert c.num_cached == 0
        access(c, [1, 2])            # second sighting: admitted
        assert set(c.ids) == {1, 2}

    def test_gated_admission_protects_hot_entries(self):
        c = make_cache(1, "lru")
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

    def test_contest_is_against_the_least_recent_even_when_stronger(self):
        """The victim is picked by recency alone: a weaker but more recent
        entry is not the one a newcomer must beat."""
        c = make_cache(2, "lru", aging_interval=0)
        access(c, [1, 2])
        access(c, [1, 2])   # both admitted
        for _ in range(3):
            access(c, [1])
        access(c, [2])      # 1 is least recent at frequency 5; 2 has 3
        for _ in range(6):  # doorkeeper, then counts 1..5 never beat 5
            access(c, [3])
        assert set(c.ids) == {1, 2}
        access(c, [3])      # count 6 beats the least recent entry
        assert set(c.ids) == {2, 3}

    def test_more_candidates_than_capacity_keeps_the_strongest(self):
        c = make_primed(2, {3: 0.5, 4: 0.25}, aging_interval=0)
        access(c, [1, 2, 3, 4])      # first sight: all rejected
        access(c, [1, 2, 3, 4])      # four candidates, two free slots
        assert set(c.ids) == {3, 4}
        assert c.churn.insertions == 2 and c.churn.evictions == 0

    def test_doorkeeper_ignores_the_prior(self):
        """A high VIP prior does not let a never-seen miss past the
        doorkeeper: admission needs an access in an earlier batch."""
        c = make_primed(2, {7: 1.0})
        access(c, [7])
        assert c.num_cached == 0
        access(c, [7])
        assert set(c.ids) == {7}


class TestWarmStart:
    def test_prior_orders_the_first_evictions(self):
        """Warm entries are stamped by prior, worst oldest, so the weakest
        static pick is the first one a newcomer contests."""
        c = make_primed(3, {5: 0.9, 6: 0.1, 7: 0.5}, warm=[5, 6, 7],
                        aging_interval=0)
        assert np.array_equal(c.last_used[c.slots(np.array([6, 7, 5]))],
                              [-3, -2, -1])
        assert 3 < 0.1 * PRIOR_WEIGHT < 4
        for _ in range(4):  # doorkeeper, then counts 1..3 lose to 3.2
            access(c, [8])
        assert set(c.ids) == {5, 6, 7}
        access(c, [8])      # count 4 beats vertex 6's prior
        assert set(c.ids) == {5, 7, 8}

    def test_real_accesses_outrank_every_primed_entry(self):
        c = make_primed(3, {5: 0.9, 6: 0.1}, warm=[5, 6])
        access(c, [6])                    # hit in batch 0
        access(c, [9])                    # miss, rejected; time moves on
        assert c.last_used[c.slots(np.array([6]))[0]] == 0
        assert c.last_used[c.slots(np.array([5]))[0]] < 0

    def test_warm_start_is_not_churn(self):
        c = make_primed(3, {5: 0.9, 6: 0.1}, warm=[5, 6])
        assert set(c.ids) == {5, 6}
        assert c.churn == CacheChurnStats()


class TestAging:
    def test_lru_halves_counts_and_prior_every_interval(self):
        c = make_primed(2, {7: 1.0}, aging_interval=2)
        c.end_batch(np.array([1]))
        assert c.frequency_estimate(np.array([1, 7])).tolist() == [1, 32]
        c.end_batch(np.array([1]))        # batch 2: aged
        assert c.frequency_estimate(np.array([1, 7])).tolist() == [1, 16]
        c.end_batch(np.array([1]))
        c.end_batch(np.array([1]))        # batch 4: aged again
        assert c.frequency_estimate(np.array([1, 7])).tolist() == [1.5, 8]

    def test_zero_interval_never_ages(self):
        c = make_primed(2, {7: 1.0}, aging_interval=0)
        for _ in range(10):
            c.end_batch(np.array([1]))
        assert c.frequency_estimate(np.array([1, 7])).tolist() == [10, 32]

    def test_vip_refresh_never_ages(self):
        """Only admit-on-miss caches age: refresh scoring reads exact
        per-batch rates whatever ``aging_interval`` says."""
        c = make_cache(2, "vip-refresh", refresh_interval=100,
                       aging_interval=2)
        for _ in range(4):
            c.end_batch(np.array([1]))
        assert c.access_counts[1] == 4
        assert c.observed_scores()[1] == pytest.approx(1.0)

    def test_aging_lets_a_drifted_newcomer_in(self):
        """Under drift, stale popularity stops outvoting the new hot
        vertex once it has been aged; without aging it never does."""
        caches = {interval: make_cache(1, "lru", aging_interval=interval)
                  for interval in (0, 4)}
        for c in caches.values():
            for _ in range(20):
                access(c, [1])
            for _ in range(12):
                access(c, [2])
        assert set(caches[0].ids) == {1}
        assert set(caches[4].ids) == {2}


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
        c = make_cache(2, "vip-refresh", refresh_interval=2)
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
        c = make_cache(4, "vip-refresh", refresh_interval=2)
        scores = np.zeros(50)
        scores[[7, 9]] = [0.5, 0.05]  # 0.05 * 10 = 0.5 expected < 1 fetch
        plan = c.plan_refresh(scores, horizon=10)
        assert set(plan.new_ids) == {7}

    def test_swap_saving_exactly_one_fetch_is_not_made(self):
        c = make_cache(2, "vip-refresh", refresh_interval=2)
        scores = np.zeros(50)
        scores[[7, 9]] = [0.5, 0.25]
        plan = c.plan_refresh(scores, horizon=0)
        c.commit_refresh(plan, rows_for(plan.new_ids))
        scores[11] = 0.5     # (0.5 - 0.25) * 4 saves exactly one fetch
        plan = c.plan_refresh(scores, horizon=4)
        assert len(plan.new_ids) == 0 and len(plan.evict_ids) == 0
        scores[11] = 0.51    # a little more and the swap pays
        plan = c.plan_refresh(scores, horizon=4)
        assert set(plan.new_ids) == {11} and set(plan.evict_ids) == {9}

    def test_fill_saving_exactly_one_fetch_is_not_made(self):
        c = make_cache(4, "vip-refresh", refresh_interval=2)
        scores = np.zeros(50)
        scores[[7, 9]] = [0.26, 0.25]  # 1.04 and exactly 1 expected fetch
        plan = c.plan_refresh(scores, horizon=4)
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
        store = build_store(rd, warm, policy, refresh_interval=3)
        n = rd.dataset.num_vertices
        inserted = evicted = 0
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
                inserted += stats.cache_insertions
                evicted += stats.cache_evictions
        assert inserted > 0 and evicted > 0  # the cache did churn

    def test_insertion_and_eviction_counts_match_churn(self, dynamic_setup, rng):
        rd, warm = dynamic_setup
        store = build_store(rd, warm, "lru")
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
        churn = store.stores[0].cache.churn
        assert churn.insertions > 0 and churn.evictions > 0

    def test_refresh_fetch_reported_per_peer(self, dynamic_setup, rng):
        rd, warm = dynamic_setup
        store = build_store(rd, warm, "vip-refresh", refresh_interval=2)
        # Empirical fallback scoring: counts drive the swap.  Batches drawn
        # from a fixed pool make its vertices hot enough to pay for a swap.
        pool = rng.choice(rd.dataset.num_vertices, size=200, replace=False)
        saw_refresh = False
        for _ in range(6):
            ids = rng.choice(pool, size=150, replace=False)
            _, stats = store.execute(store.plan_gather(0, ids))
            if stats.refresh_fetch_per_peer is not None:
                saw_refresh = saw_refresh or stats.refresh_fetch_rows > 0
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
                        cache_policy="lru", batch_size=16, fanouts=(5, 5),
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

    def test_rejects_negative_aging_interval(self):
        with pytest.raises(ValueError, match="aging_interval"):
            DynamicCacheSpec(policy="lru", aging_interval=-1)

    @pytest.mark.parametrize("field", ["admit_threshold", "swap_margin"])
    def test_gate_and_margin_are_not_spec_fields(self, field):
        """The admission gate and the refresh margin are module constants."""
        with pytest.raises(TypeError, match=field):
            DynamicCacheSpec(policy="lru", **{field: 1})

    @pytest.mark.parametrize("policy", ["lfu", "clock"])
    def test_retired_replacement_orders_are_unknown(self, policy):
        assert not is_dynamic_policy(policy)
        with pytest.raises(ValueError, match=r"\['lru', 'vip-refresh'\]"):
            DynamicCacheSpec(policy=policy)

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
