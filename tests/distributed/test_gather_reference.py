"""The one gather path ≡ the frozen one-plan gather, property-tested.

``reference_gather.py`` (beside this file) is ``execute`` as it stood before
every gather became a comm window: its own row assembly, its own all-local
early return, the boolean-mask per-owner fetch.  ``src/repro`` now assembles
rows in ``execute_coalesced`` only (``execute`` is the window of one plan),
so twin stores — one driven through the reference, one through the public
``execute`` — must stay indistinguishable over every id mix, cache kind and
output mode: features, every :class:`GatherStats` field, and for dynamic
caches the contents and churn left behind.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_gather as reference
from repro.distributed import (
    DynamicCacheSpec,
    GatherArena,
    PartitionedFeatureStore,
)
from repro.distributed.feature_store import GatherStats
from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches

MIXES = ("empty", "local", "cached", "remote", "duplicates", "every-peer")

CACHE_KINDS = {
    "vip": None,
    "lru": DynamicCacheSpec(policy="lru", capacity=30),
    # Roomier, so misses often take free slots, and aged every two gathers.
    "lru-aging": DynamicCacheSpec(policy="lru", capacity=60, aging_interval=2),
    "vip-refresh": DynamicCacheSpec(policy="vip-refresh", capacity=60,
                                    refresh_interval=2),
}


@pytest.fixture(scope="module")
def substrate(tiny_reordered):
    rd = tiny_reordered
    ctx = CacheContext(rd.dataset.graph, rd.partition, rd.dataset.train_idx,
                       (5, 5), 16, seed=0)
    return rd, build_caches(VIPAnalyticPolicy(), ctx, alpha=0.2)


def draw_ids(mix, rng, rd, store, machine):
    """One request of the named mix, as ``machine`` sees ``store`` now."""
    n = rd.dataset.num_vertices
    lo, hi = (0, n) if store.is_replicated else rd.part_range(machine)
    size = int(rng.integers(1, 40))
    if mix == "empty":
        return np.empty(0, dtype=np.int64)
    if mix == "local":
        return rng.integers(lo, hi, size=size)
    if mix == "cached":
        cached = store.stores[machine].cache_ids
        return rng.choice(cached, size=min(size, len(cached)), replace=False)
    if mix == "remote":
        ids = rng.integers(0, n, size=4 * size)
        return ids[~store.hit_mask(machine, ids)]
    if mix == "duplicates":
        return rng.choice(rng.integers(0, n, size=size), size=3 * size)
    # every-peer: at least one id owned by each machine, shuffled.
    picks = [rng.integers(*rd.part_range(k), size=1 + size // 4)
             for k in range(rd.num_parts)]
    return rng.permutation(np.concatenate(picks))


def assert_same_stats(got: GatherStats, want: GatherStats):
    for f in fields(GatherStats):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if a is None or b is None:
            assert a is None and b is None, f.name
        else:
            assert np.array_equal(a, b), (f.name, a, b)
    assert got.remote_per_peer.dtype == want.remote_per_peer.dtype


@pytest.mark.parametrize("kind", CACHE_KINDS)
@pytest.mark.parametrize("use_out", [False, True], ids=["alloc", "arena"])
@settings(max_examples=40, deadline=None)
@given(mixes=st.lists(st.sampled_from(MIXES), min_size=1, max_size=6),
       refresh_at=st.integers(0, 5), seed=st.integers(0, 2**31 - 1))
def test_partitioned_store_matches_frozen_execute(substrate, kind, use_out,
                                                  mixes, refresh_at, seed):
    rd, caches = substrate
    spec = CACHE_KINDS[kind]
    ref_store, store = (
        PartitionedFeatureStore.build(rd, gpu_fraction=0.5, caches=caches,
                                      dynamic=spec) for _ in range(2))
    rng = np.random.default_rng(seed)
    arena = GatherArena()
    for i, mix in enumerate(mixes):
        if i == refresh_at:  # a refresh due at the next gather (vip-refresh)
            ref_store.request_refresh()
            store.request_refresh()
        machine = int(rng.integers(0, rd.num_parts))
        ids = draw_ids(mix, rng, rd, store, machine)
        want_feats, want = reference.execute(
            ref_store, ref_store.plan_gather(machine, ids))
        out = None
        if use_out:
            out = arena.out(machine, len(ids), store.feature_dim,
                            want_feats.dtype)
        feats, got = store.execute(store.plan_gather(machine, ids), out=out)
        assert out is None or feats is out
        assert feats.dtype == want_feats.dtype
        assert np.array_equal(feats, want_feats)
        assert np.array_equal(feats, rd.dataset.features[ids])
        assert_same_stats(got, want)
    if spec is not None:
        for a, b in zip(store.stores, ref_store.stores):
            assert np.array_equal(a.cache.ids, b.cache.ids)
            assert a.cache.churn == b.cache.churn


@pytest.mark.parametrize("use_out", [False, True], ids=["alloc", "arena"])
@settings(max_examples=25, deadline=None)
@given(mix=st.sampled_from(("empty", "local", "duplicates", "every-peer")),
       machine=st.integers(0, 3), seed=st.integers(0, 2**31 - 1))
def test_replicated_store_matches_frozen_execute(tiny_reordered, use_out,
                                                 mix, machine, seed):
    """Full replication: every plan is all-local — the frozen early
    return's case, now the same body as everything else."""
    rd = tiny_reordered
    store = PartitionedFeatureStore.build_replicated(rd, gpu_fraction=0.3)
    ids = draw_ids(mix, np.random.default_rng(seed), rd, store, machine)
    plan = store.plan_gather(machine, ids)
    want_feats, want = reference.execute(store, plan)
    out = None
    if use_out:
        out = GatherArena().out(machine, len(ids), store.feature_dim,
                                want_feats.dtype)
    feats, got = store.execute(plan, out=out)
    assert out is None or feats is out
    assert np.array_equal(feats, want_feats)
    assert_same_stats(got, want)
    assert got.remote_rows == got.cached_rows == 0


def test_ids_outside_the_partitioned_range_are_refused(tiny_reordered):
    """The per-owner slice fetch bisects the part offsets; an id no machine
    owns must fail loudly, not come back as an unwritten row."""
    rd = tiny_reordered
    store = PartitionedFeatureStore.build(rd)
    ids = np.array([rd.dataset.num_vertices + 5])
    with pytest.raises(IndexError):
        store.execute(store.plan_gather(0, ids))
