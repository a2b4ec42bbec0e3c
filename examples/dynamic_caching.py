"""Dynamic caching walkthrough: drift-adaptive training + streaming inference.

The paper's VIP cache is selected once during preprocessing and never
changes.  This example shows the two scenarios where the dynamic cache
subsystem pays off:

1. **Drifting training set** — the active training vertices migrate across
   graph communities every few epochs; a ``vip-refresh`` cache re-runs the
   analytic VIP computation against the *current* training set at each
   refresh and swaps only the entries whose expected demand savings exceed
   the fetch cost of swapping them in.

2. **Streaming inference** — a request stream with a shifting popularity
   hot set hits the feature store directly (no training at all); an LRU
   cache with TinyLFU-style gated admission tracks the hot set online,
   while the static training-time cache serves a workload it was never
   built for.

Run:  python examples/dynamic_caching.py
"""

import time

import numpy as np

from repro.core import RunConfig, SalientPP, make_partition
from repro.distributed import DynamicCacheSpec, PartitionedFeatureStore
from repro.graph import drifting_training_sets, streaming_request_stream
from repro.graph.datasets import make_synthetic_dataset
from repro.partition import reorder_dataset
from repro.sampling import NeighborSampler
from repro.utils import Table
from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches


def build_drift_dataset():
    """Strong communities, mild hubs: the regime where workload drift
    actually moves the hot set (see benchmarks/test_dynamic_cache.py)."""
    return make_synthetic_dataset(
        "drift-mini", num_vertices=24_000, avg_degree=14.0, feature_dim=32,
        num_classes=8, num_communities=32, intra_fraction=0.97, power=2.8,
        train_frac=0.4, seed=1,
    )


def drifting_training_demo(ds):
    print("=== 1. drifting training set (4 machines, hash partition) ===")
    epochs, phase_epochs = 12, 3
    base = RunConfig(num_machines=4, partitioner="random", fanouts=(4, 3),
                     batch_size=32, seed=0)
    part = make_partition(ds, base.resolve(ds))

    table = Table(["policy", "demand rows", "refresh rows", "total", "vs static"],
                  title="Total communication over 12 epochs (cache a=0.10)")
    totals = {}
    for pol in ("vip", "lru", "vip-refresh"):
        cfg = RunConfig(num_machines=4, replication_factor=0.10, cache_policy=pol,
                        refresh_interval=12, cache_aging_interval=20,
                        partitioner="random", fanouts=(4, 3), batch_size=32, seed=0)
        system = SalientPP.build(ds, cfg, partition=part)
        phases = drifting_training_sets(
            system.reordered.dataset.train_idx,
            system.reordered.dataset.community,
            epochs // phase_epochs,
            active_fraction=0.06, window_fraction=0.06,
            background_fraction=0.0, seed=42,
        )
        demand = refresh = 0
        for e in range(epochs):
            if e % phase_epochs == 0:
                system.update_training_set(phases[e // phase_epochs])
            rep = system.train_epoch(e, dry_run=True).report
            demand += rep.total_remote_rows()
            refresh += rep.total_refresh_rows()
        totals[pol] = demand + refresh
        table.add_row([pol, demand, refresh, totals[pol],
                       f"{totals[pol] / totals['vip']:.3f}x"])
    print(table, "\n")


def streaming_inference_demo(ds):
    print("=== 2. streaming inference against the feature store ===")
    K, alpha, fanouts, batch = 4, 0.10, (4, 3), 64
    base = RunConfig(num_machines=K, partitioner="random", fanouts=fanouts,
                     batch_size=batch, seed=0)
    part = make_partition(ds, base.resolve(ds))
    # One reordered substrate; cache variants are compared on top of it.
    rd = reorder_dataset(ds, part)

    ctx = CacheContext(rd.dataset.graph, rd.partition, rd.dataset.train_idx,
                       fanouts, batch, seed=0)
    warm = build_caches(VIPAnalyticPolicy(), ctx, alpha)
    budget = len(warm[0])

    def run(store, label):
        sampler = NeighborSampler(rd.dataset.graph, fanouts, seed=7)
        stream = streaming_request_stream(
            np.arange(rd.dataset.num_vertices), num_batches=600,
            batch_size=batch, hot_fraction=0.005, hot_mass=0.9,
            drift_interval=150, seed=11,
        )
        remote = cached = 0
        for i, seeds in enumerate(stream):
            machine = i % store.num_machines  # round-robin request routing
            mfg = next(iter(sampler.batches(seeds, len(seeds), shuffle=False)))
            _, stats = store.execute(store.plan_gather(machine, mfg.n_id))
            remote += stats.comm_rows()
            cached += stats.cached_rows
        hit = cached / max(cached + remote, 1)
        print(f"  {label:28s} remote rows: {remote:7d}   cache hit rate: {hit:.3f}")
        return remote

    static_store = PartitionedFeatureStore.build(rd, caches=warm)
    run(static_store, "static vip (training-time)")
    spec = DynamicCacheSpec(policy="lru", capacity=budget, aging_interval=30)
    store = PartitionedFeatureStore.build(rd, caches=warm, dynamic=spec)
    run(store, "dynamic lru")
    print()


def main():
    t0 = time.time()
    ds = build_drift_dataset()
    print(f"dataset: {ds} ({time.time() - t0:.1f}s to generate)\n")
    drifting_training_demo(ds)
    streaming_inference_demo(ds)
    print(f"done in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main()
