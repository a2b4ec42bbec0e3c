"""Dynamic caches vs static VIP: comm-volume and hit-rate curves.

This benchmark evaluates the repo's extension *beyond* the paper (no figure
corresponds to it): the static VIP cache of §4.2 against the dynamic cache
subsystem — gated LRU replacement and periodic ``vip-refresh`` — on two
workloads:

* **Stationary** (the paper's setting): uniform minibatches from a fixed
  training set on products-mini.  Static analytic VIP is provably the right
  ranking here, so the claim is defensive: warm-started dynamic policies
  must stay within 5% of static VIP total communication (and ``vip-refresh``
  must be indistinguishable — with an unchanged training set, its cost-aware
  swap planner finds nothing worth swapping).

* **Drifting training set** (the ROADMAP's north-star scenario): the active
  training set migrates across graph communities every few epochs
  (:func:`repro.graph.drifting_training_sets`) on a hash-partitioned
  deployment — the realistic layout for online systems, and one where
  neighborhood expansion is remote-heavy on every machine.  The build-time
  VIP cache goes stale with each phase; dynamic policies must win.  The
  assertion is the headline claim: ``vip-refresh`` and LRU achieve strictly
  lower *total* communication (demand fetches + cache-update traffic) than
  static VIP at equal cache budget.

All volumes are measured by running the functional executor (real gathers
through the partitioned store, cache churn included); nothing is estimated.
"""

import numpy as np
import pytest

from conftest import publish, run_once
from repro.core import RunConfig, SalientPP, make_partition
from repro.graph import drifting_training_sets
from repro.graph.datasets import make_synthetic_dataset
from repro.utils import Table

POLICIES = ["vip", "lru", "vip-refresh"]

# --- stationary setting (products-mini defaults, Table-1-style cache). ---
STAT_DATASET = "products-mini"
STAT_K = 4
STAT_ALPHA = 0.16
STAT_EPOCHS = 4

# --- drifting setting: strong community structure, mild hubs, hash
# partitioning; the active set covers ~6% of the pool from a rotating 6%
# community window, changing every PHASE_EPOCHS epochs. ---
DRIFT_K = 4
DRIFT_ALPHA = 0.10
DRIFT_EPOCHS = 12
PHASE_EPOCHS = 3
DRIFT_FANOUTS = (4, 3)
DRIFT_BATCH = 32
REFRESH_INTERVAL = 12


def make_drift_dataset():
    return make_synthetic_dataset(
        "drift-mini",
        num_vertices=24_000,
        avg_degree=14.0,
        feature_dim=32,
        num_classes=8,
        num_communities=32,
        intra_fraction=0.97,
        power=2.8,
        train_frac=0.4,
        seed=1,
    )


def _epoch_rows(system, epochs, phases=None, phase_epochs=1):
    """Run ``epochs`` dry epochs; return per-epoch (comm, demand, hit) plus
    total churn.  ``phases`` swaps the training set every ``phase_epochs``."""
    comm, demand, hits = [], [], []
    refreshes = insertions = 0
    for e in range(epochs):
        if phases is not None and e % phase_epochs == 0:
            system.update_training_set(phases[e // phase_epochs])
        rep = system.train_epoch(e, dry_run=True).report
        comm.append(rep.total_comm_rows())
        demand.append(rep.total_remote_rows())
        hits.append(rep.cache_hit_rate())
        if rep.cache_churn is not None:
            refreshes += sum(c.refreshes for c in rep.cache_churn)
            insertions += sum(c.insertions for c in rep.cache_churn)
    return dict(comm=comm, demand=demand, hits=hits,
                refreshes=refreshes, insertions=insertions)


def run_stationary(artifacts):
    ds = artifacts.dataset(STAT_DATASET)
    part = artifacts.partition(STAT_DATASET, STAT_K)
    out = {}
    for pol in POLICIES:
        cfg = RunConfig(num_machines=STAT_K, replication_factor=STAT_ALPHA,
                        cache_policy=pol, refresh_interval=20, seed=0)
        system = SalientPP.build(ds, cfg, partition=part)
        out[pol] = _epoch_rows(system, STAT_EPOCHS)
    return out


def run_drift():
    ds = make_drift_dataset()
    base = RunConfig(num_machines=DRIFT_K, partitioner="random",
                     fanouts=DRIFT_FANOUTS, batch_size=DRIFT_BATCH, seed=0)
    part = make_partition(ds, base.resolve(ds))
    out = {}
    for pol in POLICIES:
        cfg = RunConfig(num_machines=DRIFT_K, replication_factor=DRIFT_ALPHA,
                        cache_policy=pol, refresh_interval=REFRESH_INTERVAL,
                        cache_aging_interval=20, partitioner="random",
                        fanouts=DRIFT_FANOUTS, batch_size=DRIFT_BATCH, seed=0)
        system = SalientPP.build(ds, cfg, partition=part)
        phases = drifting_training_sets(
            system.reordered.dataset.train_idx,
            system.reordered.dataset.community,
            DRIFT_EPOCHS // PHASE_EPOCHS,
            active_fraction=0.06, window_fraction=0.06,
            background_fraction=0.0, seed=42,
        )
        out[pol] = _epoch_rows(system, DRIFT_EPOCHS, phases=phases,
                               phase_epochs=PHASE_EPOCHS)
    return out


def _publish_curves(name, title, results, group_epochs=1):
    """Comm-volume and hit-rate curves, one row per policy."""
    epochs = len(next(iter(results.values()))["comm"])
    groups = epochs // group_epochs
    unit = "epoch" if group_epochs == 1 else f"{group_epochs}-epoch phase"
    prefix = "e" if group_epochs == 1 else "p"
    base_total = sum(results["vip"]["comm"])

    vol = Table(["policy"] + [f"{prefix}{i + 1}" for i in range(groups)]
                + ["total", "vs static", "refresh rows"],
                title=f"{title} — total comm rows per {unit}", float_fmt="{:.0f}")
    for pol, r in results.items():
        grouped = [sum(r["comm"][g * group_epochs:(g + 1) * group_epochs])
                   for g in range(groups)]
        total = sum(r["comm"])
        vol.add_row([pol] + grouped
                    + [total, f"{total / base_total:.3f}x",
                       total - sum(r["demand"])])
    publish(f"{name}_volume", vol)

    hit = Table(["policy"] + [f"{prefix}{i + 1}" for i in range(groups)],
                title=f"{title} — cache hit rate per {unit}", float_fmt="{:.3f}")
    for pol, r in results.items():
        grouped = [np.mean(r["hits"][g * group_epochs:(g + 1) * group_epochs])
                   for g in range(groups)]
        hit.add_row([pol] + [float(h) for h in grouped])
    publish(f"{name}_hitrate", hit)


@pytest.mark.benchmark(group="dynamic_cache")
def test_dynamic_cache_stationary(benchmark, artifacts):
    results = run_once(benchmark, lambda: run_stationary(artifacts))
    _publish_curves("dynamic_cache_stationary",
                    f"Dynamic caches, stationary workload ({STAT_DATASET}, "
                    f"{STAT_K}-way, a={STAT_ALPHA})", results)

    base = sum(results["vip"]["comm"])
    for pol in POLICIES[1:]:
        total = sum(results[pol]["comm"])
        # Warm-started dynamic policies must not regress the paper's setting.
        assert total <= 1.05 * base, (
            f"{pol} spends {total / base:.3f}x static VIP's communication "
            f"on a stationary workload (allowed: 1.05x)")
    # With nothing drifting, cost-aware refresh must find nothing to swap.
    assert sum(results["vip-refresh"]["comm"]) <= 1.01 * base
    benchmark.extra_info["worst_vs_static"] = round(
        max(sum(results[p]["comm"]) / base for p in POLICIES[1:]), 4)


@pytest.mark.benchmark(group="dynamic_cache")
def test_dynamic_cache_drift(benchmark):
    results = run_once(benchmark, run_drift)
    _publish_curves("dynamic_cache_drift",
                    f"Dynamic caches, drifting training set (drift-mini, "
                    f"{DRIFT_K}-way hash partition, a={DRIFT_ALPHA})",
                    results, group_epochs=PHASE_EPOCHS)

    base = sum(results["vip"]["comm"])
    totals = {p: sum(results[p]["comm"]) for p in POLICIES}

    # Headline: adaptive caching beats the stale static cache at equal
    # budget, counting its own update traffic.
    assert totals["vip-refresh"] < base, "vip-refresh must strictly win under drift"
    assert totals["lru"] < base, "lru must strictly win under drift"
    assert totals["vip-refresh"] < 0.8 * base, (
        f"vip-refresh should win decisively, got {totals['vip-refresh'] / base:.3f}x")

    # The refresh mechanism really ran, and its demand saving is what pays.
    assert results["vip-refresh"]["refreshes"] > 0
    assert sum(results["vip-refresh"]["demand"]) < 0.7 * sum(results["vip"]["demand"])

    benchmark.extra_info["vip_refresh_vs_static"] = round(
        totals["vip-refresh"] / base, 4)
    benchmark.extra_info["lru_vs_static"] = round(totals["lru"] / base, 4)
