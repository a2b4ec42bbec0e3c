"""Execution-engine tests: gather plan/execute parity, coalescing, and the
bsp / pipelined / async schedule semantics.

The anchor is *parity with the seed*: ``execute(plan_gather(...))`` must be
indistinguishable from the pre-split monolithic ``gather`` (reimplemented
inline here as the frozen reference), and the ``bsp`` engine must reproduce
the pre-refactor trainer's :class:`EpochReport` exactly — same losses, same
volumes, same ledger bytes under the same seeds.
"""

import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.distributed.engine as engine_module
from invariants import trace_shape
from repro.core import Planner, RunConfig
from repro.distributed import (
    ENGINES,
    DistributedTrainer,
    FetchPlan,
    PartitionedFeatureStore,
    make_engine,
)
from repro.distributed.comm import CommLedger, all_reduce_gradients
from repro.distributed.dynamic_cache import DynamicCacheSpec
from repro.distributed.engine import InProcessCollective, gather_window
from repro.distributed.feature_store import GatherArena, GatherStats
from repro.distributed.multiproc.channel import ChannelError
from repro.graph import erdos_renyi
from repro.graph.datasets import make_synthetic_dataset, make_tiny
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.nn.functional import cross_entropy
from repro.partition import metis_like_partition, reorder_dataset
from repro.obs import OBS
from repro.pipeline.events import Stage
from repro.sampling.neighbor import NeighborSampler
from repro.utils import ahead
from repro.utils.rng import derive_seed
from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches

# The seed's per-owner mask fetch (request order kept), frozen beside this
# file: the store's own fetch now takes a window's *sorted* union.
from reference_gather import _fetch_remote_rows as seed_fetch_remote_rows


# ----------------------------------------------------------------------
# Shared substrate: a dataset big enough for several steps per machine
# (the tiny fixture yields one step, which cannot exercise coalescing).

@pytest.fixture(scope="module")
def multi_step_reordered():
    ds = make_synthetic_dataset(
        "engine-mini", num_vertices=3000, avg_degree=8.0, feature_dim=16,
        num_classes=6, num_communities=8, intra_fraction=0.9, power=2.5,
        train_frac=0.4, seed=3,
    )
    part = metis_like_partition(ds.graph, 4, seed=0)
    return reorder_dataset(ds, part)


def make_store(rd, alpha=0.0, gpu_fraction=0.0, dynamic=None):
    caches = None
    if alpha > 0:
        ctx = CacheContext(rd.dataset.graph, rd.partition, rd.dataset.train_idx,
                           (5, 4), 32, seed=0)
        caches = build_caches(VIPAnalyticPolicy(), ctx, alpha=alpha)
    return PartitionedFeatureStore.build(
        rd, gpu_fraction=gpu_fraction, caches=caches, dynamic=dynamic,
    )


def make_trainer(rd, engine="bsp", seed=0, **kw):
    store_kw = {k: kw.pop(k) for k in ("alpha", "gpu_fraction", "dynamic")
                if k in kw}
    store = make_store(rd, **store_kw)
    return DistributedTrainer(rd, store, fanouts=(5, 4), batch_size=32,
                              hidden_dim=16, lr=0.01, seed=seed,
                              engine=engine, **kw)


def reference_gather(store: PartitionedFeatureStore, machine: int,
                     ids: np.ndarray):
    """The seed repo's monolithic gather, frozen as the parity reference
    (classification inline, stats taken before any cache maintenance)."""
    ids = np.asarray(ids, dtype=np.int64)
    ms = store.stores[machine]
    out = np.empty((len(ids), store.feature_dim), dtype=ms.local_features.dtype)

    local_mask = ms.is_local(ids)
    local_ids = ids[local_mask]
    out[local_mask] = ms.local_rows(local_ids)
    gpu_rows = int(np.count_nonzero(local_ids - ms.lo < ms.gpu_rows))

    nonlocal_mask = ~local_mask
    nl_ids = ids[nonlocal_mask]
    cached_mask_nl = ms.is_cached(nl_ids)
    cached_ids = nl_ids[cached_mask_nl]
    out[np.flatnonzero(nonlocal_mask)[cached_mask_nl]] = ms.cached_rows(cached_ids)

    remote_pos = np.flatnonzero(nonlocal_mask)[~cached_mask_nl]
    remote_ids = nl_ids[~cached_mask_nl]
    remote_rows, remote_per_peer = seed_fetch_remote_rows(store, machine,
                                                          remote_ids)
    out[remote_pos] = remote_rows

    stats = GatherStats(
        total_rows=len(ids), gpu_rows=gpu_rows,
        cpu_rows=len(local_ids) - gpu_rows,
        cached_rows=len(cached_ids), remote_rows=len(remote_ids),
        remote_per_peer=remote_per_peer,
    )
    if ms.has_dynamic_cache:
        nl_pos = np.flatnonzero(nonlocal_mask)
        store._maintain_dynamic_cache(ms, stats, FetchPlan(
            machine=machine, ids=ids, local_pos=np.flatnonzero(local_mask),
            local_ids=local_ids, gpu_rows=gpu_rows,
            cpu_rows=len(local_ids) - gpu_rows,
            cached_pos=nl_pos[cached_mask_nl], cached_ids=cached_ids,
            remote_pos=remote_pos, remote_ids=remote_ids,
            nonlocal_ids=nl_ids), out)
    return out, stats


def assert_stats_equal(a: GatherStats, b: GatherStats):
    assert (a.total_rows, a.gpu_rows, a.cpu_rows, a.cached_rows,
            a.remote_rows, a.cache_insertions, a.cache_evictions,
            a.coalesced_rows) == \
           (b.total_rows, b.gpu_rows, b.cpu_rows, b.cached_rows,
            b.remote_rows, b.cache_insertions, b.cache_evictions,
            b.coalesced_rows)
    assert np.array_equal(a.remote_per_peer, b.remote_per_peer)
    if a.refresh_fetch_per_peer is None:
        assert b.refresh_fetch_per_peer is None
    else:
        assert np.array_equal(a.refresh_fetch_per_peer, b.refresh_fetch_per_peer)


# ----------------------------------------------------------------------
class TestPlanExecuteParity:
    """execute(plan_gather(...)) ≡ the seed gather, property-tested."""

    @given(
        machine=st.integers(0, 3),
        alpha=st.sampled_from([0.0, 0.1, 0.3]),
        gpu_fraction=st.sampled_from([0.0, 0.5, 1.0]),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=25, deadline=None)
    def test_static_store_parity(self, multi_step_reordered, machine, alpha,
                                 gpu_fraction, seed):
        rd = multi_step_reordered
        store = make_store(rd, alpha=alpha, gpu_fraction=gpu_fraction)
        rng = np.random.default_rng(seed)
        n = rd.dataset.num_vertices
        ids = rng.choice(n, size=rng.integers(1, 400), replace=False)
        feats, stats = store.execute(store.plan_gather(machine, ids))
        ref_feats, ref_stats = reference_gather(store, machine, ids)
        assert np.array_equal(feats, ref_feats)
        assert np.array_equal(feats, rd.dataset.features[ids])
        assert_stats_equal(stats, ref_stats)

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_dynamic_store_parity(self, multi_step_reordered, seed):
        """Parity must hold through a *sequence* of gathers on dynamic
        caches (admissions/evictions change the state between requests)."""
        rd = multi_step_reordered
        spec = DynamicCacheSpec(policy="lru", capacity=80)
        store_a = make_store(rd, alpha=0.1, dynamic=spec)
        store_b = make_store(rd, alpha=0.1, dynamic=spec)
        rng = np.random.default_rng(seed)
        n = rd.dataset.num_vertices
        for _ in range(4):
            machine = int(rng.integers(0, 4))
            ids = rng.choice(n, size=int(rng.integers(1, 300)), replace=False)
            feats, stats = store_a.execute(store_a.plan_gather(machine, ids))
            ref_feats, ref_stats = reference_gather(store_b, machine, ids)
            assert np.array_equal(feats, ref_feats)
            assert_stats_equal(stats, ref_stats)

    def test_window_of_one_is_plan_execute(self, multi_step_reordered):
        """Evaluation's gather — one batch as a window of one through
        ``gather_window``, into an arena — is ``execute(plan_gather(...))``:
        the same rows and the same stats."""
        rd = multi_step_reordered
        s1, s2 = make_store(rd, alpha=0.2), make_store(rd, alpha=0.2)
        mfg = NeighborSampler(rd.dataset.graph, (5, 4), seed=0).sample(
            np.arange(0, rd.dataset.num_vertices, 97))
        _, (f1,), (rec,) = gather_window(
            s1, GatherArena(), 0, 0, [mfg], [s1.plan_gather(0, mfg.n_id)],
            rd.dataset.graph.degrees)
        f2, st2 = s2.execute(s2.plan_gather(0, mfg.n_id))
        assert np.array_equal(f1, f2)
        assert np.array_equal(f1, rd.dataset.features[mfg.n_id])
        assert_stats_equal(rec.gather, st2)

    def test_plan_is_pure(self, multi_step_reordered):
        """Planning moves no bytes and never mutates a dynamic cache."""
        rd = multi_step_reordered
        store = make_store(rd, alpha=0.1,
                           dynamic=DynamicCacheSpec(policy="lfu", capacity=100))
        before = [s.cache_ids.copy() for s in store.stores]
        for machine in range(4):
            store.plan_gather(machine, np.arange(0, rd.dataset.num_vertices, 5))
        for prev, s in zip(before, store.stores):
            assert np.array_equal(prev, s.cache_ids)


class TestCoalescing:
    @given(
        machine=st.integers(0, 3),
        depth=st.integers(2, 6),
        seed=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=15, deadline=None)
    def test_coalesced_features_and_accounting(self, multi_step_reordered,
                                               machine, depth, seed):
        rd = multi_step_reordered
        store = make_store(rd, alpha=0.1)
        rng = np.random.default_rng(seed)
        n = rd.dataset.num_vertices
        id_sets = [rng.choice(n, size=int(rng.integers(50, 300)), replace=False)
                   for _ in range(depth)]
        plans = [store.plan_gather(machine, ids) for ids in id_sets]
        cplan = FetchPlan.coalesce(plans)
        results = store.execute_coalesced(cplan)
        unique_remote = len(np.unique(np.concatenate(
            [p.remote_ids for p in plans])))
        total_remote = sum(s.remote_rows for _, s in results)
        total_coalesced = sum(s.coalesced_rows for _, s in results)
        # Features: bit-identical to direct monolithic indexing.
        for ids, (feats, _) in zip(id_sets, results):
            assert np.array_equal(feats, rd.dataset.features[ids])
        # Accounting: wire rows = deduplicated union; nothing lost.
        assert total_remote == unique_remote
        assert total_remote + total_coalesced == sum(
            len(p.remote_ids) for p in plans)
        assert cplan.duplicate_rows() == total_coalesced
        # Per-plan invariants: categories partition the request.
        for p, (_, s) in zip(plans, results):
            assert (s.gpu_rows + s.cpu_rows + s.cached_rows + s.remote_rows
                    + s.coalesced_rows) == s.total_rows == len(p.ids)

    def test_coalesce_rejects_mixed_machines(self, multi_step_reordered):
        rd = multi_step_reordered
        store = make_store(rd)
        ids = np.arange(0, 100)
        with pytest.raises(ValueError, match="one machine"):
            FetchPlan.coalesce([store.plan_gather(0, ids),
                                store.plan_gather(1, ids)])
        with pytest.raises(ValueError, match="empty"):
            FetchPlan.coalesce([])


# ----------------------------------------------------------------------
def seed_trainer_epoch(tr: DistributedTrainer, epoch: int):
    """The pre-refactor trainer loop, frozen as the bsp parity reference
    (gather, train, all-reduce per step; same seed derivations)."""
    steps = tr.steps_per_epoch()
    ledger = CommLedger(tr.num_machines)
    iterators = [
        tr.samplers[k].batches(
            tr.local_train[k], tr.batch_size, drop_last=True, epoch=epoch,
            seed=derive_seed(tr.seed, "order", k),
        )
        for k in range(tr.num_machines)
    ]
    losses, volumes = [], []
    for _step in range(steps):
        for k in range(tr.num_machines):
            mfg = next(iterators[k])
            feats, stats = tr.store.execute(tr.store.plan_gather(k, mfg.n_id))
            ledger.record_feature_fetch(k, stats.remote_per_peer,
                                        tr.store.bytes_per_row)
            if stats.refresh_fetch_per_peer is not None:
                ledger.record_feature_fetch(k, stats.refresh_fetch_per_peer,
                                            tr.store.bytes_per_row)
            model = tr.models[k]
            model.train()
            logits = model(feats, mfg)
            loss = cross_entropy(logits, tr.ds.labels[mfg.seeds])
            model.zero_grad()
            loss.backward()
            losses.append(loss.item())
            volumes.append((mfg.num_vertices, stats.remote_rows,
                            stats.cached_rows))
        all_reduce_gradients(tr.models, ledger)
        for opt in tr.optimizers:
            opt.step()
    return losses, volumes, ledger


class TestBSPParity:
    @pytest.mark.parametrize("alpha,dynamic", [
        (0.0, None),
        (0.2, None),
        (0.1, DynamicCacheSpec(policy="lru", capacity=100)),
    ])
    def test_bsp_matches_seed_trainer(self, multi_step_reordered, alpha, dynamic):
        """Same seeds → same losses, volumes, and ledger bytes as the
        pre-refactor lock-step loop."""
        rd = multi_step_reordered
        ref = make_trainer(rd, engine="bsp", alpha=alpha, dynamic=dynamic, seed=7)
        new = make_trainer(rd, engine="bsp", alpha=alpha, dynamic=dynamic, seed=7)
        for epoch in range(2):
            ref_losses, ref_vols, ref_ledger = seed_trainer_epoch(ref, epoch)
            rep = new.train_epoch(epoch)
            assert [r.loss for r in rep.records] == ref_losses
            assert [(r.mfg_vertices, r.gather.remote_rows, r.gather.cached_rows)
                    for r in rep.records] == ref_vols
            assert np.array_equal(rep.ledger.feature_bytes,
                                  ref_ledger.feature_bytes)
            assert np.array_equal(rep.ledger.request_bytes,
                                  ref_ledger.request_bytes)
            assert np.array_equal(rep.ledger.gradient_bytes,
                                  ref_ledger.gradient_bytes)
            assert rep.mean_loss == pytest.approx(float(np.mean(ref_losses)),
                                                  abs=0.0)

    def test_bsp_emits_per_step_trace(self, multi_step_reordered):
        rep = make_trainer(multi_step_reordered).train_epoch(0, dry_run=True)
        trace = rep.events
        assert trace is not None and trace.engine == "bsp"
        assert trace.windows == [(s, s + 1) for s in range(rep.steps_per_machine)]
        assert trace.allreduce_steps == list(range(rep.steps_per_machine))


class TestPipelinedEngine:
    def test_losses_match_bsp_exactly(self, multi_step_reordered):
        rd = multi_step_reordered
        bsp = make_trainer(rd, engine="bsp", alpha=0.1, seed=5)
        pipe = make_trainer(rd, engine="pipelined", pipeline_depth=4,
                            alpha=0.1, seed=5)
        for epoch in range(2):
            rb, rp = bsp.train_epoch(epoch), pipe.train_epoch(epoch)
            assert [r.loss for r in rb.records] == [r.loss for r in rp.records]
            assert rb.mean_loss == rp.mean_loss

    def test_coalescing_reduces_remote_rows(self, multi_step_reordered):
        rd = multi_step_reordered
        rb = make_trainer(rd, engine="bsp").train_epoch(0, dry_run=True)
        rp = make_trainer(rd, engine="pipelined",
                          pipeline_depth=4).train_epoch(0, dry_run=True)
        assert rp.total_remote_rows() < rb.total_remote_rows()
        assert rp.total_coalesced_rows() > 0
        assert (rp.total_remote_rows() + rp.total_coalesced_rows()
                == rb.total_remote_rows())
        assert (rp.ledger.total_feature_bytes()
                < rb.ledger.total_feature_bytes())

    def test_depth_one_degenerates_to_bsp_volumes(self, multi_step_reordered):
        rd = multi_step_reordered
        rb = make_trainer(rd, engine="bsp").train_epoch(0, dry_run=True)
        rp = make_trainer(rd, engine="pipelined",
                          pipeline_depth=1).train_epoch(0, dry_run=True)
        assert rp.total_remote_rows() == rb.total_remote_rows()
        assert rp.total_coalesced_rows() == 0

    def test_windowed_trace(self, multi_step_reordered):
        rd = multi_step_reordered
        rp = make_trainer(rd, engine="pipelined",
                          pipeline_depth=4).train_epoch(0, dry_run=True)
        steps = rp.steps_per_machine
        expected = [(w, min(w + 4, steps)) for w in range(0, steps, 4)]
        assert rp.events.windows == expected


class TestAsyncEngine:
    def test_loss_decreases_and_resyncs(self, multi_step_reordered):
        tr = make_trainer(multi_step_reordered, engine="async", staleness=3)
        reports = tr.train(3)
        assert reports[-1].mean_loss < reports[0].mean_loss
        assert tr.models_in_sync()  # epoch end always re-converges

    def test_allreduce_events_thin_out(self, multi_step_reordered):
        rd = multi_step_reordered
        ra = make_trainer(rd, engine="async",
                          staleness=3).train_epoch(0, dry_run=True)
        rb = make_trainer(rd, engine="bsp").train_epoch(0, dry_run=True)
        steps = rb.steps_per_machine
        assert len(rb.events.allreduce_steps) == steps
        assert len(ra.events.allreduce_steps) < steps
        assert ra.events.allreduce_steps[-1] == steps - 1
        n_ar = sum(1 for ev in ra.events.events if ev.stage is Stage.ALLREDUCE)
        assert n_ar == len(ra.events.allreduce_steps)

    def test_staleness_zero_syncs_every_step(self, multi_step_reordered):
        ra = make_trainer(multi_step_reordered, engine="async",
                          staleness=0).train_epoch(0, dry_run=True)
        assert ra.events.allreduce_steps == list(range(ra.steps_per_machine))


class TestEngineRegistry:
    def test_registered_names(self):
        assert {"bsp", "pipelined", "async"} <= set(ENGINES.names())

    def test_unknown_engine_raises_with_names(self, multi_step_reordered):
        with pytest.raises(ValueError, match="bsp"):
            make_trainer(multi_step_reordered, engine="warp-speed")

    def test_make_engine_routes_knobs(self, multi_step_reordered):
        tr = make_trainer(multi_step_reordered)
        eng = make_engine("pipelined", tr, pipeline_depth=7)
        assert eng.depth == 7
        eng = make_engine("async", tr, staleness=5)
        assert eng.staleness == 5

    def test_bad_knobs_raise(self, multi_step_reordered):
        tr = make_trainer(multi_step_reordered)
        with pytest.raises(ValueError, match="depth"):
            make_engine("pipelined", tr, pipeline_depth=0)
        with pytest.raises(ValueError, match="staleness"):
            make_engine("async", tr, staleness=-1)


# ----------------------------------------------------------------------
# Sampling ahead of training (§4.3 on the wall clock): the engine draws an
# epoch's windows through one generator and, on a host with a spare core,
# runs it in the engine's forked sampler process.  Which side of the rule
# runs is forced by patching ``ahead.usable_cores``; everything observable
# must be the same on both, and equal to the frozen seed loop.

@pytest.fixture()
def cores(monkeypatch):
    """``cores(n)``: make the host look like it has ``n`` usable cores."""
    return lambda n: monkeypatch.setattr(ahead, "usable_cores", lambda: n)


@pytest.fixture()
def forks(monkeypatch):
    """Every sampler process an engine forks, in order (a live list)."""
    made = []

    class Recorded(ahead.AheadProcess):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(engine_module, "AheadProcess", Recorded)
    return made


def closed(proc):
    """The process was killed and reaped, and left the open set."""
    return proc not in ahead.OPEN and proc.channel.proc.exitcode is not None


@pytest.fixture(scope="module")
def planner():
    return Planner()


@pytest.fixture(scope="module")
def ahead_dataset():
    return make_tiny(seed=3, num_vertices=2000)


CACHES = {
    "static": dict(cache_policy="vip", replication_factor=0.2),
    "lru": dict(cache_policy="lru", replication_factor=0.1),
    "vip-refresh": dict(cache_policy="vip-refresh", replication_factor=0.1,
                        refresh_interval=2),
}
SCHEDULES = {
    "bsp": dict(engine="bsp"),
    "pipelined-3": dict(engine="pipelined", pipeline_depth=3),
    "pipelined-10": dict(engine="pipelined", pipeline_depth=10),
    "async-0": dict(engine="async", staleness=0),
    "async-2": dict(engine="async", staleness=2),
}


def build_system(planner, ds, schedule, cache, streaming):
    cfg = RunConfig(num_machines=3, fanouts=(4, 3), batch_size=12,
                    hidden_dim=16, gpu_fraction=0.5, seed=0,
                    **SCHEDULES[schedule], **CACHES[cache])
    system = planner.build(ds, cfg)
    if streaming:
        apply_edges(system, seed=1)
        assert isinstance(system.trainer.ds.graph, MutableGraph)
    return system


def apply_edges(system, seed):
    gen = np.random.default_rng(seed)
    n, none = system.trainer.ds.num_vertices, np.empty(0, dtype=np.int64)
    system.apply_graph_updates(EdgeBatch(
        add_src=gen.integers(0, n, 60), add_dst=gen.integers(0, n, 60),
        del_src=none, del_dst=none))


def epoch_facts(system, report):
    """Everything an epoch leaves behind that a second run could differ in."""
    flat = [(r.machine, r.step, r.loss, r.mfg_vertices, r.mfg_edges,
             r.candidate_edges, r.block_sizes, r.gather.total_rows,
             r.gather.gpu_rows, r.gather.cpu_rows, r.gather.cached_rows,
             r.gather.remote_rows, tuple(r.gather.remote_per_peer),
             r.gather.coalesced_rows, r.gather.refresh_fetch_rows)
            for r in report.records]
    ledger = report.ledger
    return (flat, report.mean_loss, ledger.feature_bytes.tolist(),
            ledger.request_bytes.tolist(), ledger.gradient_bytes.tolist(),
            trace_shape(report.events), report.cache_churn,
            [s.rng_state() for s in system.trainer.samplers],
            [{k: v.tobytes() for k, v in m.state_dict().items()}
             for m in system.trainer.models])


def twin_epochs(forked, inline, epoch, cores):
    """Epoch ``epoch`` of ``forked`` on a spare core and of ``inline`` on
    one core; returns both reports after checking every fact equal."""
    cores(2)
    got = forked.trainer.train_epoch(epoch)
    cores(1)
    want = inline.trainer.train_epoch(epoch)
    assert epoch_facts(forked, got) == epoch_facts(inline, want)
    return got, want


@pytest.mark.parametrize("streaming", [False, True], ids=["csr", "overlay"])
@pytest.mark.parametrize("cache", list(CACHES))
@pytest.mark.parametrize("schedule", list(SCHEDULES))
def test_sampling_ahead_is_bit_identical_to_inline_and_to_the_seed_loop(
        planner, ahead_dataset, cores, forks, check_invariants,
        schedule, cache, streaming):
    forked, inline, oracle = (
        build_system(planner, ahead_dataset, schedule, cache, streaming)
        for _ in range(3))
    for epoch in range(2):
        got, _want = twin_epochs(forked, inline, epoch, cores)
        # One process for the engine's life; none over a MutableGraph.
        assert len(forks) == (0 if streaming else 1)
        assert forked.trainer.engine._ahead is (forks[0] if forks else None)
        check_invariants(got, bytes_per_row=forked.store.bytes_per_row)

        if schedule.startswith("async"):
            continue  # the seed loop all-reduces gradients every step
        losses, volumes, ledger = seed_trainer_epoch(oracle.trainer, epoch)
        assert [r.loss for r in got.records] == losses
        assert [s.rng_state() for s in forked.trainer.samplers] == \
            [s.rng_state() for s in oracle.trainer.samplers]
        assert np.array_equal(got.ledger.gradient_bytes,
                              ledger.gradient_bytes)
        if schedule == "bsp":  # deeper windows coalesce: fewer remote rows
            assert [(r.mfg_vertices, r.gather.remote_rows,
                     r.gather.cached_rows) for r in got.records] == volumes
            assert np.array_equal(got.ledger.feature_bytes,
                                  ledger.feature_bytes)
            assert np.array_equal(got.ledger.request_bytes,
                                  ledger.request_bytes)


def test_a_training_set_swap_reaches_the_same_child(
        planner, ahead_dataset, cores, forks):
    forked, inline = (build_system(planner, ahead_dataset, "pipelined-3",
                                   "vip-refresh", False) for _ in range(2))
    twin_epochs(forked, inline, 0, cores)
    for system in (forked, inline):
        system.update_training_set(np.concatenate(
            [ids[::2] for ids in system.trainer.local_train]))
    for epoch in (1, 2):
        twin_epochs(forked, inline, epoch, cores)
    assert len(forks) == 1 and not closed(forks[0])


def test_a_restored_cursor_reaches_the_same_child(
        planner, ahead_dataset, cores, forks):
    forked, inline = (build_system(planner, ahead_dataset, "bsp", "static",
                                   False) for _ in range(2))
    twin_epochs(forked, inline, 0, cores)
    cursors = [[s.rng_state() for s in system.trainer.samplers]
               for system in (forked, inline)]
    twin_epochs(forked, inline, 1, cores)
    # Rewind both to the start of epoch 1 (a recovery's restore) and replay.
    for system, saved in zip((forked, inline), cursors):
        for sampler, cursor in zip(system.trainer.samplers, saved):
            sampler.set_rng_state(cursor)
    twin_epochs(forked, inline, 1, cores)
    assert len(forks) == 1 and not closed(forks[0])


def test_a_new_graph_restarts_the_child(planner, ahead_dataset, cores, forks):
    forked, inline = (build_system(planner, ahead_dataset, "pipelined-3",
                                   "lru", False) for _ in range(2))
    twin_epochs(forked, inline, 0, cores)
    n = ahead_dataset.num_vertices
    # A different graph object: the child forked over the old one must go.
    for system in (forked, inline):
        graph = erdos_renyi(n, 6.0, seed=5)
        for sampler in system.trainer.samplers:
            sampler.graph = graph
    twin_epochs(forked, inline, 1, cores)
    assert len(forks) == 2 and closed(forks[0]) and not closed(forks[1])
    # The same object changed in place, as ``bump_version`` declares.
    other = erdos_renyi(n, 4.0, seed=6)
    for system in (forked, inline):
        graph = system.trainer.samplers[0].graph
        graph.indptr, graph.indices = other.indptr, other.indices
        graph.bump_version()
    twin_epochs(forked, inline, 2, cores)
    assert len(forks) == 3 and closed(forks[1]) and not closed(forks[2])


def test_a_mutable_graph_samples_inline_and_closes_the_child(
        planner, ahead_dataset, cores, forks):
    forked, inline = (build_system(planner, ahead_dataset, "pipelined-3",
                                   "vip-refresh", False) for _ in range(2))
    twin_epochs(forked, inline, 0, cores)
    assert len(forks) == 1
    for system in (forked, inline):
        apply_edges(system, seed=2)
    for epoch in (1, 2):
        twin_epochs(forked, inline, epoch, cores)
    assert len(forks) == 1 and closed(forks[0])
    assert forked.trainer.engine._ahead is None


def test_registry_equals_report_on_a_forked_epoch(
        planner, ahead_dataset, cores, forks, check_registry):
    system = build_system(planner, ahead_dataset, "pipelined-3",
                          "vip-refresh", streaming=False)
    cores(2)
    OBS.disable()
    OBS.reset()
    OBS.enable()
    try:
        report = system.trainer.train_epoch(0)
        check_registry(OBS.metrics.snapshot(), report)
    finally:
        OBS.disable()
        OBS.reset()
    assert len(forks) == 1


def test_traced_span_keys_equal_the_inline_runs(
        planner, ahead_dataset, cores, forks):
    """The child stamps its draws; the parent records them as the same
    ``stage.sample`` spans an inline epoch records, on the sampler lane,
    children of the epoch span and inside it (one clock for parent and
    child).  Inline, each is a child of the ``engine.sample_wait`` that
    drew it, inside that wait."""
    forked, inline = (build_system(planner, ahead_dataset, "pipelined-3",
                                   "static", False) for _ in range(2))
    traced = {}
    for name, system, n_cores in (("forked", forked, 2), ("inline", inline, 1)):
        cores(n_cores)
        OBS.disable()
        OBS.reset()
        OBS.enable()
        try:
            report = system.trainer.train_epoch(0)
            traced[name] = (list(OBS.tracer.spans), OBS.metrics.snapshot())
        finally:
            OBS.disable()
            OBS.reset()
    assert len(forks) == 1

    def keys(spans):
        return sorted((s.name, s.attrs.get("machine"), s.attrs.get("step"))
                      for s in spans if s.name.startswith("stage."))

    (got, got_snap), (want, want_snap) = traced["forked"], traced["inline"]
    assert keys(got) == keys(want)
    for spans, lane, parent in ((got, "coordinator/sampler", "engine.epoch"),
                                (want, "coordinator", "engine.sample_wait")):
        epoch = next(s for s in spans if s.name == "engine.epoch")
        by_id = {s.span_id: s for s in spans}
        samples = [s for s in spans if s.name == "stage.sample"]
        assert sorted((s.attrs["machine"], s.attrs["step"]) for s in samples) \
            == sorted((r.machine, r.step) for r in report.records)
        assert {(s.lane, by_id[s.parent_id].name) for s in samples} == \
            {(lane, parent)}
        assert all(by_id[s.parent_id].start_ns <= s.start_ns <= s.end_ns
                   <= by_id[s.parent_id].end_ns for s in samples)
        assert all(epoch.start_ns <= s.start_ns <= s.end_ns <= epoch.end_ns
                   for s in samples)
    windows = want_snap["engine.sample_wait_s"]["count"]
    assert got_snap["engine.sample_wait_s"]["count"] == windows
    # Only a window obtained at the top of its own window can stall: the
    # first one (every later one is drawn inside the exchange that closes
    # the window before it).
    assert want_snap["engine.pipeline_stalls"]["value"] == 1
    assert got_snap.get("engine.pipeline_stalls", {"value": 0})["value"] <= 1


def test_dry_runs_and_one_core_hosts_never_fork(
        planner, ahead_dataset, cores, forks):
    system = build_system(planner, ahead_dataset, "pipelined-3", "static",
                          streaming=False)
    cores(64)
    system.trainer.train_epoch(0, dry_run=True)
    cores(1)
    system.trainer.train_epoch(1)
    system.trainer.train_epoch(2, dry_run=True)
    assert forks == []
    cores(2)
    system.trainer.train_epoch(3)
    assert len(forks) == 1 and forks[0].pid != os.getpid()


def test_closing_the_backend_reaps_the_child_at_once(
        planner, ahead_dataset, cores, forks):
    """``backend.close()`` — and so ``SalientPP.shutdown`` and ``with`` —
    kills and reaps the sampler process there and then, while the engine
    is still alive: not whenever the cyclic collector reaches it."""
    system = build_system(planner, ahead_dataset, "bsp", "static", False)
    cores(2)
    with system.backend() as backend:
        backend.run_epoch(0)
        assert len(forks) == 1 and not closed(forks[0])
    assert closed(forks[0]) and system.trainer.engine._ahead is None
    with system:
        system.train_epoch(1)
        assert len(forks) == 2 and not closed(forks[1])
    assert closed(forks[1])


@pytest.mark.parametrize("n_cores", [1, 2], ids=["inline", "ahead"])
def test_a_short_sample_stream_raises_on_the_caller(
        planner, ahead_dataset, cores, forks, monkeypatch, n_cores):
    """The sampler-side failure — a stream shorter than the schedule —
    surfaces from ``train_epoch`` on both paths (from the child as a
    ``ChannelError`` carrying its traceback), after the windows before it
    trained; the child that failed is closed."""
    system = build_system(planner, ahead_dataset, "bsp", "static", False)
    tr = system.trainer
    steps = tr.steps_per_epoch()
    monkeypatch.setattr(tr, "steps_per_epoch", lambda: steps + 1)
    cores(n_cores)
    with pytest.raises(RuntimeError, match=(
            rf"machine 0 batch stream ended early \(0/1 batches in "
            rf"window {steps}\)")):
        tr.train_epoch(0)
    assert len(forks) == n_cores - 1 and all(closed(p) for p in forks)
    assert tr.engine._ahead is None


class FaultAt(InProcessCollective):
    """Closes steps like the in-process collective until ``step``, whose
    exchange it breaks the way a worker's breaks: ``collect`` raises as a
    worker's does when the coordinator aborts the epoch — after the loop
    drew the next window inside the exchange — or, with ``kill``, ``post``
    kills the engine's sampler process just before that draw and carries
    on.  ``drawn`` is the sampler cursors ``collect`` saw."""

    class Aborted(Exception):
        pass

    def __init__(self, trainer, step, kill=False):
        super().__init__(trainer.models, all_reduce_gradients)
        self.trainer, self.step, self.kill = trainer, step, kill
        self.drawn = None

    def post(self, step):
        super().post(step)
        if step == self.step and self.kill:
            os.kill(self.trainer.engine._ahead.pid, signal.SIGKILL)

    def collect(self, step):
        if step == self.step and not self.kill:
            self.drawn = [s.rng_state() for s in self.trainer.samplers]
            raise self.Aborted
        super().collect(step)


def checkpoint(tr):
    return ([m.state_dict() for m in tr.models],
            [o.state_dict() for o in tr.optimizers],
            [s.rng_state() for s in tr.samplers])


def restore(tr, saved):
    for k in range(tr.num_machines):
        tr.models[k].load_state_dict(saved[0][k])
        tr.optimizers[k].load_state_dict(saved[1][k])
        tr.samplers[k].set_rng_state(saved[2][k])


def cursors_after(system, epoch, windows):
    """The sampler cursors once ``epoch``'s first ``windows`` windows are
    drawn, from where ``system``'s samplers stand."""
    tr = system.trainer
    machines = list(range(tr.num_machines))
    sched = tr.engine.schedule(tr.steps_per_epoch())
    for _ in tr.engine._sample_windows(epoch, machines,
                                       sched.windows[:windows]):
        pass
    return [s.rng_state() for s in tr.samplers]


@pytest.mark.parametrize("fault", ["abort-inline", "abort", "kill"])
@pytest.mark.parametrize("fault_step", [0, 3])
def test_an_aborted_epoch_closes_its_child_and_replays_bit_identically(
        planner, ahead_dataset, cores, forks, fault_step, fault):
    """An epoch whose exchange breaks at ``fault_step`` — the collective
    aborts it after the next window was drawn inside it, or the sampler
    process is killed just before that draw (a ``ChannelError`` with the
    child's exit code, raised by the draw) — closes the process and leaves
    every sampler cursor where the epoch began, the dropped window
    included; restored and re-run it equals the fault-free epoch."""
    inline = fault == "abort-inline"
    cores(1 if inline else 2)
    clean = build_system(planner, ahead_dataset, "bsp", "static", False)
    clean.trainer.train_epoch(0)
    want = clean.trainer.train_epoch(1)

    system = build_system(planner, ahead_dataset, "bsp", "static", False)
    tr = system.trainer
    tr.train_epoch(0)
    saved = checkpoint(tr)
    assert tr.steps_per_epoch() > fault_step + 3
    collective = FaultAt(tr, fault_step, kill=fault == "kill")
    t0 = time.monotonic()
    with pytest.raises(FaultAt.Aborted if fault != "kill" else ChannelError) \
            as err:
        tr.engine.run_machines(1, range(tr.num_machines), collective)
    assert time.monotonic() - t0 < 5.0
    if fault == "kill":
        assert "exit code -9" in str(err.value)
    assert len(forks) == (0 if inline else 2)
    assert all(closed(p) for p in forks[1:]) and tr.engine._ahead is None
    if inline:
        # The abort reached a loop that had drawn windows 0 .. step + 1 ...
        twin = build_system(planner, ahead_dataset, "bsp", "static", False)
        twin.trainer.train_epoch(0)
        assert collective.drawn == cursors_after(twin, 1, fault_step + 2)
    # ... and the exception put every cursor back: none moved.
    assert [s.rng_state() for s in tr.samplers] == saved[2]

    restore(tr, saved)
    assert epoch_facts(system, tr.train_epoch(1)) == epoch_facts(clean, want)
    assert len(forks) == (0 if inline else 3)
    assert all(not closed(p) for p in forks[2:])
