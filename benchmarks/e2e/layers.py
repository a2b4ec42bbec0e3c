"""Per-layer measurement for the traced run — every layer timed from outside.

A *layer* is one of ``repro``'s modules.  Nothing in the program is edited
and no internal ``OBS`` span name is read: set-up stages are timed by calling
each stage function directly, a training epoch is *replayed* by the benchmark
through the trainer's public seams (one span per call, named after
``pipeline.events.Stage`` where a stage exists), serving rungs are replayed
from their ``ServingReport``, and the streaming layers are called directly on
a copy of the graph with the run's own batches.  The training replay is only
trusted if it reproduces the engine's epoch bit for bit (loss) and row for
row (comm rows); otherwise the traced run fails.
"""

from collections import Counter, defaultdict

import numpy as np

import repro.obs
from spans import timed
from repro.core import RunConfig, SalientPP, make_partition
from repro.distributed import (
    CommLedger,
    FaultPlan,
    FetchPlan,
    GatherArena,
    MultiprocBackend,
    PartitionedFeatureStore,
    RecoveryManager,
    RecoveryPolicy,
    all_reduce_gradients,
    train_batch,
)
from repro.distributed.dynamic_cache import DynamicCacheSpec, is_dynamic_policy
from repro.distributed.multiproc import WORKER_POOL
from repro.distributed.wire import decode_fetch_plan, encode_fetch_plan
from repro.graph.datasets import make_tiny
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.partition import reorder_dataset
from repro.partition.interface import evaluate_partition
from repro.pipeline.simulator import simulate_trace
from repro.serving import InferenceService
from repro.utils.rng import machine_stream_seed
from repro.vip import (
    CacheContext,
    OraclePolicy,
    build_caches,
    cache_budget,
    incremental_vip,
    partitionwise_vip,
    snapshot_vip,
    vip_probabilities,
)

REPLAY_SPANS = ("sample", "plan_gather", "coalesce", "execute", "train",
                "allreduce", "optimizer", "simulate")


# ----------------------------------------------------------------------
# Set-up stages.

def staged_setup(run, ds, cfg):
    """Time each preprocessing stage by calling it directly, the way
    ``Planner._preprocess`` chains them (and ``benchmarks/perf/harness.py``
    times them).  ``cfg`` is the resolved config with the pinned seed."""
    layer, K = run.layer, cfg.num_machines
    layer["partition.partition_s"], part = timed(
        lambda: make_partition(ds, cfg))
    layer["partition.edge_cut_share"] = evaluate_partition(
        ds.graph, part).edge_cut_fraction
    layer["vip.analytic_s"], vip = timed(lambda: partitionwise_vip(
        ds.graph, part, ds.train_idx, cfg.fanouts, cfg.batch_size))
    score = np.zeros(ds.num_vertices)
    for k in range(K):
        mask = part.assignment == k
        score[mask] = vip[k][mask]
    layer["partition.reorder_s"], reordered = timed(
        lambda: reorder_dataset(ds, part, within_part_score=score))
    ctx = CacheContext(reordered.dataset.graph, reordered.partition,
                       reordered.dataset.train_idx, cfg.fanouts,
                       cfg.batch_size, seed=0)
    vip_new = vip[:, reordered.old_of_new]
    policy = OraclePolicy(vip_new)
    layer["vip.cache_select_s"], caches = timed(
        lambda: build_caches(policy, ctx, cfg.replication_factor))
    dynamic = None
    if is_dynamic_policy(cfg.cache_policy):
        dynamic = DynamicCacheSpec(
            policy=cfg.cache_policy,
            capacity=cache_budget(ds.num_vertices, K, cfg.replication_factor),
            refresh_interval=cfg.refresh_interval,
            aging_interval=cfg.cache_aging_interval, warm_scores=vip_new)
    layer["feature_store.build_s"], _store = timed(
        lambda: PartitionedFeatureStore.build(
            reordered, gpu_fraction=cfg.gpu_fraction, caches=caches,
            dynamic=dynamic))
    own = run.rec.self_times()
    layer["graph.load_s"] = own["load_dataset"]
    layer["planner.build_s"] = own["planner.build"]
    # The partition is injected into Planner.build (pinned seed), so the
    # build holds every stage but that one, plus trainer/model wiring.
    layer["planner.self_s"] = own["planner.build"] - sum(
        layer[name] for name in ("vip.analytic_s", "partition.reorder_s",
                                 "vip.cache_select_s",
                                 "feature_store.build_s"))


# ----------------------------------------------------------------------
# One training epoch, replayed through the public seams.

def replay_epoch(run, system, epoch=0):
    """Drive one epoch the way the configured engine does (one batch in
    flight for ``bsp``; ``pipeline_depth`` coalesced batches per window for
    ``pipelined``), one span per call.  Returns ``(mean_loss, row counts,
    ledger)``."""
    tr, store = system.trainer, system.store
    K, steps = tr.num_machines, tr.steps_per_epoch()
    pipelined = system.config.engine == "pipelined"
    depth = system.config.pipeline_depth if pipelined else 1
    streams = [
        tr.samplers[k].batches(
            tr.local_train[k], tr.batch_size, drop_last=True, epoch=epoch,
            seed=machine_stream_seed(tr.seed, "order", k))
        for k in range(K)
    ]
    ledger, arena, rows, losses = CommLedger(K), GatherArena(), Counter(), []
    with run.span("replay_epoch"):
        for w0 in range(0, steps, depth):
            width = min(depth, steps - w0)
            window = []  # [machine][i] -> (mfg, features)
            for k in range(K):
                mfgs = []
                for _ in range(width):
                    with run.span("sample"):
                        mfgs.append(next(streams[k]))
                with run.span("plan_gather"):
                    plans = [store.plan_gather(k, m.n_id) for m in mfgs]
                dtype = store.stores[k].local_features.dtype
                outs = [arena.out((k, i), len(p.ids), store.feature_dim,
                                  dtype) for i, p in enumerate(plans)]
                if pipelined:
                    with run.span("coalesce"):
                        cplan = FetchPlan.coalesce(plans)
                    with run.span("execute"):
                        results = store.execute_coalesced(cplan, outs=outs)
                else:
                    with run.span("execute"):
                        results = [store.execute(plans[0], out=outs[0])]
                for _feats, g in results:
                    rows.update(total=g.total_rows, gpu=g.gpu_rows,
                                cpu=g.cpu_rows, cached=g.cached_rows,
                                remote=g.remote_rows,
                                coalesced=g.coalesced_rows,
                                refresh=g.refresh_fetch_rows)
                window.append([(m, f) for m, (f, _g) in zip(mfgs, results)])
            for i in range(width):
                step_losses = []
                for k in range(K):
                    mfg, feats = window[k][i]
                    with run.span("train"):
                        step_losses.append(train_batch(
                            tr.models[k], feats, mfg,
                            tr.ds.labels[mfg.seeds]))
                with run.span("allreduce"):
                    all_reduce_gradients(tr.models, ledger)
                with run.span("optimizer"):
                    for optimizer in tr.optimizers:
                        optimizer.step()
                losses.extend(step_losses)
    return float(np.mean(losses)), rows, ledger


def replay_layers(run, planner, ds, cfg, part, train_idx=None,
                  obs_overhead=False):
    """Engine epoch 0 on one warm-built sibling system, the replay of the
    same epoch on another; the difference is the engine's own time."""
    layer = run.layer
    layer["planner.warm_build_s"], ref = timed(
        lambda: planner.build(ds, cfg, partition=part))
    rep = planner.build(ds, cfg, partition=part)
    if train_idx is not None:
        ref.update_training_set(train_idx)
        rep.update_training_set(train_idx)
    with run.span("engine_epoch"):
        engine_s, engine = timed(lambda: ref.train_epoch(0))
    spans_before = len(run.rec.spans)
    replay_s, (loss, rows, ledger) = timed(lambda: replay_epoch(run, rep))
    with run.span("simulate"):
        simulate_trace(engine.report.events, ref.cost_model,
                       mode=cfg.pipeline, depth=cfg.pipeline_depth)
    run.check("replay_loss_bit_identical", loss == engine.loss,
              (loss, engine.loss))
    comm_rows = rows["remote"] + rows["refresh"]
    run.check("replay_comm_rows_exact",
              comm_rows == engine.report.total_comm_rows(),
              (comm_rows, engine.report.total_comm_rows()))

    own = run.rec.self_times()
    busy = sum(own[name] for name in REPLAY_SPANS)
    records = engine.report.records
    hits = rows["cached"] + rows["coalesced"]
    layer.update({
        "sampling.sample_s": own["sample"],
        "sampling.mfg_vertices": sum(r.mfg_vertices for r in records),
        "sampling.mfg_edges": sum(r.mfg_edges for r in records),
        "feature_store.plan_s": own["plan_gather"],
        "feature_store.execute_s": own["execute"],
        "feature_store.coalesce_s": own["coalesce"],
        "feature_store.hit_ratio": hits / max(hits + rows["remote"], 1),
        "nn.train_batch_s": own["train"],
        "nn.optimizer_s": own["optimizer"],
        "comm.allreduce_s": own["allreduce"],
        "comm.allreduce_bytes": float(ledger.gradient_bytes.sum()),
        "comm.feature_bytes": engine.report.ledger.total_feature_bytes(),
        "engine.self_s": engine_s - busy,
        "engine.trace_coverage": busy / engine_s,
        "pipeline.simulate_s": own["simulate"],
        "pipeline.events": len(engine.report.events.events),
        "trace.overhead_share": (len(run.rec.spans) - spans_before)
        * run.rec.span_cost_s() / replay_s,
    })
    for key in ("total", "gpu", "cpu", "cached", "remote", "coalesced"):
        layer[f"feature_store.rows_{key}"] = rows[key]
    for key, seconds in engine.timing.breakdown.items():
        layer[f"pipeline.sim_{key}_ms"] = seconds * 1e3
    if obs_overhead:
        layer["obs.enabled_overhead_share"] = obs_overhead_share(ref)


def obs_overhead_share(system, pairs=3):
    """Real epochs with ``repro.obs`` enabled / disabled - 1, alternating so
    drift in the machine cancels."""
    walls = {False: [], True: []}
    for epoch in range(1, 1 + 2 * pairs):
        enabled = epoch % 2 == 0
        if enabled:
            repro.obs.enable()
        try:
            walls[enabled].append(
                timed(lambda: system.train_epoch(epoch))[0])
        finally:
            repro.obs.disable()
            repro.obs.OBS.reset()
    return float(np.median(walls[True]) / np.median(walls[False]) - 1.0)


def epoch_layers(run, epochs, eval_s, acc):
    """What the main run's own epochs report (no replay needed)."""
    layer = run.layer
    layer["engine.first_epoch_s"] = epochs[0].wall
    layer["nn.eval_s"] = eval_s
    layer["nn.test_acc"] = acc
    churn = [c for e in epochs[1:]
             for c in (e.result.report.cache_churn or ())]
    if churn:
        hits = sum(c.hits for c in churn)
        layer.update({
            "dynamic_cache.insertions": sum(c.insertions for c in churn),
            "dynamic_cache.evictions": sum(c.evictions for c in churn),
            "dynamic_cache.refresh_rows": sum(
                c.refresh_fetch_rows for c in churn),
            "dynamic_cache.hit_ratio": hits / max(
                hits + sum(c.misses for c in churn), 1),
        })


# ----------------------------------------------------------------------
# Streaming graph: direct calls on a copy with the run's own batches.

def streaming_layers(run, graph, batches, p0, fanouts):
    """Overlay apply, VIP snapshot, incremental refresh per batch, and the
    full refresh a snapshot-less consumer would pay instead
    (``materialize()`` + ``vip_probabilities``) — the base of the ratio."""
    mgraph = MutableGraph(graph, compact_cutoff=None)
    snapshot_s, snap = timed(lambda: snapshot_vip(mgraph, p0, fanouts))
    apply_s = incremental_s = full_s = 0.0
    rows = edges = 0
    for batch in batches:
        apply_s += timed(lambda: mgraph.apply(batch))[0]
        seconds, snap = timed(
            lambda: incremental_vip(mgraph, snap, churn_cutoff=1.0))
        incremental_s += seconds
        rows += snap.stats.rows_recomputed
        edges += snap.stats.edges_touched
        seconds, full = timed(lambda: vip_probabilities(
            mgraph.materialize(), p0, fanouts))
        full_s += seconds
        run.check("incremental_vip_bit_identical",
                  np.array_equal(snap.result.total, full.total))
    run.layer.update({
        "graph.mutable_apply_s": apply_s, "vip.snapshot_s": snapshot_s,
        "vip.incremental_s": incremental_s, "vip.incremental_rows": rows,
        "vip.incremental_edges": edges, "vip.full_refresh_s": full_s,
    })


# ----------------------------------------------------------------------
# Serving.

def build_service_timing_refresh(planner, ds, cfg, part, sink):
    """``Planner.build_service`` (= build + ``InferenceService.from_system``)
    with the store's public provider seam wrapped first, so the wall the
    service's vip-refresh score provider spends per call lands in ``sink``."""
    system = planner.build(ds, cfg, partition=part)
    install = system.store.set_refresh_score_provider

    def timing_install(provider):
        def timed_provider(machine):
            seconds, scores = timed(lambda: provider(machine))
            sink.append(seconds)
            return scores
        install(timed_provider)

    system.store.set_refresh_score_provider = timing_install
    return InferenceService.from_system(system)


def replay_rung(run, service, rung, report):
    """Re-run a rung's micro-batches — grouped exactly as the report says
    the service grouped them — through sampler, store and model."""
    store = service.store
    new_of_old = store.reordered.new_of_old
    seeds_of = {q.rid: new_of_old[q.seeds] for q in rung.requests}
    windows = defaultdict(lambda: defaultdict(list))
    for rec in report.records:
        if rec.status != "shed":
            windows[(rec.formed, rec.machine, rec.started)][
                rec.completed].append(rec.rid)
    service.model.eval()
    for (_formed, machine, _started), groups in sorted(windows.items()):
        mfgs = []
        for completed in sorted(groups):
            seeds = np.unique(np.concatenate(
                [seeds_of[rid] for rid in groups[completed]]))
            with run.span("serve.sample"):
                mfgs.append(service.samplers[machine].sample(seeds))
        with run.span("serve.gather"):
            plans = [store.plan_gather(machine, m.n_id) for m in mfgs]
            if len(plans) == 1:
                results = [store.execute(plans[0])]
            else:
                results = store.execute_coalesced(FetchPlan.coalesce(plans))
        for mfg, (feats, _stats) in zip(mfgs, results):
            with run.span("serve.forward"):
                service.model(feats, mfg)


def sim_max_rate_rps(rungs, reports, rates, p99_limit_s, backlog_factor):
    """Highest offered rate whose simulated p99 meets the limit without a
    growing backlog (makespan within ``backlog_factor`` x arrival span)."""
    passing = [
        rate for name, rate in rates.items()
        if np.percentile(reports[name].latencies(), 99) <= p99_limit_s
        and reports[name].makespan <= backlog_factor * rungs[name].span_s
    ]
    return max(passing, default=0.0)


def serving_layers(run, planner, ds, cfg, part, rungs, extras, reports,
                   walls, refresh_s, loadgen_s, warm_builds, rates, limits):
    static = list(rates)
    spans_before = len(run.rec.spans)
    replay_s = 0.0
    for name in static:
        service = planner.build_service(ds, cfg, partition=part)
        replay_s += timed(
            lambda: replay_rung(run, service, rungs[name], reports[name]))[0]
    own = run.rec.self_times()
    busy = own["serve.sample"] + own["serve.gather"] + own["serve.forward"]
    run_s = sum(walls[name] for name in static)
    requests = sum(len(rungs[name].requests) for name in static)
    refresh_score_s = sum(refresh_s[name] for name in static)
    ledgers = [r.availability for r in reports.values()]
    total = sum(len(r.requests) for r in rungs.values())
    r2k = reports["r2k"]
    run.layer.update({
        "planner.warm_build_s": float(np.median(warm_builds)),
        "serving.loadgen_s": loadgen_s,
        "serving.run_s": run_s,
        "serving.static_req_per_s": requests / run_s,
        "serving.windows": sum(reports[n].num_windows for n in static),
        "serving.batches": sum(reports[n].num_batches for n in static),
        "serving.mean_batch_requests": requests / sum(
            reports[n].num_batches for n in static),
        "serving.max_queue_wait_ms": r2k.max_queue_wait() * 1e3,
        "serving.sim_throughput_rps": r2k.throughput_rps(),
        "serving.sample_s": own["serve.sample"],
        "serving.gather_s": own["serve.gather"],
        "serving.forward_s": own["serve.forward"],
        "serving.refresh_score_s": refresh_score_s,
        "serving.self_s": run_s - busy - refresh_score_s,
        "serving.refresh_rows": sum(
            reports[n].gather.refresh_rows for n in static),
        "serving.sim_p99_ms_r4k": float(np.percentile(
            reports["r4k"].latencies(), 99)) * 1e3,
        "serving.sim_p99_ms_r8k": float(np.percentile(
            reports["r8k"].latencies(), 99)) * 1e3,
        "serving.sim_max_rate_rps": sim_max_rate_rps(
            rungs, reports, rates, *limits),
        "serving.churn_run_s": walls["churn"],
        "serving.churn_req_per_s": len(rungs["churn"].requests)
        / walls["churn"],
        "serving.churn_refresh_score_s": refresh_s["churn"],
        "serving.retries": sum(a.retries for a in ledgers),
        "serving.degraded": sum(a.degraded for a in ledgers),
        "serving.shed": sum(a.shed for a in ledgers),
        "serving.failed_share": (sum(a.degraded + a.shed for a in ledgers)
                                 + run.failed) / total,
        "trace.overhead_share": (len(run.rec.spans) - spans_before)
        * run.rec.span_cost_s() / replay_s,
    })
    # Streaming layers on the churn rung's own mutation batches (the
    # service translates endpoints to its reordered numbering; so do we),
    # with the rung's first-segment request frequencies as p0.
    new_of_old = service.store.reordered.new_of_old
    batches = [EdgeBatch(add_src=new_of_old[b.add_src],
                         add_dst=new_of_old[b.add_dst])
               for _when, b in extras["churn"]["mutations"]]
    first = rungs["churn"].requests[:len(rungs["churn"].requests) // 4 or 1]
    p0 = np.zeros(ds.num_vertices)
    for q in first:
        p0[new_of_old[q.seeds]] += 1.0 / len(first)
    streaming_layers(run, service.graph, batches, p0, service.fanouts)


# ----------------------------------------------------------------------
# Multiproc backend extras.

def multiproc_layers(run, planner, ds, cfg, part):
    layer = run.layer
    # Warm start: park a started cluster, restart from the pool.
    parked = planner.build(ds, cfg, partition=part)
    parked.backend().keep_warm = True
    try:
        parked.backend().start()
        parked.train_epoch(0, dry_run=True)
    finally:
        parked.shutdown()
    warm = planner.build(ds, cfg, partition=part)
    try:
        layer["multiproc.warm_start_s"] = timed(warm.backend().start)[0]
        run.check("warm_start_reused_pool", warm.backend().reused_pool)
    finally:
        warm.shutdown()
        WORKER_POOL.clear()

    # Wire format: one real FetchPlan through the plan codec.
    store, trainer = warm.store, warm.trainer
    mfg = next(trainer.samplers[0].batches(
        trainer.local_train[0], trainer.batch_size, epoch=0, seed=0))
    plan = store.plan_gather(0, mfg.n_id)
    packs = [timed(lambda: encode_fetch_plan(plan)) for _ in range(50)]
    layer["wire.pack_s"] = float(np.median([s for s, _ in packs]))
    layer["wire.unpack_s"] = float(np.median(
        [timed(lambda: decode_fetch_plan(packs[0][1]))[0]
         for _ in range(50)]))

    # Recovery: one injected kill on a second, tiny cluster (the failure
    # walls do not scale with the dataset); not counted in ok_share.
    def tiny_system():
        return SalientPP.build(
            make_tiny(seed=3, num_vertices=2000),
            RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                      hidden_dim=16, replication_factor=0.05,
                      gpu_fraction=0.5, seed=0))

    oracle = MultiprocBackend(tiny_system(), timeout_s=60.0)
    try:
        want = [[r.loss for r in oracle.run_epoch(e).records]
                for e in range(2)]
        layer["recovery.checkpoint_s"] = timed(
            lambda: oracle.capture_checkpoint(1))[0]
    finally:
        oracle.close()
    backend = MultiprocBackend(
        tiny_system(), timeout_s=60.0, recoverable=True,
        faults=FaultPlan.single("kill", machine=1, epoch=1, step=1))
    manager = RecoveryManager(backend, RecoveryPolicy(
        max_restarts=2, backoff_base_s=0.01, backoff_max_s=0.02, jitter=0.0))
    try:
        reports = manager.train(2)
    finally:
        backend.close()
        WORKER_POOL.clear()
    run.check("recovered_run_bit_identical",
              [[r.loss for r in rep.records] for rep in reports] == want)
    layer["recovery.mttr_s"] = manager.mttr_s()
    layer["recovery.detect_s"] = manager.recoveries[0]["detect_s"]
    layer["recovery.replay_s"] = manager.recoveries[0]["replay_s"]
