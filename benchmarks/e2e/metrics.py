"""The benchmark's declared workloads and metrics — one table, in code.

``BENCHMARK.json`` at the repo root carries the same names (the smoke test
asserts the two agree); this module adds what that file's fixed schema has
no room for: which layer a per-layer metric measures, which end-to-end
metric it should move, and on which workloads it is measured (it reads 0 on
the others — the layer does nothing there, which is the prediction).
"""

S, D, L, M = "train_static", "train_drift", "serve_ladder", "train_multiproc"
TRAINING = (S, D, M)
ALL = (S, D, L, M)

WORKLOADS = {
    S: "paper's main config (papers-mini, K=8, multilevel partition, static "
       "VIP cache, bsp): set-up is partition-bound, steady state is sampling "
       "+ cache reads + nn",
    D: "continual training (mag240c-mini wide rows, K=4, vip-refresh, "
       "pipelined depth 10, graph + training-set drift): cache writes, "
       "coalescing, incremental VIP",
    L: "open-loop serving on the simulated clock (papers-mini, K=4, deadline "
       "batcher): 2k/4k/8k rps static rungs, an outage rung, a graph-churn "
       "rung",
    M: "products-mini on K=2 real worker processes (shared memory, wire "
       "format): the only path through multiproc.py, wire.py, shm_plane.py",
}

#: (name, unit, better, bound, definition).  An *operation* is one real
#: training epoch (training workloads) or one request (serve_ladder).
END_TO_END = [
    ("setup_s", "s", "lower", 0.25,
     "median cold set-up at nominal machine speed: dataset load + partition "
     "+ Planner build (+ worker spawn / service build) up to the first timed "
     "call"),
    ("op_wall_ms", "ms", "lower", 0.25,
     "host wall per operation at nominal machine speed (workloads.nominal): "
     "median real train_epoch after warm-up; serving: InferenceService.run "
     "wall / requests over r2k+r4k+r8k"),
    ("comm_rows_per_op", "rows", "lower", 0.08,
     "feature rows moved over the (simulated) network per operation: mean "
     "EpochReport.total_comm_rows(); serving: comm rows / requests over "
     "the static rungs"),
    ("sim_op_ms", "ms", "lower", 0.08,
     "simulated-clock time of a typical operation: mean EpochResult."
     "epoch_time; serving: p50 request latency on r2k"),
    ("sim_tail_ms", "ms", "lower", 0.08,
     "simulated-clock tail: slowest epoch; serving: p99 request latency on "
     "r2k (20 samples beyond it)"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "ru_maxrss of the workload process after the timed work and evaluate "
     "(train_multiproc: before evaluate, the coordinator's only big and "
     "unsteady allocation)"),
    ("ok_share", "fraction", "higher", 0.03,
     "operations completed in full / attempted: epochs that ran and passed "
     "every check; requests answered undegraded over all five rungs (the "
     "outage rung sheds and degrades by design)"),
]

#: (name, unit, better, end-to-end metric it should move, workloads).
PER_LAYER = [
    # -- set-up, by direct calls to each stage function -----------------
    ("graph.load_s", "s", "lower", "setup_s", ALL),
    ("partition.partition_s", "s", "lower", "setup_s", ALL),
    ("partition.edge_cut_share", "fraction", "lower", "comm_rows_per_op", ALL),
    ("partition.reorder_s", "s", "lower", "setup_s", ALL),
    ("vip.analytic_s", "s", "lower", "setup_s", ALL),
    ("vip.cache_select_s", "s", "lower", "setup_s", ALL),
    ("feature_store.build_s", "s", "lower", "setup_s", ALL),
    ("planner.build_s", "s", "lower", "setup_s", ALL),
    ("planner.self_s", "s", "lower", "setup_s", ALL),
    ("planner.warm_build_s", "s", "lower", "setup_s", ALL),
    ("engine.first_epoch_s", "s", "lower", "setup_s", TRAINING),
    # -- one training epoch, replayed through the public seams ----------
    ("sampling.sample_s", "s", "lower", "op_wall_ms", TRAINING),
    ("sampling.mfg_vertices", "count", "lower", "op_wall_ms", TRAINING),
    ("sampling.mfg_edges", "count", "lower", "op_wall_ms", TRAINING),
    ("feature_store.plan_s", "s", "lower", "op_wall_ms", TRAINING),
    ("feature_store.execute_s", "s", "lower", "op_wall_ms", TRAINING),
    ("feature_store.coalesce_s", "s", "lower", "op_wall_ms", TRAINING),
    ("feature_store.rows_total", "rows", "lower", "op_wall_ms", TRAINING),
    ("feature_store.rows_gpu", "rows", "higher", "op_wall_ms", TRAINING),
    ("feature_store.rows_cpu", "rows", "lower", "op_wall_ms", TRAINING),
    ("feature_store.rows_cached", "rows", "higher", "comm_rows_per_op",
     TRAINING),
    ("feature_store.rows_remote", "rows", "lower", "comm_rows_per_op",
     TRAINING),
    ("feature_store.rows_coalesced", "rows", "higher", "comm_rows_per_op",
     TRAINING),
    ("feature_store.hit_ratio", "fraction", "higher", "comm_rows_per_op",
     TRAINING),
    ("dynamic_cache.insertions", "count", "lower", "comm_rows_per_op", (D,)),
    ("dynamic_cache.evictions", "count", "lower", "comm_rows_per_op", (D,)),
    ("dynamic_cache.refresh_rows", "rows", "lower", "comm_rows_per_op", (D,)),
    ("dynamic_cache.hit_ratio", "fraction", "higher", "comm_rows_per_op",
     (D,)),
    ("nn.train_batch_s", "s", "lower", "op_wall_ms", TRAINING),
    ("nn.optimizer_s", "s", "lower", "op_wall_ms", TRAINING),
    ("nn.eval_s", "s", "lower", "op_wall_ms", TRAINING),
    ("nn.test_acc", "fraction", "higher", "ok_share", TRAINING),
    ("comm.allreduce_s", "s", "lower", "op_wall_ms", TRAINING),
    ("comm.allreduce_bytes", "bytes", "lower", "sim_op_ms", TRAINING),
    ("comm.feature_bytes", "bytes", "lower", "comm_rows_per_op", TRAINING),
    ("engine.self_s", "s", "lower", "op_wall_ms", TRAINING),
    ("engine.trace_coverage", "fraction", "higher", "op_wall_ms", TRAINING),
    ("pipeline.simulate_s", "s", "lower", "op_wall_ms", TRAINING),
    ("pipeline.events", "count", "lower", "op_wall_ms", TRAINING),
    ("pipeline.sim_train_ms", "ms", "lower", "sim_op_ms", TRAINING),
    ("pipeline.sim_train_sync_ms", "ms", "lower", "sim_op_ms", TRAINING),
    ("pipeline.sim_startup_ms", "ms", "lower", "sim_op_ms", TRAINING),
    ("pipeline.sim_batch_prep_comp_ms", "ms", "lower", "sim_op_ms", TRAINING),
    ("pipeline.sim_batch_prep_comm_ms", "ms", "lower", "sim_op_ms", TRAINING),
    ("pipeline.sim_overlap_residual_ms", "ms", "lower", "sim_op_ms",
     TRAINING),
    # -- streaming graph, in the run and by direct calls on a copy ------
    ("streaming.graph_update_ms", "ms", "lower", "op_wall_ms", (D,)),
    ("streaming.first_update_ms", "ms", "lower", "op_wall_ms", (D,)),
    ("graph.mutable_apply_s", "s", "lower", "op_wall_ms", (D, L)),
    ("vip.snapshot_s", "s", "lower", "op_wall_ms", (D, L)),
    ("vip.incremental_s", "s", "lower", "op_wall_ms", (D, L)),
    ("vip.incremental_rows", "rows", "lower", "op_wall_ms", (D, L)),
    ("vip.incremental_edges", "count", "lower", "op_wall_ms", (D, L)),
    ("vip.full_refresh_s", "s", "lower", "op_wall_ms", (D, L)),
    # -- serving: ServingReport + a replay of the static rungs' batches --
    ("serving.loadgen_s", "s", "lower", "setup_s", (L,)),
    ("serving.run_s", "s", "lower", "op_wall_ms", (L,)),
    ("serving.static_req_per_s", "req/s", "higher", "op_wall_ms", (L,)),
    ("serving.windows", "count", "lower", "op_wall_ms", (L,)),
    ("serving.batches", "count", "lower", "op_wall_ms", (L,)),
    ("serving.mean_batch_requests", "req", "higher", "sim_tail_ms", (L,)),
    ("serving.max_queue_wait_ms", "ms", "lower", "sim_tail_ms", (L,)),
    ("serving.sim_throughput_rps", "rps", "higher", "sim_op_ms", (L,)),
    ("serving.sample_s", "s", "lower", "op_wall_ms", (L,)),
    ("serving.gather_s", "s", "lower", "op_wall_ms", (L,)),
    ("serving.forward_s", "s", "lower", "op_wall_ms", (L,)),
    ("serving.refresh_score_s", "s", "lower", "op_wall_ms", (L,)),
    ("serving.self_s", "s", "lower", "op_wall_ms", (L,)),
    ("serving.refresh_rows", "rows", "lower", "comm_rows_per_op", (L,)),
    ("serving.sim_p99_ms_r4k", "ms", "lower", "sim_tail_ms", (L,)),
    ("serving.sim_p99_ms_r8k", "ms", "lower", "sim_tail_ms", (L,)),
    ("serving.sim_max_rate_rps", "rps", "higher", "sim_tail_ms", (L,)),
    ("serving.churn_run_s", "s", "lower", "op_wall_ms", (L,)),
    ("serving.churn_req_per_s", "req/s", "higher", "op_wall_ms", (L,)),
    ("serving.churn_refresh_score_s", "s", "lower", "op_wall_ms", (L,)),
    ("serving.retries", "count", "lower", "ok_share", (L,)),
    ("serving.degraded", "count", "lower", "ok_share", (L,)),
    ("serving.shed", "count", "lower", "ok_share", (L,)),
    ("serving.failed_share", "fraction", "lower", "ok_share", (L,)),
    # -- multiproc backend ----------------------------------------------
    ("multiproc.spawn_s", "s", "lower", "setup_s", (M,)),
    ("multiproc.warm_start_s", "s", "lower", "setup_s", (M,)),
    ("multiproc.shutdown_s", "s", "lower", "setup_s", (M,)),
    ("multiproc.inprocess_epoch_s", "s", "lower", "op_wall_ms", (M,)),
    ("multiproc.speedup_vs_inprocess", "x", "higher", "op_wall_ms", (M,)),
    ("multiproc.worker_peak_rss_mb", "MB", "lower", "peak_rss_mb", (M,)),
    ("wire.sent_bytes_per_epoch", "bytes", "lower", "op_wall_ms", (M,)),
    ("wire.received_bytes_per_epoch", "bytes", "lower", "op_wall_ms", (M,)),
    ("wire.msgs_per_step", "count", "lower", "op_wall_ms", (M,)),
    ("wire.pack_s", "s", "lower", "op_wall_ms", (M,)),
    ("wire.unpack_s", "s", "lower", "op_wall_ms", (M,)),
    ("recovery.checkpoint_s", "s", "lower", "op_wall_ms", (M,)),
    ("recovery.mttr_s", "s", "lower", "op_wall_ms", (M,)),
    ("recovery.detect_s", "s", "lower", "op_wall_ms", (M,)),
    ("recovery.replay_s", "s", "lower", "op_wall_ms", (M,)),
    # -- cost of measuring ----------------------------------------------
    ("machine.ref_kernel_ms", "ms", "lower", "op_wall_ms", ALL),
    ("trace.overhead_share", "fraction", "lower", "op_wall_ms", ALL),
    ("obs.enabled_overhead_share", "fraction", "lower", "op_wall_ms", (S,)),
]

E2E_UNITS = {name: unit for name, unit, *_ in END_TO_END}
LAYER_UNITS = {name: unit for name, unit, *_ in PER_LAYER}


def layer_names(workload):
    """Per-layer metrics measured on ``workload`` (the rest read 0)."""
    return {name for name, _u, _b, _m, where in PER_LAYER if workload in where}


def benchmark_json(command, paths, run_seconds):
    """The ``BENCHMARK.json`` document this table describes."""
    return {
        "command": command,
        "paths": paths,
        "run_seconds": run_seconds,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _doc in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _moves, _where in PER_LAYER],
    }
