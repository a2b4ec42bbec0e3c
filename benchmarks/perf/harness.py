"""Perf-regression harness: times the system's hot paths, writes BENCH_PERF.json.

Every tracked stage measures *wall time of real work* on the standard
synthetic datasets — no simulated clocks — and reports::

    stage -> {"wall_s": ..., "rows_per_s": ..., "speedup_vs_dense": ...}

``speedup_vs_dense`` compares against the seed (dense / allocating)
implementation where one is kept: Proposition-1 VIP against
``partitionwise_vip_dense`` and the serving vip-refresh recomputation
against ``vip_probabilities_dense`` (both from the frozen oracle
``tests/vip/reference_dense.py`` — ``src/`` holds one evaluation only),
arena-backed ``execute(out=)`` against the allocating ``execute``, the
rewritten ``FetchPlan.coalesce`` against the seed's searchsorted-per-plan
bookkeeping, the model step against the same step on the frozen
pre-SpMM autograd engine (``tests/nn/reference_autograd.py``), and the
sampler against the frozen full-argsort ``sample_neighbors``
(``tests/sampling/reference_neighbor.py``).  ``null``
where no dense counterpart exists.

Tracked stages
--------------
``preprocess.load_dataset``
    Cold ``load_dataset("papers-mini")``: graph generation, two
    ``CSRGraph.from_edges`` builds (one deduplicating), features, splits.
``preprocess.partition / vip / reorder / cache_select / store_build``
    The §4.1–4.2 preprocessing pipeline on papers-mini, 8 partitions.
    ``preprocess.vip`` is the headline: active-set Proposition 1 with the
    shared transition cache versus the dense per-partition recursions;
    ``max_abs_diff`` between the two (summation order only: production
    sums left to right, the oracle pairwise) is checked before timing is
    reported.
``train.epoch_<engine>``
    One dry-run functional epoch per execution engine (sampling + gather +
    event emission; no model math), rows/s = gathered feature rows.
``train.epoch_bsp_multiproc``
    One *real* (weight-updating) bsp epoch through the multiproc cluster
    backend — 8 worker processes over shared-memory feature segments and
    wire-format plans — against the identical real epoch in-process on one
    core (``dense_wall_s``: one process sampling inline, the reference the
    speedup floor was set against), asserted loss-identical before timing
    is reported.
    Extra keys carry the one-time spawn/handshake wall time.
``serving.latency``
    An open-loop Poisson serving run (deadline batcher, static VIP cache),
    the request list generated before the timer starts; extra keys carry
    the simulated p50/p99 for context.
``serving.cache_refresh``
    Wall time the vip-refresh score provider (request-VIP through
    Proposition 1) spends recomputing during a drifting serving run — the
    CACHE_REFRESH stage cost — with the dense-recursion equivalent timed on
    the same observed traffic for the speedup, and their ``max_abs_diff``.
``vip.incremental_refresh``
    Streaming-graph VIP maintenance: per churn window (100-edge batches in
    communities away from the seed distribution, ~0.007% of the edge set),
    ``incremental_vip`` against the full consumer path — CSR rebuild via
    ``materialize()`` plus ``vip_probabilities`` (the production full
    evaluation) — asserted bit-identical each window before the median
    walls are reported.  ``dense_wall_s`` includes the rebuild because
    that is what a snapshot-less consumer pays to evaluate on the mutated
    graph.
``vip.boundary_refresh``
    A phase boundary's refresh round on mag240c-mini (K = 4, a churn batch
    plus a training-set swap, the ``train_drift`` shape): one
    ``VIPTracker`` round, one batched ``(N, K)`` evaluation on the
    overlay's ``materialize()``, against K single ``vip_probabilities``
    calls on it (``dense_wall_s``); the K score vectors are asserted ``==``
    before the walls are reported.
``recovery.mttr``
    Mean time-to-recovery for the standard chaos scenario: a worker killed
    mid-epoch on a real recoverable multiproc cluster, detected by the
    coordinator, respawned, restored from the epoch-boundary checkpoint,
    and the interrupted epoch replayed — asserted bit-identical to a
    fault-free oracle before the detect/backoff/respawn/replay walls are
    reported.
``nn.train_batch``
    The model step: ``train_batch`` (forward, loss, backward of the 3-layer
    GraphSAGE) over machine 0's 15 minibatches of epoch 0, against the
    same step on the frozen pre-SpMM engine (``dense_wall_s``:
    ``tests/nn/reference_step.py`` on ``tests/nn/reference_autograd.py`` —
    ``gather_rows`` -> ``np.add.reduceat`` forward, ``np.repeat`` ->
    ``np.add.at`` backward) from the same MFGs, feature rows and weights.
    Both sides are timed in alternating rounds and their losses held to the
    float32 re-association bound before the walls are reported.
``sampling.sample``
    Every machine's epoch-0 minibatch draws (papers-mini, K = 8, fanouts
    (5, 4, 3), batch 64), machine by machine: ``NeighborSampler`` on the
    threshold-then-argsort ``sample_neighbors`` against the same samplers,
    rewound to the same cursors, on the frozen full-argsort one
    (``tests/sampling/reference_neighbor.py``).  Alternating rounds, best of
    5; a SHA-256 over every MFG array and every final cursor is asserted
    equal before the walls are reported.  rows/s = sampled edges;
    ``candidate_edges`` is what the reference argsorts.
``gather.into``
    Arena-backed ``execute(plan, out=)`` against the allocating
    ``execute(plan)`` on identical id streams.
``coalesce.depth16``
    ``FetchPlan.coalesce`` at depth 16 (the satellite's depth ≥ 10 regime)
    against the seed bookkeeping.

Run ``python benchmarks/perf/run.py`` (see ``--help``) to produce
``BENCH_PERF.json`` at the repo root; the CI ``perf-smoke`` job uploads it
and fails on > 2x wall-time regression of any stage versus
``benchmarks/perf/baselines.json``.
"""

import os
import sys
import time

import numpy as np

from repro.core import Planner, RunConfig, ServingConfig
from repro.distributed import FetchPlan, GatherArena
from repro.graph import load_dataset
from repro.serving import InferenceService, poisson_requests
from repro.vip import partitionwise_vip, vip_probabilities

# The dense baselines are the frozen test oracles, not src/ functions.
for _oracles in ("vip", "nn", "sampling"):
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                    os.pardir, os.pardir, "tests", _oracles))
from reference_dense import (  # noqa: E402
    partitionwise_vip_dense,
    vip_probabilities_dense,
)
from reference_neighbor import (  # noqa: E402
    sample_neighbors as reference_sample_neighbors,
)
from reference_step import reference_train_batch  # noqa: E402

DATASET = "papers-mini"
K = 8
SERVE_K = 4
SERVE_ALPHA = 0.05
SERVE_REFRESH_INTERVAL = 8


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _best_of(fn, repeats=3):
    best, out = _timed(fn)
    for _ in range(repeats - 1):
        t, out = _timed(fn)
        best = min(best, t)
    return best, out


def _entry(wall_s, rows=None, dense_wall_s=None, **extra):
    entry = {
        "wall_s": round(wall_s, 6),
        "rows_per_s": None if rows is None else round(rows / max(wall_s, 1e-12), 2),
        "speedup_vs_dense": (None if dense_wall_s is None
                             else round(dense_wall_s / max(wall_s, 1e-12), 3)),
    }
    if dense_wall_s is not None:
        entry["dense_wall_s"] = round(dense_wall_s, 6)
    entry.update(extra)
    return entry


#: How far production Proposition 1 may sit from the frozen dense oracle
#: before a timing is not trusted.  The two sum each row of equation (3) in
#: different orders (left to right vs numpy's pairwise ``reduceat``), which
#: moves values in their last ulps: ~1e-15 measured on papers-mini.  The
#: tests hold the per-hop bound (``tests/vip/vip_cases.oracle_slack``).
ORACLE_TOLERANCE = 1e-12


def _oracle_diff(got: np.ndarray, oracle: np.ndarray) -> float:
    """``max |got - oracle|``, raising past :data:`ORACLE_TOLERANCE`."""
    diff = float(np.max(np.abs(got - oracle), initial=0.0))
    if not diff <= ORACLE_TOLERANCE:
        raise AssertionError(
            f"Proposition 1 diverged from the dense oracle by {diff:.3g}, "
            f"more than summation order explains ({ORACLE_TOLERANCE:g})")
    return diff


# ----------------------------------------------------------------------
def preprocessing_stages(stages: dict, *, dataset=None) -> None:
    """partition -> vip (vs dense, within summation order) -> reorder ->
    cache-select -> store build, on papers-mini with 8 partitions."""
    from repro.core import make_partition
    from repro.distributed import PartitionedFeatureStore
    from repro.partition import reorder_dataset
    from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches

    ds = dataset if dataset is not None else load_dataset(DATASET)
    cfg = RunConfig(num_machines=K).resolve(ds)
    n = ds.num_vertices

    wall, part = _timed(lambda: make_partition(ds, cfg))
    stages["preprocess.partition"] = _entry(wall, rows=n)

    # Best of two runs on both sides: the second active run measures the
    # steady state every real consumer sees (the K partition rows — and any
    # later refresh — share one warm TransitionTable per graph).
    dense_wall, vip_dense = _best_of(lambda: partitionwise_vip_dense(
        ds.graph, part, ds.train_idx, cfg.fanouts, cfg.batch_size), repeats=2)
    wall, vip = _best_of(lambda: partitionwise_vip(
        ds.graph, part, ds.train_idx, cfg.fanouts, cfg.batch_size), repeats=2)
    stages["preprocess.vip"] = _entry(
        wall, rows=K * n, dense_wall_s=dense_wall,
        max_abs_diff=_oracle_diff(vip, vip_dense))

    score = np.zeros(n)
    for k in range(K):
        mask = part.assignment == k
        score[mask] = vip[k][mask]
    wall, reordered = _timed(
        lambda: reorder_dataset(ds, part, within_part_score=score))
    stages["preprocess.reorder"] = _entry(wall, rows=n)

    ctx = CacheContext(reordered.dataset.graph, reordered.partition,
                       reordered.dataset.train_idx, cfg.fanouts,
                       cfg.batch_size, seed=0)
    wall, caches = _timed(
        lambda: build_caches(VIPAnalyticPolicy(), ctx, alpha=0.1))
    stages["preprocess.cache_select"] = _entry(
        wall, rows=sum(len(c) for c in caches))

    wall, _store = _timed(lambda: PartitionedFeatureStore.build(
        reordered, gpu_fraction=0.5, caches=caches))
    stages["preprocess.store_build"] = _entry(wall, rows=n)
    return reordered


# ----------------------------------------------------------------------
def engine_stages(stages: dict, *, engines=("bsp", "pipelined", "async"),
                  dataset=None) -> None:
    """One dry-run epoch per engine: sampling + (coalesced) gathers +
    events, priced by gathered rows per wall second."""
    ds = dataset if dataset is not None else load_dataset(DATASET)
    planner = Planner()
    for engine in engines:
        cfg = RunConfig(num_machines=K, replication_factor=0.1,
                        cache_policy="vip", engine=engine,
                        pipeline_depth=6, staleness=2, seed=0)
        system = planner.build(ds, cfg)
        wall, result = _timed(
            lambda system=system: system.train_epoch(0, dry_run=True))
        rows = sum(r.gather.total_rows for r in result.report.records)
        stages[f"train.epoch_{engine}"] = _entry(wall, rows=rows)


# ----------------------------------------------------------------------
def multiproc_stages(stages: dict, *, dataset=None) -> None:
    """Real bsp epochs on the multiproc backend vs the same epochs
    in-process.  Two epochs per side: the first multiproc epoch pays the
    workers' page-table first-touch of the shared segments, the second is
    the steady state every multi-epoch run sees; spawn/handshake cost is
    reported separately.  The cluster is then parked in the warm pool and
    a fresh identically-configured backend restarts from it, measuring the
    amortized (warm) start.  ``cores`` records the CPU budget the run
    actually had — baseline checks that assert real parallelism beats the
    simulator only apply when at least ``requires_cores`` were available
    (8 workers time-slicing one core can eliminate overhead, not compute).
    """
    import dataclasses
    import os

    from repro.distributed.multiproc import WORKER_POOL

    ds = dataset if dataset is not None else load_dataset(DATASET)
    planner = Planner()
    cfg = RunConfig(num_machines=K, replication_factor=0.1,
                    cache_policy="vip", engine="bsp", seed=0)
    ref = planner.build(ds, cfg)
    # The reference is one process on one core, as the in-process epoch
    # was when the speedup floor was set: on a spare core the engine would
    # sample in a second process, and the floor asserts what K workers'
    # parallelism buys over one process, not over two.
    affinity = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(affinity)})
    try:
        dense_wall, ref_result = _timed(lambda: ref.train_epoch(0))
        dense_wall2, ref_result2 = _timed(lambda: ref.train_epoch(1))
    finally:
        os.sched_setaffinity(0, affinity)

    mp_cfg = dataclasses.replace(cfg, backend="multiproc")
    mp = planner.build(ds, mp_cfg)
    backend = mp.backend()
    backend.keep_warm = True
    spawn_wall, _ = _timed(backend.start)
    try:
        wall, result = _timed(lambda: mp.train_epoch(0))
        wall2, result2 = _timed(lambda: mp.train_epoch(1))
    finally:
        mp.shutdown()  # parks the workers (keep_warm)

    warm = planner.build(ds, mp_cfg)
    warm_backend = warm.backend()
    try:
        warm_start_wall, _ = _timed(warm_backend.start)
        reused = warm_backend.reused_pool
        warm_wall, warm_result = _timed(lambda: warm.train_epoch(0))
    finally:
        warm.shutdown()
        WORKER_POOL.clear()

    for got, want, what in (
        (result.report.mean_loss, ref_result.report.mean_loss, "epoch 0"),
        (result2.report.mean_loss, ref_result2.report.mean_loss, "epoch 1"),
        (warm_result.report.mean_loss, ref_result.report.mean_loss,
         "warm-restart epoch 0"),
    ):
        if got != want:
            raise AssertionError(
                f"multiproc real {what} diverged from the in-process oracle"
            )
    if not reused:
        raise AssertionError("warm restart did not reuse the parked workers")

    rows = sum(r.gather.total_rows for r in result2.report.records)
    # Wire accounting comes from the second (parked) backend's cumulative
    # tables: control tokens only, so bytes stay tiny relative to rows.
    wire_sent_bytes = sum(b for _n, b in backend.wire_sent.values())
    wire_received_bytes = sum(b for _n, b in backend.wire_received.values())
    stages["train.epoch_bsp_multiproc"] = _entry(
        wall2, rows=rows, dense_wall_s=dense_wall2,
        first_epoch_wall_s=round(wall, 6),
        spawn_wall_s=round(spawn_wall, 6),
        warm_start_wall_s=round(warm_start_wall, 6),
        warm_epoch_wall_s=round(warm_wall, 6),
        cores=len(os.sched_getaffinity(0)),
        workers=K,
        wire_sent_bytes=wire_sent_bytes,
        wire_received_bytes=wire_received_bytes,
        warm_pool_hit=bool(reused),
        warm_pool_miss=bool(not reused),
        mean_loss=round(result.report.mean_loss, 6), bit_identical=True)


# ----------------------------------------------------------------------
def recovery_stages(stages: dict, *, epochs=2) -> None:
    """Mean time-to-recovery for a standard mid-epoch kill.

    A small recoverable cluster (the failure walls — detection, respawn,
    checkpoint restore — do not scale with the dataset, so this stage uses
    the tiny graph to keep the chaos scenario cheap) trains under a
    ``FaultPlan`` that kills one worker mid-epoch; ``RecoveryManager``
    detects, backs off (zero jitter, so the stage is deterministic),
    respawns, restores the epoch-boundary checkpoint, and replays.  The
    recovered losses are asserted bit-identical to a fault-free oracle
    before any wall is reported; ``wall_s`` is ``mttr_s()`` — the
    detect + backoff + recover + replay total.
    """
    from repro.core import SalientPP
    from repro.distributed import (
        FaultPlan,
        MultiprocBackend,
        RecoveryManager,
        RecoveryPolicy,
    )
    from repro.distributed.multiproc import WORKER_POOL
    from repro.graph.datasets import make_tiny

    def build_system():
        ds = make_tiny(seed=3, num_vertices=2000)
        cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                        hidden_dim=16, replication_factor=0.05,
                        gpu_fraction=0.5, seed=0)
        return SalientPP.build(ds, cfg)

    def losses(reports):
        return [[rec.loss for rec in rep.records] for rep in reports]

    oracle_backend = MultiprocBackend(build_system(), timeout_s=60.0)
    try:
        oracle = losses([oracle_backend.run_epoch(e) for e in range(epochs)])
    finally:
        oracle_backend.close()

    backend = MultiprocBackend(
        build_system(), timeout_s=60.0, recoverable=True,
        faults=FaultPlan.single("kill", machine=1, epoch=1, step=1))
    manager = RecoveryManager(backend, RecoveryPolicy(
        max_restarts=2, backoff_base_s=0.01, backoff_max_s=0.02, jitter=0.0))
    try:
        wall, reports = _timed(lambda: manager.train(epochs))
    finally:
        backend.close()
        WORKER_POOL.clear()
    if losses(reports) != oracle:
        raise AssertionError(
            "recovered run diverged from the fault-free oracle"
        )
    rec = manager.recoveries[0]
    stages["recovery.mttr"] = _entry(
        manager.mttr_s(),
        detect_s=round(rec["detect_s"], 6),
        backoff_s=round(rec["backoff_s"], 6),
        recover_s=round(rec["recover_s"], 6),
        replay_s=round(rec["replay_s"], 6),
        restarts=manager.restarts,
        train_wall_s=round(wall, 6),
        workers=2, fault="kill@epoch1:step1", bit_identical=True)


# ----------------------------------------------------------------------
def _serving_config(cache_policy: str) -> RunConfig:
    return RunConfig(
        num_machines=SERVE_K, partitioner="random", fanouts=(5, 4, 3),
        batch_size=32, replication_factor=SERVE_ALPHA,
        cache_policy=cache_policy, refresh_interval=SERVE_REFRESH_INTERVAL,
        cache_aging_interval=16, network_gbps=0.5, seed=0,
        serving=ServingConfig(batcher="deadline", max_batch=8,
                              max_wait_ms=15.0, max_in_flight=4),
    )


def _serving_requests(ds, num_requests):
    return poisson_requests(
        np.arange(ds.num_vertices), num_requests, 8, rate_rps=8_000.0,
        hot_fraction=0.001, hot_mass=0.95,
        drift_interval=max(num_requests // 4, 1), seed=11,
    )


def serving_stages(stages: dict, *, num_requests=1_200, dataset=None) -> None:
    """An open-loop serving run (latency stage), then an instrumented
    vip-refresh run isolating the CACHE_REFRESH recomputation cost."""
    ds = dataset if dataset is not None else load_dataset(DATASET)
    planner = Planner()

    # -- serving.latency: static VIP cache, no refresh machinery. -------
    # The request list exists before the timer starts: poisson_requests is
    # several times the cost of serving what it generates.
    requests = _serving_requests(ds, num_requests)
    service = planner.build_service(ds, _serving_config("vip"))
    wall, report = _timed(lambda: service.run(requests))
    summary = report.summary()
    stages["serving.latency"] = _entry(
        wall, rows=report.gather.total_rows,
        p50_ms=round(summary["p50_ms"], 3), p99_ms=round(summary["p99_ms"], 3),
        comm_rows=int(report.gather.comm_rows()),
    )

    # -- serving.cache_refresh: time the refresh-score provider. --------
    # The store's public provider seam is wrapped before the service
    # installs its provider (the way benchmarks/e2e/layers.py times it),
    # and the service tracker's ``access`` is wrapped to keep the p0 it was
    # last asked about for the dense counterpart below.
    system = planner.build(ds, _serving_config("vip-refresh"))
    install = system.store.set_refresh_score_provider
    refresh_walls = []

    def timing_install(provider):
        def timed_provider(machine: int) -> np.ndarray:
            t0 = time.perf_counter()
            scores = provider(machine)
            refresh_walls.append(time.perf_counter() - t0)
            return scores
        install(timed_provider)

    system.store.set_refresh_score_provider = timing_install
    service = InferenceService.from_system(system)
    asked = []
    access = service.tracker.access

    def recording_access(p0s):
        asked.extend(p0s.values())
        return access(p0s)

    service.tracker.access = recording_access
    service.run(requests)
    if not refresh_walls:
        raise AssertionError("no vip-refresh recomputation was triggered")

    # Dense counterpart on the same observed traffic: the seed recursion
    # on the last request p0 the service actually scored.
    graph = service.graph
    p0 = asked[-1]
    active_wall, res_a = _best_of(
        lambda: vip_probabilities(graph, p0, service.fanouts))
    dense_wall, res_d = _best_of(
        lambda: vip_probabilities_dense(graph, p0, service.fanouts))
    max_abs_diff = _oracle_diff(res_a.access, res_d.access)
    total_wall = sum(refresh_walls)
    # The speedup is measured per call on the same observed p0 (active vs
    # seed recursion); the reported dense wall scales the run's actual
    # refresh time by that per-call ratio.
    stages["serving.cache_refresh"] = _entry(
        total_wall, rows=len(refresh_walls) * graph.num_vertices,
        dense_wall_s=total_wall * dense_wall / max(active_wall, 1e-12),
        refresh_calls=len(refresh_walls),
        per_call_wall_s=round(total_wall / len(refresh_walls), 6),
        per_call_dense_wall_s=round(dense_wall, 6),
        max_abs_diff=max_abs_diff,
    )


# ----------------------------------------------------------------------
def streaming_stages(stages: dict, *, dataset=None, num_windows=5,
                     batch_edges=100) -> None:
    """Incremental VIP refresh under streaming churn vs the full consumer
    path (CSR rebuild + dense Proposition-1 sweep), bit-identical each
    window.

    The scenario is the continual-training shape: the seed distribution is
    one partition's train set (the largest community), churn arrives in
    *other* communities — the common case where most mutations land far
    from any given consumer's hot region and the dirty-frontier wave stays
    small.
    """
    from repro.graph.generators import edge_stream
    from repro.graph.mutable import MutableGraph
    from repro.vip import incremental_vip, snapshot_vip
    from repro.vip.analytic import uniform_minibatch_probability

    ds = dataset if dataset is not None else load_dataset(DATASET)
    graph = ds.graph
    n = graph.num_vertices
    big = int(np.argmax(np.bincount(ds.community)))
    train = np.intersect1d(ds.train_idx, np.flatnonzero(ds.community == big))
    p0 = uniform_minibatch_probability(n, train, 1024)
    fanouts = (15, 10, 5)
    remote = np.flatnonzero(ds.community != big)

    mgraph = MutableGraph(graph, compact_cutoff=None)
    snap = snapshot_vip(mgraph, p0, fanouts)
    inc_walls, dense_walls = [], []
    edges_touched = rows_recomputed = churned = 0
    for batch in edge_stream(mgraph, num_batches=num_windows,
                             batch_edges=batch_edges, pool=remote,
                             delete_fraction=0.3, seed=7):
        mgraph.apply(batch)
        churned += batch.num_ops
        wall, snap = _timed(
            lambda: incremental_vip(mgraph, snap, churn_cutoff=1.0))
        inc_walls.append(wall)
        edges_touched += snap.stats.edges_touched
        rows_recomputed += snap.stats.rows_recomputed
        # The snapshot-less consumer must rebuild a CSR of the mutated
        # graph before it can sweep — clear the materialize cache so the
        # rebuild is actually paid, as it would be per window.
        mgraph._csr, mgraph._csr_version = None, -1
        dense_wall, ref = _timed(lambda: vip_probabilities(
            mgraph.materialize(), p0, fanouts))
        dense_walls.append(dense_wall)
        if not np.array_equal(snap.result.total, ref.total):
            raise AssertionError(
                "incremental_vip diverged from the full sweep on the "
                "materialized graph"
            )
    stages["vip.incremental_refresh"] = _entry(
        float(np.median(inc_walls)), rows=rows_recomputed,
        dense_wall_s=float(np.median(dense_walls)),
        windows=num_windows, churn_edges=churned,
        edges_touched=edges_touched, bit_identical=True)


# ----------------------------------------------------------------------
def boundary_stages(stages: dict, *, num_machines=4, rounds=3) -> None:
    """A phase boundary's refresh round on mag240c-mini: every machine's
    training set swapped after one churn batch landed (the ``train_drift``
    shape, K = 4 random partition), scored as one ``VIPTracker`` round —
    one batched ``(N, K)`` evaluation on the overlay's ``materialize()`` —
    against K single ``vip_probabilities`` calls on it.  Each side starts
    from a tracker that scored the previous phase on a fresh overlay, so
    both pay the one ``materialize()``; alternating rounds, best of
    ``rounds``; the K score vectors are asserted ``==`` before the walls
    are reported.
    """
    from repro.core import RunConfig
    from repro.graph.generators import drifting_training_sets, edge_stream
    from repro.graph.mutable import MutableGraph
    from repro.partition import random_partition
    from repro.vip import VIPTracker
    from repro.vip.analytic import uniform_minibatch_probability

    ds = load_dataset("mag240c-mini")
    cfg = RunConfig(num_machines=num_machines).resolve(ds)
    n = ds.num_vertices
    owner = random_partition(n, num_machines, seed=0).assignment
    phases = drifting_training_sets(ds.train_idx, ds.community, 2,
                                    active_fraction=0.3, seed=0)

    def round_of(train):
        return {k: uniform_minibatch_probability(
                    n, train[owner[train] == k], cfg.batch_size)
                for k in range(num_machines)}

    before, after = round_of(phases[0]), round_of(phases[1])
    (batch,) = edge_stream(MutableGraph(ds.graph, compact_cutoff=None),
                           num_batches=1, batch_edges=400,
                           delete_fraction=0.25, seed=3)

    def boundary():
        mgraph = MutableGraph(ds.graph, compact_cutoff=None)
        tracker = VIPTracker(mgraph, cfg.fanouts)
        tracker.access(before)
        mgraph.apply(batch)
        return mgraph, tracker

    def batched(mgraph, tracker):
        return tracker.access(after)

    def single(mgraph, tracker):
        return {k: vip_probabilities(mgraph.materialize(), p0,
                                     cfg.fanouts).access
                for k, p0 in after.items()}

    walls = {batched: [], single: []}
    scores = {}
    for _ in range(rounds):
        for side in (batched, single):
            state = boundary()
            wall, scores[side] = _timed(lambda: side(*state))
            walls[side].append(wall)
    for k in range(num_machines):
        if not np.array_equal(scores[batched][k], scores[single][k]):
            raise AssertionError(
                f"boundary round diverged from machine {k}'s own refresh")
    stages["vip.boundary_refresh"] = _entry(
        min(walls[batched]), rows=num_machines * n,
        dense_wall_s=min(walls[single]), machines=num_machines,
        bit_identical=True)


# ----------------------------------------------------------------------
def nn_stages(stages: dict, *, dataset=None, batches=15, rounds=5) -> None:
    """``train_batch`` on ``repro.nn`` vs the same step on the frozen
    pre-SpMM engine: same MFGs, same float32 feature rows, same weights."""
    from itertools import islice

    from repro.distributed import train_batch

    ds = dataset if dataset is not None else load_dataset(DATASET)
    cfg = RunConfig(num_machines=K, replication_factor=0.1,
                    cache_policy="vip", seed=0)
    system = Planner().build(ds, cfg)
    tr, store = system.trainer, system.store
    model, state = tr.models[0], tr.models[0].state_dict()
    steps = [(store.execute(store.plan_gather(0, mfg.n_id))[0], mfg,
              tr.ds.labels[mfg.seeds])
             for mfg in islice(tr.batches(0, 0), batches)]

    def new():
        return [train_batch(model, *step) for step in steps]

    def dense():
        return [reference_train_batch(state, *step)[0] for step in steps]

    wall = dense_wall = float("inf")
    for _ in range(rounds):  # alternating, so machine drift hits both sides
        t, losses = _timed(new)
        wall = min(wall, t)
        t, dense_losses = _timed(dense)
        dense_wall = min(dense_wall, t)
    # The model step runs float32 end to end (nn.module.DTYPE) and sums
    # left to right; the frozen step sums the float32 rows with reduceat,
    # then runs float64.  These 15 losses sit at most 0.79 float32 eps
    # apart relative (median 0.25), 0.20x of the bound.
    bound = 4 * float(np.finfo(np.float32).eps)
    if not np.allclose(losses, dense_losses, rtol=bound, atol=0.0):
        raise AssertionError(
            f"train_batch diverged from the frozen step: {losses} vs "
            f"{dense_losses}")
    stages["nn.train_batch"] = _entry(
        wall, rows=sum(mfg.num_vertices for _f, mfg, _l in steps),
        dense_wall_s=dense_wall, batches=len(steps),
        edges=sum(mfg.num_edges for _f, mfg, _l in steps))


# ----------------------------------------------------------------------
def sampling_stages(stages: dict, *, dataset=None, rounds=5) -> None:
    """Every machine's epoch-0 minibatch draws, machine by machine, through
    the production ``sample_neighbors`` vs the frozen full-argsort one: the
    same samplers rewound to the same cursors for every run."""
    import hashlib

    import repro.sampling.neighbor as neighbor

    ds = dataset if dataset is not None else load_dataset(DATASET)
    cfg = RunConfig(num_machines=K, replication_factor=0.1,
                    cache_policy="vip", seed=0)
    tr = Planner().build(ds, cfg).trainer
    cursors = [sampler.rng_state() for sampler in tr.samplers]
    production = neighbor.sample_neighbors

    def epoch(select):
        neighbor.sample_neighbors = select
        try:
            for sampler, cursor in zip(tr.samplers, cursors):
                sampler.set_rng_state(cursor)
            return [list(tr.batches(k, 0)) for k in range(K)]
        finally:
            neighbor.sample_neighbors = production

    def digest(mfgs):
        h = hashlib.sha256()
        for machine, sampler in zip(mfgs, tr.samplers):
            for mfg in machine:
                h.update(mfg.n_id.tobytes())
                for block in mfg.blocks:
                    h.update(block.dst_ptr.tobytes())
                    h.update(block.src_index.tobytes())
            h.update(sampler.rng_state().encode())
        return h.hexdigest()

    wall = dense_wall = float("inf")
    for _ in range(rounds):  # alternating, so machine drift hits both sides
        t, mfgs = _timed(lambda: epoch(production))
        wall, want = min(wall, t), digest(mfgs)
        t, dense_mfgs = _timed(lambda: epoch(reference_sample_neighbors))
        dense_wall = min(dense_wall, t)
        if digest(dense_mfgs) != want:
            raise AssertionError("sample_neighbors diverged from the frozen "
                                 "reference: an MFG or a cursor differs")
    degrees = tr.ds.graph.degrees
    blocks = [(mfg.n_id[:block.num_dst], block)
              for machine in mfgs for mfg in machine for block in mfg.blocks]
    stages["sampling.sample"] = _entry(
        wall, rows=sum(block.num_edges for _t, block in blocks),
        dense_wall_s=dense_wall, batches=sum(map(len, mfgs)),
        candidate_edges=int(sum(degrees[targets].sum()
                                for targets, _b in blocks)))


# ----------------------------------------------------------------------
def _gather_substrate(dataset=None, reordered=None):
    from repro.core import make_partition
    from repro.distributed import PartitionedFeatureStore
    from repro.partition import reorder_dataset

    if reordered is None:
        ds = dataset if dataset is not None else load_dataset(DATASET)
        cfg = RunConfig(num_machines=SERVE_K).resolve(ds)
        reordered = reorder_dataset(ds, make_partition(ds, cfg))
    return PartitionedFeatureStore.build(reordered, gpu_fraction=0.5)


def gather_stages(stages: dict, *, dataset=None, reordered=None, rounds=60,
                  ids_per_round=4_096) -> None:
    """Arena-backed execute(out=) vs the allocating execute on one store."""
    store = _gather_substrate(dataset, reordered)
    machines = store.num_machines
    n = store.reordered.dataset.num_vertices
    rng = np.random.default_rng(0)
    id_sets = [np.sort(rng.choice(n, ids_per_round, replace=False))
               for _ in range(rounds)]

    def allocating():
        for i, ids in enumerate(id_sets):
            store.execute(store.plan_gather(i % machines, ids))

    def arena_backed():
        arena = GatherArena()
        for i, ids in enumerate(id_sets):
            machine = i % machines
            out = arena.out(machine, len(ids), store.feature_dim,
                            store.stores[machine].local_features.dtype)
            store.execute(store.plan_gather(machine, ids), out=out)

    dense_wall, _ = _best_of(allocating, repeats=3)
    wall, _ = _best_of(arena_backed, repeats=3)

    # The arena's payoff is allocation elimination (wall time is copy-bound
    # at this row scale): trace one steady-state gather each way — the
    # arena path's allocations must not include the output matrix.
    import tracemalloc

    def _alloc_mb(fn):
        tracemalloc.start()
        fn()
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak / 1e6

    warm_arena = GatherArena()
    ids0 = id_sets[0]
    dtype0 = store.stores[0].local_features.dtype
    out0 = warm_arena.out(0, len(ids0), store.feature_dim, dtype0)
    store.execute(store.plan_gather(0, ids0), out=out0)  # warm the buffer
    dense_alloc = _alloc_mb(lambda: store.execute(store.plan_gather(0, ids0)))
    arena_alloc = _alloc_mb(lambda: store.execute(
        store.plan_gather(0, ids0),
        out=warm_arena.out(0, len(ids0), store.feature_dim, dtype0)))
    stages["gather.into"] = _entry(wall, rows=rounds * ids_per_round,
                                   dense_wall_s=dense_wall,
                                   step_alloc_mb=round(arena_alloc, 3),
                                   dense_step_alloc_mb=round(dense_alloc, 3))


def coalesce_stages(stages: dict, *, dataset=None, reordered=None, depth=16,
                    ids_per_plan=4_096, repeats=5) -> None:
    """FetchPlan.coalesce (single unique-with-inverse pass) vs the seed's
    per-plan searchsorted bookkeeping, at the depth >= 10 regime."""
    store = _gather_substrate(dataset, reordered)
    n = store.reordered.dataset.num_vertices
    rng = np.random.default_rng(1)
    plans = [store.plan_gather(0, np.sort(rng.choice(
        n, ids_per_plan, replace=False)))
        for _ in range(depth)]

    def seed_coalesce():
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

    dense_wall, (ref_unique, ref_fresh) = _best_of(seed_coalesce, repeats)
    wall, cplan = _best_of(lambda: FetchPlan.coalesce(plans), repeats)
    if not np.array_equal(cplan.unique_remote_ids, ref_unique):
        raise AssertionError("coalesce rewrite changed the remote pool")
    for fresh, want in zip(cplan.first_request, ref_fresh):
        if not np.array_equal(fresh, want):
            raise AssertionError("coalesce rewrite changed fetch attribution")
    stages[f"coalesce.depth{depth}"] = _entry(
        wall, rows=sum(len(p.remote_ids) for p in plans),
        dense_wall_s=dense_wall, depth=depth)


# ----------------------------------------------------------------------
def run_all(*, num_requests=1_200, engines=("bsp", "pipelined", "async")) -> dict:
    """Run every tracked stage; returns the BENCH_PERF document."""
    stages: dict = {}
    wall, dataset = _timed(lambda: load_dataset(DATASET))
    stages["preprocess.load_dataset"] = _entry(wall, rows=dataset.num_vertices)
    reordered = preprocessing_stages(stages, dataset=dataset)
    engine_stages(stages, engines=engines, dataset=dataset)
    multiproc_stages(stages, dataset=dataset)
    recovery_stages(stages)
    serving_stages(stages, num_requests=num_requests, dataset=dataset)
    streaming_stages(stages, dataset=dataset)
    boundary_stages(stages)
    nn_stages(stages, dataset=dataset)
    sampling_stages(stages, dataset=dataset)
    gather_stages(stages, reordered=reordered)
    coalesce_stages(stages, reordered=reordered)
    return {
        "schema": 1,
        "dataset": DATASET,
        "num_machines": K,
        "generated_by": "benchmarks/perf/run.py",
        "stages": stages,
    }
