"""The four end-to-end workloads, measured from outside the program.

Each ``run_<workload>(run)`` performs cold set-up, the timed work and the
correctness checks through ``repro``'s public API and returns the workload's
end-to-end metrics; with a span recorder attached (the traced run) it also
fills ``run.layer`` through :mod:`layers`.

Seeds: ``--seed`` drives ``RunConfig.seed`` (model init, samplers, shuffles,
serving) and every generator.  The dataset instance and the partitioner's
seed are pinned (``DATA_SEED``): the driver measures each metric's spread
*across* seeds, and partition randomness alone moves ``comm_rows_per_op`` by
+-12 % on train_static, which would bury a 5 % bound.
"""

import collections
import dataclasses
import math
import multiprocessing
import os
import resource
import zlib
from contextlib import nullcontext

import numpy as np

import layers
import loadgen
from metrics import D, L, M, S
from spans import timed
from repro.core import Planner, RunConfig, ServingConfig, make_partition
from repro.graph import load_dataset
from repro.graph.generators import drifting_training_sets
from repro.serving.service import Outage
from repro.vip import uniform_minibatch_probability

DATA_SEED = 0
#: ``run_seconds`` in BENCHMARK.json — what the ``full`` sizes are tuned to;
#: a larger ``--seconds`` scales epochs/requests up, a smaller one stops at
#: these sizes (the issue's floors are 10 timed epochs and 1,500 requests per
#: rung; the short-epoch workloads run more so each measures ~10 s of wall —
#: this box's speed wanders +-10 % on a 10-60 s scale).
RUN_SECONDS = 15

#: ``setups``: cold set-ups per untraced run, the median reported.  Repeats
#: steady the short ones (serve_ladder: 26 % spread across ten runs with one,
#: 7 % with three); on train_drift a repeat beside the first, still live,
#: 700 MB system takes 4.4-5 s against 3.0 s and widens the spread, and
#: train_static's 8 s set-up is steady enough alone.
SIZES = {
    "full": {
        S: dict(scale=1.0, batch_size=None, epochs=10, setups=1, min_acc=0.7),
        D: dict(scale=1.0, batch_size=None, phases=5, inserts=300,
                deletes=100, setups=1, min_acc=0.8),
        L: dict(scale=1.0, static_requests=2000, requests=1500,
                mutation_edges=2000, setups=3),
        M: dict(scale=1.0, batch_size=None, epochs=40, oracle_epochs=3,
                setups=2, min_acc=0.8),
    },
    "smoke": {
        S: dict(scale=0.1, batch_size=16, epochs=2, setups=1, min_acc=0.0),
        D: dict(scale=0.1, batch_size=16, phases=1, inserts=30, deletes=10,
                setups=1, min_acc=0.0),
        L: dict(scale=0.1, static_requests=100, requests=100,
                mutation_edges=100, setups=1),
        M: dict(scale=0.1, batch_size=16, epochs=2, oracle_epochs=2,
                setups=1, min_acc=0.0),
    },
}
EPOCHS_PER_PHASE = 2
#: Wall metrics are reported at *nominal machine speed*: each timed call is
#: bracketed by a fixed numpy reference kernel and scaled by
#: ``REF_NOMINAL_MS / (kernel time around that call)``.  This sandbox's speed
#: wanders by up to +-30 % for minutes at a time (the kernel itself reads
#: 13-21 ms); raw, that alone spread op_wall_ms 13-27 % across ten runs of
#: identical work, scaled it is 2-14 %.  Raw samples are kept in the result
#: file.
REF_NOMINAL_MS = 15.0
#: Kernel repetitions on each side of a call that is timed once and lasts
#: seconds (a set-up, a serving rung): ~0.25 s, so the bracket itself is
#: steady.  Epochs are many and short; one repetition each side, the median
#: over epochs does the averaging.
LONG_CALL_REPS = 16
RATES = {"r2k": 2000.0, "r4k": 4000.0, "r8k": 8000.0}
#: serving.sim_max_rate_rps: simulated p99 limit, and no growing backlog
#: (makespan within this factor of the arrival span).
SLO_LIMITS = (0.100, 1.1)


class Run:
    """One workload run: sizes, seeded generator, checks, counters."""

    def __init__(self, workload, seed, scale="full", seconds=RUN_SECONDS,
                 recorder=None):
        self.workload, self.seed, self.rec = workload, seed, recorder
        self.sizes = dict(SIZES[scale][workload])
        if scale == "full":
            grow = max(1.0, seconds / RUN_SECONDS)
            for key in ("epochs", "phases", "requests", "static_requests"):
                if key in self.sizes:
                    self.sizes[key] = int(round(self.sizes[key] * grow))
        self.rng = np.random.default_rng(
            [seed, zlib.crc32(workload.encode())])
        self.checks = {}      # check name -> failure details (empty = passed)
        self.attempted = self.failed = 0
        self.layer = {}       # per-layer metrics, traced runs only
        self.samples = {}     # timed samples behind each wall metric
        gen = np.random.default_rng(0)
        self._ref = (gen.standard_normal((400, 400)).astype(np.float32),
                     gen.standard_normal(2_000_000).astype(np.float32),
                     gen.integers(0, 2_000_000, size=200_000))

    def ref_ms(self, reps=1):
        """Time the reference kernel (matmul + gather + sort, ~15 ms)."""
        mat, big, idx = self._ref

        def kernel():
            for _ in range(4 * reps):
                mat @ mat
                big[idx].sum()
                np.sort(idx)

        ms = timed(kernel)[0] * 1e3 / reps
        self.samples.setdefault("ref_kernel_ms", []).append(ms)
        return ms

    @property
    def traced(self):
        return self.rec is not None

    def span(self, name):
        return self.rec.span(name) if self.rec else nullcontext()

    def check(self, name, ok, detail=""):
        failures = self.checks.setdefault(name, [])
        if not ok:
            failures.append(str(detail))
        return bool(ok)

    @property
    def correct(self):
        return not any(self.checks.values())


#: One timed call: raw wall seconds, what it returned, and the reference
#: kernel's time around it.
Timed = collections.namedtuple("Timed", "wall result ref_ms")


def nominal(op):
    """``op.wall`` at nominal machine speed."""
    return op.wall * REF_NOMINAL_MS / op.ref_ms


def bracketed(run, fn, reps=1):
    """``Timed`` for ``fn()``, the reference kernel run before and after."""
    before = run.ref_ms(reps)
    wall, result = timed(fn)
    return Timed(wall, result, (before + run.ref_ms(reps)) / 2)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Correctness checks (module-level so the smoke test can break one).

def losses_ok(losses):
    """Every epoch's mean loss is finite and the last is below the first."""
    finite = all(x is not None and math.isfinite(x) for x in losses)
    return finite and (len(losses) < 2 or losses[-1] < losses[0])


def epoch_ok(run, system, result):
    """Row identity per record and ledger bytes = comm rows x row bytes."""
    report = result.report
    broken = [
        (r.machine, r.step) for r in report.records
        if (r.gather.gpu_rows + r.gather.cpu_rows + r.gather.cached_rows
            + r.gather.remote_rows + r.gather.coalesced_rows)
        != r.gather.total_rows
    ]
    ok = run.check("row_identity", not broken, broken[:3])
    want = report.total_comm_rows() * system.store.bytes_per_row
    return ok & run.check("ledger_bytes",
                          report.ledger.total_feature_bytes() == want,
                          (report.ledger.total_feature_bytes(), want))


# ----------------------------------------------------------------------
# Set-up.

def pinned(cfg, ds):
    """``cfg`` resolved against ``ds`` with the partitioner's seed pinned."""
    return dataclasses.replace(cfg, seed=DATA_SEED).resolve(ds)


def cold_setup(run, dataset, cfg, finish):
    """One cold set-up: dataset, pinned partition, fresh Planner, then
    ``finish(planner, ds, part)`` (system build / + spawn / service build).
    Returns ``Timed`` whose result is ``(ds, planner, part, product)``."""
    def setup():
        with run.span("load_dataset"):
            ds = load_dataset(dataset, seed=DATA_SEED,
                              scale=run.sizes["scale"])
        with run.span("make_partition"):
            part = make_partition(ds, pinned(cfg, ds))
        planner = Planner()
        with run.span("planner.build"):
            return ds, planner, part, finish(planner, ds, part)

    with run.span("setup"):
        return bracketed(run, setup, reps=LONG_CALL_REPS)


def median_setup_s(run, first, dataset, cfg, finish,
                   dispose=lambda product: None):
    """Untraced runs repeat the cold set-up ``sizes["setups"]`` times in all
    (after the timed work and the RSS reading) and report the median; the
    traced run times each set-up stage by direct calls instead."""
    setups = [first]
    if run.traced:
        ds = first.result[0]
        layers.staged_setup(run, ds, pinned(cfg, ds))
    else:
        for _ in range(run.sizes["setups"] - 1):
            again = cold_setup(run, dataset, cfg, finish)
            dispose(again.result[-1])
            setups.append(again._replace(result=None))
    run.samples["setup_raw_s"] = [op.wall for op in setups]
    return float(np.median([nominal(op) for op in setups]))


# ----------------------------------------------------------------------
# Training.

def train_epochs(run, system, epochs):
    """Run real (weight-updating) epochs, each timed from outside and
    checked.  Returns one ``Timed`` (result: ``EpochResult``) per epoch."""
    out = []
    for epoch in epochs:
        run.attempted += 1
        with run.span("train_epoch"):
            out.append(bracketed(run, lambda: system.train_epoch(epoch)))
        if not epoch_ok(run, system, out[-1].result):
            run.failed += 1
    return out


def evaluate(run, system, epochs):
    run.check("losses_decrease", losses_ok([e.result.loss for e in epochs]))
    with run.span("evaluate"):
        eval_s, acc = timed(lambda: system.evaluate("test"))
    run.check("test_acc_floor", acc >= run.sizes["min_acc"], acc)
    run.check("models_in_sync", system.trainer.models_in_sync())
    if run.traced:
        layers.epoch_layers(run, epochs, eval_s, acc)


def training_metrics(run, setup_s, epochs, rss_mb):
    sims = [e.result.epoch_time * 1e3 for e in epochs]
    run.samples["op_wall_raw_ms"] = [e.wall * 1e3 for e in epochs]
    return {
        "setup_s": setup_s,
        "op_wall_ms": float(np.median([nominal(e) for e in epochs])) * 1e3,
        "comm_rows_per_op": float(np.mean(
            [e.result.report.total_comm_rows() for e in epochs])),
        "sim_op_ms": float(np.mean(sims)),
        "sim_tail_ms": float(np.max(sims)),
        "peak_rss_mb": rss_mb,
        "ok_share": (run.attempted - run.failed) / run.attempted,
    }


def build_training(cfg):
    return lambda planner, ds, part: planner.build(ds, cfg, partition=part)


def run_train_static(run):
    cfg = RunConfig(num_machines=8, partitioner="metis", cache_policy="vip",
                    replication_factor=0.1, engine="bsp",
                    batch_size=run.sizes["batch_size"], seed=run.seed)
    finish = build_training(cfg)
    setup = cold_setup(run, "papers-mini", cfg, finish)
    ds, planner, part, system = setup.result
    epochs = train_epochs(run, system, range(run.sizes["epochs"] + 1))
    evaluate(run, system, epochs)
    rss = peak_rss_mb()
    if run.traced:
        layers.replay_layers(run, planner, ds, cfg, part, obs_overhead=True)
    setup_s = median_setup_s(run, setup, "papers-mini", cfg, finish)
    return training_metrics(run, setup_s, epochs[1:], rss)


def run_train_drift(run):
    sizes = run.sizes
    cfg = RunConfig(num_machines=4, partitioner="random",
                    cache_policy="vip-refresh", replication_factor=0.1,
                    engine="pipelined", pipeline_depth=10,
                    batch_size=sizes["batch_size"], seed=run.seed)
    finish = build_training(cfg)
    setup = cold_setup(run, "mag240c-mini", cfg, finish)
    ds, planner, part, system = setup.result
    reordered = system.reordered.dataset
    base_graph = reordered.graph  # apply_graph_updates swaps in an overlay
    phases = drifting_training_sets(
        reordered.train_idx, reordered.community, sizes["phases"] + 1,
        active_fraction=0.3, seed=run.seed)
    batches = loadgen.edge_batches(base_graph, sizes["phases"],
                                   sizes["inserts"], sizes["deletes"],
                                   run.rng)
    # Warm-up epoch on the first phase's set; every later phase first
    # mutates the graph, then swaps the training set.
    system.update_training_set(phases[0])
    epochs = train_epochs(run, system, [0])
    if run.traced:
        # Before the first mutation: apply_graph_updates rewires the
        # planner-cached reordered dataset the sibling builds share.
        layers.replay_layers(run, planner, ds, cfg, part,
                             train_idx=phases[0])
    update_ms = []
    for p, batch in enumerate(batches):
        with run.span("apply_graph_updates"):
            update_ms.append(timed(
                lambda: system.apply_graph_updates(batch))[0] * 1e3)
        system.update_training_set(phases[p + 1])
        first = 1 + p * EPOCHS_PER_PHASE
        epochs += train_epochs(run, system,
                               range(first, first + EPOCHS_PER_PHASE))
    evaluate(run, system, epochs)
    rss = peak_rss_mb()
    if run.traced:
        run.layer["streaming.first_update_ms"] = update_ms[0]
        run.layer["streaming.graph_update_ms"] = float(
            np.median(update_ms[1:] or update_ms))
        trainer = system.trainer
        layers.streaming_layers(
            run, base_graph, batches,
            uniform_minibatch_probability(
                base_graph.num_vertices, trainer.local_train[0],
                trainer.batch_size),
            trainer.fanouts)
    setup_s = median_setup_s(run, setup, "mag240c-mini", cfg, finish)
    return training_metrics(run, setup_s, epochs[1:], rss)


def shm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("rpmp")}
    except FileNotFoundError:
        return set()


def run_train_multiproc(run):
    sizes = run.sizes
    cfg = RunConfig(num_machines=2, partitioner="metis", cache_policy="vip",
                    replication_factor=0.1, engine="bsp",
                    backend="multiproc", batch_size=sizes["batch_size"],
                    seed=run.seed)
    spawn_walls = []

    def finish(planner, ds, part):
        system = planner.build(ds, cfg, partition=part)
        with run.span("backend.start"):
            spawn_walls.append(timed(system.backend().start)[0])
        return system

    segments_before = shm_segments()
    setup = cold_setup(run, "products-mini", cfg, finish)
    ds, planner, part, system = setup.result
    try:
        epochs = train_epochs(run, system, range(sizes["epochs"] + 1))
        # Read before evaluate(): the coordinator holds no training state
        # (145-149 MB through set-up and 41 epochs); evaluating in it peaks
        # at 257 or 273 MB from one run to the next of the same seed, which
        # would bury what the multiproc path itself holds.
        rss = peak_rss_mb()
        evaluate(run, system, epochs)
        backend = system.backend()
        wire_bytes = [sum(b for _n, b in table.values())
                      for table in (backend.wire_sent, backend.wire_received)]
        wire_msgs = sum(n for table in (backend.wire_sent,
                                        backend.wire_received)
                        for n, _b in table.values())
    finally:
        with run.span("shutdown"):
            shutdown_s, _ = timed(system.shutdown)
    run.check("no_child_left", not multiprocessing.active_children(),
              multiprocessing.active_children())
    run.check("no_shm_left", shm_segments() <= segments_before,
              shm_segments() - segments_before)

    # In-process oracle of the same config, outside the timed region: the
    # multiproc losses must match it bit for bit.
    oracle_cfg = dataclasses.replace(cfg, backend="inprocess")
    oracle = planner.build(ds, oracle_cfg, partition=part)
    oracle_epochs = []
    for epoch in range(sizes["oracle_epochs"]):
        oracle_epochs.append(
            bracketed(run, lambda: oracle.train_epoch(epoch)))
        losses = (oracle_epochs[-1].result.loss, epochs[epoch].result.loss)
        run.check("matches_inprocess_oracle", losses[0] == losses[1],
                  (epoch, *losses))
    if run.traced:
        # Both sides at nominal machine speed: they ran minutes apart.
        inprocess_s = float(np.median(
            [nominal(e) for e in oracle_epochs[1:]]))
        run.layer.update({
            "multiproc.spawn_s": spawn_walls[0],
            "multiproc.shutdown_s": shutdown_s,
            "multiproc.inprocess_epoch_s": inprocess_s,
            "multiproc.speedup_vs_inprocess": inprocess_s / float(
                np.median([nominal(e) for e in epochs[1:]])),
            "multiproc.worker_peak_rss_mb": resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "wire.sent_bytes_per_epoch": wire_bytes[0] / len(epochs),
            "wire.received_bytes_per_epoch": wire_bytes[1] / len(epochs),
            "wire.msgs_per_step": wire_msgs / (
                system.trainer.steps_per_epoch() * len(epochs)),
        })
        layers.replay_layers(run, planner, ds, oracle_cfg, part)
        layers.multiproc_layers(run, planner, ds, cfg, part)
    setup_s = median_setup_s(run, setup, "products-mini", cfg, finish,
                             dispose=lambda s: s.shutdown())
    return training_metrics(run, setup_s, epochs[1:], rss)


# ----------------------------------------------------------------------
# Serving.

def serving_config(seed):
    """The repo's existing serving configuration (benchmarks/perf)."""
    return RunConfig(
        num_machines=4, partitioner="random", fanouts=(5, 4, 3),
        batch_size=32, replication_factor=0.05, cache_policy="vip-refresh",
        refresh_interval=8, cache_aging_interval=16, network_gbps=0.5,
        seed=seed,
        serving=ServingConfig(batcher="deadline", max_batch=8,
                              max_wait_ms=15.0, max_in_flight=4))


def rung_failures(run, name, rung, report, *, all_answered):
    """Availability totals = requests; one prediction per requested seed;
    outside the outage rung nothing may be shed.  Returns failed requests."""
    ledger = report.availability
    run.check("availability_totals", ledger.total == len(rung.requests),
              (name, ledger.total, len(rung.requests)))
    g = report.gather
    run.check("row_identity",
              g.gpu_rows + g.cpu_rows + g.cached_rows + g.remote_rows
              + g.coalesced_rows + g.unavailable_rows == g.total_rows, name)
    shed = {r.rid for r in report.records if r.status == "shed"}
    missing = [q.rid for q in rung.requests if q.rid not in shed
               and len(report.predictions.get(q.rid, ())) != q.num_seeds]
    run.check("prediction_per_seed", not missing, (name, missing[:3]))
    if all_answered:
        run.check("all_answered", not shed, (name, len(shed)))
        return len(missing) + len(shed)
    return len(missing)


def run_serve_ladder(run):
    sizes = run.sizes
    cfg = serving_config(run.seed)
    refresh_walls = []  # traced run: wall inside the vip-refresh provider

    def finish(planner, ds, part):
        if run.traced:
            return layers.build_service_timing_refresh(
                planner, ds, cfg, part, refresh_walls)
        return planner.build_service(ds, cfg, partition=part)

    setup = cold_setup(run, "papers-mini", cfg, finish)
    ds, planner, part, service = setup.result
    n = ds.num_vertices

    def generate():
        rungs = {name: loadgen.open_loop_rung(n, sizes["static_requests"],
                                              rate, run.rng)
                 for name, rate in RATES.items()}
        rungs["outage"] = loadgen.open_loop_rung(
            n, sizes["requests"], RATES["r4k"], run.rng,
            slo_classes=("interactive", "standard", "batch"))
        rungs["churn"] = loadgen.open_loop_rung(n, sizes["requests"],
                                                RATES["r4k"], run.rng)
        span = rungs["outage"].span_s
        return rungs, {
            # machine 1 is down for the middle third of the arrival span
            "outage": dict(outages=[Outage(1, span / 3, 2 * span / 3)]),
            "churn": dict(mutations=loadgen.churn_mutations(
                rungs["churn"], n, sizes["mutation_edges"], run.rng)),
        }

    with run.span("loadgen"):  # all load exists before any rung's clock
        loadgen_s, (rungs, extras) = timed(generate)
    runs, reports, warm_builds, refresh_s = {}, {}, [], {}
    for name, rung in rungs.items():
        if name != "r2k":  # r2k runs on the cold-built service
            wall, service = timed(lambda: finish(planner, ds, part))
            warm_builds.append(wall)
        run.attempted += len(rung.requests)
        del refresh_walls[:]
        with run.span(f"run.{name}"):
            # Only the static rungs' walls are reported at nominal speed.
            runs[name] = bracketed(
                run, lambda: service.run(rung.requests,
                                         **extras.get(name, {})),
                reps=LONG_CALL_REPS if name in RATES else 1)
        reports[name] = runs[name].result
        refresh_s[name] = sum(refresh_walls)
        run.failed += rung_failures(run, name, rung, reports[name],
                                    all_answered=name != "outage")
    rss = peak_rss_mb()
    if run.traced:
        layers.serving_layers(
            run, planner, ds, cfg, part, rungs, extras, reports,
            {name: op.wall for name, op in runs.items()}, refresh_s,
            loadgen_s, warm_builds, RATES, SLO_LIMITS)
    setup_s = median_setup_s(run, setup, "papers-mini", cfg, finish)
    requests = sum(len(rungs[name].requests) for name in RATES)
    latencies = reports["r2k"].latencies() * 1e3
    run.samples["op_wall_raw_ms"] = [
        runs[name].wall * 1e3 / len(rungs[name].requests) for name in RATES]
    return {
        "setup_s": setup_s,
        "op_wall_ms": sum(nominal(runs[name])
                          for name in RATES) * 1e3 / requests,
        "comm_rows_per_op": sum(reports[name].gather.comm_rows()
                                for name in RATES) / requests,
        "sim_op_ms": float(np.percentile(latencies, 50)),
        "sim_tail_ms": float(np.percentile(latencies, 99)),
        "peak_rss_mb": rss,
        "ok_share": sum(r.availability.served_ok
                        for r in reports.values()) / run.attempted,
    }


RUNNERS = {S: run_train_static, D: run_train_drift, L: run_serve_ladder,
           M: run_train_multiproc}
