"""The engine's machine-set / collective seam, with no process spawned.

A multiproc worker is "the engine over machine set ``{k}`` behind a
collective"; the coordinator is "``assemble_report`` over the K outputs".
These tests run exactly that composition inside one interpreter — each
machine alone, against a recording collective — and demand the all-K
in-process report back, so backend parity is a property of the seam rather
than of two schedules kept in step.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.core import Planner, RunConfig, SalientPP
from repro.distributed.comm import all_reduce_gradients, average_parameters
from repro.graph.datasets import make_tiny
from repro.utils import ahead
from invariants import trace_shape

K = 4
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class RecordingCollective:
    """Stands in for a machine's peers: remembers what the loop told it,
    and in ``log`` in what order (:func:`record_draws` adds the sampler's
    draws to it).  ``post`` also calls ``reduce``, if given, as the
    in-process collective calls its reduce."""

    def __init__(self, reduce=None, log=None):
        self.windows, self.syncs = [], []
        self.log = [] if log is None else log
        self._reduce = reduce

    def fetched(self, w0, w1, plans, first_request):
        assert len(plans) == len(first_request) == w1 - w0
        self.windows.append((w0, w1))
        self.log.append(("fetched", w0))

    def post(self, step):
        self.syncs.append(step)
        self.log.append(("post", step))
        if self._reduce is not None:
            self._reduce()

    def collect(self, step):
        self.log.append(("collect", step))


def record_draws(monkeypatch, trainer, log):
    """Append ``("draw", machine, step)`` to ``log`` as each minibatch of
    ``trainer``'s streams is drawn (the inline side of the spare-core
    rule, where the draws happen in this process)."""
    batches = trainer.batches

    def recorded(k, epoch):
        for step, mfg in enumerate(batches(k, epoch)):
            log.append(("draw", k, step))
            yield mfg

    monkeypatch.setattr(trainer, "batches", recorded)


@pytest.fixture(scope="module")
def dataset():
    return make_tiny(seed=3, num_vertices=2000)


@pytest.fixture(scope="module")
def planner():
    return Planner()


def _config(**overrides) -> RunConfig:
    base = dict(num_machines=K, fanouts=(4, 3), batch_size=16, hidden_dim=16,
                replication_factor=0.05, gpu_fraction=0.5, seed=0)
    base.update(overrides)
    return RunConfig(**base)


def _flat(rec):
    g = rec.gather
    return (rec.machine, rec.step, rec.batch_size, rec.mfg_vertices,
            rec.mfg_edges, rec.candidate_edges, rec.block_sizes, rec.loss,
            g.total_rows, g.gpu_rows, g.cpu_rows, g.cached_rows,
            g.remote_rows, tuple(g.remote_per_peer), g.coalesced_rows)


@pytest.mark.parametrize("engine,depth",
                         [("bsp", 1), ("pipelined", 1), ("pipelined", 4)])
def test_per_machine_runs_assemble_to_the_all_machine_report(
        dataset, planner, monkeypatch, engine, depth):
    cfg = _config(engine=engine, pipeline_depth=depth)
    ref = SalientPP.build(dataset, cfg, planner=planner) \
        .trainer.train_epoch(0, dry_run=True)

    tr = SalientPP.build(dataset, cfg, planner=planner).trainer
    sched = tr.engine.schedule(tr.steps_per_epoch())
    assert sched.steps > 4  # several windows at depth 4
    per_machine, log = [], []
    record_draws(monkeypatch, tr, log)
    for k in range(K):
        log.clear()
        collective = RecordingCollective(log=log)
        (records,) = tr.engine.run_machines(0, [k], collective, dry_run=True)
        assert collective.windows == list(sched.windows)
        assert collective.syncs == []  # a dry run never closes a step
        # ... so each window is drawn at its own top (always inline).
        assert log == [
            e for w0, w1 in sched.windows
            for e in [("draw", k, s) for s in range(w0, w1)]
            + [("fetched", w0)]]
        assert [(r.machine, r.step) for r in records] == \
            [(k, s) for s in range(sched.steps)]
        per_machine.append(records)
    report = tr.engine.report(0, per_machine)

    assert [_flat(r) for r in report.records] == \
        [_flat(r) for r in ref.records]
    assert np.array_equal(report.ledger.feature_bytes,
                          ref.ledger.feature_bytes)
    assert np.array_equal(report.ledger.request_bytes,
                          ref.ledger.request_bytes)
    assert np.array_equal(report.ledger.gradient_bytes,
                          ref.ledger.gradient_bytes)
    assert trace_shape(report.events) == trace_shape(ref.events)
    assert (report.mean_loss, report.steps_per_machine) == \
        (ref.mean_loss, ref.steps_per_machine)


# ----------------------------------------------------------------------
# the next window is drawn inside the exchange that closes a window
# ----------------------------------------------------------------------

def expected_log(sched, machines):
    """The loop's calls, in order: a window is drawn at the top of its own
    window only when the step closing the window before it did not sync
    (or it is the first); otherwise between that step's ``post`` and
    ``collect``.  Nothing is drawn after the last window."""
    sync_at, log, drawn = set(sched.sync_steps), [], False

    def draws(w0, w1):
        return [("draw", k, s) for k in machines for s in range(w0, w1)]

    for i, (w0, w1) in enumerate(sched.windows):
        if not drawn:
            log += draws(w0, w1)
        log += [("fetched", w0)] * len(machines)
        drawn = False
        for step in range(w0, w1):
            if step in sync_at:
                log.append(("post", step))
                if step == w1 - 1 and i + 1 < len(sched.windows):
                    log += draws(*sched.windows[i + 1])
                    drawn = True
                log.append(("collect", step))
    return log


@pytest.mark.parametrize("engine,knobs", [
    ("bsp", {}), ("pipelined", dict(pipeline_depth=1)),
    ("pipelined", dict(pipeline_depth=4)), ("async", dict(staleness=2)),
], ids=["bsp", "pipelined-1", "pipelined-4", "async-2"])
def test_the_next_window_is_drawn_between_post_and_collect(
        dataset, planner, monkeypatch, engine, knobs):
    monkeypatch.setattr(ahead, "usable_cores", lambda: 1)  # draws inline
    cfg = _config(engine=engine, **knobs)
    want = SalientPP.build(dataset, cfg, planner=planner).trainer
    ref = want.train_epoch(0)

    tr = SalientPP.build(dataset, cfg, planner=planner).trainer
    reduce = average_parameters if engine == "async" else all_reduce_gradients
    collective = RecordingCollective(lambda: reduce(tr.models))
    record_draws(monkeypatch, tr, collective.log)
    machines = list(range(K))
    sched = tr.engine.schedule(tr.steps_per_epoch())
    assert len(sched.windows) >= 2
    per_machine = tr.engine.run_machines(0, machines, collective)

    assert collective.log == expected_log(sched, machines)
    draws = [e for e in collective.log if e[0] == "draw"]
    assert len(draws) == len(set(draws)) == K * sched.steps
    # Only the draws moved: the same epoch, bit for bit.
    report = tr.engine.report(0, per_machine)
    assert [_flat(r) for r in report.records] == \
        [_flat(r) for r in ref.records]
    assert [s.rng_state() for s in tr.samplers] == \
        [s.rng_state() for s in want.samplers]


# ----------------------------------------------------------------------
# a batch larger than some machine's training set is refused up front
# ----------------------------------------------------------------------

@pytest.mark.parametrize("engine,backend", [
    ("bsp", "inprocess"), ("pipelined", "inprocess"), ("async", "inprocess"),
    ("bsp", "multiproc"), ("pipelined", "multiproc"),
])
def test_batch_larger_than_a_machines_training_set_is_rejected(
        engine, backend):
    """Used to build fine, claim one step per epoch, and die mid-epoch with
    a bare ``StopIteration`` (bsp) or a RuntimeError (pipelined)."""
    cfg = RunConfig(num_machines=4, fanouts=(3, 2), batch_size=120,
                    engine=engine, backend=backend)
    with SalientPP.build(make_tiny(), cfg) as system:
        assert min(len(ids) for ids in system.trainer.local_train) < 120
        for dry_run in (True, False):
            with pytest.raises(ValueError, match="fewer than one batch"):
                system.train_epoch(0, dry_run=dry_run)
        with pytest.raises(ValueError, match="fewer than one batch"):
            system.trainer.steps_per_epoch()
        # Refused before any sampling — and before any worker spawned.
        assert all(s.rng_state() == fresh.rng_state() for s, fresh in zip(
            system.trainer.samplers,
            SalientPP.build(make_tiny(), cfg).trainer.samplers))
        if backend == "multiproc":
            assert system.backend().processes == []
            assert system.backend().segment_names == []


# ----------------------------------------------------------------------
# no import-order constraint between the pipeline and distributed packages
# ----------------------------------------------------------------------

@pytest.mark.parametrize("module", [
    "repro.pipeline", "repro.distributed.engine",
    "repro.distributed.multiproc",
])
def test_module_imports_first_in_a_fresh_interpreter(module):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True, timeout=120, env=env, cwd=REPO)
    assert proc.returncode == 0, proc.stderr
