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
from repro.graph.datasets import make_tiny
from invariants import trace_shape

K = 4
REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


class RecordingCollective:
    """Stands in for a machine's peers: remembers what the loop told it."""

    def __init__(self):
        self.windows, self.syncs = [], []

    def fetched(self, w0, w1, plans, first_request):
        assert len(plans) == len(first_request) == w1 - w0
        self.windows.append((w0, w1))

    def sync(self, step):
        self.syncs.append(step)


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
        dataset, planner, engine, depth):
    cfg = _config(engine=engine, pipeline_depth=depth)
    ref = SalientPP.build(dataset, cfg, planner=planner) \
        .trainer.train_epoch(0, dry_run=True)

    tr = SalientPP.build(dataset, cfg, planner=planner).trainer
    sched = tr.engine.schedule(tr.steps_per_epoch())
    assert sched.steps > 4  # several windows at depth 4
    per_machine = []
    for k in range(K):
        collective = RecordingCollective()
        (records,) = tr.engine.run_machines(0, [k], collective, dry_run=True)
        assert collective.windows == list(sched.windows)
        assert collective.syncs == []  # a dry run never closes a step
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
