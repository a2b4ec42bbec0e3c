"""Checkpoint/replay recovery: the fault-tolerant runtime's acceptance suite.

The headline contract: a multiproc training run interrupted by a mid-epoch
worker fault — kill, hang, corrupt wire frame, or torn gradient slab — or by
a worker lost while its epoch is checkpointed, and driven by
:class:`RecoveryManager`, completes with per-step losses **bit-identical**
to a fault-free run's.  Checkpoints restore every sampler's RNG cursor, so
the replayed epoch samples the same neighborhoods and lands on the same
floats.

Everything else here guards the machinery: deterministic backoff, the
restart budget, checkpoint persistence through the ArtifactCache (including
a full warm start from disk into a fresh cluster), and zero leaked
processes or shared memory after any outcome.
"""

import math
import multiprocessing
import os
import signal
import time
from multiprocessing import shared_memory

import numpy as np
import pytest

import invariants
from repro.core import RunConfig, SalientPP
from repro.core.planner import ArtifactCache
from repro.distributed import (
    FaultPlan,
    MultiprocBackend,
    RecoveryManager,
    RecoveryPolicy,
    WorkerFailedError,
    load_checkpoint,
    save_checkpoint,
)
from repro.graph.datasets import make_tiny

# Every test runs with the workers sampling inline and sampling ahead: an
# aborted epoch must join its sampler thread before the worker acknowledges,
# and the replay must land on the fault-free floats either way.
pytestmark = pytest.mark.usefixtures("either_side_of_the_spare_core_rule")


def _build_system(num_machines=2, **overrides):
    ds = make_tiny(seed=3, num_vertices=2000)
    cfg = RunConfig(
        num_machines=num_machines,
        fanouts=(4, 3),
        batch_size=16,
        hidden_dim=16,
        replication_factor=0.05,
        gpu_fraction=0.5,
        seed=0,
        **overrides,
    )
    return SalientPP.build(ds, cfg)


def _losses(reports):
    return [[rec.loss for rec in rep.records] for rep in reports]


def _assert_fully_torn_down(backend):
    assert not backend.is_live
    assert all(not p.is_alive() for p in backend.processes)
    for name in backend.segment_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        assert not os.path.exists(f"/dev/shm/{name}")


#: Fast-paced policy so tests never sleep for real seconds.
_FAST = RecoveryPolicy(max_restarts=3, backoff_base_s=0.01,
                       backoff_max_s=0.02, jitter=0.0)


@pytest.fixture(scope="module")
def oracle_losses():
    """Fault-free per-step losses, keyed by (num_machines, epochs)."""
    memo = {}

    def run(num_machines, epochs):
        key = (num_machines, epochs)
        if key not in memo:
            backend = MultiprocBackend(_build_system(num_machines),
                                       timeout_s=60.0)
            try:
                memo[key] = _losses(
                    [backend.run_epoch(e) for e in range(epochs)])
            finally:
                backend.close()
        return memo[key]

    return run


# ----------------------------------------------------------------------
# policy
# ----------------------------------------------------------------------

class TestRecoveryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_restarts"):
            RecoveryPolicy(max_restarts=-1).validate()
        with pytest.raises(ValueError, match="backoff_base_s"):
            RecoveryPolicy(backoff_base_s=0.0).validate()
        with pytest.raises(ValueError, match="backoff_max_s"):
            RecoveryPolicy(backoff_base_s=1.0, backoff_max_s=0.5).validate()
        with pytest.raises(ValueError, match="jitter"):
            RecoveryPolicy(jitter=1.0).validate()

    @pytest.mark.parametrize("name", ["max_restarts", "backoff_base_s",
                                      "backoff_max_s", "jitter"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            RecoveryPolicy(**{name: value}).validate()

    def test_backoff_deterministic_and_bounded(self):
        pol = RecoveryPolicy(backoff_base_s=0.1, backoff_max_s=0.5,
                             jitter=0.25, seed=7)
        delays = [pol.backoff_s(i) for i in range(8)]
        assert delays == [pol.backoff_s(i) for i in range(8)]  # reruns match
        for i, d in enumerate(delays):
            base = min(0.5, 0.1 * 2.0 ** i)
            assert base * 0.75 <= d <= base * 1.25
        # A different seed jitters differently; zero jitter is exact.
        assert delays != [RecoveryPolicy(
            backoff_base_s=0.1, backoff_max_s=0.5,
            jitter=0.25, seed=8).backoff_s(i) for i in range(8)]
        assert RecoveryPolicy(jitter=0.0, backoff_base_s=0.1).backoff_s(0) \
            == pytest.approx(0.1)


def test_manager_requires_recoverable_backend():
    backend = MultiprocBackend(_build_system(), timeout_s=30.0)
    with pytest.raises(ValueError, match="recoverable=True"):
        RecoveryManager(backend)
    backend.close()


# ----------------------------------------------------------------------
# the acceptance test: K=4, mid-epoch kill, bit-identical replay
# ----------------------------------------------------------------------

def test_kill_mid_epoch_replay_bit_identical_k4(oracle_losses):
    epochs = 3
    backend = MultiprocBackend(
        _build_system(num_machines=4), timeout_s=60.0, recoverable=True,
        faults=FaultPlan.single("kill", machine=2, epoch=1, step=1))
    sleeps = []
    manager = RecoveryManager(backend, _FAST, sleep=sleeps.append)
    reports = manager.train(epochs)
    assert _losses(reports) == oracle_losses(4, epochs)
    assert manager.restarts == 1
    assert backend.restarts_total >= 1
    assert len(sleeps) == 1 and sleeps[0] == _FAST.backoff_s(0)
    [rec] = manager.recoveries
    assert rec["machine"] == 2
    assert rec["epoch"] == 1
    assert rec["replay_s"] is not None
    assert manager.mttr_s() is not None and manager.mttr_s() > 0
    backend.close()
    _assert_fully_torn_down(backend)


# ----------------------------------------------------------------------
# the full chaos sweep: every fault kind recovers, machine-attributed
# ----------------------------------------------------------------------

@pytest.mark.parametrize("kind", ["kill", "hang", "corrupt", "torn"])
def test_fault_sweep_recovers_bit_identical(kind, oracle_losses):
    epochs = 2
    # The hang relies on the coordinator's receive deadline, so keep it
    # short; every other kind is detected instantly.
    timeout_s = 3.0 if kind == "hang" else 60.0
    backend = MultiprocBackend(
        _build_system(), timeout_s=timeout_s, recoverable=True,
        faults=FaultPlan.single(kind, machine=1, epoch=0, step=1,
                                duration_s=120.0))
    manager = RecoveryManager(backend, _FAST, sleep=lambda _s: None)
    reports = manager.train(epochs)
    assert _losses(reports) == oracle_losses(2, epochs)
    [rec] = manager.recoveries
    assert rec["machine"] == 1
    # Epoch-0 faults replay from initial state (no checkpoint exists yet).
    assert rec["epoch"] == 0
    backend.close()
    _assert_fully_torn_down(backend)


@pytest.mark.parametrize("kind", ["hang", "corrupt", "torn"])
def test_fault_sweep_fail_fast_attributes_machine(kind):
    # Without recoverable=True every kind keeps the original fail-stop
    # contract: machine-attributed error, full teardown, nothing leaked.
    # (The kill kind is already covered by test_multiproc_faults.)
    timeout_s = 3.0 if kind == "hang" else 60.0
    backend = MultiprocBackend(
        _build_system(), timeout_s=timeout_s,
        faults=FaultPlan.single(kind, machine=1, epoch=0, step=1,
                                duration_s=120.0))
    with pytest.raises(WorkerFailedError) as excinfo:
        backend.run_epoch(0)
    assert excinfo.value.machine == 1
    _assert_fully_torn_down(backend)


def test_multi_fault_budget_and_exhaustion(oracle_losses):
    # Two faults, budget of one restart: the first recovers, the second
    # exhausts the budget — the backend closes and the failure re-raises
    # machine-attributed.
    faults = FaultPlan([
        *FaultPlan.single("kill", machine=0, epoch=0, step=1),
        *FaultPlan.single("kill", machine=1, epoch=1, step=0),
    ])
    backend = MultiprocBackend(_build_system(), timeout_s=60.0,
                               recoverable=True, faults=faults)
    policy = RecoveryPolicy(max_restarts=1, backoff_base_s=0.01,
                            backoff_max_s=0.02, jitter=0.0)
    manager = RecoveryManager(backend, policy, sleep=lambda _s: None)
    with pytest.raises(WorkerFailedError) as excinfo:
        manager.train(3)
    assert excinfo.value.machine == 1
    assert manager.restarts == 1
    _assert_fully_torn_down(backend)


def test_worker_killed_during_capture_recovers_bit_identical(oracle_losses):
    # Rank 1 dies as the coordinator asks for the epoch-1 checkpoint: the
    # capture fails like an epoch would, so the manager recovers from the
    # epoch-0 checkpoint and replays epoch 1 in place of its report.
    epochs = 3
    backend = MultiprocBackend(_build_system(), timeout_s=60.0,
                               recoverable=True)
    capture = backend.capture_checkpoint

    def kill_then_capture(epoch):
        if epoch == 1 and backend.restarts_total == 0:
            victim = backend.processes[1]
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10.0)
            assert not victim.is_alive()
        return capture(epoch)

    backend.capture_checkpoint = kill_then_capture
    manager = RecoveryManager(backend, _FAST, sleep=lambda _s: None)
    reports = manager.train(epochs)
    assert _losses(reports) == oracle_losses(2, epochs)
    assert manager.restarts == 1
    [rec] = manager.recoveries
    assert rec["machine"] == 1 and rec["epoch"] == 1
    assert rec["replay_s"] is not None
    assert manager.checkpoint["epoch"] == epochs - 1
    backend.close()
    _assert_fully_torn_down(backend)


@pytest.mark.parametrize("engine,depth,step", [
    ("bsp", 1, 1), ("pipelined", 4, 3)], ids=["bsp", "pipelined-4"])
def test_faults_inside_the_exchange_recover_bit_identical(engine, depth,
                                                          step,
                                                          started_workers):
    """Epoch 1's ``step`` closes a comm window, so each worker draws its
    next window between posting the step and collecting its ``avg``.
    Rank 0 is killed there — after its ``step`` token arrived, before the
    coordinator averages — and rank 1, which never gets its ``avg``, is
    aborted there.  The recovered run equals the fault-free one (the
    in-process oracle, itself ``==`` a fault-free multiproc run), and
    nothing is left running or mapped afterwards."""
    epochs = 3
    kw = dict(engine=engine, pipeline_depth=depth)
    oracle = _build_system(**kw)
    want = _losses([oracle.train_epoch(e).report for e in range(epochs)])
    children = set(multiprocessing.active_children())
    spawned = invariants.worker_pids()

    backend = MultiprocBackend(_build_system(**kw), timeout_s=60.0,
                               recoverable=True)
    steps = backend.system.trainer.steps_per_epoch()
    assert step % depth == depth - 1 and step + 1 < steps  # closes a window
    average, calls = backend._average_step, []

    def kill_then_average(s):
        calls.append(s)
        if len(calls) == steps + step + 1:  # epoch 1, first pass
            victim = backend.processes[0]
            # What the last check reads:
            assert victim.pid in invariants.worker_pids()
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(10.0)
            assert not victim.is_alive()
        average(s)

    backend._average_step = kill_then_average
    manager = RecoveryManager(backend, _FAST, sleep=lambda _s: None)
    reports = manager.train(epochs)
    assert _losses(reports) == want
    [rec] = manager.recoveries
    assert (rec["machine"], rec["epoch"]) == (0, 1)
    backend.close()
    _assert_fully_torn_down(backend)
    assert set(multiprocessing.active_children()) <= children
    assert not invariants.unreaped(started_workers + backend.processes)
    assert not invariants.leftover_segments(backend)
    deadline = time.monotonic() + 10.0
    while not invariants.worker_pids() <= spawned \
            and time.monotonic() < deadline:
        time.sleep(0.05)  # a worker's sampler exits once its worker has
    assert invariants.worker_pids() <= spawned


# ----------------------------------------------------------------------
# checkpoint persistence
# ----------------------------------------------------------------------

def _checkpoints_equal(a, b):
    assert a["epoch"] == b["epoch"]
    assert sorted(a["model"]) == sorted(b["model"])
    for name in a["model"]:
        assert np.array_equal(np.asarray(a["model"][name]),
                              np.asarray(b["model"][name]))
    assert a["adam"]["t"] == b["adam"]["t"]
    for key in ("m", "v"):
        assert len(a["adam"][key]) == len(b["adam"][key])
        for x, y in zip(a["adam"][key], b["adam"][key]):
            assert np.array_equal(np.asarray(x), np.asarray(y))
    assert list(a["samplers"]) == list(b["samplers"])
    assert a["cache_fp"] == b["cache_fp"]


def test_checkpoint_disk_round_trip(tmp_path):
    cache = ArtifactCache(cache_dir=str(tmp_path))
    backend = MultiprocBackend(_build_system(), timeout_s=60.0,
                               recoverable=True)
    try:
        backend.run_epoch(0)
        ckpt = backend.capture_checkpoint(0)
        assert set(ckpt) == {"epoch", "model", "adam", "samplers", "cache_fp"}
        fp = backend.fingerprint
        save_checkpoint(cache, fp, ckpt)
        assert load_checkpoint(cache, fp) is ckpt  # memory tier hit
        cache.clear_memory()
        loaded = load_checkpoint(cache, fp)
        assert loaded is not None
        _checkpoints_equal(loaded, ckpt)
        assert load_checkpoint(cache, "no-such-cluster") is None
    finally:
        backend.close()


def test_warm_start_from_disk_bit_identical(tmp_path, oracle_losses):
    # Train two epochs with persistence, lose the whole run (coordinator
    # included), then warm-start a fresh cluster from disk: the combined
    # losses must be bit-identical to an uninterrupted three-epoch run.
    cache = ArtifactCache(cache_dir=str(tmp_path))
    backend1 = MultiprocBackend(_build_system(), timeout_s=60.0,
                                recoverable=True)
    manager1 = RecoveryManager(backend1, _FAST, cache=cache)
    reports1 = manager1.train(2)
    backend1.close()
    _assert_fully_torn_down(backend1)

    cache.clear_memory()  # the "new process" only has the disk tier
    backend2 = MultiprocBackend(_build_system(), timeout_s=60.0,
                                recoverable=True)
    manager2 = RecoveryManager(backend2, _FAST, cache=cache)
    resume = manager2.load_persisted()
    assert resume == 2
    reports2 = manager2.train(3, start_epoch=resume)
    assert _losses(reports1) + _losses(reports2) == oracle_losses(2, 3)
    backend2.close()
    _assert_fully_torn_down(backend2)


def test_checkpoint_refused_for_mismatched_cluster(tmp_path):
    backend = MultiprocBackend(_build_system(), timeout_s=60.0,
                               recoverable=True)
    backend.run_epoch(0)
    ckpt = backend.capture_checkpoint(0)
    ckpt["cache_fp"] = "0" * 64  # some other cluster's cache selection
    with pytest.raises(WorkerFailedError, match="fingerprint"):
        backend.recover(ckpt)
    _assert_fully_torn_down(backend)
    backend.close()  # idempotent after the failed recovery
    _assert_fully_torn_down(backend)
