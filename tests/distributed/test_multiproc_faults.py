"""Fault injection and resource hygiene for the multiproc backend.

A worker hard-killed mid-epoch must surface as a clean
:class:`WorkerFailedError` naming the machine, after which the backend is
fully torn down: every worker process dead, every pipe closed, every
shared-memory segment unlinked, and further ``run_epoch`` calls refused.
Normal shutdown must leave the same nothing behind — including no
``resource_tracker`` "leaked shared_memory" noise at interpreter exit.
"""

import glob
import multiprocessing
import os
import subprocess
import sys
import threading
import time
from multiprocessing import shared_memory

import pytest

import invariants
from repro.core import RunConfig, SalientPP
from repro.distributed import FaultPlan, MultiprocBackend, WorkerFailedError
from repro.distributed.multiproc import WORKER_POOL
from repro.graph.datasets import make_tiny

# Every test runs with the workers sampling inline and sampling ahead.
pytestmark = pytest.mark.usefixtures("either_side_of_the_spare_core_rule")

_REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _build_system():
    ds = make_tiny(seed=3, num_vertices=2000)
    cfg = RunConfig(
        num_machines=2,
        fanouts=(4, 3),
        batch_size=16,
        hidden_dim=16,
        replication_factor=0.05,
        gpu_fraction=0.5,
        seed=0,
    )
    return SalientPP.build(ds, cfg)


def _assert_fully_torn_down(backend):
    assert not backend.is_live
    assert all(not p.is_alive() for p in backend.processes)
    for name in backend.segment_names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)
        assert not os.path.exists(f"/dev/shm/{name}")


def test_worker_killed_mid_epoch_raises_and_tears_down():
    system = _build_system()
    backend = MultiprocBackend(
        system, timeout_s=30.0,
        faults=FaultPlan.single("kill", machine=1, epoch=0, step=2))
    with pytest.raises(WorkerFailedError) as excinfo:
        backend.run_epoch(0)
    assert excinfo.value.machine == 1
    assert "worker 1" in str(excinfo.value)
    _assert_fully_torn_down(backend)
    # The backend is spent: it refuses to run again rather than hang on
    # dead pipes.
    with pytest.raises(RuntimeError, match="closed"):
        backend.run_epoch(1)


def test_external_kill_between_epochs():
    system = _build_system()
    backend = MultiprocBackend(system, timeout_s=30.0)
    report = backend.run_epoch(0)
    assert report.mean_loss is not None
    backend.processes[0].kill()
    with pytest.raises(WorkerFailedError) as excinfo:
        backend.run_epoch(1)
    assert excinfo.value.machine == 0
    _assert_fully_torn_down(backend)


@pytest.mark.parametrize("victim", [0, 1])
def test_worker_killed_before_evaluate_raises_and_tears_down(
        victim, started_workers):
    # The eval round is a round like any other: a rank that died after its
    # last epoch fails it at once, named and blamed on its death, and the
    # cluster is torn down without leaving a segment or a child behind.
    children = set(multiprocessing.active_children())
    segments = set(glob.glob("/dev/shm/rpmp*"))
    backend = MultiprocBackend(_build_system(), timeout_s=30.0)
    backend.run_epoch(0)
    backend.processes[victim].kill()
    backend.processes[victim].join()
    with pytest.raises(WorkerFailedError, match="process died") as excinfo:
        backend.evaluate("test")
    assert excinfo.value.machine == victim
    assert f"worker {victim}" in str(excinfo.value)
    _assert_fully_torn_down(backend)
    assert set(glob.glob("/dev/shm/rpmp*")) <= segments
    assert set(multiprocessing.active_children()) <= children
    assert not invariants.unreaped(started_workers + backend.processes)


def test_evaluate_refused_like_run_epoch_on_a_closed_or_faulted_backend():
    # Neither call reaches a worker: both raise the same RuntimeError.
    def refusals(backend):
        errors = []
        for call in (lambda: backend.run_epoch(1),
                     lambda: backend.evaluate("test")):
            with pytest.raises(RuntimeError) as excinfo:
                call()
            assert not isinstance(excinfo.value, WorkerFailedError)
            errors.append(str(excinfo.value))
        assert errors[0] == errors[1]
        return errors[0]

    closed = MultiprocBackend(_build_system(), timeout_s=30.0)
    closed.run_epoch(0)
    closed.close()
    assert "closed" in refusals(closed)

    faulted = MultiprocBackend(
        _build_system(), timeout_s=30.0, recoverable=True,
        faults=FaultPlan.single("kill", machine=1, epoch=0, step=1))
    with pytest.raises(WorkerFailedError):
        faulted.run_epoch(0)
    try:
        assert "faulted" in refusals(faulted)
        assert faulted.is_live  # refused, not torn down
    finally:
        faulted.close()
    _assert_fully_torn_down(faulted)


def test_clean_shutdown_leaves_nothing_behind():
    system = _build_system()
    backend = MultiprocBackend(system, timeout_s=30.0)
    backend.run_epoch(0)
    assert backend.is_live
    # feat0, feat1 + graph (indptr/indices) + labels + gradient plane
    assert len(backend.segment_names) == 2 + 3 + 1
    names = list(backend.segment_names)
    backend.close()
    backend.close()  # idempotent
    assert not backend.is_live
    assert all(not p.is_alive() for p in backend.processes)
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")


def test_system_context_manager_shuts_down_backend():
    import dataclasses

    ds = make_tiny(seed=3, num_vertices=2000)
    cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                    hidden_dim=16, replication_factor=0.05, gpu_fraction=0.5)
    with SalientPP.build(ds, dataclasses.replace(cfg, backend="multiproc")) as system:
        system.train_epoch(0)
        backend = system.backend()
        assert backend.is_live
    _assert_fully_torn_down(backend)


def test_training_set_swap_refused_while_live():
    system = _build_system()
    backend = MultiprocBackend(system, timeout_s=30.0)
    system._backend = backend
    backend.run_epoch(0)
    train_idx = system.trainer.ds.train_idx
    try:
        with pytest.raises(RuntimeError, match="live cluster backend"):
            system.update_training_set(train_idx)
    finally:
        system.shutdown()
    # After shutdown the swap is allowed again.
    system.update_training_set(train_idx)


def test_hang_detected_within_receive_deadline():
    # A worker sleeping past timeout_s must be detected by the receive
    # deadline — within roughly one pump interval of it, not the hang
    # duration — attributed to the right machine, and the sleeping process
    # reaped at teardown (no orphan survives a 120 s nap).
    system = _build_system()
    backend = MultiprocBackend(
        system, timeout_s=2.0,
        faults=FaultPlan.single("hang", machine=1, epoch=0, step=1,
                                duration_s=120.0))
    t0 = time.monotonic()
    with pytest.raises(WorkerFailedError) as excinfo:
        backend.run_epoch(0)
    elapsed = time.monotonic() - t0
    assert excinfo.value.machine == 1
    assert "no message" in str(excinfo.value)
    # Budget: epoch work before the hang + the 2 s deadline + one ~1 s
    # pump interval + teardown (terminate, not the full join escalation).
    assert elapsed < 10.0, f"hang took {elapsed:.1f}s to surface"
    _assert_fully_torn_down(backend)


@pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("nan"),
                                       float("inf")])
def test_timeout_s_must_be_positive_and_finite(timeout_s):
    # 0 blames a healthy worker on the first message; nan turns hang
    # detection off (no deadline ever compares as passed).
    with pytest.raises(ValueError, match="timeout_s"):
        MultiprocBackend(_build_system(), timeout_s=timeout_s)


def test_replacement_dying_in_recover_escalates_at_once(monkeypatch,
                                                        started_workers):
    # A replacement rank that dies while recover() binds it fails the
    # recovery at once, blamed on its death — not 120 s later on the ready
    # handshake's deadline, blamed on a timeout — and recovery escalates to
    # a full teardown that leaves no segment or child process behind.
    from repro.distributed.multiproc import coordinator

    WORKER_POOL.clear()  # the replacement must be a fresh spawn
    children = set(multiprocessing.active_children())
    segments = set(glob.glob("/dev/shm/rpmp*"))
    timeout_s = 5.0
    backend = MultiprocBackend(
        _build_system(), timeout_s=timeout_s, recoverable=True,
        faults=FaultPlan.single("kill", machine=1, epoch=0, step=1))
    with pytest.raises(WorkerFailedError):
        backend.run_epoch(0)

    spawn, spawned = coordinator.spawn_worker, []

    def dead_on_arrival():
        channel = spawn()
        channel.proc.kill()
        channel.proc.join()
        spawned.append(channel.proc)
        return channel

    monkeypatch.setattr(coordinator, "spawn_worker", dead_on_arrival)
    t0 = time.monotonic()
    with pytest.raises(WorkerFailedError, match="process died") as excinfo:
        backend.recover(None)
    elapsed = time.monotonic() - t0
    assert excinfo.value.machine == 1
    assert elapsed < timeout_s + 1.0, f"took {elapsed:.1f}s to surface"
    assert len(spawned) == 1
    _assert_fully_torn_down(backend)
    assert set(glob.glob("/dev/shm/rpmp*")) <= segments
    assert set(multiprocessing.active_children()) <= children
    assert len(started_workers) == 3  # two at start, one in recover()
    assert not invariants.unreaped(started_workers)


# ----------------------------------------------------------------------
# warm-pool lifecycle
# ----------------------------------------------------------------------

def _park_clusters(n):
    """Park ``n`` clean clusters; returns the parked worker pids.  The
    backends run concurrently — a closed backend's parked workers would
    otherwise just be taken (and re-parked) by the next one."""
    backends = []
    for _ in range(n):
        backend = MultiprocBackend(_build_system(), timeout_s=30.0,
                                   keep_warm=True)
        backend.run_epoch(0)
        backends.append(backend)
    pids = {proc.pid for backend in backends for proc in backend.processes}
    for backend in backends:
        backend.close()
    assert WORKER_POOL.num_parked == len(pids)
    return pids


def test_faulted_unrecovered_cluster_never_parked():
    before = WORKER_POOL.num_parked
    backend = MultiprocBackend(
        _build_system(), timeout_s=30.0, keep_warm=True, recoverable=True,
        faults=FaultPlan.single("kill", machine=1, epoch=0, step=1))
    with pytest.raises(WorkerFailedError):
        backend.run_epoch(0)
    backend.close()  # faulted, unrecovered: torn down, never parked
    assert WORKER_POOL.num_parked == before
    _assert_fully_torn_down(backend)


def test_unfired_fault_plan_is_never_parked():
    before = WORKER_POOL.num_parked
    backend = MultiprocBackend(
        _build_system(), timeout_s=30.0, keep_warm=True,
        faults=FaultPlan.single("kill", machine=1, epoch=7, step=0))
    backend.run_epoch(0)  # the scheduled fault never fires
    backend.close()
    # A worker still holding an unfired fault schedule must not reenter
    # the generic pool.
    assert WORKER_POOL.num_parked == before
    _assert_fully_torn_down(backend)


def test_recovered_then_clean_cluster_parks():
    try:
        before = WORKER_POOL.num_parked
        backend = MultiprocBackend(
            _build_system(), timeout_s=30.0, keep_warm=True,
            recoverable=True,
            faults=FaultPlan.single("kill", machine=1, epoch=0, step=1))
        with pytest.raises(WorkerFailedError):
            backend.run_epoch(0)
        backend.recover(None)
        report = backend.run_epoch(0)  # replay, fault schedule cleared
        assert report.mean_loss is not None
        backend.close()
        # Recovered and idle: as parkable as any clean cluster (the
        # replacement rank was bound with an empty fault schedule).
        assert WORKER_POOL.num_parked == before + 2
    finally:
        WORKER_POOL.clear()


def test_recovery_prefers_warm_spares():
    try:
        parked_pids = _park_clusters(2)
        assert len(parked_pids) == 4  # two K=2 clusters
        backend = MultiprocBackend(
            _build_system(), timeout_s=30.0, recoverable=True,
            faults=FaultPlan.single("kill", machine=1, epoch=0, step=1))
        with pytest.raises(WorkerFailedError):
            backend.run_epoch(0)
        assert backend.reused_pool  # started on two of the parked workers
        recovered_before = backend.processes[1].pid
        assert backend.recover(None) == 1
        replacement = backend.processes[1].pid
        assert replacement != recovered_before
        # The replacement is one of the two still parked, not a fresh
        # spawn.
        assert replacement in parked_pids
        report = backend.run_epoch(0)
        assert report.mean_loss is not None
        backend.close()
        _assert_fully_torn_down(backend)
    finally:
        WORKER_POOL.clear()


_TRACKER_SCRIPT = """
import dataclasses
from repro.core import RunConfig, SalientPP
from repro.graph.datasets import make_tiny

ds = make_tiny(seed=3, num_vertices=1500)
cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16, hidden_dim=16,
                replication_factor=0.05, gpu_fraction=0.5, backend="multiproc")
with SalientPP.build(ds, cfg) as system:
    report = system.train_epoch(0).report
    assert report.mean_loss is not None
print("OK")
"""


def test_no_resource_tracker_leak_warnings():
    # Run a full epoch + shutdown in a fresh interpreter: at exit, the
    # multiprocessing resource tracker prints (and KeyErrors) on any
    # segment whose register/unregister accounting went wrong.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src")
    proc = subprocess.run(
        [sys.executable, "-c", _TRACKER_SCRIPT],
        capture_output=True, text=True, timeout=300, env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
    )
    assert proc.returncode == 0, proc.stderr
    assert "OK" in proc.stdout
    assert "leaked" not in proc.stderr, proc.stderr
    assert "KeyError" not in proc.stderr, proc.stderr
    assert "Traceback" not in proc.stderr, proc.stderr


# ----------------------------------------------------------------------
# forked workers: what a fork inherits, and what it must not keep
# ----------------------------------------------------------------------

_DYING_COORDINATOR = """
import os, sys, time
from repro.core import RunConfig, SalientPP
from repro.graph.datasets import make_tiny

cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16, hidden_dim=16,
                replication_factor=0.05, gpu_fraction=0.5, seed=0,
                backend="multiproc")
system = SalientPP.build(make_tiny(seed=3, num_vertices=2000), cfg)
backend = system.backend()
backend.start()
print(*(p.pid for p in backend.processes), flush=True)
print(*backend.segment_names, flush=True)
if sys.argv[1] == "killed-mid-epoch":
    def stall(step):  # every worker has posted the step and waits for avg
        print("mid-epoch", flush=True)
        time.sleep(600)
    backend._average_step = stall
    system.train_epoch(0)
system.train_epoch(0)
print("trained", flush=True)
if sys.argv[1] == "os-exit":
    os._exit(0)  # no finalizer, no atexit: nothing of the backend's runs
"""


@pytest.mark.parametrize("death", ["killed-mid-epoch", "os-exit", "exit"])
def test_a_dead_coordinator_leaves_no_worker_and_no_segment(death):
    # Whatever way the coordinator goes without shutdown(), its workers read
    # end-of-stream on their pipe (no sibling holds it: each fork closed
    # every descriptor but its own) and exit, and its resource tracker
    # unlinks the segments.
    before = invariants.worker_pids()
    env = dict(os.environ, PYTHONPATH=os.path.join(_REPO, "src"))
    coordinator = subprocess.Popen(
        [sys.executable, "-c", _DYING_COORDINATOR, death],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=env, cwd=_REPO)
    try:
        workers = {int(pid) for pid in coordinator.stdout.readline().split()}
        segments = coordinator.stdout.readline().split()
        assert len(workers) == 2 and workers <= invariants.worker_pids()
        assert segments and all(os.path.exists(f"/dev/shm/{name}")
                                for name in segments)
        last = "mid-epoch" if death == "killed-mid-epoch" else "trained"
        assert coordinator.stdout.readline().strip() == last
        if death == "killed-mid-epoch":
            coordinator.kill()
        coordinator.wait(60)
    finally:
        coordinator.kill()
        coordinator.stdout.close()
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and (
            invariants.worker_pids() - before
            or any(os.path.exists(f"/dev/shm/{n}") for n in segments)):
        time.sleep(0.05)
    assert not invariants.worker_pids() - before
    assert not [n for n in segments if os.path.exists(f"/dev/shm/{n}")]


def test_the_orphan_probe_sees_a_forked_worker():
    # The name every forked worker (and the sampler it forks) carries is
    # what CI's probe and invariants.worker_pids() match: a worker nobody
    # stops is found, a stopped one is not.
    from repro.distributed.multiproc.pool import spawn_worker, stop_workers

    channel = spawn_worker()
    try:
        assert channel.recv(time.monotonic() + 30.0)[0] == "ready"
        with open(f"/proc/{channel.proc.pid}/comm") as fh:
            assert fh.read().strip() == "repro-mp-worker"
        assert channel.proc.pid in invariants.worker_pids()
    finally:
        stop_workers([channel])
    assert channel.proc.pid not in invariants.worker_pids()
    assert not invariants.unreaped([channel.proc])


def _open_fds():
    return len(os.listdir("/proc/self/fd"))


def test_a_start_shutdown_cycle_closes_every_descriptor():
    # Every worker is watched through a pidfd; reaping it closes the pidfd,
    # and shutdown reaps every worker.
    def cycle():
        backend = MultiprocBackend(_build_system(), timeout_s=30.0)
        backend.start()
        assert all(p.sentinel is not None for p in backend.processes)
        backend.close()
        assert all(p.sentinel is None for p in backend.processes)

    WORKER_POOL.clear()
    cycle()  # opens what stays open for good: the resource tracker's pipe
    fds = _open_fds()
    cycle()
    assert _open_fds() == fds


def test_a_forked_worker_starts_no_resource_tracker():
    # A forked worker closed its inherited resource-tracker pipe; attaching
    # a segment registers it, which with a live tracker module would probe
    # the dead descriptor and start a tracker of the worker's own.
    backend = MultiprocBackend(_build_system(), timeout_s=30.0)
    try:
        backend.run_epoch(0)  # every worker has attached every segment
        for proc in backend.processes:
            children = subprocess.run(
                ["pgrep", "-P", str(proc.pid)],
                capture_output=True, text=True).stdout.split()
            # A worker's one child is its sampler process, when it has one
            # (a tracker would be a fresh interpreter, named python).
            assert len(children) <= 1
            for child in children:
                with open(f"/proc/{child}/comm") as fh:
                    assert fh.read().strip() == "repro-mp-worker"
    finally:
        backend.close()
    _assert_fully_torn_down(backend)


def test_a_traced_epoch_holds_no_coordinator_span_twice():
    # The workers fork while the coordinator holds recorded and open spans;
    # what a worker ships back is only its own.
    from repro.obs import OBS

    OBS.reset()
    OBS.enable()
    try:
        with OBS.span("test.recorded"):
            pass
        with OBS.span("test.open"):
            backend = MultiprocBackend(_build_system(), timeout_s=30.0)
            try:
                backend.run_epoch(0)
            finally:
                backend.close()
        spans = list(OBS.tracer.spans)
    finally:
        OBS.disable()
        OBS.reset()
    ids = [s.span_id for s in spans]
    assert len(ids) == len(set(ids))
    lanes = {s.lane for s in spans}
    assert {"worker-0", "worker-1"} <= lanes
    coordinator = [s.name for s in spans if s.lane == "coordinator"]
    assert coordinator.count("test.recorded") == 1
    assert coordinator.count("test.open") == 1
    assert not {s.name for s in spans if s.lane.startswith("worker")} \
        & {"test.recorded", "test.open", "mp.epoch"}


def test_start_refuses_while_a_second_thread_runs():
    # A fork copies only the calling thread; a lock another thread holds
    # would stay held in the worker.  So no worker is forked then.
    WORKER_POOL.clear()
    segments = set(glob.glob("/dev/shm/rpmp*"))
    backend = MultiprocBackend(_build_system(), timeout_s=30.0)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        with pytest.raises(RuntimeError, match="more than one thread"):
            backend.start()
    finally:
        release.set()
        other.join()
    assert backend.processes == []
    assert set(glob.glob("/dev/shm/rpmp*")) <= segments
