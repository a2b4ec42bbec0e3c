"""Regression tests for the zero-copy shared-memory data plane.

Two contracts the perf work must never silently lose:

* **Control tokens only, one dialect** — a training step costs each worker
  exactly two pipe messages (``step`` in, ``avg`` out) whatever the engine
  or its depth, a dry run one ``window`` token per comm window, each under
  a fixed byte budget; gradients move through the shared-memory plane and
  telemetry ships once per epoch.  The backend's ``wire_sent`` /
  ``wire_received`` accounting is asserted directly.
* **Warm worker pool** — a ``keep_warm`` backend parks its workers on
  close, and a successor of *any* configuration takes the *same processes*
  (no respawn) and still reproduces the in-process oracle bit-for-bit —
  a parked worker holds no spec; the pool drains cleanly.
"""

import dataclasses

import pytest

from repro.core import Planner, RunConfig, SalientPP
from repro.distributed.multiproc import WORKER_POOL, MultiprocBackend
from repro.graph.datasets import make_papers_mini

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")

K = 4

#: Per-step, per-worker budget for each control-plane message (bytes).
#: Tokens are currently ~30-40 bytes (magic + kind + one small int dict);
#: the budget leaves headroom for a field or two but forbids any array or
#: encoded plan sneaking back onto the hot path.
STEP_BYTE_BUDGET = 256


def _config(**overrides) -> RunConfig:
    base = dict(
        num_machines=K,
        fanouts=(4, 3),
        batch_size=32,
        hidden_dim=16,
        replication_factor=0.05,
        gpu_fraction=0.5,
        seed=0,
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def papers_mini():
    return make_papers_mini(seed=1, scale=0.04)


@pytest.fixture(scope="module")
def planner():
    return Planner()


@pytest.fixture(autouse=True)
def _drain_pool():
    # Every test starts and ends with an empty warm pool so parked workers
    # never leak across tests (or out of the test process).
    WORKER_POOL.clear()
    yield
    WORKER_POOL.clear()


def _losses(report):
    return [(r.machine, r.step, r.loss) for r in report.records]


# ----------------------------------------------------------------------
# control-token byte budget
# ----------------------------------------------------------------------


@pytest.mark.parametrize("engine,depth", [
    ("bsp", 1), ("pipelined", 1), ("pipelined", 4), ("pipelined", 10)])
def test_per_step_pipe_traffic_is_control_tokens_only(
        papers_mini, planner, engine, depth):
    """The one wire dialect: which hot-path tokens cross the pipe depends
    on ``dry_run`` only — never on the engine's name or depth."""
    cfg = _config(engine=engine, pipeline_depth=depth, backend="multiproc")
    system = SalientPP.build(papers_mini, cfg, planner=planner)
    try:
        system.train_epoch(0)
        backend = system.backend()
        steps = system.trainer.steps_per_epoch()
        windows = len(system.trainer.engine.schedule(steps).windows)
        assert windows == -(-steps // depth)

        def hot(table):
            return {kind: count for kind, (count, _nbytes) in table.items()
                    if kind in ("step", "window", "avg")}

        # A training epoch: per worker-step one ``step`` in, one ``avg`` out.
        assert hot(backend.wire_received) == {"step": K * steps}
        assert hot(backend.wire_sent) == {"avg": K * steps}

        # A dry run has only windows to report, and nothing to release.
        system.train_epoch(1, dry_run=True)
        assert hot(backend.wire_received) == {"step": K * steps,
                                              "window": K * windows}
        assert hot(backend.wire_sent) == {"avg": K * steps}

        for table in (backend.wire_sent, backend.wire_received):
            for kind, (count, nbytes) in table.items():
                if kind in ("step", "window", "avg"):
                    assert nbytes / count <= STEP_BYTE_BUDGET, (
                        f"{kind} messages average {nbytes / count:.0f} "
                        f"bytes — arrays are back on the hot path"
                    )
                else:
                    # Nothing else is per step: every other kind is
                    # per-epoch (run/done, two epochs here) or
                    # per-lifetime (bind/ready/bound/park/stop).
                    assert count <= K * 2, (kind, count)
    finally:
        system.shutdown()


def test_gradients_absent_from_pipe_payloads(papers_mini, planner):
    """The whole per-step wire volume is far below one gradient's size —
    the strongest form of "gradients moved to shared memory"."""
    from repro.distributed.comm import gradient_nbytes

    cfg = _config(engine="bsp", backend="multiproc")
    system = SalientPP.build(papers_mini, cfg, planner=planner)
    try:
        system.train_epoch(0)
        backend = system.backend()
        grad_bytes = gradient_nbytes(system.trainer.models[0])
        steps = system.trainer.steps_per_epoch()
        hot_bytes = sum(
            table.get(kind, (0, 0))[1]
            for table in (backend.wire_sent, backend.wire_received)
            for kind in ("step", "avg")
        )
        # Old data plane: ~2 * K * steps * grad_bytes just for gradients.
        assert hot_bytes < grad_bytes, (hot_bytes, grad_bytes)
        assert hot_bytes <= 2 * K * steps * STEP_BYTE_BUDGET
    finally:
        system.shutdown()


# ----------------------------------------------------------------------
# warm worker pool
# ----------------------------------------------------------------------


def test_warm_pool_reuses_processes_with_bit_parity(papers_mini, planner):
    cfg = _config(engine="bsp")
    ref = SalientPP.build(papers_mini, cfg, planner=planner)
    ref_result = ref.train_epoch(0)

    mp_cfg = dataclasses.replace(cfg, backend="multiproc")
    first = SalientPP.build(papers_mini, mp_cfg, planner=planner)
    backend1 = first.backend()
    backend1.keep_warm = True
    first_result = first.train_epoch(0)
    assert not backend1.reused_pool
    pids = sorted(p.pid for p in backend1.processes)
    first.shutdown()
    assert WORKER_POOL.num_parked == K
    assert not backend1.is_live  # parked, but this backend is done

    second = SalientPP.build(papers_mini, mp_cfg, planner=planner)
    backend2 = second.backend()
    try:
        second_result = second.train_epoch(0)
        assert backend2.reused_pool
        assert sorted(p.pid for p in backend2.processes) == pids
        assert WORKER_POOL.num_parked == 0
        assert _losses(second_result.report) == _losses(ref_result.report)
        assert _losses(first_result.report) == _losses(ref_result.report)
        assert second_result.report.mean_loss == ref_result.report.mean_loss
    finally:
        second.shutdown()
    # keep_warm was left False on the second backend: processes are dead.
    assert all(not p.is_alive() for p in backend2.processes)


def test_parked_workers_serve_any_configuration(papers_mini, planner):
    mp_cfg = _config(engine="bsp", backend="multiproc")
    first = SalientPP.build(papers_mini, mp_cfg, planner=planner)
    first.backend().keep_warm = True
    first.train_epoch(0)
    pids = sorted(p.pid for p in first.backend().processes)
    first.shutdown()
    assert WORKER_POOL.num_parked == K

    # A different seed changes every derived stream seed (a different
    # fingerprint); the parked workers are generic and serve it anyway.
    other_cfg = dataclasses.replace(mp_cfg, seed=1)
    ref = SalientPP.build(
        papers_mini, dataclasses.replace(other_cfg, backend="inprocess"),
        planner=planner).train_epoch(0)
    second = SalientPP.build(papers_mini, other_cfg, planner=planner)
    backend2 = second.backend()
    try:
        result = second.train_epoch(0)
        assert backend2.reused_pool
        assert backend2.fingerprint != first.backend().fingerprint
        assert sorted(p.pid for p in backend2.processes) == pids
        assert WORKER_POOL.num_parked == 0
        assert _losses(result.report) == _losses(ref.report)
    finally:
        second.shutdown()


def test_fingerprint_is_deterministic_and_name_independent(
        papers_mini, planner):
    mp_cfg = _config(engine="bsp", backend="multiproc")
    a = SalientPP.build(papers_mini, mp_cfg, planner=planner)
    b = SalientPP.build(papers_mini, mp_cfg, planner=planner)
    backend_a, backend_b = a.backend(), b.backend()
    try:
        backend_a.start()
        backend_b.start()
        # Segment names are random per backend; the fingerprint must not
        # see them (otherwise a persisted checkpoint could never be found
        # again).
        assert backend_a.segment_names != backend_b.segment_names
        assert backend_a.fingerprint == backend_b.fingerprint
    finally:
        a.shutdown()
        b.shutdown()


def test_faulted_cluster_is_never_parked(papers_mini, planner):
    from repro.distributed import FaultPlan
    from repro.distributed.multiproc import WorkerFailedError

    mp_cfg = _config(engine="bsp", backend="multiproc")
    system = SalientPP.build(papers_mini, mp_cfg, planner=planner)
    # Two steps per epoch at this scale: fail machine 1 at the last one.
    backend = MultiprocBackend(system, timeout_s=30.0, keep_warm=True,
                               faults=FaultPlan.single("kill", 1, 0, 1))
    with pytest.raises(WorkerFailedError):
        backend.run_epoch(0)
    assert WORKER_POOL.num_parked == 0
    assert all(not p.is_alive() for p in backend.processes)


def test_pool_clear_stops_parked_workers(papers_mini, planner):
    mp_cfg = _config(engine="bsp", backend="multiproc")
    system = SalientPP.build(papers_mini, mp_cfg, planner=planner)
    backend = system.backend()
    backend.keep_warm = True
    system.train_epoch(0)
    procs = list(backend.processes)
    system.shutdown()
    assert WORKER_POOL.num_parked == K
    assert all(p.is_alive() for p in procs)
    WORKER_POOL.clear()
    assert WORKER_POOL.num_parked == 0
    assert all(not p.is_alive() for p in procs)


def test_parked_workers_hold_no_segment_attachments(papers_mini, planner):
    """After parking, every shared-memory segment unlinks cleanly — parked
    workers released all their views (else /dev/shm would leak)."""
    import os

    mp_cfg = _config(engine="bsp", backend="multiproc")
    system = SalientPP.build(papers_mini, mp_cfg, planner=planner)
    backend = system.backend()
    backend.keep_warm = True
    system.train_epoch(0)
    names = list(backend.segment_names)
    system.shutdown()
    assert WORKER_POOL.num_parked == K
    for name in names:
        assert not os.path.exists(f"/dev/shm/{name}")
