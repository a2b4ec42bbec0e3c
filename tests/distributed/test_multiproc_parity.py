"""Differential parity: the multiproc backend vs the in-process oracle.

The in-process trainer *is* the semantics; the multiproc backend (one real
worker process per machine, shared-memory feature segments, wire-format
plans) must reproduce it bit-for-bit.  These tests build the same system
twice — ``backend="inprocess"`` and ``backend="multiproc"`` — on a
papers-mini graph with K=4 machines and demand exact equality of per-step
losses, communication ledgers, stage-event trace shapes, simulated epoch
times and held-out accuracy, for the bsp engine and for the pipelined
engine at depths 1 and 4.

Preprocessing (partition, VIP, reorder, caches) is shared through one
:class:`Planner`: ``backend`` appears in no stage fingerprint, so both
variants literally train over the same store contents.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import Planner, RunConfig, SalientPP
from repro.graph.datasets import make_papers_mini
from invariants import assert_trace_shape_equal
from repro.obs import OBS
from repro.utils.rng import machine_stream_seed

# Every test runs with the workers sampling inline and sampling ahead.
pytestmark = [
    pytest.mark.filterwarnings("ignore::DeprecationWarning"),
    pytest.mark.usefixtures("either_side_of_the_spare_core_rule"),
]

K = 4


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
    # One planner for the whole module: every (inprocess, multiproc) pair
    # shares partition/VIP/reorder/cache artifacts by fingerprint.
    return Planner()


def _build_pair(dataset, planner, cfg):
    ref = SalientPP.build(dataset, cfg, planner=planner)
    mp = SalientPP.build(
        dataset, dataclasses.replace(cfg, backend="multiproc"), planner=planner
    )
    return ref, mp


def _losses(report):
    return [(r.machine, r.step, r.loss) for r in report.records]


def _assert_reports_identical(res_ref, res_mp):
    ref, mp = res_ref.report, res_mp.report
    assert _losses(mp) == _losses(ref)  # bit-identical floats, same order keys
    assert mp.mean_loss == ref.mean_loss
    assert mp.steps_per_machine == ref.steps_per_machine
    assert np.array_equal(mp.ledger.feature_bytes, ref.ledger.feature_bytes)
    assert np.array_equal(mp.ledger.request_bytes, ref.ledger.request_bytes)
    assert np.array_equal(mp.ledger.gradient_bytes, ref.ledger.gradient_bytes)
    assert mp.events is not None and ref.events is not None
    assert_trace_shape_equal(mp.events, ref.events)
    assert res_mp.epoch_time == res_ref.epoch_time


def _assert_evaluations_identical(ref, mp):
    for split in ("val", "test"):
        acc = ref.evaluate(split)
        assert 0.0 < acc < 1.0
        assert mp.evaluate(split) == acc


# ----------------------------------------------------------------------
# bsp
# ----------------------------------------------------------------------

def test_bsp_epochs_bit_identical(papers_mini, planner):
    ref, mp = _build_pair(papers_mini, planner, _config(engine="bsp"))
    with ref, mp:
        for epoch in range(2):
            _assert_reports_identical(
                ref.train_epoch(epoch), mp.train_epoch(epoch)
            )
        # Each worker scores its own shard with the loop the in-process
        # trainer runs over all K, so held-out accuracy agrees exactly.
        _assert_evaluations_identical(ref, mp)
    assert not mp.backend().is_live


# ----------------------------------------------------------------------
# pipelined
# ----------------------------------------------------------------------

@pytest.mark.parametrize("depth", [1, 4])
def test_pipelined_epoch_bit_identical(papers_mini, planner, depth):
    cfg = _config(engine="pipelined", pipeline_depth=depth)
    ref, mp = _build_pair(papers_mini, planner, cfg)
    with ref, mp:
        res_ref = ref.train_epoch(0)
        res_mp = mp.train_epoch(0)
        _assert_reports_identical(res_ref, res_mp)
        if depth > 1:
            # Coalescing must actually engage, identically on both sides.
            co_ref = sum(r.gather.coalesced_rows for r in res_ref.report.records)
            co_mp = sum(r.gather.coalesced_rows for r in res_mp.report.records)
            assert co_ref == co_mp > 0
        _assert_evaluations_identical(ref, mp)
        # A dry-run epoch exercises the schedule without training.
        _assert_reports_identical(
            ref.train_epoch(1, dry_run=True), mp.train_epoch(1, dry_run=True)
        )


def test_evaluate_between_epochs_changes_nothing(papers_mini, planner,
                                                 check_registry):
    # The reference never evaluates; the cluster rejects bad arguments
    # before any round, stays live, evaluates, and its next epoch is still
    # the reference's — losses, ledger, trace — with the registry still
    # equal to that epoch's report after a further evaluation.
    plain, mp = _build_pair(papers_mini, planner, _config(engine="bsp"))
    with plain, mp:
        _assert_reports_identical(plain.train_epoch(0), mp.train_epoch(0))
        backend = mp.backend()
        for bad, names in ((dict(split="tset"), "split"),
                           (dict(fanouts=(4,)), "fanouts"),
                           (dict(fanouts=(4, 0)), "fanouts"),
                           (dict(fanouts=(-2, 3)), "fanouts")):
            with pytest.raises(ValueError, match=names):
                mp.evaluate(**{"split": "test", **bad})
        assert "eval" not in backend.wire_sent and backend.is_live
        assert 0.0 < mp.evaluate("test") < 1.0
        ref1 = plain.train_epoch(1)
        OBS.reset()
        OBS.enable()
        try:
            res1 = mp.train_epoch(1)
            mp.evaluate("val")
            check_registry(OBS.metrics.snapshot(), res1.report)
        finally:
            OBS.disable()
            OBS.reset()
        _assert_reports_identical(ref1, res1)
        assert backend.wire_sent["eval"][0] == 2 * K


def test_pipelined_depth1_matches_bsp_losses(papers_mini, planner):
    # With one in-flight batch the pipelined engine degenerates to bsp
    # functionally; the multiproc backend preserves that equivalence.
    bsp = SalientPP.build(papers_mini, _config(engine="bsp"), planner=planner)
    cfg = _config(engine="pipelined", pipeline_depth=1, backend="multiproc")
    pipe = SalientPP.build(papers_mini, cfg, planner=planner)
    with bsp, pipe:
        assert _losses(pipe.train_epoch(0).report) == \
            _losses(bsp.train_epoch(0).report)


# ----------------------------------------------------------------------
# sampler streams are spawn-order independent (the RNG satellite)
# ----------------------------------------------------------------------

def test_worker_seeds_depend_only_on_run_seed_and_machine(papers_mini, planner):
    ref, mp = _build_pair(papers_mini, planner, _config(engine="bsp"))
    backend = mp.backend()
    backend.start()
    try:
        tr = ref.trainer
        specs = backend.worker_specs
        # Workers receive coordinator-derived stream seeds — functions of
        # (trainer seed, stream name, machine id) only, independent of
        # spawn order, pids, or import order.
        for k, spec in enumerate(specs):
            assert spec.sampler_seed == machine_stream_seed(tr.seed, "sampler", k)
            assert spec.order_seed == machine_stream_seed(tr.seed, "order", k)
    finally:
        mp.shutdown()
        ref.shutdown()


# ----------------------------------------------------------------------
# config validation
# ----------------------------------------------------------------------

def test_unknown_backend_rejected():
    with pytest.raises(ValueError, match="backend"):
        _config(backend="carrier-pigeon").validate()


def test_multiproc_rejects_async_engine():
    with pytest.raises(ValueError, match="engine"):
        _config(backend="multiproc", engine="async").validate()


def test_multiproc_rejects_dynamic_cache_policy():
    with pytest.raises(ValueError, match="cache"):
        _config(backend="multiproc", cache_policy="lru").validate()


def test_multiproc_rejects_full_replication():
    with pytest.raises(ValueError, match="replication"):
        _config(backend="multiproc", full_replication=True).validate()


def test_backend_absent_from_stage_fingerprints():
    from repro.core.planner import STAGE_CONFIG_FIELDS

    for stage, fields in STAGE_CONFIG_FIELDS.items():
        assert "backend" not in fields, stage
