"""Evaluation is the epoch loop's forward over the machine set.

``evaluate`` is defined as: machine ``k`` samples the split ids it owns,
``batch_size`` at a time in id order, from its own ``"inference"`` stream,
gathers each batch from the store as seen from ``k``, and counts the
correct predictions of its own replica in eval mode; accuracy is the sum of
those counts.  These tests hold the engine to that definition written out
by hand, reject bad arguments before any work, and check that evaluating
between epochs changes nothing the next epoch or the registry reports.
The multiproc side (each worker scoring its own shard) is held to the
in-process numbers in ``test_multiproc_parity.py``.
"""

import numpy as np
import pytest

from repro.core import RunConfig, SalientPP
from repro.distributed import DistributedTrainer, PartitionedFeatureStore
from repro.distributed.engine import ExecutionEngine
from repro.obs import OBS
from repro.sampling.neighbor import NeighborSampler
from repro.utils.rng import machine_stream_seed
from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches


def make_trainer(rd, engine="bsp", seed=5, **kw):
    ctx = CacheContext(rd.dataset.graph, rd.partition, rd.dataset.train_idx,
                       (5, 5), 16, seed=0)
    store = PartitionedFeatureStore.build(
        rd, gpu_fraction=0.3,
        caches=build_caches(VIPAnalyticPolicy(), ctx, alpha=0.2))
    return DistributedTrainer(rd, store, fanouts=(5, 5), batch_size=16,
                              hidden_dim=16, lr=0.01, seed=seed,
                              engine=engine, pipeline_depth=3, **kw)


def evaluate_by_hand(tr, split, fanouts):
    """The definition, one machine at a time, through the store's plain
    ``execute(plan_gather(...))``."""
    ids = getattr(tr.ds, f"{split}_idx")
    owner = tr.reordered.owner_of(ids)
    correct = total = 0
    for k in range(tr.num_machines):
        mine = ids[owner == k]
        sampler = NeighborSampler(
            tr.ds.graph, fanouts,
            seed=machine_stream_seed(tr.seed, "inference", k))
        model = tr.models[k]
        model.eval()
        for mfg in sampler.batches(mine, tr.batch_size, shuffle=False):
            feats, _ = tr.store.execute(tr.store.plan_gather(k, mfg.n_id))
            pred = model(feats, mfg).data.argmax(axis=1)
            correct += int((pred == tr.ds.labels[mfg.seeds]).sum())
        total += len(mine)
    return correct / total


@pytest.mark.parametrize("engine", ["bsp", "pipelined", "async"])
@pytest.mark.parametrize("split", ["val", "test", "train"])
@pytest.mark.parametrize("fanouts", [None, (-1, 3)])
def test_evaluate_is_each_machine_scoring_its_own_shard(
        tiny_reordered, engine, split, fanouts):
    tr = make_trainer(tiny_reordered, engine=engine)
    tr.train(2)
    want = evaluate_by_hand(tr, split, fanouts or tr.fanouts)
    assert 0.0 < want < 1.0
    assert tr.evaluate(split, fanouts=fanouts) == want
    assert tr.evaluate(split, fanouts=fanouts) == want  # a fresh stream each call


def test_evaluate_reuses_the_engine_arena(tiny_reordered):
    # No second arena and no new slot: evaluation gathers into slot 0 of
    # each machine, which training already holds.
    tr = make_trainer(tiny_reordered, engine="pipelined")
    tr.train_epoch(0)
    arena = tr.engine._gather_arena
    keys = set(arena._bufs)
    tr.evaluate("test")
    assert set(arena._bufs) == keys
    assert {(k, 0) for k in range(tr.num_machines)} <= keys


@pytest.mark.parametrize("bad, name", [
    (dict(split="tset"), "split"),
    (dict(split="valid"), "split"),
    (dict(fanouts=(5,)), "fanouts"),
    (dict(fanouts=(5, 5, 5)), "fanouts"),
    (dict(fanouts=(0, 5)), "fanouts"),
    (dict(fanouts=(5, -2)), "fanouts"),
    (dict(fanouts=(2.5, 5)), "fanouts"),
    (dict(fanouts="55"), "fanouts"),
])
def test_bad_arguments_are_rejected_before_any_work(tiny_dataset, monkeypatch,
                                                    bad, name):
    system = SalientPP.build(tiny_dataset, RunConfig(
        num_machines=2, replication_factor=0.1, batch_size=16,
        fanouts=(5, 5), hidden_dim=16))

    def no_work(*_args, **_kw):
        raise AssertionError("evaluation started before its arguments "
                             "were checked")

    monkeypatch.setattr(ExecutionEngine, "score_machines", no_work)
    with pytest.raises(ValueError, match=name):
        system.evaluate(**{"split": "test", **bad})


@pytest.mark.parametrize("engine", ["bsp", "pipelined", "async"])
def test_evaluate_between_epochs_changes_nothing(tiny_reordered, engine,
                                                check_registry):
    plain, probed = (make_trainer(tiny_reordered, engine=engine)
                     for _ in range(2))
    plain.train_epoch(0)
    probed.train_epoch(0)
    probed.evaluate("val")
    want = plain.train_epoch(1)
    OBS.reset()
    OBS.enable()
    try:
        got = probed.train_epoch(1)
        probed.evaluate("test")
        # No evaluation record reaches the registry: the store.* counters
        # are still the training epoch's.
        check_registry(OBS.metrics.snapshot(), got)
    finally:
        OBS.disable()
        OBS.reset()
    assert [(r.machine, r.step, r.loss) for r in got.records] == \
        [(r.machine, r.step, r.loss) for r in want.records]
    for field in ("feature_bytes", "request_bytes", "gradient_bytes"):
        assert np.array_equal(getattr(got.ledger, field),
                              getattr(want.ledger, field))
