"""Distributed trainer tests: convergence, replica sync, cache transparency."""

import pytest

from repro.distributed import DistributedTrainer, PartitionedFeatureStore
from repro.vip import CacheContext, VIPAnalyticPolicy, build_caches


def make_trainer(rd, alpha=0.0, gpu_fraction=0.0, seed=0, **kw):
    caches = None
    if alpha > 0:
        ctx = CacheContext(rd.dataset.graph, rd.partition, rd.dataset.train_idx,
                           (5, 5), 16, seed=0)
        caches = build_caches(VIPAnalyticPolicy(), ctx, alpha=alpha)
    store = PartitionedFeatureStore.build(rd, gpu_fraction=gpu_fraction, caches=caches)
    return DistributedTrainer(rd, store, fanouts=(5, 5), batch_size=16,
                              hidden_dim=16, lr=0.01, seed=seed, **kw)


class TestTraining:
    def test_loss_decreases(self, tiny_reordered):
        tr = make_trainer(tiny_reordered)
        reports = tr.train(4)
        assert reports[-1].mean_loss < reports[0].mean_loss

    def test_replicas_stay_in_sync(self, tiny_reordered):
        tr = make_trainer(tiny_reordered)
        tr.train(2)
        assert tr.models_in_sync()

    def test_evaluate_accuracy_reasonable(self, tiny_reordered):
        tr = make_trainer(tiny_reordered)
        tr.train(6)
        acc = tr.evaluate("test")
        assert acc > 0.5  # 4 classes, strong planted signal

    def test_steps_per_epoch(self, tiny_reordered):
        tr = make_trainer(tiny_reordered)
        counts = [len(ids) // 16 for ids in tr.local_train]
        assert tr.steps_per_epoch() == min(counts)


class TestCacheTransparency:
    def test_caching_never_changes_training(self, tiny_reordered):
        """The paper's correctness claim (§5.3): caching affects where bytes
        live, never what the model computes.  Same seeds with and without a
        cache must give bit-identical losses."""
        a = make_trainer(tiny_reordered, alpha=0.0, seed=7)
        b = make_trainer(tiny_reordered, alpha=0.5, seed=7)
        ra = a.train(2)
        rb = b.train(2)
        for ea, eb in zip(ra, rb):
            assert ea.mean_loss == pytest.approx(eb.mean_loss, abs=0.0)

    def test_gpu_fraction_never_changes_training(self, tiny_reordered):
        a = make_trainer(tiny_reordered, gpu_fraction=0.0, seed=3)
        b = make_trainer(tiny_reordered, gpu_fraction=1.0, seed=3)
        assert a.train(1)[0].mean_loss == pytest.approx(b.train(1)[0].mean_loss, abs=0.0)

    def test_caching_reduces_remote_rows(self, tiny_reordered):
        a = make_trainer(tiny_reordered, alpha=0.0, seed=1)
        b = make_trainer(tiny_reordered, alpha=0.5, seed=1)
        ra = a.train_epoch(0, dry_run=True)
        rb = b.train_epoch(0, dry_run=True)
        assert rb.total_remote_rows() < ra.total_remote_rows()
        assert rb.total_cached_rows() > 0


class TestDryRun:
    def test_dry_run_records_same_volumes(self, tiny_reordered):
        a = make_trainer(tiny_reordered, seed=11)
        b = make_trainer(tiny_reordered, seed=11)
        real = a.train_epoch(0, dry_run=False)
        dry = b.train_epoch(0, dry_run=True)
        assert dry.mean_loss is None
        for r1, r2 in zip(real.records, dry.records):
            assert r1.mfg_vertices == r2.mfg_vertices
            assert r1.gather.remote_rows == r2.gather.remote_rows
            assert r1.candidate_edges == r2.candidate_edges

    def test_ledger_volumes_match_stats(self, tiny_reordered):
        tr = make_trainer(tiny_reordered)
        rep = tr.train_epoch(0, dry_run=True)
        total_remote = sum(r.gather.remote_rows for r in rep.records)
        assert rep.ledger.total_feature_bytes() == total_remote * tr.store.bytes_per_row

    def test_flops_positive_and_scale(self, tiny_reordered):
        tr = make_trainer(tiny_reordered)
        rep = tr.train_epoch(0, dry_run=True)
        rec = rep.records[0]
        f1 = rec.flops(16, 16, 4)
        f2 = rec.flops(16, 64, 4)
        assert 0 < f1 < f2
