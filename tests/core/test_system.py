"""End-to-end system tests on the tiny dataset."""

import pytest

from repro.baselines import DistDGL
from repro.core import RunConfig, Salient, SalientPP, make_partition
from repro.core.config import progressive_variants
from repro.pipeline import PipelineMode


@pytest.fixture(scope="module")
def built_systems(request):
    ds = request.getfixturevalue("tiny_dataset")
    cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                    hidden_dim=16, replication_factor=0.2, gpu_fraction=0.5)
    part = make_partition(ds, cfg.resolve(ds))
    spp = SalientPP.build(ds, cfg, partition=part)
    sal = Salient.build(ds, RunConfig(num_machines=2, fanouts=(4, 3),
                                      batch_size=16, hidden_dim=16),
                        partition=part)
    return ds, part, spp, sal


class TestBuild:
    def test_build_shapes(self, built_systems):
        ds, part, spp, sal = built_systems
        assert spp.store.num_machines == 2
        assert spp.realized_alpha > 0
        assert sal.store.is_replicated

    def test_memory_multiples(self, built_systems):
        ds, part, spp, sal = built_systems
        assert sal.memory_multiple == pytest.approx(2.0)
        assert 1.0 < spp.memory_multiple < 1.3

    def test_partition_machine_mismatch_raises(self, built_systems):
        ds, part, *_ = built_systems
        with pytest.raises(ValueError, match="parts"):
            SalientPP.build(ds, RunConfig(num_machines=4, fanouts=(4, 3),
                                          batch_size=16, hidden_dim=16),
                            partition=part)

    def test_unknown_partitioner(self, tiny_dataset):
        with pytest.raises(ValueError, match="partitioner"):
            make_partition(tiny_dataset,
                           RunConfig(num_machines=2, partitioner="spectral"))


class TestTraining:
    def test_train_epoch_returns_timing_and_loss(self, built_systems):
        ds, part, spp, sal = built_systems
        res = spp.train_epoch(0)
        assert res.epoch_time > 0
        assert res.loss is not None

    def test_dry_run_has_no_loss(self, built_systems):
        *_, spp, sal = built_systems
        res = spp.train_epoch(1, dry_run=True)
        assert res.loss is None
        assert res.epoch_time > 0

    def test_mean_epoch_time(self, built_systems):
        *_, spp, sal = built_systems
        assert spp.mean_epoch_time(epochs=2) > 0

    def test_evaluate(self, built_systems):
        *_, spp, sal = built_systems
        spp.train(4)
        assert spp.evaluate("test") > 0.4


class TestVariantOrdering:
    def test_ladder_timing_order(self, tiny_dataset):
        """Partitioned-blocking must be slowest; caching must recover most
        of the gap — Table 1's qualitative claim, on the tiny dataset."""
        ds = tiny_dataset
        base = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                         hidden_dim=16)
        part = make_partition(ds, base.resolve(ds))
        times = {}
        for name, cfg in progressive_variants(2, 0.3):
            from dataclasses import replace
            cfg = replace(cfg, fanouts=(4, 3), batch_size=16, hidden_dim=16)
            sys_ = SalientPP.build(ds, cfg, partition=part)
            times[name] = sys_.mean_epoch_time(epochs=1)
        assert times["+ Partitioned features"] > times["SALIENT (full replication)"]
        assert times["+ Pipelined communication"] <= times["+ Partitioned features"]
        assert times["+ Feature caching"] <= times["+ Pipelined communication"]


class TestDistDGLBaseline:
    def test_slower_than_salientpp(self, built_systems):
        ds, part, spp, sal = built_systems
        ddgl = DistDGL.build(ds, RunConfig(num_machines=2, fanouts=(4, 3),
                                           batch_size=16, hidden_dim=16),
                             partition=part)
        assert ddgl.config.pipeline is PipelineMode.OFF
        t_dgl = ddgl.mean_epoch_time(epochs=1)
        t_spp = spp.mean_epoch_time(epochs=1)
        assert t_dgl > 2.0 * t_spp

    def test_same_training_math(self, built_systems):
        """The baseline's functional layer is identical — accuracy parity."""
        ds, part, spp, sal = built_systems
        ddgl = DistDGL.build(ds, RunConfig(num_machines=2, fanouts=(4, 3),
                                           batch_size=16, hidden_dim=16,
                                           seed=0),
                             partition=part)
        rep = ddgl.train_epoch(0)
        assert rep.loss is not None


class TestCachePolicyThroughConfig:
    @pytest.mark.parametrize("policy", ["vip", "degree", "halo", "wpr",
                                        "numpaths", "sim"])
    def test_policies_build_and_run(self, tiny_dataset, policy):
        cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                        hidden_dim=16, replication_factor=0.2,
                        cache_policy=policy)
        sys_ = SalientPP.build(tiny_dataset, cfg)
        res = sys_.train_epoch(0, dry_run=True)
        assert res.epoch_time > 0
