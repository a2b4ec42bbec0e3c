"""RunConfig and progressive-ladder tests."""

import math
from dataclasses import fields, replace

import pytest

from repro.core import RunConfig, progressive_variants, table1_alpha
from repro.pipeline import PipelineMode

NAN, INF = math.nan, math.inf


class TestRunConfig:
    def test_resolve_fills_defaults(self, tiny_dataset):
        cfg = RunConfig(num_machines=2).resolve(tiny_dataset)
        assert cfg.fanouts is not None
        assert cfg.batch_size > 0
        assert cfg.hidden_dim > 0

    def test_resolve_keeps_explicit_values(self, tiny_dataset):
        cfg = RunConfig(num_machines=2, fanouts=(2, 2), batch_size=8,
                        hidden_dim=12).resolve(tiny_dataset)
        assert cfg.fanouts == (2, 2)
        assert cfg.batch_size == 8
        assert cfg.hidden_dim == 12

    def test_cluster_network_bandwidth(self):
        cfg = RunConfig(num_machines=4, network_gbps=4.0)
        assert cfg.cluster().network.bandwidth == pytest.approx(4e9 / 8)

    def test_describe(self):
        cfg = RunConfig(num_machines=2, replication_factor=0.16)
        assert "vip" in cfg.describe()
        assert "K=2" in cfg.describe()

    def test_describe_vip_refresh_interval(self):
        cfg = RunConfig(replication_factor=0.1, cache_policy="vip-refresh",
                        refresh_interval=25)
        assert "every 25 batches" in cfg.describe()

    @pytest.mark.parametrize("policy", ["lru", "vip-refresh"])
    def test_describe_replacement_aging_interval(self, policy):
        """Only the admit-on-miss cache ages, so only it reports aging."""
        aged = RunConfig(replication_factor=0.1, cache_policy=policy,
                         cache_aging_interval=32).describe()
        unaged = RunConfig(replication_factor=0.1, cache_policy=policy,
                           cache_aging_interval=0).describe()
        if policy == "lru":
            assert "aging every 32 batches" in aged
            assert "no aging" in unaged
        else:
            assert "aging" not in aged and "aging" not in unaged


class TestEngineConfig:
    def test_describe_engine_knobs(self):
        cfg = RunConfig(engine="pipelined", pipeline_depth=4)
        assert "pipelined(depth=4)" in cfg.describe()
        cfg = RunConfig(engine="async", staleness=3)
        assert "async(staleness=3)" in cfg.describe()

    def test_unknown_engine_lists_names(self):
        with pytest.raises(ValueError) as exc:
            RunConfig(engine="warp-speed").validate()
        msg = str(exc.value)
        assert "unknown execution engine" in msg
        for name in ("bsp", "pipelined", "async"):
            assert name in msg

    def test_negative_staleness_rejected(self):
        with pytest.raises(ValueError, match="staleness"):
            RunConfig(staleness=-1).validate()

    def test_pipelined_engine_requires_full_pipeline_mode(self):
        for mode in (PipelineMode.OFF, PipelineMode.BLOCKING_COMM):
            with pytest.raises(ValueError, match="pipelined engine"):
                RunConfig(engine="pipelined", pipeline=mode).validate()
        RunConfig(engine="pipelined", pipeline=PipelineMode.FULL).validate()

    def test_engine_in_trainer_fingerprint_slice(self):
        from repro.core import STAGE_CONFIG_FIELDS

        for fieldname in ("engine", "pipeline_depth", "staleness"):
            assert fieldname in STAGE_CONFIG_FIELDS["trainer"]


class TestValidate:
    def test_unknown_partitioner_lists_sorted_names(self):
        from repro.partition import PARTITIONERS

        with pytest.raises(ValueError) as exc:
            RunConfig(partitioner="spectral").validate()
        msg = str(exc.value)
        assert "unknown partitioner 'spectral'" in msg
        names = sorted(PARTITIONERS.names())
        assert str(names) in msg  # full sorted list, verbatim
        for n in ("metis", "random", "ldg", "bfs", "hash"):
            assert n in msg

    def test_unknown_cache_policy_lists_both_registries(self):
        from repro.distributed.dynamic_cache import DYNAMIC_CACHE_POLICIES
        from repro.vip import STATIC_CACHE_POLICIES

        with pytest.raises(ValueError) as exc:
            RunConfig(cache_policy="belady").validate()
        msg = str(exc.value)
        assert "unknown cache policy 'belady'" in msg
        assert str(sorted(STATIC_CACHE_POLICIES.names())) in msg
        assert str(sorted(DYNAMIC_CACHE_POLICIES.names())) in msg

    @pytest.mark.parametrize("policy", ["lfu", "clock"])
    def test_retired_replacement_orders_are_rejected(self, policy):
        """LRU is the one replacement order: the error names what is left."""
        with pytest.raises(ValueError) as exc:
            RunConfig(cache_policy=policy).validate()
        assert f"unknown cache policy {policy!r}" in str(exc.value)
        assert "dynamic: ['lru', 'vip-refresh']" in str(exc.value)

    def test_resolve_validates(self, tiny_dataset):
        """Bad configs fail at construction, not deep inside a stage."""
        with pytest.raises(ValueError, match="cache policy"):
            RunConfig(cache_policy="belady").resolve(tiny_dataset)

    def test_arch_is_not_a_knob(self):
        """GraphSAGE is the one architecture: there is nothing to select."""
        assert "arch" not in {f.name for f in fields(RunConfig)}
        with pytest.raises(TypeError, match="arch"):
            RunConfig(arch="sage")

    def test_dtype_is_not_a_knob(self):
        """The model trains float32 (``nn.module.DTYPE``), nothing selects it."""
        import inspect

        from repro.distributed.executor import DistributedTrainer
        from repro.distributed.multiproc.segments import WorkerSpec

        assert "dtype" not in {f.name for f in fields(RunConfig)}
        assert "dtype" not in {f.name for f in fields(WorkerSpec)}
        assert "dtype" not in inspect.signature(DistributedTrainer).parameters

    def test_options_with_one_value_in_use_are_constants(self):
        """Every run trains without dropout, serves round-robin at the
        training fanouts under the fixed SLO table, checkpoints every epoch
        with doubling backoff and keeps the default memory-tier caps:
        none of these is an option."""
        import inspect

        from repro.core import ArtifactCache, STAGE_CONFIG_FIELDS, ServingConfig
        from repro.distributed.executor import DistributedTrainer
        from repro.distributed.multiproc.segments import WorkerSpec
        from repro.distributed.recovery import RecoveryPolicy
        from repro.nn import GraphSAGE, MLP

        assert "dropout" not in {f.name for f in fields(RunConfig)}
        assert "dropout" not in STAGE_CONFIG_FIELDS["trainer"]
        assert "dropout" not in {f.name for f in fields(WorkerSpec)}
        for fn in (DistributedTrainer, GraphSAGE, MLP):
            assert "dropout" not in inspect.signature(fn).parameters
        assert [f.name for f in fields(ServingConfig)] == [
            "batcher", "max_batch", "max_wait_ms", "max_in_flight"]
        assert {"backoff_factor", "checkpoint_interval"}.isdisjoint(
            f.name for f in fields(RecoveryPolicy))
        assert "memory_caps" not in inspect.signature(ArtifactCache).parameters

    def test_no_stage_is_keyed_by_arch(self):
        from repro.core import STAGE_CONFIG_FIELDS

        for stage, names in STAGE_CONFIG_FIELDS.items():
            assert "arch" not in names, stage

    def test_trainer_and_worker_spec_take_no_arch(self):
        import inspect

        from repro.distributed.executor import DistributedTrainer
        from repro.distributed.multiproc.segments import WorkerSpec

        assert "arch" not in {f.name for f in fields(WorkerSpec)}
        assert "arch" not in inspect.signature(DistributedTrainer).parameters

    def test_validate_returns_self(self):
        cfg = RunConfig()
        assert cfg.validate() is cfg

    @pytest.mark.parametrize("bad", [
        dict(num_machines=0),
        dict(fanouts=()),
        dict(fanouts=(4, 0)),
        dict(batch_size=0),
        dict(hidden_dim=0),
        dict(lr=0.0),
        dict(replication_factor=-0.1),
        dict(gpu_fraction=1.5),
        dict(refresh_interval=0),
        dict(cache_aging_interval=-1),
        dict(pipeline_depth=0),
        dict(network_gbps=0.0),
    ] + [{name: v} for name in (
        "num_machines", "staleness", "batch_size", "hidden_dim", "lr",
        "replication_factor", "gpu_fraction", "refresh_interval",
        "cache_aging_interval", "pipeline_depth", "network_gbps",
    ) for v in (NAN, INF, -INF)] + [dict(fanouts=(4, v)) for v in (NAN, INF)])
    def test_out_of_range_fields_raise(self, bad):
        (name,) = bad
        with pytest.raises(ValueError, match=name):
            replace(RunConfig(), **bad).validate()


class TestLadder:
    def test_four_variants_in_order(self):
        ladder = progressive_variants(8, 0.32)
        names = [n for n, _ in ladder]
        assert names[0].startswith("SALIENT")
        assert names[1] == "+ Partitioned features"
        assert names[2] == "+ Pipelined communication"
        assert names[3] == "+ Feature caching"
        cfgs = [c for _, c in ladder]
        assert cfgs[0].full_replication
        assert cfgs[1].pipeline is PipelineMode.BLOCKING_COMM
        assert cfgs[2].pipeline is PipelineMode.FULL
        assert cfgs[3].replication_factor == pytest.approx(0.32)

    def test_table1_alpha_schedule(self):
        assert table1_alpha(2) == pytest.approx(0.08)
        assert table1_alpha(4) == pytest.approx(0.16)
        assert table1_alpha(8) == pytest.approx(0.32)
        assert table1_alpha(16) == pytest.approx(0.32)


class TestServingConfig:
    def test_default_validates(self):
        from repro.core import ServingConfig

        cfg = ServingConfig()
        assert cfg.validate() is cfg
        assert RunConfig().serving is not None

    def test_max_wait_s_converts_ms(self):
        from repro.core import ServingConfig

        assert ServingConfig(max_wait_ms=250.0).max_wait_s == 0.25

    def test_unknown_batcher_lists_names(self):
        from repro.core import ServingConfig

        with pytest.raises(ValueError) as exc:
            ServingConfig(batcher="nagle").validate()
        assert "micro-batcher" in str(exc.value)
        assert "deadline" in str(exc.value)

    @pytest.mark.parametrize("bad", [
        dict(max_batch=0),
        dict(max_wait_ms=0.0),
        dict(max_in_flight=0),
    ] + [{name: v} for name in ("max_batch", "max_wait_ms", "max_in_flight")
         for v in (NAN, INF, -INF)])
    def test_out_of_range_serving_fields_raise(self, bad):
        from repro.core import ServingConfig

        (name,) = bad
        with pytest.raises(ValueError, match=name):
            ServingConfig(**bad).validate()

    def test_run_config_validates_serving_slice(self):
        from repro.core import ServingConfig

        cfg = RunConfig(serving=ServingConfig(batcher="nagle"))
        with pytest.raises(ValueError, match="micro-batcher"):
            cfg.validate()

    def test_serving_absent_from_preprocessing_fingerprints(self):
        """Serving knobs must not re-key any preprocessing stage, so
        serving sweeps reuse every artifact."""
        from repro.core import STAGE_CONFIG_FIELDS

        for stage, fields in STAGE_CONFIG_FIELDS.items():
            assert "serving" not in fields, stage
