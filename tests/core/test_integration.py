"""Cross-module integration tests: the full preprocessing + training +
timing pipeline under varied configurations."""

import numpy as np
import pytest

from repro.core import RunConfig, SalientPP, make_partition
from repro.pipeline import PipelineMode


class TestEndToEndConsistency:
    def test_vip_reorder_changes_layout_not_results(self, tiny_dataset):
        """VIP reordering is a relabeling: training behaviour (losses over
        epochs) must be statistically equivalent and the realized cache
        identical in size."""
        cfgs = [RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                          hidden_dim=16, replication_factor=0.2,
                          vip_reorder=flag, seed=0) for flag in (True, False)]
        systems = [SalientPP.build(tiny_dataset, c) for c in cfgs]
        assert systems[0].realized_alpha == pytest.approx(
            systems[1].realized_alpha, abs=1e-9)

    def test_network_bandwidth_only_affects_timing(self, tiny_dataset):
        slow = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                         hidden_dim=16, network_gbps=1.0, seed=1)
        fast = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                         hidden_dim=16, network_gbps=25.0, seed=1)
        part = make_partition(tiny_dataset, slow.resolve(tiny_dataset))
        s = SalientPP.build(tiny_dataset, slow, partition=part)
        f = SalientPP.build(tiny_dataset, fast, partition=part)
        rs = s.train_epoch(0)
        rf = f.train_epoch(0)
        # Identical functional outcome, different simulated time.
        assert rs.loss == pytest.approx(rf.loss, abs=0.0)
        assert rs.epoch_time > rf.epoch_time

    def test_blocking_comm_slower_than_full_pipeline(self, tiny_dataset):
        part = make_partition(
            tiny_dataset,
            RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                      hidden_dim=16).resolve(tiny_dataset))
        times = {}
        for mode in (PipelineMode.FULL, PipelineMode.BLOCKING_COMM,
                     PipelineMode.OFF):
            cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                            hidden_dim=16, pipeline=mode, seed=2)
            sys_ = SalientPP.build(tiny_dataset, cfg, partition=part)
            times[mode] = sys_.mean_epoch_time(epochs=1)
        assert times[PipelineMode.FULL] <= times[PipelineMode.BLOCKING_COMM]
        assert times[PipelineMode.BLOCKING_COMM] <= times[PipelineMode.OFF]

    def test_alpha_monotone_epoch_time(self, tiny_dataset):
        part = make_partition(
            tiny_dataset,
            RunConfig(num_machines=4, fanouts=(4, 3), batch_size=8,
                      hidden_dim=16).resolve(tiny_dataset))
        times = []
        for alpha in (0.0, 0.25, 0.75):
            cfg = RunConfig(num_machines=4, fanouts=(4, 3), batch_size=8,
                            hidden_dim=16, replication_factor=alpha, seed=3)
            sys_ = SalientPP.build(tiny_dataset, cfg, partition=part)
            times.append(sys_.mean_epoch_time(epochs=1))
        # More caching never slows the simulated epoch (modulo exact ties).
        assert times[1] <= times[0] + 1e-9
        assert times[2] <= times[1] + 1e-9

    def test_partitioner_choices_run(self, tiny_dataset):
        for partitioner in ("metis", "random", "ldg", "bfs"):
            cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                            hidden_dim=16, partitioner=partitioner)
            sys_ = SalientPP.build(tiny_dataset, cfg)
            assert sys_.train_epoch(0, dry_run=True).epoch_time > 0

    def test_trains_distributed_in_sync(self, tiny_dataset):
        cfg = RunConfig(num_machines=2, fanouts=(4, 3), batch_size=16,
                        hidden_dim=16, replication_factor=0.1)
        sys_ = SalientPP.build(tiny_dataset, cfg)
        res = sys_.train_epoch(0)
        assert np.isfinite(res.loss)
        assert sys_.trainer.models_in_sync()
