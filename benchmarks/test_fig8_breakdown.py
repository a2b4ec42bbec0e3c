"""Figure 8: performance breakdown, pipelining on/off x alpha in {0, 0.32}.

Paper: 8-GPU papers run with all local features on GPU.  With pipelining off
and alpha=0, batch-prep communication dominates the epoch; caching with
alpha=0.32 shrinks communication until pipelining overlaps it almost
entirely (training compute becomes the visible cost).
"""

import pytest

from repro.core import RunConfig
from repro.pipeline import PipelineMode, simulate_trace
from conftest import publish, run_once
from repro.utils import Table

DATASET = "papers-mini"
K = 8


def run_fig8(artifacts):
    out = {}
    for alpha in (0.0, 0.32):
        cfg = RunConfig(num_machines=K, replication_factor=alpha,
                        gpu_fraction=1.0)
        system = artifacts.system(DATASET, cfg)
        report = system.trainer.train_epoch(0, dry_run=True)
        for mode in (PipelineMode.OFF, PipelineMode.FULL):
            res = simulate_trace(report.events, system.cost_model, mode=mode,
                                 depth=cfg.pipeline_depth)
            out[(mode.value, alpha)] = res
    return out


@pytest.mark.benchmark(group="fig8")
def test_fig8_breakdown(benchmark, artifacts):
    results = run_once(benchmark, lambda: run_fig8(artifacts))

    table = Table(
        ["pipelining", "alpha", "epoch (ms)", "train", "train sync",
         "startup", "prep comp", "prep comm"],
        title=f"Figure 8 — time breakdown ({DATASET}, {K} GPUs, locals on GPU)",
    )
    for (mode, alpha), res in results.items():
        b = res.breakdown
        table.add_row([mode, alpha, 1000 * res.epoch_time, 1000 * b["train"],
                       1000 * b["train_sync"], 1000 * b["startup"],
                       1000 * b["batch_prep_comp"], 1000 * b["batch_prep_comm"]])
    publish("fig8", table)

    off0 = results[("off", 0.0)]
    off32 = results[("off", 0.32)]
    full0 = results[("full", 0.0)]
    full32 = results[("full", 0.32)]

    # Pipelining-off, alpha=0: communication is the primary cost.
    assert off0.breakdown["batch_prep_comm"] > off0.breakdown["train"], \
        "network communication must dominate un-pipelined, un-cached training"
    # Caching shrinks communication time substantially.
    assert off32.breakdown["batch_prep_comm"] < 0.7 * off0.breakdown["batch_prep_comm"]
    # With caching + pipelining, communication hides behind compute: epoch
    # time approaches the pure-train + startup floor.
    floor = full32.breakdown["train"] + full32.breakdown["startup"]
    assert full32.epoch_time < 2.2 * floor
    # Pipelining always helps.
    assert full0.epoch_time < off0.epoch_time
    assert full32.epoch_time < off32.epoch_time
    benchmark.extra_info["comm_share_off_alpha0"] = round(
        off0.breakdown["batch_prep_comm"] / off0.epoch_time, 3)
