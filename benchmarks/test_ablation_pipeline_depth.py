"""Ablation: pipeline depth (SALIENT++ keeps 10 minibatches in flight).

Not a paper figure — a design-choice bench for §4.3.  Epoch time
must fall monotonically with depth and saturate well before 10 (the depth
exists to cover the longest stage chain, not to add raw parallelism).
"""

import pytest

from repro.core import RunConfig
from repro.pipeline import simulate_trace
from conftest import publish, run_once
from repro.utils import Table

DATASET = "papers-mini"
K = 8
DEPTHS = [1, 2, 3, 5, 10, 20]


def run_depth_sweep(artifacts):
    cfg = RunConfig(num_machines=K, replication_factor=0.32)
    system = artifacts.system(DATASET, cfg)
    report = system.trainer.train_epoch(0, dry_run=True)
    return {
        d: simulate_trace(report.events, system.cost_model, depth=d).epoch_time
        for d in DEPTHS
    }


@pytest.mark.benchmark(group="ablation")
def test_ablation_pipeline_depth(benchmark, artifacts):
    times = run_once(benchmark, lambda: run_depth_sweep(artifacts))

    table = Table(["depth", "epoch (ms)", "vs depth 10"],
                  title=f"Ablation — pipeline depth ({DATASET}, {K} GPUs, a=0.32)")
    for d in DEPTHS:
        table.add_row([d, 1000 * times[d], f"{times[d] / times[10]:.2f}x"])
    publish("ablation_pipeline_depth", table)

    # Monotone non-increasing in depth; saturates by depth 10.
    for a, b in zip(DEPTHS, DEPTHS[1:]):
        assert times[b] <= times[a] + 1e-12
    assert times[1] > times[10], "depth-1 (no pipelining) must be slower"
    assert times[20] >= times[10] * 0.98, "returns saturate near depth 10"
