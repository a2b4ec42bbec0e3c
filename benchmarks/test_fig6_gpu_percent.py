"""Figure 6: impact of VIP-based local vertex ordering on the CPU/GPU split.

Paper: papers on 4 GPUs, alpha=0.15.  Without reordering, epoch time falls
roughly linearly as beta (the fraction of local features resident on GPU)
grows; with VIP reordering, ~10% of the local partition on GPU already
removes the host-to-device bottleneck.
"""

import pytest

from repro.core import RunConfig
from conftest import publish, run_once
from repro.utils import Table

DATASET = "papers-mini"
K = 4
ALPHA = 0.15
BETAS = [0.0, 0.1, 0.25, 0.5, 0.75, 1.0]


def run_fig6(artifacts):
    out = {}
    for reorder in (True, False):
        for beta in BETAS:
            cfg = RunConfig(num_machines=K, replication_factor=ALPHA,
                            gpu_fraction=beta, vip_reorder=reorder)
            system = artifacts.system(DATASET, cfg)
            out[(reorder, beta)] = system.mean_epoch_time(epochs=1)
    return out


@pytest.mark.benchmark(group="fig6")
def test_fig6_vip_local_ordering(benchmark, artifacts):
    results = run_once(benchmark, lambda: run_fig6(artifacts))

    table = Table(["% local on GPU", "no reorder (ms)", "VIP reorder (ms)"],
                  title=f"Figure 6 — local CPU/GPU split ({DATASET}, {K} GPUs, a={ALPHA})")
    for beta in BETAS:
        table.add_row([f"{100 * beta:.0f}%",
                       1000 * results[(False, beta)],
                       1000 * results[(True, beta)]])
    publish("fig6", table)

    # VIP reordering at beta=0.1 should already be near its beta=1.0 floor...
    vip_small = results[(True, 0.1)]
    vip_full = results[(True, 1.0)]
    assert vip_small <= vip_full * 1.15, \
        "10% of local data on GPU should suffice with VIP ordering"
    # ...while the unordered variant still benefits from more GPU residency.
    no_small = results[(False, 0.1)]
    assert no_small >= vip_small, "VIP ordering dominates at small beta"
    # Both converge once everything is on the GPU.
    assert results[(False, 1.0)] == pytest.approx(vip_full, rel=0.1)
    benchmark.extra_info["vip_beta10_vs_beta100"] = round(vip_small / vip_full, 3)
