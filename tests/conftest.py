"""Shared fixtures: small deterministic datasets and prebuilt substrates.

Everything here is session-scoped and tiny (hundreds of vertices) so the
whole suite stays fast; benchmark-scale datasets are exercised only under
``benchmarks/``.
"""

import os
import sys

import numpy as np
import pytest

import invariants  # tests/invariants.py: pytest puts this directory on sys.path
from repro.graph import erdos_renyi, load_dataset, power_law_community_graph
from repro.partition import metis_like_partition, reorder_dataset
from repro.utils import ahead
from repro.vip import partitionwise_vip

# tests/vip/reference_dense.py (the frozen Proposition-1 oracle) and
# tests/vip/vip_cases.py (the shared strategy) also serve tests/streaming.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "vip"))


@pytest.fixture(autouse=True)
def no_sampler_process_outlives_its_engine():
    """An engine's sampler process is closed with the engine at the latest
    (its finalizer); one still open here after its engine was collected
    was leaked."""
    yield
    leaked = invariants.leaked_samplers()
    assert not leaked, f"sampler process(es) outlived their engine: {leaked}"


@pytest.fixture(params=[1, 64], ids=["one-core", "spare-core"])
def either_side_of_the_spare_core_rule(request, monkeypatch):
    """Run a test on both sides of ``ahead.spare_core``: a one-core host
    (every epoch samples inline) and one with cores to spare (trained
    epochs sample ahead in a sampler process — in-process, and inside
    multiproc workers, which take the coordinator's reading from their
    spec)."""
    monkeypatch.setattr(ahead, "usable_cores", lambda: request.param)
    return request.param


@pytest.fixture
def started_workers(monkeypatch):
    """Every worker process a multiproc backend forks during the test (its
    handle, in start order) — for ``invariants.unreaped`` once the backend
    is closed."""
    from repro.distributed.multiproc import coordinator

    started, spawn = [], coordinator.spawn_worker

    def recording():
        channel = spawn()
        started.append(channel.proc)
        return channel

    monkeypatch.setattr(coordinator, "spawn_worker", recording)
    return started


@pytest.fixture(scope="session")
def check_invariants():
    """The shared accounting laws: ``check_invariants(report)`` for a
    ``ServingReport``, ``check_invariants(report, bytes_per_row=...)`` for
    an ``EpochReport`` (see ``tests/invariants.py``)."""
    return invariants.check_invariants


@pytest.fixture(scope="session")
def check_registry():
    """``check_registry(OBS.metrics.snapshot(), report)``: obs counters =
    report totals, for either report type (see ``tests/invariants.py``)."""
    return invariants.check_registry


@pytest.fixture(scope="session")
def check_timeline():
    """``check_timeline(trace, timeline, cpu_workers=..., timing=... |
    report=...)``: the laws of simulated time, for the epoch simulator's
    timeline or a serving run's (see ``tests/invariants.py``)."""
    return invariants.check_timeline


@pytest.fixture(scope="session")
def tiny_dataset():
    return load_dataset("tiny", seed=0)


@pytest.fixture(scope="session")
def tiny_graph(tiny_dataset):
    return tiny_dataset.graph


@pytest.fixture(scope="session")
def small_er_graph():
    return erdos_renyi(200, 6.0, seed=7)


@pytest.fixture(scope="session")
def community_graph():
    g, comm = power_law_community_graph(600, 8.0, num_communities=6,
                                        intra_fraction=0.9, seed=3)
    return g, comm


@pytest.fixture(scope="session")
def tiny_partition(tiny_dataset):
    return metis_like_partition(tiny_dataset.graph, 4, seed=0)


@pytest.fixture(scope="session")
def tiny_reordered(tiny_dataset, tiny_partition):
    vip = partitionwise_vip(tiny_dataset.graph, tiny_partition,
                            tiny_dataset.train_idx, (5, 5), 32)
    score = np.zeros(tiny_dataset.num_vertices)
    for k in range(tiny_partition.num_parts):
        mask = tiny_partition.assignment == k
        score[mask] = vip[k][mask]
    return reorder_dataset(tiny_dataset, tiny_partition, within_part_score=score)


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def make_checkpoint():
    """``make_checkpoint(epoch)``: a checkpoint-shaped dict (the layout
    ``MultiprocBackend.capture_checkpoint`` returns) in which every field —
    weights, epoch, Adam moments and step, sampler RNG cursors — is a
    function of ``epoch`` alone, so a tear between two epochs shows."""
    def make(epoch: int) -> dict:
        gen = np.random.default_rng(epoch)
        cursors = [repr(np.random.default_rng((epoch, k)).bit_generator.state)
                   for k in range(2)]
        return {
            "epoch": epoch,
            "model": {"l0.weight": gen.normal(size=(8, 4)).astype(np.float32),
                      "l0.bias": gen.normal(size=4).astype(np.float32)},
            "adam": {"m": [gen.normal(size=(8, 4)), gen.normal(size=4)],
                     "v": [gen.random(size=(8, 4)), gen.random(size=4)],
                     "t": 10 * epoch},
            "samplers": cursors,
            "cache_fp": "c" * 64,
        }
    return make
