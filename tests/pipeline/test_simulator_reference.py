"""``simulate_trace`` against the frozen pre-timeline simulator.

``reference_simulator.py`` (beside this file) is the simulator as it stood
when it kept per-resource clock arrays and re-priced every event for the
Figure-8 breakdown.  The one in ``src/`` places each event once in a
:class:`~repro.pipeline.events.Timeline` and folds everything it reports out
of that — and must report the same numbers:

* ``==`` — ``epoch_time``, every ``resource_busy`` array, ``train``,
  ``train_sync``, ``batch_prep_comm`` (same floats added in the same order);
* within ``1e-12`` relative — ``startup`` (the scheduled start itself now;
  the oracle recomputes it as ``(start + d) - d``, an ulp off),
  ``batch_prep_comp`` (a (machine, step)'s stages are now added in placement
  order, serve slice included; the oracle adds the per-step and per-window
  stages in two separate sums) and ``overlap_residual`` (``epoch_time``
  minus a sum containing ``startup``: relative to the epoch, not to itself).

Real traces: engine x depth x cache policy x K, each under every
``PipelineMode`` and several simulated depths, plus a DistDGL-priced one.
Synthetic traces (hypothesis): random volumes — all-zero comm windows,
K = 1, ragged windows, thinned all-reduce steps — on random CPU lane counts.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_simulator
from repro.baselines import DistDGL
from repro.core import Planner, RunConfig
from repro.distributed.cluster import ClusterSpec, MachineSpec
from repro.graph.datasets import make_tiny
from repro.pipeline import CostModel, ModelDims, PipelineMode, simulate_trace
from repro.pipeline.events import (
    EventTrace,
    Stage,
    emit_window_comm_events,
)

EXACT = ("train", "train_sync", "batch_prep_comm")
CLOSE = ("startup", "batch_prep_comp", "overlap_residual")


def assert_same_result(trace, cost_model, mode, depth) -> None:
    try:
        want = reference_simulator.simulate_trace(trace, cost_model,
                                                  mode=mode, depth=depth)
    except ValueError as refusal:
        with pytest.raises(ValueError) as raised:
            simulate_trace(trace, cost_model, mode=mode, depth=depth)
        assert str(raised.value) == str(refusal)
        return
    got = simulate_trace(trace, cost_model, mode=mode, depth=depth)
    assert got.epoch_time == want.epoch_time
    assert (got.num_steps, got.num_machines) == \
        (want.num_steps, want.num_machines)
    assert list(got.resource_busy) == list(want.resource_busy)
    for name, busy in want.resource_busy.items():
        assert np.array_equal(got.resource_busy[name], busy), name
    assert got.bottleneck_resource() == want.bottleneck_resource()
    assert list(got.breakdown) == list(want.breakdown)
    for key in EXACT:
        assert got.breakdown[key] == want.breakdown[key], key
    for key in CLOSE:
        scale = want.epoch_time if key == "overlap_residual" \
            else abs(want.breakdown[key])
        assert abs(got.breakdown[key] - want.breakdown[key]) \
            <= 1e-12 * scale, key


# ----------------------------------------------------------------------
# real traces

@pytest.fixture(scope="module")
def planner():
    return Planner()


@pytest.fixture(scope="module")
def dataset():
    return make_tiny(seed=0, num_vertices=1200)


def _config(K, engine, depth, policy):
    return RunConfig(num_machines=K, fanouts=(4, 3), batch_size=32,
                     hidden_dim=16, replication_factor=0.1, gpu_fraction=0.5,
                     engine=engine, pipeline_depth=depth, cache_policy=policy,
                     refresh_interval=3)


@pytest.mark.parametrize("policy", ["vip", "vip-refresh", "lru"])
@pytest.mark.parametrize("engine, depth", [("bsp", 1), ("pipelined", 1),
                                           ("pipelined", 4), ("async", 1)])
@pytest.mark.parametrize("K", [1, 2, 4])
def test_engine_traces(planner, dataset, K, engine, depth, policy):
    system = planner.build(dataset, _config(K, engine, depth, policy))
    trace = system.train_epoch(0, dry_run=True).report.events
    for mode in PipelineMode:
        for sim_depth in (1, 3, 4, 10):
            assert_same_result(trace, system.cost_model, mode, sim_depth)


def test_distdgl_priced_trace(planner, dataset):
    system = DistDGL.build(dataset, _config(4, "bsp", 1, "vip"),
                           planner=planner)
    trace = system.train_epoch(0, dry_run=True).report.events
    for mode in PipelineMode:
        assert_same_result(trace, system.cost_model, mode, depth=10)


def test_each_event_is_priced_once(planner, dataset):
    """975 events used to cost 1,920 ``event_duration`` calls on
    ``train_static``'s trace: every event was priced again for the
    breakdown.  Now: once per event scheduled (the all-reduce is priced by
    ``allreduce_time``)."""
    system = planner.build(dataset, _config(4, "pipelined", 4, "vip-refresh"))
    trace = system.train_epoch(0, dry_run=True).report.events
    calls = []

    class Counting(CostModel):
        def event_duration(self, ev):
            calls.append((ev.stage, ev.machine, ev.step))
            return super().event_duration(ev)

    cm = system.cost_model
    result = simulate_trace(
        trace, Counting(cm.cluster, cm.bytes_per_row, cm.dims, cm.grad_nbytes),
        depth=10)
    assert len(calls) == len(set(calls)) <= len(trace.events)
    assert {key for key in result.timeline
            if key[0] is not Stage.ALLREDUCE} <= set(calls)


# ----------------------------------------------------------------------
# synthetic traces

@st.composite
def traces(draw):
    K = draw(st.integers(1, 4))
    widths = draw(st.lists(st.integers(1, 4), min_size=1, max_size=5))
    steps = sum(widths)
    edges = np.cumsum([0] + widths)
    windows = [(int(a), int(b)) for a, b in zip(edges, edges[1:])]
    sync = draw(st.lists(st.sampled_from(range(steps)), unique=True,
                         max_size=steps).map(sorted))
    rows = st.integers(0, 5000)
    trace = EventTrace(engine="synthetic", num_machines=K, num_steps=steps,
                       windows=windows, allreduce_steps=sync)
    silent = draw(st.sets(st.sampled_from(windows)))  # windows with no comm
    for lo, hi in windows:
        for s in range(lo, hi):
            for k in range(K):
                total = draw(rows)
                trace.add(Stage.SAMPLE, k, s, candidate_edges=draw(rows) * 40)
                trace.add(Stage.LOCAL_SLICE, k, s, rows=draw(rows))
                trace.add(Stage.H2D, k, s, rows=draw(rows))
                trace.add(Stage.GPU_GATHER, k, s, gpu_rows=total // 2,
                          total_rows=total)
                trace.add(Stage.TRAIN, k, s, flops=float(draw(rows)) * 1e5)
            if s in sync:
                trace.add(Stage.ALLREDUCE, -1, s)
        for k in range(K):
            quiet = (lo, hi) in silent
            emit_window_comm_events(trace, lo, k,
                                    0 if quiet else draw(rows),
                                    0 if quiet else draw(rows))
    machine = dataclasses.replace(MachineSpec(),
                                  cpu_workers=draw(st.integers(0, 3)))
    cost_model = CostModel(ClusterSpec(K, machine), bytes_per_row=400,
                           dims=ModelDims(100, 16, 8), grad_nbytes=40_000)
    return trace, cost_model


@settings(max_examples=60, deadline=None)
@given(traces(), st.sampled_from(list(PipelineMode)), st.integers(1, 6))
def test_synthetic_traces(case, mode, depth):
    trace, cost_model = case
    assert_same_result(trace, cost_model, mode, depth)
