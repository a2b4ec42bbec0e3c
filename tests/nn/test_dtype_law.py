"""The dtype law: the model's numbers are float32 wherever they live.

``nn.module.DTYPE`` is the one rule.  ``Parameter`` stores it, and every op
keeps its inputs' dtype, so after a trained epoch every parameter, gradient
and Adam moment is float32 — on every in-process engine, in the multiproc
workers and in a recovered run — and the multiproc gradient plane carries
exactly the parameters' bytes: 4 per element, half of what float64 slabs
carried.  A float64 checkpoint written before the rule loads into float32
and steps like a native float32 twin.  Moving the dtype moved every loss
once; the parities between paths did not move: threaded = inline,
multiproc = in-process and recovered = fault-free stay ``==``.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import Planner, RunConfig, SalientPP
from repro.distributed import (
    FaultPlan,
    MultiprocBackend,
    RecoveryManager,
    RecoveryPolicy,
    gradient_nbytes,
    train_batch,
)
from repro.graph.datasets import make_tiny
from repro.nn import Adam, GraphSAGE
from repro.nn.module import DTYPE
from repro.sampling import NeighborSampler
from repro.utils import ahead

pytestmark = pytest.mark.filterwarnings("ignore::DeprecationWarning")


def _config(**overrides) -> RunConfig:
    base = dict(num_machines=2, replication_factor=0.1, gpu_fraction=0.5,
                batch_size=16, fanouts=(5, 5), hidden_dim=16, seed=0)
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def dataset():
    return make_tiny(seed=3, num_vertices=1000)


@pytest.fixture(scope="module")
def planner():
    return Planner()


def _losses(reports):
    return [[rec.loss for rec in rep.records] for rep in reports]


def _assert_float32(arrays):
    arrays = list(arrays)
    assert arrays
    assert all(a.dtype == DTYPE == np.float32 for a in arrays)


def _assert_trained_state_float32(trainer):
    for model, opt in zip(trainer.models, trainer.optimizers):
        _assert_float32(p.data for p in model.parameters())
        _assert_float32(p.grad for p in model.parameters())
        _assert_float32(opt._m + opt._v)


@pytest.mark.parametrize("engine, knobs", [
    ("bsp", {}), ("pipelined", {"pipeline_depth": 4}), ("async", {"staleness": 1}),
], ids=["bsp", "pipelined", "async"])
def test_an_inprocess_epoch_is_float32_on_both_sides_of_the_spare_core_rule(
        dataset, planner, monkeypatch, engine, knobs):
    cfg = _config(engine=engine, **knobs)
    runs = {}
    for cores in (1, 64):  # inline, then sampled ahead on the thread
        monkeypatch.setattr(ahead, "usable_cores", lambda c=cores: c)
        system = SalientPP.build(dataset, cfg, planner=planner)
        runs[cores] = [system.train_epoch(e).report for e in range(2)]
        _assert_trained_state_float32(system.trainer)
        assert system.trainer.models_in_sync()
    assert _losses(runs[1]) == _losses(runs[64])


def test_a_multiproc_epoch_is_float32_and_equals_inprocess(dataset, planner):
    cfg = _config()
    ref = SalientPP.build(dataset, cfg, planner=planner)
    mp = SalientPP.build(dataset, dataclasses.replace(cfg, backend="multiproc"),
                         planner=planner)
    with mp:
        got = [mp.train_epoch(e).report for e in range(2)]
        layout = mp.backend()._grad_plane.layout
    want = [ref.train_epoch(e).report for e in range(2)]
    assert _losses(got) == _losses(want)
    model = mp.trainer.models[0]  # the workers' weights, loaded back
    _assert_float32(p.data for p in model.parameters())
    assert mp.trainer.models_in_sync()
    for p, q in zip(model.parameters(), ref.trainer.models[0].parameters()):
        assert p.data.tobytes() == q.data.tobytes()
    # One slab holds one gradient: the parameters' bytes, 4 per element
    # (float64 slabs held 8).
    assert {np.dtype(f.dtype) for f in layout.fields} == {np.dtype(DTYPE)}
    assert layout.payload_nbytes == sum(p.data.nbytes for p in model.parameters())
    assert layout.payload_nbytes == 4 * model.num_parameters() == gradient_nbytes(model)


def test_a_recovered_run_is_float32_and_equals_the_fault_free_one(
        dataset, planner):
    cfg = _config()
    want = SalientPP.build(dataset, cfg, planner=planner)
    want_losses = _losses([want.train_epoch(e).report for e in range(2)])

    backend = MultiprocBackend(
        SalientPP.build(dataset, cfg, planner=planner), timeout_s=60.0,
        recoverable=True,
        faults=FaultPlan.single("kill", machine=1, epoch=1, step=1))
    try:
        policy = RecoveryPolicy(max_restarts=1, backoff_base_s=0.01,
                                backoff_max_s=0.02, jitter=0.0)
        manager = RecoveryManager(backend, policy, sleep=lambda _s: None)
        assert _losses(manager.train(2)) == want_losses
        assert manager.restarts == 1
        ckpt = backend.capture_checkpoint(1)
    finally:
        backend.close()
    _assert_float32(ckpt["model"].values())
    _assert_float32(ckpt["adam"]["m"] + ckpt["adam"]["v"])
    state = want.trainer.models[0].state_dict()
    assert all(ckpt["model"][n].tobytes() == w.tobytes() for n, w in state.items())


def test_a_float64_checkpoint_steps_like_its_float32_twin(dataset):
    """A checkpoint written while the model trained float64 loads into the
    float32 model — weights and moments rounded once, on load — and from
    there steps bit for bit like a twin handed the rounded values."""
    def build():
        model = GraphSAGE(dataset.feature_dim, 16, dataset.num_classes, 2,
                          seed=0)
        return model, Adam(model.parameters(), lr=0.01)

    rng = np.random.default_rng(0)
    old, _ = build()
    weights = {n: rng.standard_normal(w.shape) for n, w in old.state_dict().items()}
    moments = {"m": [rng.standard_normal(w.shape) for w in weights.values()],
               "v": [rng.random(w.shape) for w in weights.values()], "t": 7}
    assert all(w.dtype == np.float64 for w in weights.values())

    loaded, loaded_opt = build()
    loaded.load_state_dict(weights)
    loaded_opt.load_state_dict(moments)
    twin, twin_opt = build()
    twin.load_state_dict({n: w.astype(np.float32) for n, w in weights.items()})
    twin_opt.load_state_dict(
        {"m": [m.astype(np.float32) for m in moments["m"]],
         "v": [v.astype(np.float32) for v in moments["v"]], "t": 7})

    sampler = NeighborSampler(dataset.graph, (5, 5), seed=1)
    for mfg in sampler.batches(dataset.train_idx, 32, epoch=0, seed=2):
        feats, labels = dataset.features[mfg.n_id], dataset.labels[mfg.seeds]
        assert train_batch(loaded, feats, mfg, labels) == \
            train_batch(twin, feats, mfg, labels)
        loaded_opt.step()
        twin_opt.step()
    for opt, model in ((loaded_opt, loaded), (twin_opt, twin)):
        _assert_float32(p.data for p in model.parameters())
        _assert_float32(opt._m + opt._v)
    for p, q in zip(loaded.parameters(), twin.parameters()):
        assert p.data.tobytes() == q.data.tobytes()
    for a, b in zip(loaded_opt._m + loaded_opt._v, twin_opt._m + twin_opt._v):
        assert a.tobytes() == b.tobytes()
