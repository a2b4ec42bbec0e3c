"""The one-node-per-layer step ≡ the op-by-op chain it replaced.

``reference_chain.py`` (beside this file) is the training step as the tape
ran it when every matmul, add, mean, ReLU and the log-softmax were nodes of
their own.  ``F.sage_conv`` and ``F.cross_entropy`` replay its float ops in
its order, so ``train_batch`` returns its loss and leaves its gradients bit
for bit — over drawn MFGs of one to three layers (empty segments, duplicate
sources, destinations without sources beyond themselves), on float32 and
float64 rows — while recording one tape node per layer and one for the loss.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_chain import reference_chain_step
from repro.distributed import train_batch
from repro.graph.datasets import (make_mag240c_mini, make_papers_mini,
                                  make_products_mini)
from repro.nn import Adam, GraphSAGE
from repro.nn.autograd import Tensor
from repro.sampling import NeighborSampler
from repro.sampling.mfg import MFG, MFGBlock


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def magnitudes(rng, shape):
    """Both signs over six decades, with entries of -0.0: rounding shows."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 3, size=shape)
    x[rng.random(shape) < 0.15] = -0.0
    return x


@st.composite
def steps(draw):
    """``(model, rows, MFG, labels)``: 1-3 hops, each widening the last
    hop's set by 0-5 sources; ~30 % of the segments empty, random weights
    and biases."""
    seed = draw(st.integers(0, 2**32 - 1))
    num_layers = draw(st.integers(1, 3))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    rng = np.random.default_rng(seed)
    num_dst = int(rng.integers(1, 6))
    blocks = []
    for _ in range(num_layers):
        num_src = num_dst + int(rng.integers(0, 6))
        counts = rng.integers(0, 5, size=num_dst) * (rng.random(num_dst) < 0.7)
        ptr = np.concatenate([[0], np.cumsum(counts)])
        blocks.append(MFGBlock(ptr, rng.integers(0, num_src, size=ptr[-1]),
                               num_src, num_dst))
        num_dst = num_src
    mfg = MFG(np.arange(num_dst), blocks, np.arange(blocks[0].num_dst))
    in_dim, hidden, classes = (int(v) for v in rng.integers(1, 6, size=3))
    model = GraphSAGE(in_dim, hidden, classes, num_layers, seed=seed)
    model.load_state_dict({name: magnitudes(rng, w.shape)
                           for name, w in model.state_dict().items()})
    rows = magnitudes(rng, (mfg.num_vertices, in_dim)).astype(dtype)
    return model, rows, mfg, rng.integers(0, classes, size=mfg.batch_size)


def assert_step_is_the_chain(model, rows, mfg, labels):
    want_loss, want = reference_chain_step(model.state_dict(), rows, mfg,
                                           labels)
    loss = train_batch(model, rows, mfg, labels)
    assert same(loss, want_loss), (loss, want_loss)
    grads = dict(model.named_parameters())
    assert list(grads) == list(want)
    for name, p in grads.items():
        assert same(p.grad, want[name]), name


@settings(max_examples=150, deadline=None)
@given(step=steps())
def test_train_batch_is_the_chain_bit_for_bit(step):
    assert_step_is_the_chain(*step)


def test_sampled_papers_mini_steps_are_the_chain():
    ds = make_papers_mini(seed=1, scale=0.04)
    sampler = NeighborSampler(ds.graph, (15, 10, 5), seed=5)
    model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, 3, seed=0)
    for mfg in list(sampler.batches(ds.train_idx, 64))[:4]:
        assert_step_is_the_chain(model, ds.features[mfg.n_id], mfg,
                                 ds.labels[mfg.seeds])


DATASETS = {"papers-mini": make_papers_mini,
            "mag240c-mini": make_mag240c_mini,
            "products-mini": make_products_mini}


@pytest.mark.parametrize("num_layers", [1, 2, 3])
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_sampled_steps_of_every_depth_are_the_chain(dataset, num_layers):
    """Real sampled MFGs, their features and labels, on each mini dataset
    at one, two and three layers, with the weights after a few Adam steps
    (not the initialisation) for every step after the first."""
    ds = DATASETS[dataset](seed=2, scale=0.04)
    fanouts = (10, 5, 3)[:num_layers]
    sampler = NeighborSampler(ds.graph, fanouts, seed=6)
    model = GraphSAGE(ds.feature_dim, 16, ds.num_classes, num_layers, seed=1)
    optimizer = Adam(model.parameters(), lr=0.05)
    for mfg in list(sampler.batches(ds.train_idx, 32))[:3]:
        assert_step_is_the_chain(model, ds.features[mfg.n_id], mfg,
                                 ds.labels[mfg.seeds])
        optimizer.step()


@pytest.mark.parametrize("num_layers", [1, 2, 3])
def test_a_step_records_one_node_per_layer_and_one_for_the_loss(
        num_layers, monkeypatch):
    """The op-by-op chain recorded 6, 14 and 22 nodes for one, two and
    three layers."""
    ds = make_papers_mini(seed=1, scale=0.04)
    fanouts = (5, 4, 3)[:num_layers]
    mfg = NeighborSampler(ds.graph, fanouts, seed=5).sample(ds.train_idx[:16])
    model = GraphSAGE(ds.feature_dim, 8, ds.num_classes, num_layers, seed=0)
    recorded = []
    make = Tensor._make

    def counting(data, parents, backward):
        out = make(data, parents, backward)
        if out._backward is not None:
            recorded.append(out)
        return out

    monkeypatch.setattr(Tensor, "_make", staticmethod(counting))
    train_batch(model, ds.features[mfg.n_id], mfg, ds.labels[mfg.seeds])
    assert len(recorded) == num_layers + 1
