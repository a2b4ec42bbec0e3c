"""No gradient is written in place — the invariant that lets gradients alias.

``Tensor._accumulate`` stores the first gradient it is handed without
copying it, ``__add__`` hands one array to both operands, and
``all_reduce_gradients`` gives every replica the *same* averaged array.  All
of that is sound only while nothing under ``src/repro`` mutates a ``.grad``:
``_accumulate`` rebinds, the optimizer and the collective only read.  These
tests pin it from both sides — the bytes stay, and arrays frozen read-only
are never written to.
"""

import numpy as np
import pytest

from repro.core import RunConfig, SalientPP
from repro.distributed import all_reduce_gradients, broadcast_state
from repro.nn import Adam, Linear, Tensor, cross_entropy
from repro.nn import functional as F
from repro.sampling.mfg import MFGBlock

OPTIMIZERS = {
    "adam": lambda ps: Adam(ps, lr=0.01),
    "adam-decay": lambda ps: Adam(ps, lr=0.01, weight_decay=0.01),
}


def backward_once(model, rng):
    x = Tensor(rng.normal(size=(6, 4)))
    model.zero_grad()
    cross_entropy(model(x), rng.integers(0, 2, size=6)).backward()


def frozen_grads(model):
    """Every gradient made read-only (an in-place write now raises), with a
    copy of its bytes."""
    before = {}
    for name, p in model.named_parameters():
        p.grad.flags.writeable = False
        before[name] = p.grad.tobytes()
    return before


def grad_bytes(model):
    return {name: p.grad.tobytes() for name, p in model.named_parameters()}


@pytest.mark.parametrize("name", sorted(OPTIMIZERS))
def test_optimizer_step_only_reads_gradients(name, rng):
    model = Linear(4, 2, seed=0)
    optimizer = OPTIMIZERS[name](model.parameters())
    for _ in range(3):  # past the first step: the moments are live
        backward_once(model, rng)
        grads = [p.grad for p in model.parameters()]
        before = frozen_grads(model)
        optimizer.step()
        assert grad_bytes(model) == before
        assert all(p.grad is g for p, g in zip(model.parameters(), grads))


def test_all_reduce_only_reads_and_replicas_share_the_average(rng):
    models = [Linear(4, 2, seed=i) for i in range(3)]
    broadcast_state(models)
    for m in models:
        backward_once(m, rng)
    local = [(m.weight.grad, m.bias.grad) for m in models]
    before = [frozen_grads(m) for m in models]
    all_reduce_gradients(models)
    # The local gradients were read, not overwritten ...
    for (w, b), was in zip(local, before):
        assert (w.tobytes(), b.tobytes()) == (was["weight"], was["bias"])
    # ... and the average is one array per parameter, not K copies.
    for m in models[1:]:
        assert m.weight.grad is models[0].weight.grad
        assert m.bias.grad is models[0].bias.grad
    # Which the optimizer then leaves alone, replica after replica.
    shared = frozen_grads(models[0])
    for m in models:
        Adam(m.parameters(), weight_decay=0.01).step()
        assert grad_bytes(m) == shared


def test_backward_does_not_write_to_the_callers_gradient(rng):
    x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    out = (x @ w + x).relu() + x
    upstream = rng.normal(size=out.shape)
    upstream.flags.writeable = False
    before = upstream.tobytes()
    out.backward(upstream)
    out.backward(upstream)  # accumulates onto the first pass: rebinds
    assert upstream.tobytes() == before


def read_only(array):
    array.flags.writeable = False
    return array


@pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
@pytest.mark.parametrize("x_tracked", [True, False], ids=["x-tracked", "x-leaf"])
def test_a_layer_writes_only_into_arrays_it_allocated(relu, x_tracked, rng):
    """``F.sage_conv`` forward and backward, twice, with its rows, weights
    and the upstream gradient all read-only: the in-place ``+=`` and ReLU
    land only on the layer's own output and the row gradient it builds."""
    block = MFGBlock(np.array([0, 2, 2, 5]), np.array([0, 3, 3, 1, 4]), 5, 3)
    x = Tensor(read_only(rng.normal(size=(5, 4))), requires_grad=x_tracked)
    w_self, w_neigh = (Tensor(read_only(rng.normal(size=(4, 2))),
                              requires_grad=True) for _ in range(2))
    bias = Tensor(read_only(rng.normal(size=2)), requires_grad=True)
    upstream = read_only(rng.normal(size=(3, 2)))
    inputs = (x, w_self, bias, w_neigh)
    before = [t.data.tobytes() for t in inputs] + [upstream.tobytes()]
    for _ in range(2):
        F.sage_conv(x, block, w_self, bias, w_neigh, relu=relu).backward(
            upstream)
        for t in inputs:
            if t.grad is not None:
                read_only(t.grad)
    assert [t.data.tobytes() for t in inputs] + [upstream.tobytes()] == before
    assert (x.grad is not None) == x_tracked


def test_the_loss_writes_only_into_arrays_it_allocated(rng):
    logits = Tensor(read_only(rng.normal(size=(4, 3))), requires_grad=True)
    labels = read_only(np.array([0, 2, 1, 2]))
    upstream = read_only(np.asarray(1.5))
    before = (logits.data.tobytes(), labels.tobytes())
    for _ in range(2):
        cross_entropy(logits, labels).backward(upstream)
        read_only(logits.grad)
    assert (logits.data.tobytes(), labels.tobytes()) == before


@pytest.mark.parametrize("engine", ["bsp", "pipelined", "async"])
def test_an_epoch_trains_on_read_only_gradients(engine, tiny_dataset,
                                                monkeypatch):
    """Freeze every array the moment it becomes a ``.grad``: a whole epoch
    — backward, collective, optimizer, on every engine — runs unchanged."""
    cfg = RunConfig(num_machines=2, replication_factor=0.1, batch_size=16,
                    fanouts=(5, 5), engine=engine)
    want = SalientPP.build(tiny_dataset, cfg).train_epoch(0)

    accumulate = Tensor._accumulate

    def freezing(self, grad):
        accumulate(self, grad)
        self.grad.flags.writeable = False

    monkeypatch.setattr(Tensor, "_accumulate", freezing)
    got = SalientPP.build(tiny_dataset, cfg).train_epoch(0)
    assert [r.loss for r in got.report.records] == \
        [r.loss for r in want.report.records]
