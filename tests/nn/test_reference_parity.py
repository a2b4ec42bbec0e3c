"""``repro.nn`` ≡ the frozen pre-product engine, property-tested.

``reference_autograd.py`` (beside this file) is ``nn/autograd.py`` +
``nn/functional.py`` as they stood when a block's aggregation was
``gather_rows`` -> ``np.add.reduceat`` and its backward ``np.repeat`` ->
``np.add.at``.  ``src/repro/nn`` now spells every such sum as one sparse
product, which changed exactly one piece of arithmetic — the *order* in
which a segment's rows are added going forward — and nothing else; a layer
is now one node (``F.sage_conv``) and the loss another (``F.cross_entropy``,
log-softmax folded in), which changed no arithmetic at all:

(a) every op whose arithmetic did not change is ``tobytes()``-equal to the
    oracle, outputs and every ``.grad`` — the loss included, and a layer's
    backward into its rows, ``W_self`` and ``b`` (the segment backward: a
    CSC product walks edges in storage order, which is ``np.add.at``'s) —
    on float32 data only where the oracle kept float32: it promotes through
    a Python scalar, which the engine no longer does (``test_autograd.py``
    pins the dtypes);
(b) the aggregation forward *is* the left-to-right loop written below,
    exactly, in the dtype of the rows it sums, and sits within
    ``count * eps * sum|x|`` of the oracle's ``reduceat`` (which adds
    ``x0 + (x1 + x2 + ...)``, an accident of numpy's reduce loop);
(c) one whole float32 ``train_batch`` on a sampled papers-mini MFG stays
    within a measured float32 bound of the oracle's float64 step and is
    bit-equal to itself.
"""

import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_autograd as ref
from reference_step import reference_train_batch
from repro.distributed import train_batch
from repro.graph.datasets import make_papers_mini
from repro.nn import GraphSAGE, functional as F
from repro.nn.autograd import Tensor
from repro.sampling import NeighborSampler
from repro.sampling.mfg import MFGBlock


def oracle_layer(x, block, w_self, bias, w_neigh):
    """``SAGEConv.forward`` as the oracle spelled it: slice, gather, mean,
    two projections, bias before the neighbour term."""
    agg = ref.segment_mean(x.gather_rows(block.src_index), block.dst_ptr)
    own = x.slice_rows(0, block.num_dst) @ w_self + bias
    return own + agg @ w_neigh


new = types.SimpleNamespace(
    Tensor=Tensor, cross_entropy=F.cross_entropy,
    layer=lambda *args: F.sage_conv(*args, relu=False))
old = types.SimpleNamespace(
    Tensor=ref.Tensor, cross_entropy=ref.cross_entropy, layer=oracle_layer)

#: (dtype of the rows, whether they are tracked): the two kinds of input a
#: layer sees — float32 store rows (a leaf nothing differentiates) and
#: float32 hidden representations — and float64 gradcheck data.
KINDS = {"float32-leaf": (np.float32, False),
         "float32-tracked": (np.float32, True),
         "float64-tracked": (np.float64, True)}


def values(rng, shape, dtype):
    """Mixed magnitudes, both signs, with entries — and sometimes whole
    rows — of +0.0 and -0.0 (where an order of additions can show)."""
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, size=shape)
    zero = rng.random(shape) < 0.15
    x[zero] = np.where(rng.random(shape) < 0.5, 0.0, -0.0)[zero]
    if shape[0] and rng.random() < 0.3:
        x[rng.integers(shape[0])] = -0.0
    return x.astype(dtype)


@st.composite
def blocks(draw):
    """A block over ``x``: ``num_dst`` segments (empty ones, and none at
    all, included) of edges into ``num_src`` rows, duplicates likely."""
    seed = draw(st.integers(0, 2**32 - 1))
    num_src = draw(st.integers(0, 12))
    num_dst = draw(st.integers(0, num_src))
    width = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(sorted(KINDS)))
    rng = np.random.default_rng(seed)
    counts = (rng.integers(0, 6, size=num_dst) * (rng.random(num_dst) < 0.7)
              if num_src else np.zeros(num_dst, dtype=np.int64))
    ptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    index = rng.integers(0, max(num_src, 1), size=int(ptr[-1]))
    dtype, tracked = KINDS[kind]
    return types.SimpleNamespace(
        rng=rng, x=values(rng, (num_src, width), dtype), tracked=tracked,
        ptr=ptr, index=index, num_dst=num_dst, width=width,
        block=MFGBlock(ptr, index, num_src, num_dst))


def run(ns, build, case, *weights):
    """``build(ns, x, *weights)`` on one engine, then backward from a
    gradient fixed by the output's shape; ``(output, [leaf grads])``."""
    x = ns.Tensor(case.x.copy(), requires_grad=case.tracked)
    params = [ns.Tensor(w.copy(), requires_grad=True) for w in weights]
    out = build(ns, x, *params)
    if out.requires_grad:
        upstream = np.random.default_rng(7).standard_normal(out.data.shape)
        out.backward(upstream)
    return out.data, [t.grad for t in (x, *params)]


def same(a, b):
    if a is None or b is None:
        return a is b
    return (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())


def assert_byte_equal(build, case, *weights, forward=True):
    got, got_grads = run(new, build, case, *weights)
    want, want_grads = run(old, build, case, *weights)
    if forward:
        assert same(got, want), (got, want)
    assert len(got_grads) == len(want_grads)
    for g, w in zip(got_grads, want_grads):
        assert same(g, w), (g, w)


# ----------------------------------------------------------------------
# (a) unchanged arithmetic: byte for byte.

ELEMENTWISE = {
    "add-self": lambda ns, x: x + x,
    "add-scalar": lambda ns, x: 1.0 + x + 2.5,
    "relu": lambda ns, x: x.relu(),
    "relu-twice-used": lambda ns, x: x.relu() + x + x.relu(),
}

#: The ops that meet a Python scalar.  On float32 data the oracle promotes
#: them to float64 — it wraps ``2.5`` as ``np.asarray(2.5)``, a strong
#: float64 under NEP 50 — so it has no float32 answer to compare with; here
#: they must stay float32.
PROMOTED_BY_THE_ORACLE = {"add-scalar"}


@pytest.mark.parametrize("op", sorted(ELEMENTWISE))
@settings(max_examples=25, deadline=None)
@given(case=blocks())
def test_unchanged_ops_are_byte_equal(op, case):
    if op in PROMOTED_BY_THE_ORACLE and case.x.dtype == np.float32:
        out, grads = run(new, ELEMENTWISE[op], case)
        assert out.dtype == np.float32
        assert all(g is None or g.dtype == np.float32 for g in grads)
        return
    assert_byte_equal(ELEMENTWISE[op], case)


@settings(max_examples=60, deadline=None)
@given(case=blocks(), hidden=st.integers(1, 4))
def test_affine_maps_are_byte_equal(case, hidden):
    """``x W + b`` with weights in the rows' dtype (float32 rows meet float32
    weights, as in the model), broadcasting and ``_unbroadcast`` on either
    side of the ``+`` included."""
    w = values(case.rng, (case.width, hidden), case.x.dtype)
    b = values(case.rng, (hidden,), case.x.dtype)
    v = values(case.rng, (hidden, case.width), case.x.dtype)
    assert_byte_equal(
        lambda ns, x, w, b, v: (x @ w + b).relu() @ v + x, case, w, b, v)
    assert_byte_equal(lambda ns, x, w, b: b + x @ w, case, w, b)


@settings(max_examples=60, deadline=None)
@given(case=blocks())
def test_row_selection_is_byte_equal(case):
    """``slice_rows`` forward and backward."""
    assert_byte_equal(lambda ns, x: x.slice_rows(0, case.num_dst), case)


@settings(max_examples=60, deadline=None)
@given(case=blocks())
def test_cross_entropy_is_byte_equal(case):
    """The one loss node is the oracle's ``log_softmax`` -> ``cross_entropy``
    chain, forward and backward, bit for bit."""
    if len(case.x) == 0:
        return
    labels = case.rng.integers(0, case.width, size=len(case.x))
    assert_byte_equal(lambda ns, x: ns.cross_entropy(x, labels), case)


@settings(max_examples=150, deadline=None)
@given(case=blocks(), hidden=st.integers(1, 4))
def test_segment_backward_is_byte_equal(case, hidden):
    """Given one upstream gradient, what a layer sends to its rows — through
    the mean (``A.T @``, the oracle's ``np.repeat`` -> ``np.add.at``) and
    through the destination prefix — and to ``W_self`` and ``b`` is the
    oracle's, bit for bit.  (The forward, and so ``W_neigh``'s gradient
    ``agg.T @ g``, is compared in (b): its order changed.)"""
    w_self = values(case.rng, (case.width, hidden), case.x.dtype)
    bias = values(case.rng, (hidden,), case.x.dtype)
    w_neigh = values(case.rng, (case.width, hidden), case.x.dtype)
    _, got = run(new, lambda ns, *a: ns.layer(a[0], case.block, *a[1:]),
                 case, w_self, bias, w_neigh)
    _, want = run(old, lambda ns, *a: ns.layer(a[0], case.block, *a[1:]),
                  case, w_self, bias, w_neigh)
    for g, w in zip(got[:3], want[:3]):  # x, W_self, b
        assert same(g, w), (g, w)


# ----------------------------------------------------------------------
# (b) the aggregation forward, by definition.

def loop_segment_sum(x, ptr, index):
    """*The* definition: each segment's rows added one at a time, left to
    right in edge order, starting from zero, in ``x.dtype``."""
    out = np.zeros((len(ptr) - 1,) + x.shape[1:], dtype=x.dtype)
    for i in range(len(ptr) - 1):
        acc = np.zeros(x.shape[1:], dtype=x.dtype)
        for e in range(ptr[i], ptr[i + 1]):
            acc = acc + x[index[e]]
        out[i] = acc
    return out


def mean_only(x, block):
    """A layer that outputs its mean aggregation exactly: ``W_self = 0``,
    ``b = 0``, ``W_neigh = I`` (``+0.0 + agg @ I`` is ``agg`` bit for bit:
    the sum starts from ``+0.0``, so it is never ``-0.0``)."""
    width, dtype = x.shape[1], x.dtype
    return F.sage_conv(
        Tensor(x), block, Tensor(np.zeros((width, width), dtype)),
        Tensor(np.zeros(width, dtype)), Tensor(np.eye(width, dtype=dtype)),
        relu=False).data


@settings(max_examples=200, deadline=None)
@given(case=blocks())
def test_aggregation_forward_is_the_left_to_right_sum(case):
    x, ptr, index = case.x, case.ptr, case.index
    want = loop_segment_sum(x, ptr, index)
    counts = np.maximum(np.diff(ptr), 1).astype(x.dtype)
    got = mean_only(x, case.block)
    assert same(got, want * (1.0 / counts)[:, None]), (got, want)

    # The oracle's reduceat is a re-association of the same terms.
    was = ref.segment_sum(ref.Tensor(x).gather_rows(index), ptr).data
    assert was.dtype == got.dtype
    magnitude = loop_segment_sum(np.abs(x.astype(np.float64)), ptr, index)
    bound = np.diff(ptr)[:, None] * np.finfo(x.dtype).eps * magnitude
    assert np.all(np.abs(want.astype(np.float64) - was) <= bound)


def test_the_order_the_oracle_summed_in():
    """Why the forward is not byte-equal: numpy's ``reduceat`` adds a
    segment as ``x0 + (x1 + x2)``; the product adds ``(x0 + x1) + x2``."""
    x = np.array([[1.0], [1e-16], [1e-16]])
    ptr = np.array([0, 3])
    assert ref.segment_sum(ref.Tensor(x), ptr).data[0, 0] == 1.0 + (1e-16 + 1e-16)
    got = mean_only(x, MFGBlock(ptr, np.arange(3), 3, 1))[0, 0]
    assert got == ((1.0 + 1e-16) + 1e-16) * (1.0 / 3.0)
    assert 1.0 + (1e-16 + 1e-16) != (1.0 + 1e-16) + 1e-16


# ----------------------------------------------------------------------
# (c) one whole training step.

FANOUTS = (15, 10, 5)


@pytest.fixture(scope="module")
def step():
    ds = make_papers_mini(seed=1, scale=0.04)
    mfg = NeighborSampler(ds.graph, FANOUTS, seed=5).sample(ds.train_idx[:64])
    model = GraphSAGE(ds.feature_dim, 32, ds.num_classes, len(FANOUTS),
                      seed=0)
    return model, ds.features[mfg.n_id], mfg, ds.labels[mfg.seeds]


# The model runs float32 end to end (nn.module.DTYPE): every sum, GEMM and
# backward rounds at float32, against the oracle's float64 step over the same
# float32 weights and rows.  Relative error in units of float32 eps, measured
# over 12 sampled steps (papers-mini seeds 1-3 x 4 MFG / weight seeds): loss
# at most 0.77 (0.47 on this fixture), gradients (max |error| / max |grad|
# per parameter) at most 19.0 (6.3 here) — 0.19x and 0.59x of the bounds.
# float64 rows are cast at the model boundary, so they run float32 too.
LOSS_TOL = 4 * np.finfo(np.float32).eps
GRAD_TOL = 32 * np.finfo(np.float32).eps


@pytest.mark.parametrize("dtype", [np.float64, np.float32],
                         ids=["float64-rows", "float32-rows"])
def test_train_batch_against_the_oracle_step(step, dtype):
    model, feats, mfg, labels = step
    want_loss, want_grads = reference_train_batch(
        model.state_dict(), feats.astype(np.float64), mfg, labels)

    loss = train_batch(model, feats.astype(dtype), mfg, labels)
    grads = {name: p.grad for name, p in model.named_parameters()}
    assert all(g.dtype == np.float32 for g in grads.values())
    assert abs(loss - want_loss) <= LOSS_TOL * abs(want_loss)
    assert grads.keys() == want_grads.keys()
    for name, want in want_grads.items():
        assert np.abs(grads[name] - want).max() <= GRAD_TOL * np.abs(want).max(), name

    # One sequence of floating-point operations: the step repeats itself,
    # on the store's float32 rows whichever rows it was given.
    assert train_batch(model, feats, mfg, labels) == loss
    for name, p in model.named_parameters():
        assert same(p.grad, grads[name]), name
