"""Functional op tests: the one-node GraphSAGE layer and the loss."""

import itertools
import types

import numpy as np
import pytest

from repro.nn import Tensor, cross_entropy
from repro.nn import functional as F
from repro.sampling.mfg import MFGBlock


def numgrad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(*x.shape):
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


#: Four destinations over seven sources: an empty segment, a duplicate
#: source, a destination that is its own neighbour.
BLOCK = MFGBlock(np.array([0, 3, 3, 5, 8]), np.array([4, 6, 4, 1, 5, 2, 0, 3]),
                 num_src=7, num_dst=4)


def layer_inputs(seed, in_dim=3, out_dim=2, block=BLOCK):
    """float64 rows and weights, centred so that about half of the
    pre-activations are negative (ReLU has something to cut)."""
    rng = np.random.default_rng(seed)
    return {"x": rng.normal(size=(block.num_src, in_dim)),
            "w_self": rng.normal(size=(in_dim, out_dim)),
            "bias": rng.normal(size=out_dim) * 0.5,
            "w_neigh": rng.normal(size=(in_dim, out_dim))}


INPUTS = ("x", "w_self", "bias", "w_neigh")

#: Block shapes at the edges of the aggregation: no destinations at all,
#: every segment empty, one source summed over and over, and destinations
#: that are all of the sources.
EDGE_BLOCKS = {
    "no-destinations": MFGBlock(np.array([0]), np.array([], dtype=np.int64),
                                num_src=3, num_dst=0),
    "all-empty": MFGBlock(np.array([0, 0, 0]), np.array([], dtype=np.int64),
                          num_src=4, num_dst=2),
    "one-source-repeated": MFGBlock(np.array([0, 3, 5]),
                                    np.array([2, 2, 2, 2, 2]),
                                    num_src=3, num_dst=2),
    "sources-are-destinations": MFGBlock(np.array([0, 2, 3, 4]),
                                         np.array([1, 2, 0, 0]),
                                         num_src=3, num_dst=3),
}


def layer(values, tracked, block=BLOCK, relu=False):
    """``F.sage_conv`` over Tensors of ``values``, those in ``tracked``
    requiring grad; ``({name: Tensor}, out)``."""
    ts = {name: Tensor(values[name], requires_grad=name in tracked)
          for name in INPUTS}
    out = F.sage_conv(ts["x"], block, ts["w_self"], ts["bias"],
                      ts["w_neigh"], relu=relu)
    return ts, out


def assert_gradients_match_central_differences(arrays, tracked, block, relu):
    upstream = np.random.default_rng(4).normal(size=(block.num_dst, 2))
    ts, out = layer(arrays, tracked, block, relu)
    out.backward(upstream)
    assert (ts["x"].grad is not None) == ("x" in tracked)
    for name in sorted(tracked):
        def scalar(v, name=name):
            _, o = layer({**arrays, name: v}, (), block, relu)
            return float((o.data * upstream).sum())
        want = numgrad(scalar, arrays[name])
        assert np.allclose(ts[name].grad, want, atol=1e-6), name


class TestSageConv:
    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("x_tracked", [True, False],
                             ids=["x-tracked", "x-leaf"])
    def test_gradients_match_central_differences(self, relu, x_tracked):
        tracked = {"w_self", "bias", "w_neigh"} | ({"x"} if x_tracked else set())
        assert_gradients_match_central_differences(
            layer_inputs(seed=3), tracked, BLOCK, relu)

    @pytest.mark.parametrize("relu", [False, True], ids=["linear", "relu"])
    @pytest.mark.parametrize("shape", sorted(EDGE_BLOCKS))
    def test_gradients_on_edge_shaped_blocks(self, shape, relu):
        block = EDGE_BLOCKS[shape]
        assert_gradients_match_central_differences(
            layer_inputs(seed=8, block=block), set(INPUTS), block, relu)

    @pytest.mark.parametrize(
        "tracked",
        [frozenset(c) for r in range(len(INPUTS) + 1)
         for c in itertools.combinations(INPUTS, r)],
        ids=lambda c: "+".join(n for n in INPUTS if n in c) or "none")
    def test_only_tracked_inputs_receive_gradients(self, tracked):
        """Whichever inputs require grad get exactly the gradient they get
        when all four do, bit for bit; the others get none, and a layer of
        untracked inputs records no node."""
        arrays = layer_inputs(seed=9)
        upstream = np.random.default_rng(10).normal(size=(BLOCK.num_dst, 2))
        everything, out = layer(arrays, set(INPUTS), relu=True)
        out.backward(upstream)
        ts, out = layer(arrays, tracked, relu=True)
        assert out.requires_grad == bool(tracked)
        if not tracked:
            assert out._backward is None
            return
        out.backward(upstream)
        for name in INPUTS:
            if name in tracked:
                assert ts[name].grad.tobytes() == \
                    everything[name].grad.tobytes(), name
            else:
                assert ts[name].grad is None, name

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bias_is_added_before_the_neighbour_term(self, dtype):
        """``(x W_self + b) + agg W_neigh``: with both products at 0.4 ulp
        of a unit bias, the bias absorbs each in turn, where adding the two
        products first would round up to ``1 + eps``."""
        tiny = 0.4 * np.finfo(dtype).eps
        block = MFGBlock(np.array([0, 2]), np.array([0, 1]), 2, 1)
        x = Tensor(np.ones((2, 1), dtype=dtype))
        w = Tensor(np.full((1, 1), tiny, dtype=dtype))
        out = F.sage_conv(x, block, w, Tensor(np.ones(1, dtype=dtype)), w,
                          relu=False)
        assert out.data.dtype == dtype
        assert out.data[0, 0] == dtype(1.0)
        assert (w.data[0, 0] + w.data[0, 0]) + dtype(1.0) == \
            dtype(1.0) + np.finfo(dtype).eps

    def test_forward_is_the_sage_formula(self):
        """``x[:nd] W_self + b + mean(neighbours) W_neigh`` (an empty
        segment's mean is zero), ReLU'd when asked."""
        a = layer_inputs(seed=5)
        x = a["x"]
        mean = np.stack([x[BLOCK.src_index[lo:hi]].mean(axis=0) if hi > lo
                         else np.zeros(x.shape[1])
                         for lo, hi in zip(BLOCK.dst_ptr[:-1], BLOCK.dst_ptr[1:])])
        want = x[:BLOCK.num_dst] @ a["w_self"] + a["bias"] + mean @ a["w_neigh"]
        args = [Tensor(a[n]) for n in ("x", "w_self", "bias", "w_neigh")]
        out = F.sage_conv(args[0], BLOCK, *args[1:], relu=False)
        assert np.allclose(out.data, want)
        out = F.sage_conv(args[0], BLOCK, *args[1:], relu=True)
        assert np.allclose(out.data, np.maximum(want, 0.0))

    def test_empty_segment_sums_to_a_zero_row(self):
        """Destination 1 sampled nothing: its neighbour term is exactly
        zero, so its output is its own projection plus the bias."""
        a = layer_inputs(seed=6)
        args = [Tensor(a[n]) for n in ("x", "w_self", "bias", "w_neigh")]
        out = F.sage_conv(args[0], BLOCK, *args[1:], relu=False)
        own = a["x"][1:2] @ a["w_self"] + a["bias"]
        assert np.array_equal(out.data[1:2], own)

    @pytest.mark.parametrize("index, message", [
        ([0, -2, 1], r"index -2 is outside \[0, 4\)"),
        ([0, 4, 1], r"index 4 is outside \[0, 4\)"),
    ])
    def test_rejects_out_of_range_index(self, index, message):
        """numpy would wrap ``-2`` silently; a sparse product would read
        past the rows.  (An ``MFGBlock`` rejects both itself; a block over
        more sources than ``x`` has rows reaches the operator's check.)"""
        block = types.SimpleNamespace(dst_ptr=np.array([0, 1, 3]),
                                      src_index=np.array(index))
        x, w = Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match=message):
            F.sage_conv(x, block, w, Tensor(np.ones(2)), w, relu=False)
        wide = MFGBlock(np.array([0, 1, 3]), np.array([0, 4, 1]), 5, 2)
        with pytest.raises(ValueError, match=r"index 4 is outside \[0, 4\)"):
            F.sage_conv(x, wide, w, Tensor(np.ones(2)), w, relu=False)

    def test_ptr_must_cover_the_summed_rows(self):
        block = types.SimpleNamespace(dst_ptr=np.array([0, 1, 3]),
                                      src_index=np.array([0, 1]))
        x, w = Tensor(np.ones((4, 2))), Tensor(np.ones((2, 2)))
        with pytest.raises(ValueError, match=r"ptr\[-1\] \(3\).*\(2\)"):
            F.sage_conv(x, block, w, Tensor(np.ones(2)), w, relu=False)


class TestLosses:
    def test_cross_entropy_matches_manual(self, rng):
        logits = rng.normal(size=(5, 3))
        labels = np.array([0, 2, 1, 1, 0])
        loss = cross_entropy(Tensor(logits), labels)
        # Manual
        z = logits - logits.max(axis=1, keepdims=True)
        logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
        manual = -logp[np.arange(5), labels].mean()
        assert loss.item() == pytest.approx(manual)

    def test_cross_entropy_grad(self, rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([1, 0, 2, 1])

        def f(lv):
            return cross_entropy(Tensor(lv), labels).item()
        t = Tensor(logits, requires_grad=True)
        cross_entropy(t, labels).backward()
        assert np.allclose(t.grad, numgrad(f, logits), atol=1e-6)

    @pytest.mark.parametrize("shift", [-1e4, 1e4, "per-row"])
    def test_cross_entropy_is_stable_under_a_row_shift(self, shift, rng):
        """Adding a constant to a row moves neither the loss nor the
        gradient — even where ``exp`` of the raw logits would overflow."""
        logits = rng.normal(size=(4, 3))
        labels = np.array([2, 0, 1, 2])
        offset = (np.array([[-1e4], [0.0], [1e3], [1e4]])
                  if shift == "per-row" else shift)
        base = Tensor(logits, requires_grad=True)
        moved = Tensor(logits + offset, requires_grad=True)
        with np.errstate(all="raise"):
            want, got = cross_entropy(base, labels), cross_entropy(moved, labels)
            want.backward()
            got.backward()
        assert got.item() == pytest.approx(want.item(), abs=1e-9)
        assert np.allclose(moved.grad, base.grad, atol=1e-9)

    @pytest.mark.parametrize("kind", ["list", "int32", "uint8", "int64"])
    def test_cross_entropy_takes_labels_of_any_integer_kind(self, kind, rng):
        logits = rng.normal(size=(3, 4))
        labels = [3, 0, 2]
        given = labels if kind == "list" else np.array(labels, dtype=kind)
        want = cross_entropy(Tensor(logits), np.array(labels, dtype=np.int64))
        got = cross_entropy(Tensor(logits), given)
        assert got.data.tobytes() == want.data.tobytes()

    def test_cross_entropy_backward_scales_with_the_upstream_gradient(self,
                                                                      rng):
        logits = rng.normal(size=(4, 3))
        labels = np.array([1, 0, 2, 1])
        unit, scaled = (Tensor(logits, requires_grad=True) for _ in range(2))
        cross_entropy(unit, labels).backward()
        cross_entropy(scaled, labels).backward(np.asarray(-2.5))
        assert np.allclose(scaled.grad, -2.5 * unit.grad)

    def test_cross_entropy_of_a_single_class_is_zero(self):
        """One class: every row's log-softmax is exactly 0, so is its
        gradient."""
        t = Tensor(np.array([[3.0], [-7.5]]), requires_grad=True)
        loss = cross_entropy(t, np.array([0, 0]))
        loss.backward()
        assert loss.item() == 0.0
        assert np.array_equal(t.grad, np.zeros((2, 1)))

    def test_cross_entropy_validates(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.ones((3, 2))), np.array([0, 1]))

    @pytest.mark.parametrize("labels, bad", [([-1, 0], -1), ([3, 0], 3)])
    def test_cross_entropy_rejects_a_label_outside_the_classes(self, labels,
                                                               bad):
        """numpy would score label -1 as class 2 of 3, silently."""
        logits = Tensor(np.random.default_rng(0).normal(size=(2, 3)))
        with pytest.raises(ValueError, match=rf"label {bad} is outside \[0, 3\)"):
            cross_entropy(logits, np.array(labels))
