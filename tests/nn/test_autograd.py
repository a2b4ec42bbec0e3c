"""Numerical gradient checks for every autograd op."""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F
from repro.graph.csr import edge_operator


def numgrad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(*x.shape):
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


def check(build, x_shape, seed=0, atol=1e-6):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)

    def scalar(xv):
        t = Tensor(xv, requires_grad=True)
        return build(t).sum().item()

    t = Tensor(x, requires_grad=True)
    out = build(t).sum()
    out.backward()
    assert np.allclose(t.grad, numgrad(scalar, x), atol=atol), \
        f"max err {np.abs(t.grad - numgrad(scalar, x)).max()}"


class TestArithmetic:
    def test_add_broadcast(self):
        b = Tensor(np.random.default_rng(1).normal(size=3))
        check(lambda t: t + b, (4, 3))

    def test_add_scalar(self):
        check(lambda t: t + 2.5, (3, 2))

    def test_mul(self):
        other = Tensor(np.random.default_rng(2).normal(size=(4, 3)))
        check(lambda t: t * other, (4, 3))

    def test_mul_broadcast_grad_to_smaller(self):
        rng = np.random.default_rng(3)
        big = rng.normal(size=(5, 3))

        def build(t):
            return Tensor(big) * t  # t is (3,)
        check(build, (3,))

    def test_neg_sub(self):
        check(lambda t: (-t) - 1.0, (2, 3))

    def test_rsub(self):
        check(lambda t: 1.0 - t, (2, 2))

    def test_div_scalar(self):
        check(lambda t: t / 4.0, (2, 3))

    def test_reciprocal(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(0.5, 2.0, size=(3, 3))
        t = Tensor(x, requires_grad=True)
        t.reciprocal().sum().backward()
        assert np.allclose(t.grad, -1.0 / x**2, atol=1e-8)

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(5)
        B = rng.normal(size=(3, 2))
        check(lambda t: t @ Tensor(B), (4, 3))
        A = rng.normal(size=(4, 3))
        check(lambda t: Tensor(A) @ t, (3, 2))

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


class TestReductionsAndShape:
    def test_sum_all(self):
        check(lambda t: t.sum() * 2.0, (3, 4))

    def test_sum_axis(self):
        check(lambda t: t.sum(axis=0), (3, 4))
        check(lambda t: t.sum(axis=1, keepdims=True), (3, 4))

    def test_mean(self):
        check(lambda t: t.mean(axis=1), (3, 4))

    def test_reshape(self):
        check(lambda t: t.reshape(6, 2) @ Tensor(np.ones((2, 1))), (3, 4))

    def test_transpose(self):
        check(lambda t: t.T @ Tensor(np.ones((3, 1))), (3, 4))


class TestNonlinearities:
    def test_relu(self):
        check(lambda t: t.relu(), (4, 4), seed=7)


class TestIndexing:
    def test_slice_rows(self):
        check(lambda t: t.slice_rows(1, 3), (4, 2))

    def test_edge_operator_sums_and_scatters_in_edge_order(self):
        """``A @ x`` is each segment's rows summed; ``A.T @ g`` sends each
        segment's gradient back to its rows, duplicates accumulating."""
        ptr, index = np.array([0, 3, 3, 5]), np.array([0, 2, 2, 1, 0])
        rng = np.random.default_rng(10)
        x, g = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
        A = edge_operator(ptr, index, 3, np.float64)
        assert A.shape == (3, 3)
        assert np.allclose(A @ x, [x[0] + x[2] + x[2], np.zeros(2), x[1] + x[0]])
        want = np.zeros_like(x)
        np.add.at(want, index, np.repeat(g, np.diff(ptr), axis=0))
        assert np.array_equal(A.T @ g, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_edge_operator_keeps_the_row_dtype(self, dtype):
        A = edge_operator(np.array([0, 2]), np.array([0, 1]), 2, dtype)
        assert A.dtype == dtype
        assert (A @ np.ones((2, 3), dtype=dtype)).dtype == dtype

    @pytest.mark.parametrize("idx, message", [
        ([0, -1, 2], r"index -1 is outside \[0, 3\)"),
        ([0, 3, 1], r"index 3 is outside \[0, 3\)"),
    ])
    def test_edge_operator_rejects_out_of_range(self, idx, message):
        """numpy would wrap -1 to the last row (and scatter its gradient
        there); a sparse product would read out of bounds."""
        with pytest.raises(ValueError, match=message):
            edge_operator(np.array([0, 3]), np.array(idx), 3, np.float64)

    def test_edge_operator_of_nothing(self):
        A = edge_operator(np.array([0, 0, 0]), np.empty(0, dtype=np.int64), 3,
                          np.float64)
        assert A.shape == (2, 3) and A.nnz == 0
        assert np.array_equal(A @ np.ones((3, 2)), np.zeros((2, 2)))
        assert np.array_equal(A.T @ np.ones((2, 2)), np.zeros((3, 2)))


#: Every op, and every way a non-Tensor operand reaches one.  A Python scalar
#: is weak (NEP 50): ``x * 0.5`` must not become float64 because the engine
#: wrapped ``0.5`` as a strong 0-d float64 array, nor ``x.sum()`` because its
#: numpy-scalar result was re-coerced.
SEGMENTS = dict(ptr=np.array([0, 2, 2, 5]), index=np.array([0, 1, 3, 3, 2]))
DTYPE_OPS = {
    "add": lambda t: t + t,
    "add-scalar": lambda t: t + 1.0,
    "radd-scalar": lambda t: 1.0 + t,
    "sub-scalar": lambda t: t - 1,
    "rsub-scalar": lambda t: 1.0 - t,
    "neg": lambda t: -t,
    "mul-scalar": lambda t: t * 0.5,
    "rmul-scalar": lambda t: 2 * t,
    "div-scalar": lambda t: t / 2.0,
    "div-tensor": lambda t: t / (t * t + 1.0),
    "reciprocal": lambda t: (t * t + 1.0).reciprocal(),
    "matmul-array": lambda t: t @ np.ones((3, 2)),
    "matmul-tensor": lambda t: t @ t.T,
    "sum": lambda t: t.sum(),
    "sum-axis": lambda t: t.sum(axis=0),
    "mean": lambda t: t.mean(),
    "mean-axis": lambda t: t.mean(axis=1, keepdims=True),
    "reshape": lambda t: t.reshape(-1),
    "T": lambda t: t.T,
    "relu": lambda t: t.relu(),
    "slice_rows": lambda t: t.slice_rows(1, 3),
    "segment_sum": lambda t: F.segment_sum(t, **SEGMENTS),
    "segment_mean": lambda t: F.segment_mean(t, **SEGMENTS),
    "log_softmax": lambda t: F.log_softmax(t),
    "cross_entropy": lambda t: F.cross_entropy(t, np.array([0, 1, 2, 0])),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(DTYPE_OPS))
def test_every_op_keeps_the_dtype(op, dtype):
    t = Tensor(np.random.default_rng(0).normal(size=(4, 3)).astype(dtype),
               requires_grad=True)
    out = DTYPE_OPS[op](t)
    assert out.dtype == dtype
    out.sum().backward()
    assert t.grad.dtype == dtype


class TestEngine:
    def test_grad_accumulates_over_reuse(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        (t * 2 + t * 3).sum().backward()
        assert np.allclose(t.grad, 5.0)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError, match="does not require grad"):
            Tensor(np.ones(2)).backward()

    def test_grad_shape_validated(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="grad shape"):
            t.backward(np.ones(3))

    def test_detach_stops_gradient(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        out = (t.detach() * 2).sum()
        assert not out.requires_grad

    def test_diamond_graph(self):
        """f = (t*2) + (t*3) through shared subexpression."""
        t = Tensor(np.array([[1.0]]), requires_grad=True)
        a = t * 2
        out = a + a * 3  # a reused
        out.sum().backward()
        assert t.grad.item() == pytest.approx(8.0)
