"""Numerical gradient checks for every autograd op."""

import numpy as np
import pytest

from repro.nn import Tensor, functional as F
from repro.graph.csr import edge_operator
from repro.sampling.mfg import MFGBlock


def numgrad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(*x.shape):
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


def check(build, x_shape, seed=0, atol=1e-6):
    """``build``'s gradient against a central difference of ``<build(x), u>``
    for a fixed random upstream ``u``."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=x_shape)
    upstream = rng.normal(size=build(Tensor(x)).shape)

    def scalar(xv):
        return float((build(Tensor(xv)).data * upstream).sum())

    t = Tensor(x, requires_grad=True)
    build(t).backward(upstream)
    want = numgrad(scalar, x)
    assert np.allclose(t.grad, want, atol=atol), \
        f"max err {np.abs(t.grad - want).max()}"


class TestArithmetic:
    def test_add_broadcast(self):
        b = Tensor(np.random.default_rng(1).normal(size=3))
        check(lambda t: t + b, (4, 3))
        check(lambda t: b + t, (4, 3))

    def test_add_broadcast_grad_to_smaller(self):
        big = Tensor(np.random.default_rng(3).normal(size=(5, 3)))
        check(lambda t: big + t, (3,))

    def test_add_scalar(self):
        check(lambda t: 1.0 + t + 2.5, (3, 2))

    def test_matmul_both_sides(self):
        rng = np.random.default_rng(5)
        B = rng.normal(size=(3, 2))
        check(lambda t: t @ Tensor(B), (4, 3))
        A = rng.normal(size=(4, 3))
        check(lambda t: Tensor(A) @ t, (3, 2))

    @pytest.mark.parametrize("left, right", [
        ((4, 3), (3,)), ((4, 3), (1, 3)), ((4, 3), (4, 1)), ((4, 3), ()),
        ((1, 3), (4, 1)), ((2, 1, 3), (4, 3)),
    ], ids=str)
    def test_add_unbroadcasts_to_each_operand(self, left, right):
        """Both operands tracked: each gets the upstream gradient summed
        back to its own shape, over prepended and extent-1 axes alike."""
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=left), rng.normal(size=right)
        check(lambda t: t + Tensor(b), left)
        check(lambda t: Tensor(a) + t, right)
        ta, tb = Tensor(a, requires_grad=True), Tensor(b, requires_grad=True)
        (ta + tb).backward(np.ones(np.broadcast_shapes(left, right)))
        assert ta.grad.shape == left and tb.grad.shape == right

    @pytest.mark.parametrize("left, right", [
        ((1, 1), (1, 1)), ((1, 5), (5, 1)), ((5, 1), (1, 5)), ((3, 0), (0, 2)),
    ], ids=str)
    def test_matmul_shapes(self, left, right):
        rng = np.random.default_rng(12)
        b, a = rng.normal(size=right), rng.normal(size=left)
        check(lambda t: t @ Tensor(b), left)
        check(lambda t: Tensor(a) @ t, right)

    def test_matmul_rejects_1d(self):
        with pytest.raises(ValueError, match="2-D"):
            Tensor(np.ones(3)) @ Tensor(np.ones((3, 2)))


class TestNonlinearities:
    def test_relu(self):
        check(lambda t: t.relu(), (4, 4), seed=7)

    def test_relu_at_zero(self):
        """``max(x, 0)`` at either zero is +0.0 and passes no gradient."""
        t = Tensor(np.array([[-0.0, 0.0, -1.0, 2.0]]), requires_grad=True)
        out = t.relu()
        out.backward(np.ones((1, 4)))
        assert not np.signbit(out.data).any()
        assert np.array_equal(t.grad, [[0.0, 0.0, 0.0, 1.0]])


class TestIndexing:
    def test_slice_rows(self):
        check(lambda t: t.slice_rows(1, 3), (4, 2))

    @pytest.mark.parametrize("start, stop", [(0, 4), (0, 0), (3, 4), (2, 2)],
                             ids=str)
    def test_slice_rows_ranges(self, start, stop):
        """Whole, empty and last-row slices; rows outside the slice get
        exactly zero gradient."""
        check(lambda t: t.slice_rows(start, stop), (4, 2))
        t = Tensor(np.ones((4, 2)), requires_grad=True)
        t.slice_rows(start, stop).backward(np.ones((stop - start, 2)))
        assert np.array_equal(t.grad[start:stop], np.ones((stop - start, 2)))
        assert not t.grad[:start].any() and not t.grad[stop:].any()

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
#: is weak (NEP 50): ``x + 0.5`` must not become float64 because the engine
#: wrapped ``0.5`` as a strong 0-d float64 array, nor the loss because its
#: numpy-scalar result was re-coerced.
BLOCK = MFGBlock(np.array([0, 2, 2, 5]), np.array([0, 1, 3, 3, 2]),
                 num_src=4, num_dst=3)


def conv(t, relu):
    rng = np.random.default_rng(1)
    w_self, w_neigh = (Tensor(rng.normal(size=(3, 2)).astype(t.dtype),
                              requires_grad=True) for _ in range(2))
    bias = Tensor(rng.normal(size=2).astype(t.dtype), requires_grad=True)
    return F.sage_conv(t, BLOCK, w_self, bias, w_neigh, relu=relu)


DTYPE_OPS = {
    "add": lambda t: t + t,
    "add-scalar": lambda t: t + 1.0,
    "radd-scalar": lambda t: 1.0 + t,
    "matmul-array": lambda t: t @ np.ones((3, 2)),
    "matmul-tensor": lambda t: t @ Tensor(np.ones((3, 3), dtype=t.dtype)),
    "relu": lambda t: t.relu(),
    "slice_rows": lambda t: t.slice_rows(1, 3),
    "sage_conv": lambda t: conv(t, relu=False),
    "sage_conv-relu": lambda t: conv(t, relu=True),
    "cross_entropy": lambda t: F.cross_entropy(t, np.array([0, 1, 2, 0])),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("op", sorted(DTYPE_OPS))
def test_every_op_keeps_the_dtype(op, dtype):
    t = Tensor(np.random.default_rng(0).normal(size=(4, 3)).astype(dtype),
               requires_grad=True)
    out = DTYPE_OPS[op](t)
    assert out.dtype == dtype
    out.backward(np.ones(out.shape))
    assert t.grad.dtype == dtype


class TestEngine:
    def test_grad_accumulates_over_reuse(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        ((t + t) + t).backward(np.ones((2, 2)))
        assert np.allclose(t.grad, 3.0)

    def test_backward_requires_grad(self):
        with pytest.raises(RuntimeError, match="does not require grad"):
            Tensor(np.ones(2)).backward()

    def test_grad_shape_validated(self):
        t = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="grad shape"):
            t.backward(np.ones(3))

    def test_untracked_operands_record_nothing(self):
        out = Tensor(np.ones((2, 2))) + Tensor(np.ones((2, 2)))
        assert not out.requires_grad and out._backward is None

    def test_diamond_graph(self):
        """f = a + (a + a) with a = t + t, through a shared subexpression."""
        t = Tensor(np.array([[1.0]]), requires_grad=True)
        a = t + t
        out = a + (a + a)  # a reused
        out.backward(np.ones((1, 1)))
        assert t.grad.item() == pytest.approx(6.0)
