"""Functional op tests: segment reductions and losses."""

import numpy as np
import pytest

from repro.nn import Tensor, cross_entropy
from repro.nn import functional as F


def numgrad(f, x, eps=1e-6):
    g = np.zeros_like(x, dtype=np.float64)
    for idx in np.ndindex(*x.shape):
        xp = x.copy(); xp[idx] += eps
        xm = x.copy(); xm[idx] -= eps
        g[idx] = (f(xp) - f(xm)) / (2 * eps)
    return g


class TestSegmentOps:
    def test_segment_sum_matches_loop(self, rng):
        x = rng.normal(size=(7, 3))
        ptr = np.array([0, 2, 2, 5, 7])  # includes an empty segment
        out = F.segment_sum(Tensor(x), ptr)
        expect = np.stack([x[0:2].sum(0), np.zeros(3), x[2:5].sum(0), x[5:7].sum(0)])
        assert np.allclose(out.data, expect)

    def test_segment_sum_grad(self, rng):
        x = rng.normal(size=(6, 2))
        ptr = np.array([0, 3, 6])

        def f(xv):
            return F.segment_sum(Tensor(xv, requires_grad=True), ptr).sum().item()
        t = Tensor(x, requires_grad=True)
        F.segment_sum(t, ptr).sum().backward()
        assert np.allclose(t.grad, numgrad(f, x), atol=1e-6)

    def test_indexed_segment_sum_is_the_sum_of_gathered_rows(self, rng):
        x = rng.normal(size=(5, 3)).astype(np.float32)
        ptr, index = np.array([0, 2, 2, 5]), np.array([4, 4, 0, 1, 0])
        out = F.segment_sum(Tensor(x), ptr, index=index)
        assert out.dtype == np.float32  # float32 rows are summed in float32
        assert np.array_equal(out.data, F.segment_sum(Tensor(x[index]), ptr).data)

        t = Tensor(x.astype(np.float64), requires_grad=True)
        F.segment_mean(t, ptr, index=index).sum().backward()
        # Each edge sends 1/|segment| back to its source row, in edge order.
        counts = np.maximum(np.diff(ptr), 1)
        per_edge = np.repeat(1.0 / counts, np.diff(ptr))
        want = np.zeros_like(t.data)
        np.add.at(want, index, per_edge[:, None])
        assert np.array_equal(t.grad, want)

    @pytest.mark.parametrize("index, message", [
        ([0, -2, 1], r"index -2 is outside \[0, 4\)"),
        ([0, 4, 1], r"index 4 is outside \[0, 4\)"),
    ])
    def test_segment_sum_rejects_out_of_range_index(self, index, message):
        with pytest.raises(ValueError, match=message):
            F.segment_sum(Tensor(np.ones((4, 2))), np.array([0, 1, 3]),
                          index=np.array(index))

    def test_segment_sum_ptr_must_cover_the_summed_rows(self):
        x = Tensor(np.ones((4, 2)))
        with pytest.raises(ValueError, match=r"ptr\[-1\] \(3\).*\(4\)"):
            F.segment_sum(x, np.array([0, 1, 3]))
        with pytest.raises(ValueError, match=r"ptr\[-1\] \(3\).*\(2\)"):
            F.segment_sum(x, np.array([0, 1, 3]), index=np.array([0, 1]))

    def test_segment_mean_empty_is_zero(self, rng):
        x = rng.normal(size=(4, 2))
        ptr = np.array([0, 0, 4])
        out = F.segment_mean(Tensor(x), ptr)
        assert np.allclose(out.data[0], 0.0)
        assert np.allclose(out.data[1], x.mean(axis=0))

    def test_ptr_mismatch_raises(self, rng):
        with pytest.raises(ValueError):
            F.segment_sum(Tensor(np.ones((3, 2))), np.array([0, 2]))


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
            return cross_entropy(Tensor(lv, requires_grad=True), labels).item()
        t = Tensor(logits, requires_grad=True)
        cross_entropy(t, labels).backward()
        assert np.allclose(t.grad, numgrad(f, logits), atol=1e-6)

    def test_cross_entropy_validates(self, rng):
        with pytest.raises(ValueError):
            cross_entropy(Tensor(np.ones((3, 2))), np.array([0, 1]))

    def test_log_softmax_rows_normalized(self, rng):
        out = F.log_softmax(Tensor(rng.normal(size=(4, 5))))
        assert np.allclose(np.exp(out.data).sum(axis=1), 1.0)
