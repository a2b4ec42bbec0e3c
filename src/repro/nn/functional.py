"""Functional ops on :class:`~repro.nn.autograd.Tensor`: segment reductions
and the loss.

Segment ops operate on CSR-style contiguous segments (an MFG block's
``dst_ptr``).  Every segment sum — plain, through a source index (a block's
aggregation), forward and backward — is a product with the block's 0/1
operator (:func:`~repro.graph.csr.edge_operator`): ``A @ x`` and
``A.T @ grad``.  The summation order is therefore left to right in edge
order, in the dtype of the rows being summed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import edge_operator
from repro.nn.autograd import Tensor


def segment_sum(x: Tensor, ptr: np.ndarray,
                index: Optional[np.ndarray] = None) -> Tensor:
    """Sum rows of ``x`` within each contiguous segment ``[ptr[i], ptr[i+1])``
    — of ``x`` itself, or of ``x[index]`` when ``index`` is given (the
    gather is never materialised).

    Each segment is summed left to right, starting from zero, in
    ``x.dtype``.  Empty segments produce zero rows (a vertex whose sampled
    neighborhood is empty aggregates to zeros, matching PyG semantics).
    ``index`` entries outside ``[0, len(x))`` raise ``ValueError``.
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    if index is None:
        index = np.arange(len(x.data))
    index = np.asarray(index, dtype=np.int64)
    if ptr[-1] != len(index):
        raise ValueError(f"ptr[-1] ({ptr[-1]}) must equal the number of "
                         f"summed rows ({len(index)})")
    block = edge_operator(ptr, index, len(x.data), x.data.dtype)

    def backward():
        x._accumulate(block.T @ out.grad)

    out = Tensor._make(block @ x.data, (x,), backward)
    return out


def segment_mean(x: Tensor, ptr: np.ndarray,
                 index: Optional[np.ndarray] = None) -> Tensor:
    """Mean over contiguous segments of ``x`` (of ``x[index]`` when given);
    empty segments produce zeros."""
    ptr = np.asarray(ptr, dtype=np.int64)
    counts = np.maximum(np.diff(ptr), 1).astype(x.data.dtype)
    total = segment_sum(x, ptr, index)
    return total * Tensor((1.0 / counts)[:, None])


def log_softmax(x: Tensor) -> Tensor:
    """Row-wise log-softmax (stable)."""
    shift = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(shift)
    logsumexp = np.log(e.sum(axis=1, keepdims=True))
    out_data = shift - logsumexp
    softmax = e / e.sum(axis=1, keepdims=True)

    def backward():
        g = out.grad
        x._accumulate(g - softmax * g.sum(axis=1, keepdims=True))

    out = Tensor._make(out_data, (x,), backward)
    return out


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of row-wise logits against integer labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or len(labels) != logits.shape[0]:
        raise ValueError("logits must be (N, C) with one label per row")
    n = logits.shape[0]
    lsm = log_softmax(logits)
    picked_data = lsm.data[np.arange(n), labels]
    out_data = np.asarray(-picked_data.mean())

    def backward():
        g = np.zeros_like(lsm.data)
        g[np.arange(n), labels] = -out.grad / n
        lsm._accumulate(g)

    out = Tensor._make(out_data, (lsm,), backward)
    return out

