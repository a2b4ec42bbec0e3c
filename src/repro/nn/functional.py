"""Functional ops on :class:`~repro.nn.autograd.Tensor`: the GraphSAGE
convolution and the loss, each one tape node.

:func:`sage_conv` is a whole ``SAGEConv`` layer — mean aggregation, both
projections, the bias and (between layers) the ReLU — and
:func:`cross_entropy` folds the log-softmax into the loss, so an L-layer
training step records L + 1 nodes.  Each replays the float ops the
op-by-op chain ran, in its order (``tests/nn/reference_chain.py``), so the
fusion moves no bit of a loss or a gradient.

A block's aggregation is one product with its 0/1 operator
(:func:`~repro.graph.csr.edge_operator`): ``A @ x`` forward, ``A.T @ g``
backward.  The summation order is therefore left to right in edge order,
in the dtype of the rows being summed, and an empty segment sums to zero.
"""

from __future__ import annotations

import numpy as np

from repro.graph.csr import edge_operator
from repro.nn.autograd import Tensor
from repro.sampling.mfg import MFGBlock


def sage_conv(x: Tensor, block: MFGBlock, w_self: Tensor, bias: Tensor,
              w_neigh: Tensor, *, relu: bool) -> Tensor:
    """``x[:nd] @ W_self + b + mean_block(x) @ W_neigh``, then ReLU when
    ``relu``, as one tape node.

    ``x`` has one row per block source, the destinations first; the mean
    over a destination's sampled sources is their sum left to right in edge
    order times ``1 / max(count, 1)`` in ``x``'s dtype (an empty segment
    gives a zero row).  The bias is added before the neighbour term, and
    ``max(·, 0)`` turns -0.0 into +0.0.  ``block.src_index`` entries
    outside ``[0, len(x))`` raise ``ValueError``.
    """
    ptr, index = block.dst_ptr, block.src_index
    if ptr[-1] != len(index):
        raise ValueError(f"ptr[-1] ({ptr[-1]}) must equal the number of "
                         f"summed rows ({len(index)})")
    xd, nd = x.data, len(ptr) - 1
    a = edge_operator(ptr, index, len(xd), xd.dtype)
    inv = (1.0 / np.maximum(np.diff(ptr), 1).astype(xd.dtype))[:, None]
    agg = (a @ xd) * inv
    out = xd[:nd] @ w_self.data
    out += bias.data
    out += agg @ w_neigh.data
    if relu:
        np.maximum(out, 0.0, out=out)

    def backward():
        # In place only into arrays allocated here: ``g`` may be shared.
        g = node.grad
        if relu:
            g = g * (out > 0)
        if bias.requires_grad:
            bias._accumulate(g.sum(axis=0))
        if w_self.requires_grad:
            w_self._accumulate(xd[:nd].T @ g)
        if w_neigh.requires_grad:
            w_neigh._accumulate(agg.T @ g)
        if x.requires_grad:
            gx = a.T @ ((g @ w_neigh.data.T) * inv)
            gx[:nd] += g @ w_self.data.T
            x._accumulate(gx)

    node = Tensor._make(out, (x, w_self, bias, w_neigh), backward)
    return node


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of row-wise logits against integer labels, through
    a stable log-softmax.  A label outside ``[0, C)`` raises ``ValueError``
    (numpy would wrap a negative one silently)."""
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or len(labels) != logits.shape[0]:
        raise ValueError("logits must be (N, C) with one label per row")
    n, classes = logits.shape
    if n and (labels.min() < 0 or labels.max() >= classes):
        bad = labels.min() if labels.min() < 0 else labels.max()
        raise ValueError(f"label {bad} is outside [0, {classes})")
    shift = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shift)
    lsm = shift - np.log(e.sum(axis=1, keepdims=True))
    rows = np.arange(n)
    out_data = np.asarray(-lsm[rows, labels].mean())

    def backward():
        g = np.zeros_like(lsm)
        g[rows, labels] = -out.grad / n
        softmax = e / e.sum(axis=1, keepdims=True)
        logits._accumulate(g - softmax * g.sum(axis=1, keepdims=True))

    out = Tensor._make(out_data, (logits,), backward)
    return out
