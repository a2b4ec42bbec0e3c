"""One GraphSAGE training step as the op-by-op tape ran it, before each
layer (and the loss) became one tape node.

Until then a 3-layer step recorded 22 nodes — per layer ``slice_rows``,
``segment_sum``, ``* 1/count``, ``x_dst @ W_self``, ``+ b``,
``agg @ W_neigh``, ``+`` and ``relu`` (the first layer's rows are untracked,
so its first three were constants), then ``log_softmax`` and
``cross_entropy``.  This is that tape written out in plain numpy: every
forward op in the order it ran, then every backward closure in the order
``Tensor.backward`` replayed them, each with the expression it evaluated.
An aggregation is a product with the block's 0/1 matrix (built here with
scipy, as ``graph/csr.edge_operator`` did), summed left to right in edge
order; parameters and rows are float32 (``nn.module.DTYPE``).

It returned the loss and every gradient of ``repro.distributed.train_batch``
bit for bit when it was frozen.  ``test_reference_chain.py`` holds the fused
step to it.  Never edit: a parity oracle is the written reason this second
implementation exists.
"""

import numpy as np
import scipy.sparse as sp


def reference_chain_step(state, feats, mfg, labels):
    """Forward/backward one minibatch of a GraphSAGE whose weights are
    ``state`` (``model.state_dict()``); returns ``(loss, {name: grad})``."""
    x = np.asarray(feats, dtype=np.float32)
    num_layers = len(mfg.blocks)
    tape = []
    # -------------------------------------------------------------- forward
    for layer, block in enumerate(reversed(mfg.blocks)):
        conv = f"convs.{layer}."
        w_self = state[conv + "lin_self.weight"]
        bias = state[conv + "lin_self.bias"]
        w_neigh = state[conv + "lin_neigh.weight"]
        ptr, index = block.dst_ptr, block.src_index
        x_dst = x[0:block.num_dst]                          # slice_rows
        a = sp.csr_array((np.ones(len(index), dtype=x.dtype), index, ptr),
                         shape=(len(ptr) - 1, len(x)))
        total = a @ x                                       # segment_sum
        counts = np.maximum(np.diff(ptr), 1).astype(x.dtype)
        inv = (1.0 / counts)[:, None]
        agg = total * inv                                   # segment_mean
        own = x_dst @ w_self                                # lin_self
        own = own + bias
        neigh = agg @ w_neigh                               # lin_neigh
        h = own + neigh
        relu = layer < num_layers - 1
        if relu:
            h = np.maximum(h, 0.0)
        tape.append((conv, x, x_dst, a, inv, agg, w_self, w_neigh, h, relu,
                     layer > 0))
        x = h
    shift = x - x.max(axis=1, keepdims=True)                # log_softmax
    e = np.exp(shift)
    logsumexp = np.log(e.sum(axis=1, keepdims=True))
    lsm = shift - logsumexp
    softmax = e / e.sum(axis=1, keepdims=True)
    n = x.shape[0]
    loss = np.asarray(-lsm[np.arange(n), labels].mean())    # cross_entropy
    # ------------------------------------------------------------- backward
    g_loss = np.ones_like(loss)
    g_lsm = np.zeros_like(lsm)
    g_lsm[np.arange(n), labels] = -g_loss / n
    g = g_lsm - softmax * g_lsm.sum(axis=1, keepdims=True)
    grads = {}
    for (conv, x, x_dst, a, inv, agg, w_self, w_neigh, h, relu,
         tracked) in reversed(tape):
        if relu:
            g = g * (h > 0)
        # h = own + neigh hands g to both branches; own = (x_dst @ W_self)
        # + b.  The first layer's rows are untracked: nothing flows into them.
        grads[conv + "lin_self.bias"] = g.sum(axis=0)
        grads[conv + "lin_self.weight"] = x_dst.T @ g
        grads[conv + "lin_neigh.weight"] = agg.T @ g
        if tracked:
            g_x = np.zeros_like(x)                          # slice_rows
            g_x[0:len(x_dst)] = g @ w_self.T
            g_total = (g @ w_neigh.T) * inv                 # segment_mean
            # x.grad: the slice's gradient first, then segment_sum's.
            g = g_x + a.T @ g_total
    return loss.item(), {name: grads[name] for name in state}
