"""Neural layers: Linear, Dropout, and the three GNN convolutions the paper
names (GraphSAGE, GAT, GIN — §2.1), all consuming MFG blocks.

Each convolution maps source representations ``x`` (rows aligned with the
block's source set) to destination representations (rows aligned with the
destination prefix), following equation (1): ``h_v = UPD(h_v, AGG({h_u}))``.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn import functional as F
from repro.nn.module import Module, Parameter
from repro.sampling.mfg import MFGBlock
from repro.utils.rng import SeedLike, as_generator


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out))


class Linear(Module):
    """Affine map ``y = x W + b``."""

    def __init__(self, in_dim: int, out_dim: int, *, bias: bool = True,
                 seed: SeedLike = None):
        super().__init__()
        rng = as_generator(seed)
        self.in_dim, self.out_dim = in_dim, out_dim
        self.weight = Parameter(glorot(rng, in_dim, out_dim))
        self.bias = Parameter(np.zeros(out_dim)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class Dropout(Module):
    """Inverted dropout with a module-owned RNG stream."""

    def __init__(self, p: float = 0.5, seed: SeedLike = None):
        super().__init__()
        self.p = p
        self._rng = as_generator(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, training=self.training)


class SAGEConv(Module):
    """GraphSAGE convolution with mean aggregation (Hamilton et al.).

    ``h_v = W_self h_v + W_neigh * mean({h_u : u sampled for v}) + b`` —
    the PyG ``SAGEConv`` formulation the paper's models use.
    """

    def __init__(self, in_dim: int, out_dim: int, seed: SeedLike = None):
        super().__init__()
        rng = as_generator(seed)
        self.lin_self = Linear(in_dim, out_dim, bias=True, seed=rng)
        self.lin_neigh = Linear(in_dim, out_dim, bias=False, seed=rng)

    def forward(self, x: Tensor, block: MFGBlock) -> Tensor:
        x_dst = x.slice_rows(0, block.num_dst)
        agg = F.segment_mean(x, block.dst_ptr, index=block.src_index)
        return self.lin_self(x_dst) + self.lin_neigh(agg)


class GATConv(Module):
    """Graph attention convolution (Velickovic et al.), single head.

    Attention logits ``e_uv = LeakyReLU(a_src . Wh_u + a_dst . Wh_v)`` are
    softmax-normalized over each destination's sampled neighborhood
    (self-edge included, as in the reference implementation).
    """

    def __init__(self, in_dim: int, out_dim: int, *, negative_slope: float = 0.2,
                 seed: SeedLike = None):
        super().__init__()
        rng = as_generator(seed)
        self.lin = Linear(in_dim, out_dim, bias=False, seed=rng)
        self.att_src = Parameter(glorot(rng, out_dim, 1))
        self.att_dst = Parameter(glorot(rng, out_dim, 1))
        self.bias = Parameter(np.zeros(out_dim))
        self.negative_slope = negative_slope

    def forward(self, x: Tensor, block: MFGBlock) -> Tensor:
        h = self.lin(x)  # (num_src, out)
        # Append a self-edge per destination: neighborhood = {v} ∪ sampled.
        counts = np.diff(block.dst_ptr)
        num_dst = block.num_dst
        self_idx = np.arange(num_dst, dtype=np.int64)
        # Interleave: per dst, its sampled edges then the self edge.
        src_index = np.empty(len(block.src_index) + num_dst, dtype=np.int64)
        # Segment i grows by one self edge, shifting its start by i.
        new_ptr = block.dst_ptr + np.arange(num_dst + 1, dtype=np.int64)
        # Vectorized interleave: the last slot of each segment is the self
        # edge, the rest keep the sampled sources in order.
        is_self = np.zeros(len(src_index), dtype=bool)
        is_self[new_ptr[1:] - 1] = True
        src_index[is_self] = self_idx
        src_index[~is_self] = block.src_index
        dst_of_edge = np.repeat(self_idx, counts + 1)

        e_src = h.gather_rows(src_index) @ self.att_src  # (E, 1)
        h_dst = h.slice_rows(0, num_dst)
        e_dst_rows = (h_dst @ self.att_dst).gather_rows(dst_of_edge)
        logits = (e_src + e_dst_rows).leaky_relu(self.negative_slope)
        alpha = F.segment_softmax(logits, new_ptr)  # (E, 1)
        msgs = h.gather_rows(src_index) * alpha
        out = F.segment_sum(msgs, new_ptr)
        return out + self.bias


class GINConv(Module):
    """Graph isomorphism convolution (Xu et al.):
    ``h_v = MLP((1 + eps) h_v + sum({h_u}))``."""

    def __init__(self, in_dim: int, out_dim: int, *, hidden_dim: Optional[int] = None,
                 eps: float = 0.0, train_eps: bool = True, seed: SeedLike = None):
        super().__init__()
        rng = as_generator(seed)
        hidden_dim = hidden_dim or out_dim
        self.mlp1 = Linear(in_dim, hidden_dim, seed=rng)
        self.mlp2 = Linear(hidden_dim, out_dim, seed=rng)
        if train_eps:
            self.eps = Parameter(np.array([eps]))
        else:
            self.eps = None
            self._fixed_eps = eps

    def forward(self, x: Tensor, block: MFGBlock) -> Tensor:
        x_dst = x.slice_rows(0, block.num_dst)
        agg = F.segment_sum(x, block.dst_ptr, index=block.src_index)
        if self.eps is not None:
            scaled = x_dst * (self.eps + 1.0)
        else:
            scaled = x_dst * (1.0 + self._fixed_eps)
        return self.mlp2(self.mlp1(scaled + agg).relu())
