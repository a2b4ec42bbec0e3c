"""Neural layers: Linear and the GraphSAGE convolution the paper
evaluates (§5), consuming MFG blocks.

The convolution maps source representations ``x`` (rows aligned with the
block's source set) to destination representations (rows aligned with the
destination prefix), following equation (1): ``h_v = UPD(h_v, AGG({h_u}))``.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn import functional as F
from repro.nn.module import DTYPE, Module, Parameter
from repro.sampling.mfg import MFGBlock
from repro.utils.rng import SeedLike, as_generator


def glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    """Glorot/Xavier uniform initialization, drawn as ever and rounded to
    :data:`~repro.nn.module.DTYPE`."""
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(DTYPE)


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


class SAGEConv(Module):
    """GraphSAGE convolution with mean aggregation (Hamilton et al.).

    ``h_v = W_self h_v + W_neigh * mean({h_u : u sampled for v}) + b`` —
    the PyG ``SAGEConv`` formulation the paper's models use — computed by
    :func:`~repro.nn.functional.sage_conv` as one tape node, the ReLU that
    follows a hidden layer folded in.  ``lin_self`` / ``lin_neigh`` hold the
    parameters (their names are the checkpoint keys).
    """

    def __init__(self, in_dim: int, out_dim: int, seed: SeedLike = None):
        super().__init__()
        rng = as_generator(seed)
        self.lin_self = Linear(in_dim, out_dim, bias=True, seed=rng)
        self.lin_neigh = Linear(in_dim, out_dim, bias=False, seed=rng)

    def forward(self, x: Tensor, block: MFGBlock, *,
                relu: bool = False) -> Tensor:
        return F.sage_conv(x, block, self.lin_self.weight, self.lin_self.bias,
                           self.lin_neigh.weight, relu=relu)
