"""GNN models over MFGs: GraphSAGE (the paper's evaluation architecture)
and the graph-free MLP baseline.

A model's :meth:`forward` takes the feature matrix for an MFG's source set
(rows aligned with ``mfg.n_id``) and the MFG blocks, consuming blocks
outermost-first so the final output has one row per seed.
"""

from __future__ import annotations

import numpy as np

from repro.nn.autograd import Tensor
from repro.nn.layers import Linear, SAGEConv
from repro.nn.module import DTYPE, Module
from repro.sampling.mfg import MFG
from repro.utils.rng import SeedLike, spawn_generators


class GraphSAGE(Module):
    """The 3-layer / 2-layer SAGE architecture of Table 3: a stack of
    per-hop :class:`SAGEConv` layers with ReLU between layers (none after
    the last)."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 num_layers: int, *, seed: SeedLike = None):
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        # One stream more than the layers use: a shared generator passed as
        # ``seed`` advances by the count every persisted model was drawn with.
        rngs = spawn_generators(seed, num_layers + 1)
        dims = [in_dim] + [hidden_dim] * (num_layers - 1) + [out_dim]
        self.convs = [SAGEConv(dims[i], dims[i + 1], seed=rngs[i])
                      for i in range(num_layers)]
        self.num_layers = num_layers

    def forward(self, x, mfg: MFG) -> Tensor:
        """Compute seed logits from source features.

        Parameters
        ----------
        x:
            Feature matrix with one row per ``mfg.n_id`` entry: an array,
            cast to :data:`~repro.nn.module.DTYPE` (a no-op for the store's
            rows), or a Tensor, taken as is.
        """
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=DTYPE))
        if len(x) != mfg.num_vertices:
            raise ValueError(
                f"x has {len(x)} rows but the MFG involves {mfg.num_vertices} vertices"
            )
        if len(mfg.blocks) != self.num_layers:
            raise ValueError(
                f"model has {self.num_layers} layers but MFG has {len(mfg.blocks)} blocks"
            )
        h = x
        # blocks[-1] is the outermost hop: it feeds the first conv layer.
        for layer, block in enumerate(reversed(mfg.blocks)):
            h = self.convs[layer](h, block,
                                  relu=layer < self.num_layers - 1)
        return h


class MLP(Module):
    """Graph-free baseline: per-vertex MLP on raw features (used by tests to
    confirm the GNN's structural signal is real)."""

    def __init__(self, in_dim: int, hidden_dim: int, out_dim: int,
                 *, seed: SeedLike = None):
        super().__init__()
        rngs = spawn_generators(seed, 3)  # as for GraphSAGE: one spare stream
        self.fc1 = Linear(in_dim, hidden_dim, seed=rngs[0])
        self.fc2 = Linear(hidden_dim, out_dim, seed=rngs[1])

    def forward(self, x, mfg: MFG = None) -> Tensor:
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=DTYPE))
        if mfg is not None:
            x = x.slice_rows(0, mfg.batch_size)
        return self.fc2(self.fc1(x).relu())
