"""The optimizer: Adam, as the paper and every trainer here use it.

Matches the usual PyTorch semantics: ``step()`` consumes ``p.grad`` as
accumulated by the autograd engine; ``model.zero_grad()`` between steps is
the caller's responsibility (the trainers do it).  Each moment estimate has
its parameter's dtype, restored state included.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.nn.module import Parameter


class Adam:
    """Adam (Kingma & Ba) with bias correction; the paper's training setup
    (fixed lr 0.001) maps onto the defaults here."""

    def __init__(self, params: Sequence[Parameter], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        if lr <= 0:
            raise ValueError(f"lr must be positive, got {lr}")
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = 0

    def state_dict(self) -> dict:
        """Copy of the moment estimates and step count, in parameter order
        (the order ``params`` was constructed in — both sides of a
        checkpoint must build the optimizer over the same model walk)."""
        return {
            "m": [m.copy() for m in self._m],
            "v": [v.copy() for v in self._v],
            "t": int(self._t),
        }

    def load_state_dict(self, state: dict) -> None:
        m, v = list(state["m"]), list(state["v"])
        if len(m) != len(self.params) or len(v) != len(self.params):
            raise ValueError(
                f"optimizer state has {len(m)}/{len(v)} moment arrays, "
                f"expected {len(self.params)}")
        moments = {"m": [], "v": []}
        for i, p in enumerate(self.params):
            for name, src in (("m", m[i]), ("v", v[i])):
                arr = np.array(src, dtype=p.data.dtype)
                if arr.shape != p.data.shape:
                    raise ValueError(f"{name}[{i}]: shape {arr.shape} != "
                                     f"{p.data.shape}")
                moments[name].append(arr)
        self._m, self._v = moments["m"], moments["v"]
        self._t = int(state["t"])

    def step(self) -> None:
        self._t += 1
        b1, b2 = self.beta1, self.beta2
        bc1 = 1.0 - b1 ** self._t
        bc2 = 1.0 - b2 ** self._t
        for p, m, v in zip(self.params, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * (g * g)
            p.data = p.data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
