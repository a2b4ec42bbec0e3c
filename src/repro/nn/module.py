"""Module/Parameter containers (a deliberately small torch.nn.Module clone).

Modules register parameters and submodules by attribute assignment; only the
pieces the GNN stack needs (parameter iteration, train/eval mode, state
(de)serialization for the distributed executor's weight broadcast) exist.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.nn.autograd import Tensor

#: The model's one dtype, with no knob: parameters, and so every activation,
#: gradient, Adam moment, all-reduce and checkpoint downstream of them.  The
#: paper trains float32 (§5), and the store's feature rows already are.
DTYPE = np.float32


class Parameter(Tensor):
    """A trainable tensor (always requires grad), stored in :data:`DTYPE`."""

    def __init__(self, data):
        super().__init__(np.asarray(data, dtype=DTYPE), requires_grad=True)


class Module:
    """Base class with parameter/submodule registration via attributes."""

    def __init__(self):
        object.__setattr__(self, "_parameters", {})
        object.__setattr__(self, "_modules", {})
        object.__setattr__(self, "training", True)

    def __setattr__(self, name, value):
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        elif isinstance(value, (list, tuple)) and value and all(
            isinstance(v, Module) for v in value
        ):
            for i, v in enumerate(value):
                self._modules[f"{name}.{i}"] = v
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, p in self._parameters.items():
            yield (f"{prefix}{name}", p)
        for mname, m in self._modules.items():
            yield from m.named_parameters(prefix=f"{prefix}{mname}.")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def num_parameters(self) -> int:
        return int(sum(p.data.size for p in self.parameters()))

    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "training", mode)
        for m in self._modules.values():
            m.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of every parameter array, keyed by dotted path."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        extra = set(state) - set(own)
        if missing or extra:
            raise KeyError(f"state dict mismatch: missing={sorted(missing)}, "
                           f"unexpected={sorted(extra)}")
        for name, p in own.items():
            arr = np.asarray(state[name], dtype=p.data.dtype)
            if arr.shape != p.data.shape:
                raise ValueError(f"{name}: shape {arr.shape} != {p.data.shape}")
            p.data = arr.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError
