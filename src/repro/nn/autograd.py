"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ``ndarray``; an op records one closure, and
:meth:`Tensor.backward` replays them in reverse topological order.  The
tape is coarse: a GraphSAGE layer — aggregation, both projections, bias
and ReLU — is one node (``functional.sage_conv``) and the loss another
(``functional.cross_entropy``), so an L-layer training step records L + 1.
The op set here is only what :class:`~repro.nn.layers.Linear` and the MLP
baseline reach: matmul, broadcast add, ReLU and a row slice.  All gradient
math is vectorized numpy; there is no per-element Python work anywhere.

Every sum over indexed rows — a block's aggregation and its backward — is
one sparse product with the 0/1 matrix :func:`repro.graph.csr.edge_operator`
builds (a graph's row sets in Proposition 1 are the same matrix), so no
edge-by-feature intermediate is ever materialised and the summation order
is left to right in edge order by definition (``docs/architecture.md``,
"The model step").

Gradients are never written in place: ``_accumulate`` rebinds ``.grad``, the
optimizer and the collective only read it, so a gradient array may be
shared between nodes, replicas and the caller of :meth:`Tensor.backward`.
An op writes in place only into arrays it allocated itself
(``tests/nn/test_grad_aliasing.py`` pins this).

Gradient correctness for every op is pinned by numerical-difference tests in
``tests/nn/test_autograd.py`` and ``tests/nn/test_functional.py``; the
arithmetic is held to the frozen op-by-op step ``tests/nn/reference_chain.py``
by ``tests/nn/test_reference_chain.py`` and to the frozen pre-product engine
``tests/nn/reference_autograd.py`` by ``tests/nn/test_reference_parity.py``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` back to ``shape`` after numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum out prepended axes.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over axes that were broadcast from extent 1.
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Tensor:
    """A numpy array with an optional gradient tape entry.

    Parameters
    ----------
    data:
        An ``ndarray`` or numpy scalar is kept in its dtype — the model's
        is float32 (:data:`repro.nn.module.DTYPE`); Python data is coerced
        to ``float64``, the default only raw gradcheck data uses.
    requires_grad:
        Track operations on this tensor for backpropagation.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("cannot nest Tensor in Tensor")
        # A numpy scalar (what a 0-d op returns) keeps its dtype, as an array does.
        kept = isinstance(data, (np.ndarray, np.generic))
        self.data = np.asarray(data, dtype=None if kept else np.float64)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward: Optional[Callable[[], None]] = None
        self._parents: Tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # No copy: nothing writes a gradient in place (module docstring).
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor (defaults to ∂self/∂self = 1)."""
        if not self.requires_grad:
            raise RuntimeError("called backward() on a tensor that does not require grad")
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=self.data.dtype)
            if grad.shape != self.data.shape:
                raise ValueError(f"grad shape {grad.shape} != tensor shape {self.data.shape}")

        topo: List[Tensor] = []
        visited = set()
        stack: List[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited and p.requires_grad:
                    stack.append((p, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Optional[Callable[[], None]]) -> "Tensor":
        out = Tensor(data)
        tracked = tuple(p for p in parents if p.requires_grad)
        if tracked:
            out.requires_grad = True
            out._parents = tracked
            out._backward = backward
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def _operand(self, other) -> "Tensor":
        """``other`` as a Tensor; a scalar or array takes this tensor's dtype
        (a bare ``np.asarray(0.5)`` is a strong float64 under NEP 50 and
        would upcast a float32 ``x + 0.5``)."""
        return other if isinstance(other, Tensor) else Tensor(
            np.asarray(other, dtype=self.data.dtype))

    def __add__(self, other) -> "Tensor":
        other = self._operand(other)
        out_data = self.data + other.data

        def backward():
            g = out.grad
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.data.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __radd__ = __add__

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = self._operand(other)
        if self.ndim != 2 or other.ndim != 2:
            raise ValueError("matmul supports 2-D tensors only")
        out_data = self.data @ other.data

        def backward():
            g = out.grad
            if self.requires_grad:
                self._accumulate(g @ other.data.T)
            if other.requires_grad:
                other._accumulate(self.data.T @ g)

        out = Tensor._make(out_data, (self, other), backward)
        return out

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        """``max(x, 0)``: -0.0 becomes +0.0 (the argument order matters) and
        NaN propagates."""
        out_data = np.maximum(self.data, 0.0)

        def backward():
            self._accumulate(out.grad * (out_data > 0))

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def slice_rows(self, start: int, stop: int) -> "Tensor":
        """Contiguous row slice ``self[start:stop]``."""
        out_data = self.data[start:stop]

        def backward():
            g = np.zeros_like(self.data)
            g[start:stop] = out.grad
            self._accumulate(g)

        out = Tensor._make(out_data, (self,), backward)
        return out
