"""The autograd engine and functional ops as they stood before every sum over
an MFG block's edges became one sparse product.

Frozen at ``dd3a64c``: ``src/repro/nn/autograd.py`` (``Tensor``) followed by
``src/repro/nn/functional.py``, bodies copied verbatim into one module (the
second file's ``from repro.nn.autograd import Tensor`` is the only line
dropped, so the functional ops bind to the ``Tensor`` above).  This is the
old arithmetic: ``gather_rows`` -> ``np.add.reduceat`` forward, ``np.repeat``
-> ``np.add.at`` backward, ``np.where`` relu, a copy on every first gradient
touch.  ``test_reference_parity.py`` (beside this file) holds ``repro.nn`` to
it — byte for byte wherever the arithmetic did not change, within a stated
bound where the aggregation order did — and ``benchmarks/perf/harness.py``
times a ``train_batch`` built on it as the ``nn.train_batch`` baseline.
Never edit: a parity oracle is the written reason this second
implementation exists.
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
        Array (coerced to ``float64`` by default for gradcheck-friendly
        precision; pass ``float32`` data explicitly for bulk feature math).
    requires_grad:
        Track operations on this tensor for backpropagation.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents")

    def __init__(self, data, requires_grad: bool = False):
        if isinstance(data, Tensor):
            raise TypeError("cannot nest Tensor in Tensor")
        self.data = np.asarray(data, dtype=np.float64) if not isinstance(data, np.ndarray) \
            else data
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

    def numpy(self) -> np.ndarray:
        return self.data

    def detach(self) -> "Tensor":
        return Tensor(self.data, requires_grad=False)

    # ------------------------------------------------------------------
    # Autograd machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            # Copy: incoming grads may alias another node's buffer.
            self.grad = np.array(grad, copy=True)
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
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other))
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

    def __neg__(self) -> "Tensor":
        def backward():
            self._accumulate(-out.grad)

        out = Tensor._make(-self.data, (self,), backward)
        return out

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other))
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return (-self) + other

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(np.asarray(other))
        out_data = self.data * other.data

        def backward():
            g = out.grad
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.data, self.data.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.data, other.data.shape))

        out = Tensor._make(out_data, (self, other), backward)
        return out

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        if isinstance(other, Tensor):
            return self * other.reciprocal()
        return self * (1.0 / np.asarray(other))

    def reciprocal(self) -> "Tensor":
        out_data = 1.0 / self.data

        def backward():
            self._accumulate(-out.grad * out_data * out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def __matmul__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            other = Tensor(np.asarray(other))
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
    # Reductions and shape ops
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out_data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward():
            g = out.grad
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            self._accumulate(np.broadcast_to(g, self.data.shape).copy())

        out = Tensor._make(out_data, (self,), backward)
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def reshape(self, *shape) -> "Tensor":
        out_data = self.data.reshape(*shape)

        def backward():
            self._accumulate(out.grad.reshape(self.data.shape))

        out = Tensor._make(out_data, (self,), backward)
        return out

    @property
    def T(self) -> "Tensor":
        def backward():
            self._accumulate(out.grad.T)

        out = Tensor._make(self.data.T, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Nonlinearities
    # ------------------------------------------------------------------
    def relu(self) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, 0.0)

        def backward():
            self._accumulate(out.grad * mask)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def leaky_relu(self, negative_slope: float = 0.2) -> "Tensor":
        mask = self.data > 0
        out_data = np.where(mask, self.data, negative_slope * self.data)

        def backward():
            self._accumulate(out.grad * np.where(mask, 1.0, negative_slope))

        out = Tensor._make(out_data, (self,), backward)
        return out

    def exp(self) -> "Tensor":
        out_data = np.exp(self.data)

        def backward():
            self._accumulate(out.grad * out_data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def log(self) -> "Tensor":
        out_data = np.log(self.data)

        def backward():
            self._accumulate(out.grad / self.data)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def tanh(self) -> "Tensor":
        out_data = np.tanh(self.data)

        def backward():
            self._accumulate(out.grad * (1.0 - out_data * out_data))

        out = Tensor._make(out_data, (self,), backward)
        return out

    # ------------------------------------------------------------------
    # Indexing
    # ------------------------------------------------------------------
    def gather_rows(self, index: np.ndarray) -> "Tensor":
        """Row gather ``out[i] = self[index[i]]`` (scatter-add backward)."""
        index = np.asarray(index, dtype=np.int64)
        out_data = self.data[index]

        def backward():
            g = np.zeros_like(self.data)
            np.add.at(g, index, out.grad)
            self._accumulate(g)

        out = Tensor._make(out_data, (self,), backward)
        return out

    def slice_rows(self, start: int, stop: int) -> "Tensor":
        """Contiguous row slice (cheaper backward than gather)."""
        out_data = self.data[start:stop]

        def backward():
            g = np.zeros_like(self.data)
            g[start:stop] = out.grad
            self._accumulate(g)

        out = Tensor._make(out_data, (self,), backward)
        return out


def _segment_sum_data(data: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    n_seg = len(ptr) - 1
    out = np.zeros((n_seg,) + data.shape[1:], dtype=data.dtype)
    lengths = np.diff(ptr)
    rows = np.flatnonzero(lengths > 0)
    if len(rows):
        out[rows] = np.add.reduceat(data, ptr[rows], axis=0)
    return out


def segment_sum(x: Tensor, ptr: np.ndarray) -> Tensor:
    """Sum rows of ``x`` within each contiguous segment ``[ptr[i], ptr[i+1])``.

    Empty segments produce zero rows (a vertex whose sampled neighborhood is
    empty aggregates to zeros, matching PyG semantics).
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    if ptr[-1] != len(x.data):
        raise ValueError(f"ptr[-1] ({ptr[-1]}) must equal len(x) ({len(x.data)})")
    out_data = _segment_sum_data(x.data, ptr)

    def backward():
        x._accumulate(np.repeat(out.grad, np.diff(ptr), axis=0))

    out = Tensor._make(out_data, (x,), backward)
    return out


def segment_mean(x: Tensor, ptr: np.ndarray) -> Tensor:
    """Mean over contiguous segments (empty segments produce zeros)."""
    ptr = np.asarray(ptr, dtype=np.int64)
    counts = np.maximum(np.diff(ptr), 1).astype(x.data.dtype)
    total = segment_sum(x, ptr)
    return total * Tensor((1.0 / counts)[:, None])


def segment_softmax(x: Tensor, ptr: np.ndarray) -> Tensor:
    """Softmax within each contiguous segment (per-destination attention).

    ``x`` has one row per edge; the result sums to 1 within each destination's
    edge segment.  Numerically stabilized with a per-segment max shift.
    """
    ptr = np.asarray(ptr, dtype=np.int64)
    if ptr[-1] != len(x.data):
        raise ValueError("ptr[-1] must equal len(x)")
    lengths = np.diff(ptr)
    rows = np.flatnonzero(lengths > 0)
    seg_max = np.zeros((len(ptr) - 1,) + x.data.shape[1:], dtype=x.data.dtype)
    if len(rows):
        seg_max[rows] = np.maximum.reduceat(x.data, ptr[rows], axis=0)
    shifted = x.data - np.repeat(seg_max, lengths, axis=0)
    e = np.exp(shifted)
    denom = np.repeat(_segment_sum_data(e, ptr), lengths, axis=0)
    out_data = e / np.maximum(denom, 1e-30)

    def backward():
        g = out.grad
        # d softmax: s * (g - sum_j g_j s_j) within each segment.
        dot = _segment_sum_data(g * out_data, ptr)
        x._accumulate(out_data * (g - np.repeat(dot, lengths, axis=0)))

    out = Tensor._make(out_data, (x,), backward)
    return out


def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate along ``axis`` (backward splits the gradient)."""
    datas = [t.data for t in tensors]
    out_data = np.concatenate(datas, axis=axis)
    offsets = np.cumsum([0] + [d.shape[axis] for d in datas])

    def backward():
        g = out.grad
        slicer = [slice(None)] * g.ndim
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            if t.requires_grad:
                slicer[axis] = slice(int(lo), int(hi))
                t._accumulate(g[tuple(slicer)])

    out = Tensor._make(out_data, tuple(tensors), backward)
    return out


def dropout(x: Tensor, p: float, rng: np.random.Generator,
            training: bool = True) -> Tensor:
    """Inverted dropout: zero entries with probability ``p``, scale by
    ``1/(1-p)`` during training; identity in eval mode."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * Tensor(mask.astype(x.data.dtype))


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


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Top-1 accuracy of logits (or a Tensor's data) against labels."""
    data = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    pred = data.argmax(axis=1)
    labels = np.asarray(labels)
    if len(labels) == 0:
        return float("nan")
    return float((pred == labels).mean())
