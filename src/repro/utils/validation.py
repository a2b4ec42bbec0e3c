"""Input validation helpers shared across subpackages.

Raising early with precise messages keeps the numeric kernels free of
defensive branching; validation lives at public API boundaries only.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def check_array(x, name: str, *, dtype=None, ndim: Optional[int] = None,
                shape: Optional[Tuple[Optional[int], ...]] = None) -> np.ndarray:
    """Coerce ``x`` to an ``ndarray`` and validate dtype kind / rank / shape.

    ``shape`` entries of ``None`` match any extent.
    """
    arr = np.asarray(x) if dtype is None else np.asarray(x, dtype=dtype)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got ndim={arr.ndim}")
    if shape is not None:
        if arr.ndim != len(shape):
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        for want, got in zip(shape, arr.shape):
            if want is not None and want != got:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


def check_positive(value, name: str, *, strict: bool = True) -> None:
    """Validate a scalar is > 0 (or >= 0 with ``strict=False``)."""
    if strict and not value > 0:
        raise ValueError(f"{name} must be positive, got {value}")
    if not strict and not value >= 0:
        raise ValueError(f"{name} must be non-negative, got {value}")


def check_in_range(value, name: str, lo, hi, *, inclusive: bool = True) -> None:
    """Validate ``lo <= value <= hi`` (or strict with ``inclusive=False``)."""
    ok = (lo <= value <= hi) if inclusive else (lo < value < hi)
    if not ok:
        bounds = f"[{lo}, {hi}]" if inclusive else f"({lo}, {hi})"
        raise ValueError(f"{name} must be in {bounds}, got {value}")


def check_probability_vector(p, name: str, *, allow_improper: bool = True) -> np.ndarray:
    """Validate entries of ``p`` are finite probabilities in [0, 1].

    With ``allow_improper=True`` (the default) the vector need not sum to 1 —
    VIP vectors are per-vertex inclusion probabilities, not a distribution.
    ``p`` must be 1-D: one vector, not a matrix of them.
    """
    arr = check_array(p, name, dtype=np.float64, ndim=1)
    if arr.size:
        lo, hi = np.min(arr), np.max(arr)  # one NaN makes both NaN
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValueError(
                f"{name} entries must be finite; got range [{lo}, {hi}]")
        if lo < -1e-12 or hi > 1 + 1e-12:
            raise ValueError(
                f"{name} entries must lie in [0, 1]; got range [{lo}, {hi}]")
    if not allow_improper and arr.size and abs(float(arr.sum()) - 1.0) > 1e-8:
        raise ValueError(f"{name} must sum to 1, got {arr.sum()}")
    return np.clip(arr, 0.0, 1.0)
