"""Counters, gauges, and streaming log-bucket histograms.

Instruments are registered (get-or-create, keyed by dotted name) on a
:class:`MetricsRegistry`.  Naming convention: ``<layer>.<thing>`` with
dotted segments — ``store.remote_rows``, ``mp.wire_sent_bytes``,
``serving.latency_s``.

:class:`Histogram` keeps geometric ("log") buckets: bucket ``i`` covers
``(lo * g**(i-1), lo * g**i]`` for growth factor ``g``, with one underflow
bucket for values ``<= lo``.  Memory is O(occupied buckets) regardless of
sample count, and any quantile is off by at most one bucket width (a
bounded *relative* error of ``g - 1``) — that bound is what the serving
percentile regression test pins.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Optional

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "help", "value")
    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def reset(self) -> None:
        self.value = 0

    def to_dict(self) -> dict:
        return {"kind": "counter", "name": self.name, "value": self.value}


class Gauge:
    """A point-in-time value (set/inc/dec)."""

    __slots__ = ("name", "help", "value")
    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = name
        self.help = help
        self.value = 0.0

    def set(self, v: float) -> None:
        self.value = v

    def inc(self, n: float = 1) -> None:
        self.value += n

    def dec(self, n: float = 1) -> None:
        self.value -= n

    def reset(self) -> None:
        self.value = 0.0

    def to_dict(self) -> dict:
        return {"kind": "gauge", "name": self.name, "value": self.value}


class Histogram:
    """Streaming log-bucket histogram.

    ``lo`` is the underflow edge (everything ``<= lo`` lands in bucket 0)
    and ``growth`` the geometric bucket ratio.  The defaults — 1 µs floor,
    ``2 ** 0.125`` (≈ 9.05 % per bucket) — suit second-scale latencies:
    ~300 buckets span 1 µs..1000 s and quantiles carry < 10 % relative
    error.  Exact ``min``/``max``/``sum``/``count`` are tracked alongside,
    so means are exact and quantile estimates are clamped into the true
    value range.
    """

    __slots__ = ("name", "help", "lo", "growth", "_log_g", "buckets",
                 "count", "sum", "min", "max")
    kind = "histogram"

    def __init__(self, name: str = "", help: str = "",
                 lo: float = 1e-6, growth: float = 2.0 ** 0.125) -> None:
        if lo <= 0:
            raise ValueError("histogram lo edge must be positive")
        if growth <= 1.0:
            raise ValueError("histogram growth factor must exceed 1")
        self.name = name
        self.help = help
        self.lo = float(lo)
        self.growth = float(growth)
        self._log_g = math.log(self.growth)
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    # -- recording ------------------------------------------------------
    def bucket_index(self, v: float) -> int:
        """Index of the bucket covering ``v`` (0 = underflow)."""
        if v <= self.lo:
            return 0
        # ceil(log_g(v / lo)), nudged so exact upper edges stay put.
        idx = math.ceil(math.log(v / self.lo) / self._log_g - 1e-12)
        return max(idx, 1)

    def upper_edge(self, idx: int) -> float:
        """Inclusive upper bound of bucket ``idx``."""
        return self.lo * self.growth ** idx

    def observe(self, v: float) -> None:
        v = float(v)
        idx = self.bucket_index(v)
        self.buckets[idx] = self.buckets.get(idx, 0) + 1
        self.count += 1
        self.sum += v
        if v < self.min:
            self.min = v
        if v > self.max:
            self.max = v

    # -- queries --------------------------------------------------------
    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``).

        Returns the upper edge of the bucket holding the target rank,
        clamped into the exact observed ``[min, max]`` — so the estimate
        is within one bucket width (relative error < ``growth - 1``) of
        the true order statistic.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * (self.count - 1) + 1  # 1-based rank, linear convention
        seen = 0
        for idx in sorted(self.buckets):
            seen += self.buckets[idx]
            if seen >= target:
                edge = self.upper_edge(idx)
                return min(max(edge, self.min), self.max)
        return self.max

    def percentile(self, p: float) -> float:
        """``quantile(p / 100)`` — numpy-style percentile argument."""
        return self.quantile(p / 100.0)

    # -- maintenance ----------------------------------------------------
    def reset(self) -> None:
        self.buckets = {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram (same ``lo``/``growth``) into this one."""
        if (other.lo, other.growth) != (self.lo, self.growth):
            raise ValueError("cannot merge histograms with different buckets")
        for idx, n in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + n
        self.count += other.count
        self.sum += other.sum
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> dict:
        return {
            "kind": "histogram", "name": self.name, "lo": self.lo,
            "growth": self.growth, "count": self.count, "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }


class MetricsRegistry:
    """Get-or-create instrument registry, keyed by dotted metric name.

    Lookups are a single dict hit, so instrumented sites may fetch
    instruments inline (guarded by ``OBS.enabled``) without caching them.
    Registering the same name with a different instrument kind raises —
    names are a global contract.
    """

    def __init__(self) -> None:
        self._instruments: Dict[str, Any] = {}

    def _get(self, cls, name: str, help: str, **kwargs):
        inst = self._instruments.get(name)
        if inst is None:
            inst = cls(name, help, **kwargs)
            self._instruments[name] = inst
            return inst
        if not isinstance(inst, cls):
            raise TypeError(
                f"metric {name!r} already registered as {inst.kind}, "
                f"requested {cls.kind}"
            )
        return inst

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  lo: float = 1e-6,
                  growth: float = 2.0 ** 0.125) -> Histogram:
        return self._get(Histogram, name, help, lo=lo, growth=growth)

    def get(self, name: str) -> Optional[Any]:
        return self._instruments.get(name)

    def snapshot(self) -> Dict[str, dict]:
        """``name -> to_dict()`` for every instrument — what the trace
        document carries and the report CLI reads."""
        return {name: inst.to_dict()
                for name, inst in self._instruments.items()}

    def merge_snapshot(self, snap: Dict[str, dict]) -> None:
        """Fold a remote registry's :meth:`snapshot` into this one.

        Counters and histogram contents accumulate; gauges adopt the
        remote value (last writer wins).  This is how worker-process
        metrics land in the coordinator's registry at epoch end.
        """
        for name, d in snap.items():
            kind = d.get("kind")
            if kind == "counter":
                self.counter(name).inc(int(d["value"]))
            elif kind == "gauge":
                self.gauge(name).set(float(d["value"]))
            elif kind == "histogram":
                lo, growth = float(d["lo"]), float(d["growth"])
                other = Histogram(name, lo=lo, growth=growth)
                other.buckets = {int(k): int(v)
                                 for k, v in d["buckets"].items()}
                other.count = int(d["count"])
                other.sum = float(d["sum"])
                if d.get("min") is not None:
                    other.min = float(d["min"])
                    other.max = float(d["max"])
                self.histogram(name, lo=lo, growth=growth).merge(other)
            else:
                raise ValueError(
                    f"snapshot entry {name!r} has unknown kind {kind!r}")

    def reset(self) -> None:
        """Zero every instrument (registrations survive)."""
        for inst in self._instruments.values():
            inst.reset()

    def clear(self) -> None:
        """Drop every instrument registration (a fresh registry)."""
        self._instruments = {}
