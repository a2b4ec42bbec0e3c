"""Load generators for the online inference service.

Two classic load shapes drive serving evaluations:

* **Open loop** — requests arrive on their own schedule (Poisson process or
  an explicit arrival trace) regardless of how fast the service drains
  them.  This is the shape that exposes queueing: when the service falls
  behind, latency grows without bound.  :func:`poisson_requests` /
  :func:`trace_requests` produce fully materialized request lists.

* **Closed loop** — a fixed population of clients, each with at most one
  request outstanding: a client issues its next request only after the
  previous one completes (plus an optional think time).  Offered load
  adapts to service speed, so closed-loop runs measure achievable
  throughput rather than queueing collapse.  :class:`ClosedLoopWorkload`
  is driven by the service via :meth:`~ClosedLoopWorkload.on_complete`.

Request *contents* come from
:func:`repro.graph.generators.streaming_request_stream` — batches of
distinct seed vertices drawn from a drifting popularity hot set, the
traffic shape a production GNN inference tier actually sees.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from repro.graph.generators import streaming_request_stream
from repro.utils.rng import SeedLike, as_generator, derive_seed


@dataclass
class Request:
    """One inference request: predict labels for ``seeds``.

    ``seeds`` are vertex ids in the caller's **original dataset
    numbering** — the service translates them into its internal reordered
    numbering at admission and reports predictions back in this request's
    seed order.  ``arrival`` is simulated-clock seconds.  ``client``
    identifies the issuing closed-loop client (``None`` for open-loop
    traffic).  ``slo`` names the request's SLO class — it selects the
    degraded-mode action (retry / degrade / shed) from
    :data:`repro.serving.service.SLO_ACTIONS` when a partition the request
    needs is down; unlisted classes degrade.
    """

    rid: int
    seeds: np.ndarray
    arrival: float
    client: Optional[int] = None
    slo: str = "standard"

    def __post_init__(self):
        self.seeds = np.asarray(self.seeds, dtype=np.int64)
        if len(self.seeds) == 0:
            raise ValueError(f"request {self.rid} has no seeds")

    @property
    def num_seeds(self) -> int:
        return len(self.seeds)


def trace_requests(arrival_times: Sequence[float],
                   seed_batches: Iterable[np.ndarray]) -> List[Request]:
    """Materialize requests from an explicit arrival trace.

    ``arrival_times`` must be non-decreasing; ``seed_batches`` supplies one
    seed array per arrival (extra batches are ignored, too few raise).
    """
    times = [float(t) for t in arrival_times]
    if any(b > a for a, b in zip(times[1:], times)):
        raise ValueError("arrival_times must be non-decreasing")
    batches = iter(seed_batches)
    out = []
    for rid, t in enumerate(times):
        try:
            seeds = next(batches)
        except StopIteration:
            raise ValueError(
                f"seed_batches ran out after {rid} of {len(times)} arrivals"
            ) from None
        out.append(Request(rid=rid, seeds=seeds, arrival=t))
    return out


def poisson_requests(
    candidate_ids: np.ndarray,
    num_requests: int,
    request_size: int,
    *,
    rate_rps: float,
    hot_fraction: float = 0.05,
    hot_mass: float = 0.8,
    drift_interval: int = 50,
    start: float = 0.0,
    seed: SeedLike = None,
    slo: str = "standard",
) -> List[Request]:
    """Open-loop Poisson arrivals over a drifting-popularity seed stream.

    Inter-arrival gaps are i.i.d. ``Exp(rate_rps)``; request contents are
    consecutive batches of :func:`streaming_request_stream` (so the hot set
    drifts every ``drift_interval`` *requests*).  Deterministic given
    ``seed``.
    """
    if not 0 < rate_rps < math.inf:
        raise ValueError(f"rate_rps must be positive and finite, got {rate_rps}")
    if not 1 <= num_requests < math.inf:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    rng = as_generator(derive_seed(seed, "arrivals"))
    gaps = rng.exponential(1.0 / rate_rps, size=num_requests)
    arrivals = start + np.cumsum(gaps)
    stream = streaming_request_stream(
        candidate_ids, num_requests, request_size,
        hot_fraction=hot_fraction, hot_mass=hot_mass,
        drift_interval=drift_interval, seed=derive_seed(seed, "seeds"),
    )
    return [Request(rid=i, seeds=seeds, arrival=float(arrivals[i]), slo=slo)
            for i, seeds in enumerate(stream)]


@dataclass
class ClosedLoopWorkload:
    """A fixed client population with one outstanding request per client.

    The service calls :meth:`initial` once to admit every client's first
    request, then :meth:`on_complete` whenever a request finishes — which
    returns that client's next request (arriving ``think_time_s`` after the
    completion) or ``None`` once ``seed_batches`` is exhausted.

    ``seed_batches`` is shared by all clients in issue order, so the
    drifting hot set advances with global progress exactly as in the
    open-loop shape.
    """

    seed_batches: Iterable[np.ndarray]
    num_clients: int
    think_time_s: float = 0.0
    start: float = 0.0
    _iter: Iterator[np.ndarray] = field(init=False, repr=False)
    _next_rid: int = field(default=0, init=False, repr=False)

    def __post_init__(self):
        if self.num_clients < 1:
            raise ValueError(
                f"num_clients must be >= 1, got {self.num_clients}"
            )
        if not 0 <= self.think_time_s < math.inf:
            raise ValueError(
                f"think_time_s must be non-negative and finite, got "
                f"{self.think_time_s}"
            )
        self._iter = iter(self.seed_batches)

    def _issue(self, client: int, arrival: float) -> Optional[Request]:
        try:
            seeds = next(self._iter)
        except StopIteration:
            return None
        req = Request(rid=self._next_rid, seeds=seeds, arrival=arrival,
                      client=client)
        self._next_rid += 1
        return req

    def initial(self) -> List[Request]:
        """Every client's first request, all arriving at ``start``."""
        out = []
        for c in range(self.num_clients):
            req = self._issue(c, self.start)
            if req is None:
                break
            out.append(req)
        return out

    def on_complete(self, request: Request, now: float) -> Optional[Request]:
        """The completing client's next request, or ``None`` when done."""
        return self._issue(request.client, now + self.think_time_s)
