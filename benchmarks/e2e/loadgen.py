"""Load generators owned by the benchmark.

Everything here is vectorised numpy and runs *before* any timer starts; the
program under test receives only the generated inputs (``Request`` objects
and ``EdgeBatch``es).  ``repro.serving.poisson_requests`` is deliberately
not used: it calls ``np.setdiff1d`` over every candidate once per request,
which made load generation ~85 % of ``BENCH_PERF.json: serving.latency``
(see README, "Known mismeasurements").
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.graph.mutable import EdgeBatch
from repro.serving import Request

#: Traffic shape of every serving rung: a hot set of 0.1 % of the vertices
#: carries 95 % of the seed mass and is redrawn ``DRIFTS`` times per rung.
HOT_FRACTION = 0.001
HOT_MASS = 0.95
DRIFTS = 4
REQUEST_SIZE = 8


@dataclass
class Rung:
    """One open-loop rung: requests in arrival order plus the hot set that
    was live during each drift segment (the churn rung rewires those)."""

    requests: List[Request]
    hot_sets: List[np.ndarray]

    @property
    def span_s(self) -> float:
        return self.requests[-1].arrival


def open_loop_rung(num_vertices, num_requests, rate_rps, rng,
                   slo_classes=("standard",)) -> Rung:
    """Poisson arrivals at ``rate_rps`` over a drifting hot set.

    Each request names up to ``REQUEST_SIZE`` distinct seeds (original
    dataset ids): every slot is hot with probability ``HOT_MASS`` — drawn
    without replacement from the segment's hot set — and uniform otherwise.
    SLO classes are assigned round-robin.
    """
    arrivals = np.cumsum(rng.exponential(1.0 / rate_rps, size=num_requests))
    n_hot = max(REQUEST_SIZE, int(round(HOT_FRACTION * num_vertices)))
    seeds = np.empty((num_requests, REQUEST_SIZE), dtype=np.int64)
    hot_sets = []
    bounds = np.linspace(0, num_requests, DRIFTS + 1).astype(int)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        hot = rng.choice(num_vertices, size=n_hot, replace=False)
        hot_sets.append(hot)
        rows = hi - lo
        # Per-row sample without replacement: rank random keys.
        order = np.argsort(rng.random((rows, n_hot)), axis=1)
        hot_picks = hot[order[:, :REQUEST_SIZE]]
        cold_picks = rng.integers(0, num_vertices, size=(rows, REQUEST_SIZE))
        is_hot = rng.random((rows, REQUEST_SIZE)) < HOT_MASS
        seeds[lo:hi] = np.where(is_hot, hot_picks, cold_picks)
    requests = [
        Request(rid=i, seeds=np.unique(seeds[i]), arrival=float(arrivals[i]),
                slo=slo_classes[i % len(slo_classes)])
        for i in range(num_requests)
    ]
    return Rung(requests, hot_sets)


def churn_mutations(rung: Rung, num_vertices, edges_per_event, rng):
    """One mutation event per drift segment, landing mid-segment: the live
    hot set grows ``edges_per_event`` edges to uniform (cold) endpoints."""
    events = []
    for i, hot in enumerate(rung.hot_sets):
        when = rung.span_s * (i + 0.5) / len(rung.hot_sets)
        src = rng.choice(hot, size=edges_per_event)
        dst = rng.integers(0, num_vertices, size=edges_per_event)
        keep = src != dst
        events.append((when, EdgeBatch(add_src=src[keep], add_dst=dst[keep])))
    return events


def edge_batches(graph, num_batches, inserts, deletes, rng):
    """Edge churn for continual training: per batch ``inserts`` uniform
    random new edges and ``deletes`` existing edges, sampled up front from
    the base CSR without replacement so no batch deletes an absent edge."""
    src, dst = graph.edges()
    forward = np.flatnonzero(src < dst)  # one direction per undirected edge
    doomed = rng.choice(forward, size=num_batches * deletes, replace=False)
    n = graph.num_vertices
    batches = []
    for b in range(num_batches):
        add_src = rng.integers(0, n, size=inserts)
        add_dst = rng.integers(0, n, size=inserts)
        keep = add_src != add_dst
        gone = doomed[b * deletes:(b + 1) * deletes]
        batches.append(EdgeBatch(add_src=add_src[keep], add_dst=add_dst[keep],
                                 del_src=src[gone], del_dst=dst[gone]))
    return batches
