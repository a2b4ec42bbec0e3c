"""Frozen oracle: the seed (dense) evaluation of Proposition 1.

The functions below are the original implementation of equations (2)/(3) —
one full O(M) edge pass per hop, per-edge transition probabilities
recomputed per invocation — moved here **verbatim** from
``src/repro/vip/analytic.py`` when the production evaluators collapsed
onto one row kernel.  Never edit them: they are the second implementation
the hypothesis suites (``tests/vip/test_active_set.py``,
``tests/streaming/``) hold ``vip_probabilities``, ``partitionwise_vip``,
``snapshot_vip`` / ``incremental_vip`` and ``VIPTracker.access`` to with
``==`` per element, and the dense baseline ``benchmarks/perf/harness.py``
times ``preprocess.vip`` / ``serving.cache_refresh`` against.  Only the
result container and the ``p[0]`` helper come from ``src``.
"""

from typing import List, Optional, Sequence

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.interface import Partition
from repro.utils.validation import check_probability_vector
from repro.vip.analytic import VIPResult, uniform_minibatch_probability


def _normalize_fanout(fanout: int) -> int:
    fanout = int(fanout)
    if fanout == 0:
        raise ValueError("fanout must be non-zero (-1 means full expansion)")
    return -1 if fanout < 0 else fanout


def _compute_edge_transition(graph: CSRGraph, fanout: int) -> np.ndarray:
    """Uncached per-edge ``t(u, v) = min(1, f / d(v))`` (the seed
    implementation — :func:`vip_probabilities_dense` and the dense side of
    the perf harness use this directly so the baseline keeps paying the
    per-invocation O(M) pass it always did)."""
    fanout = _normalize_fanout(fanout)
    deg = graph.degrees[graph.indices].astype(np.float64)
    if fanout < 0:  # full neighborhood expansion
        return np.ones(graph.num_edges, dtype=np.float64)
    with np.errstate(divide="ignore"):
        t = fanout / np.maximum(deg, 1.0)
    return np.minimum(t, 1.0)


def _row_log_products(indptr: np.ndarray, edge_log: np.ndarray) -> np.ndarray:
    """Sum ``edge_log`` per CSR row (empty rows produce 0)."""
    n = len(indptr) - 1
    out = np.zeros(n, dtype=np.float64)
    lengths = np.diff(indptr)
    rows = np.flatnonzero(lengths > 0)
    if len(rows):
        out[rows] = np.add.reduceat(edge_log, indptr[rows])
    return out


def _check_vip_inputs(graph, initial, fanouts, transition):
    p0 = check_probability_vector(initial, "initial")
    if len(p0) != graph.num_vertices:
        raise ValueError("initial must have one probability per vertex")
    if transition is not None and len(transition) != len(fanouts):
        raise ValueError("transition must supply one edge array per hop")
    return p0


def vip_probabilities_dense(
    graph: CSRGraph,
    initial: np.ndarray,
    fanouts: Sequence[int],
    *,
    transition: Optional[List[np.ndarray]] = None,
) -> VIPResult:
    """Reference Proposition-1 evaluation: one full O(M) edge pass per hop,
    transition probabilities recomputed per invocation.

    This is the seed implementation, kept verbatim as the parity oracle for
    :func:`vip_probabilities` (which must reproduce it bit-for-bit) and as
    the baseline the perf harness measures speedups against.
    """
    p_prev = _check_vip_inputs(graph, initial, fanouts, transition)

    indptr, indices = graph.indptr, graph.indices
    hopwise: List[np.ndarray] = []
    log_not_total = np.zeros(graph.num_vertices, dtype=np.float64)

    for h, fanout in enumerate(fanouts):
        if transition is not None:
            t = np.asarray(transition[h], dtype=np.float64)
            if t.shape != (graph.num_edges,):
                raise ValueError(f"transition[{h}] must have one entry per edge")
        else:
            t = _compute_edge_transition(graph, int(fanout))
        # prod over v in N1(u) of (1 - t(u,v) p[h-1](v)), in log space.
        prod_arg = 1.0 - t * p_prev[indices]
        with np.errstate(divide="ignore"):
            edge_log = np.log(np.maximum(prod_arg, 0.0))
        row_log = _row_log_products(indptr, edge_log)
        p_h = 1.0 - np.exp(row_log)
        np.clip(p_h, 0.0, 1.0, out=p_h)
        hopwise.append(p_h)
        with np.errstate(divide="ignore"):
            log_not_total += np.log(np.maximum(1.0 - p_h, 0.0))
        p_prev = p_h

    total = 1.0 - np.exp(log_not_total)
    np.clip(total, 0.0, 1.0, out=total)
    return VIPResult(total=total, hopwise=hopwise, initial=np.asarray(initial, dtype=np.float64))


def _partitionwise(graph, partition, train_idx, fanouts, batch_size, vip_fn):
    train_idx = np.asarray(train_idx, dtype=np.int64)
    owner = partition.assignment[train_idx]
    out = np.zeros((partition.num_parts, graph.num_vertices), dtype=np.float64)
    for k in range(partition.num_parts):
        local_train = train_idx[owner == k]
        if len(local_train) == 0:
            continue
        p0 = uniform_minibatch_probability(graph.num_vertices, local_train,
                                           batch_size)
        res = vip_fn(graph, p0, fanouts)
        # Use the full access probability (includes minibatch membership):
        # identical to equation (2) for remote vertices, and the correct
        # ranking for local CPU/GPU placement of training vertices.
        out[k] = res.access
    return out


def partitionwise_vip_dense(
    graph: CSRGraph,
    partition: Partition,
    train_idx: np.ndarray,
    fanouts: Sequence[int],
    batch_size: int,
) -> np.ndarray:
    """Seed-implementation partition-wise VIP: K independent dense
    recursions, transitions recomputed per hop per partition.  The perf
    harness's ``preprocess.vip`` baseline and the parity oracle for
    :func:`partitionwise_vip` (bit-identical matrices)."""
    return _partitionwise(graph, partition, train_idx, fanouts, batch_size,
                          vip_probabilities_dense)
