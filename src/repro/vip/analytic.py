"""Analytic vertex-inclusion probabilities (Proposition 1 of the paper).

Models the node-wise neighborhood-expansion random process: starting from a
random minibatch, each hop samples at most ``f_h`` neighbors per vertex
uniformly without replacement, independently across vertices and hops.  The
probability that vertex ``u`` is sampled exactly ``h`` hops out satisfies

    p[h](u) = 1 - prod_{v in N1(u)} (1 - t_h(v) * p[h-1](v)),         (3)

with ``t_h(v) = min(1, f_h / d(v))`` for uniform GraphSAGE sampling — a
function of the *source* ``v`` only — and the overall inclusion probability
is

    p(u) = 1 - prod_{h=1..L} (1 - p[h](u)).                           (2)

The formulas are written once each: :func:`vertex_transition_values` is
``t``, :func:`hop_values` evaluates (3) for a *row set* — one sparse
product ``1 - exp(A @ log(max(1 - t * p[h-1], 0)))`` with the rows' 0/1
operator ``A`` (:func:`row_set`, the matrix an MFG block is) — and
:func:`accumulate_total` is (2)'s log product.  Every evaluator is a choice
of operator for that kernel:

* :func:`vip_probabilities`, dense hop — all rows (the graph's cached
  :meth:`TransitionTable.all_rows`), a pull over every edge; on a streaming
  :class:`~repro.graph.mutable.MutableGraph`, the base graph's rows with
  the overlay's own rows (:meth:`TransitionTable.overlay`) re-summed from
  their effective sources and written over them;
* :func:`vip_probabilities`, sparse hop — a push from the frontier.
  ``p[h-1]`` is nonzero only on the (h-1)-hop ball around the seeds, so
  while the frontier's own rows stay under ``SPARSE_HOP_CUTOFF`` of the
  edge set the hop multiplies by the transpose of those rows of the
  incoming graph (a slice of its cached ``all_rows()``): each
  frontier source is added once to each row containing it, and the hop
  costs the frontier's incident edges, not every row they reach (on an
  overlay holding rows, the frontier's rows read through it);
* :func:`repro.vip.incremental.incremental_vip` — the rows a churn batch
  or a seed drift can have changed, read through a ``MutableGraph``.

An overlay is never materialized to be scored: its rows are stored sorted
and duplicate-free, as the compacted CSR stores them, so each row sums the
same sources in the same order either way and the results are ``==``.

The summation order is left to right in edge order, by definition: a CSR
product sums each row sequentially from ``+0.0`` in stored order, and an
inactive source contributes an exact ``log 1 = +0.0``, which changes no
bit.  So a row's value depends only on its own source list, never on which
other rows share the product, and every row-set choice produces the same
bits.  The push adds a row's frontier sources in ascending source order
(scipy's transposed product walks the frontier's rows in order), which is
the stored order exactly when every row is stored ascending; a graph that
fails :meth:`CSRGraph.has_sorted_neighbors` takes the dense sweep at every
hop.  The seed implementation (per-edge transitions recomputed per hop,
one O(M) pass per hop, numpy's pairwise ``reduceat``) is the frozen oracle
``tests/vip/reference_dense.py``; the suites hold every evaluator to it
within the summation-order bound ``count * eps * sum|x|`` per hop, and to
the production full evaluation with ``==``, and ``benchmarks/perf`` times
the production path against it.

One call evaluates one starting distribution, as the paper does once per
seed distribution (§3.2).  Per-vertex transition arrays are cached per
graph in a :class:`TransitionTable` (one entry per distinct fanout),
shared by the K partition-wise recursions, every evaluation on the graph
and every serving-time vip-refresh.
Partition-wise VIP vectors (one per machine, seeded by that machine's local
training set) drive both the remote-feature cache and the local CPU/GPU
ordering (paper §3.2, §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph, edge_operator, rows_concat
from repro.graph.mutable import MutableGraph
from repro.partition.interface import Partition
from repro.utils.validation import check_probability_vector

#: How equation (3) sums a row: left to right in stored edge order, as one
#: CSR product.  Part of the ``vip`` stage's artifact fingerprint
#: (``core/planner.py``), so a VIP matrix computed under another order is
#: never served from an artifact cache.
SUMMATION = "csr-product-left-to-right"

#: Fraction of the graph's directed edges the frontier's own rows may hold
#: before a hop falls back to the dense row sweep.  A sparse hop pushes from
#: the frontier, so its operator holds exactly ``deg[frontier].sum()``
#: entries — the quantity tested — plus O(N) for the output; the dense
#: sweep reads all M edges sequentially from the cached operator.  Swept on
#: captured ``serve_ladder`` refreshes (docs/performance.md, "Proposition 1
#: pushes from its frontier"); 0.4 was the fastest.
SPARSE_HOP_CUTOFF = 0.4

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class VIPResult:
    """VIP vectors for one starting distribution.

    Attributes
    ----------
    total:
        ``p(u)`` — probability of inclusion in the sampled L-hop
        neighborhood of one minibatch (equation 2).
    hopwise:
        ``p[h](u)`` for h = 1..L (equation 3); ``hopwise[0]`` is hop 1.
    initial:
        ``p[0](u)`` — the minibatch membership probabilities.
    """

    total: np.ndarray
    hopwise: List[np.ndarray]
    initial: np.ndarray

    @property
    def num_hops(self) -> int:
        return len(self.hopwise)

    @property
    def access(self) -> np.ndarray:
        """Probability the vertex is touched at all by one minibatch:
        membership in the minibatch itself or in any sampled hop,
        ``1 - (1 - p[0]) * prod_h (1 - p[h])``.

        This is the ranking quantity for *local* storage decisions (a
        machine reads a training vertex's features whenever it seeds a
        batch); for remote vertices ``p[0] = 0`` and it coincides with
        equation (2)'s ``p(u)``.
        """
        return 1.0 - (1.0 - self.initial) * (1.0 - self.total)


def uniform_minibatch_probability(
    num_vertices: int,
    train_idx: np.ndarray,
    batch_size: int,
) -> np.ndarray:
    """``p[0]`` for uniform minibatch sampling without replacement.

    ``p[0](u) = B / |T|`` for training vertices, 0 otherwise (paper §3.1).
    ``B`` is clipped to ``|T|`` so tiny partitions stay valid.
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    p0 = np.zeros(num_vertices, dtype=np.float64)
    if len(train_idx):
        p0[train_idx] = min(batch_size, len(train_idx)) / len(train_idx)
    return p0


# ----------------------------------------------------------------------
# Proposition 1, written once: the transition formula, equation (3) for a
# row set, equation (2)'s accumulator.

def _normalize_fanout(fanout: int) -> int:
    fanout = int(fanout)
    if fanout == 0:
        raise ValueError("fanout must be non-zero (-1 means full expansion)")
    return -1 if fanout < 0 else fanout


def vertex_transition_values(fanout: int, degrees: np.ndarray) -> np.ndarray:
    """``t(v) = min(1, f / max(d(v), 1))`` per vertex (ones for full
    expansion) — the probability that ``v`` picks one given neighbor when
    sampling ``fanout`` of its ``d(v)`` without replacement."""
    fanout = _normalize_fanout(fanout)
    if fanout < 0:
        return np.ones(len(degrees), dtype=np.float64)
    return np.minimum(fanout / np.maximum(degrees.astype(np.float64), 1.0),
                      1.0)


def _log_complement(x: np.ndarray) -> np.ndarray:
    """``log(max(1 - x, 0))`` (a new array; ``-inf`` where ``x >= 1``)."""
    x = np.subtract(1.0, x)
    np.maximum(x, 0.0, out=x)
    with np.errstate(divide="ignore"):
        return np.log(x, out=x)


def _one_minus_exp(s: np.ndarray) -> np.ndarray:
    """``clip(1 - exp(s), 0, 1)``, in place."""
    np.exp(s, out=s)
    np.subtract(1.0, s, out=s)
    return np.clip(s, 0.0, 1.0, out=s)


def row_set(graph, rows: np.ndarray) -> sp.csr_array:
    """The 0/1 operator of ``rows`` of ``graph`` (a :class:`CSRGraph` or a
    streaming overlay, read through :func:`rows_concat`): row ``i`` holds a
    one at every source of ``rows[i]``, in stored order — the same matrix
    an MFG block is (:func:`~repro.graph.csr.edge_operator`)."""
    counts, flat = rows_concat(graph, rows)
    ptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=ptr[1:])
    return edge_operator(ptr, flat, graph.num_vertices, np.float64)


def hop_values(tv: np.ndarray, p_prev: np.ndarray, rows: sp.csr_array, *,
               active: Optional[np.ndarray] = None) -> np.ndarray:
    """Equation (3) for a row set: ``p[h]`` of the rows of the 0/1 operator
    ``rows`` (:func:`row_set`, a graph's cached
    :meth:`TransitionTable.all_rows`, or the transpose of a frontier's push
    rows with ``tv`` / ``p_prev`` taken at the frontier) — ``1 - exp(rows @
    g)`` with the per-vertex log factors ``g(v) = log(max(1 - t(v) *
    p[h-1](v), 0))``.

    Each row sums its sources left to right in stored order, starting from
    ``+0.0``.  ``active`` names the vertices whose factor is evaluated (all
    of them by default) and must cover every source of ``rows`` with
    ``p_prev != 0``; the rest keep the exact ``+0.0`` such a source's
    ``log 1`` is, and adding ``+0.0`` changes no bit.
    """
    if active is None:
        gv = _log_complement(tv * p_prev)
    else:
        gv = np.zeros(p_prev.shape, dtype=np.float64)
        gv[active] = _log_complement(tv[active] * p_prev[active])
    return _one_minus_exp(rows @ gv)


def accumulate_total(log_not_total: np.ndarray, p_h: np.ndarray,
                     where: Optional[np.ndarray] = None) -> None:
    """Equation (2), one hop: ``log_not_total[where] += log(max(1 -
    p_h[where], 0))`` (everywhere by default; ``where`` indexes rows).
    Vertices left out must have ``p_h == 0``: their term is an exact
    ``+0.0``, so skipping it changes no bit.  :func:`_one_minus_exp` of the
    sum is ``p(u)``."""
    if where is None:
        log_not_total += _log_complement(p_h)
    else:
        log_not_total[where] += _log_complement(p_h[where])


# ----------------------------------------------------------------------
# Per-graph transition cache.

class TransitionTable:
    """Per-graph cache of transition arrays and the dense hop's operator.

    One table is attached lazily to each :class:`CSRGraph` (see
    :func:`transition_table`); because graphs are immutable, every cached
    quantity stays valid for the graph's lifetime.  A streaming
    :class:`~repro.graph.mutable.MutableGraph` gets one table per version
    (its effective degrees, and its overlay's rows and their operator):

    * ``vertex_transition(f)`` — :func:`vertex_transition_values` on the
      graph's degrees, computed at most once per distinct fanout per graph.
      ``partitionwise_vip``'s K seeded recursions, the Planner's vip stage
      and every serving-time vip-refresh share these entries.
    * the whole-graph :func:`row_set` the dense hop multiplies by (it
      shares ``indptr`` / ``indices``; its ones array is the one edge-sized
      buffer), and the incoming adjacency, whose own table's ``all_rows()``
      the sparse hop slices its push rows from (an undirected graph is its
      own incoming graph, so that is this table's operator).

    Cached arrays are handed out read-only; treat them as borrowed views.
    """

    def __init__(self, graph: CSRGraph):
        self.graph = graph
        #: Structure version this table was built against; checked by
        #: :func:`transition_table` so an in-place graph mutation (which
        #: must call :meth:`CSRGraph.bump_version`) can never silently
        #: serve stale transitions.
        self.version = graph.version
        self._vertex: Dict[int, np.ndarray] = {}
        #: Cache-effectiveness counters (the transition-dedup tests read
        #: these).
        self.vertex_computes = 0
        self.vertex_hits = 0
        self._all_rows: Optional[sp.csr_array] = None
        self._incoming: Optional[CSRGraph] = None
        self._overlay: Optional[tuple] = None

    def vertex_transition(self, fanout: int) -> np.ndarray:
        """Per-vertex ``t(v)``, cached per distinct fanout."""
        key = _normalize_fanout(fanout)
        t = self._vertex.get(key)
        if t is None:
            self.vertex_computes += 1
            t = vertex_transition_values(key, self.graph.degrees)
            t.flags.writeable = False
            self._vertex[key] = t
        else:
            self.vertex_hits += 1
        return t

    def all_rows(self) -> sp.csr_array:
        """:func:`row_set` of every row, in CSR order."""
        if self._all_rows is None:
            g = self.graph
            self._all_rows = edge_operator(g.indptr, g.indices,
                                           g.num_vertices, np.float64)
        return self._all_rows

    def overlay(self) -> tuple:
        """A streaming overlay's own rows and their :func:`row_set`, which
        the dense hop re-sums over its base's rows (no rows on a
        :class:`CSRGraph`)."""
        if self._overlay is None:
            g = self.graph
            rows = g.overlay_rows() if isinstance(g, MutableGraph) else _EMPTY
            self._overlay = (rows, row_set(g, rows) if len(rows) else None)
        return self._overlay

    def incoming(self) -> CSRGraph:
        """Graph whose row ``v`` lists the rows of ``graph`` containing
        ``v`` — a frontier vertex's push row.  The graph itself for
        undirected graphs; the transpose (built once) otherwise."""
        if self._incoming is None:
            self._incoming = (self.graph if self.graph.is_undirected()
                              else self.graph.reverse())
        return self._incoming


def transition_table(graph: CSRGraph) -> TransitionTable:
    """The graph's (lazily created) shared :class:`TransitionTable`.

    The table pins the graph's structure-version token at creation; a
    version mismatch (an in-place mutation declared via
    :meth:`CSRGraph.bump_version`, which also drops the attached table —
    this check additionally catches tables stashed elsewhere) invalidates
    the table and builds a fresh one instead of serving stale transitions.
    """
    table = graph._transition_table
    if table is None or table.version != graph.version:
        table = TransitionTable(graph)
        graph._transition_table = table
    return table


# ----------------------------------------------------------------------
# Proposition 1 on a static graph.

def vip_probabilities(
    graph: CSRGraph,
    initial: np.ndarray,
    fanouts: Sequence[int],
    *,
    sparse_cutoff: float = SPARSE_HOP_CUTOFF,
) -> VIPResult:
    """Evaluate Proposition 1 for one starting distribution.

    Carries a frontier of vertices whose probability is nonzero and pushes
    from it — :func:`hop_values` over the transpose of the frontier's own
    rows of the incoming graph — switching to all rows once those rows
    hold more than ``sparse_cutoff`` of the edge set.  The output does not
    depend on the switch (bit for bit; ``tests/vip/test_active_set.py``
    holds every cutoff to the all-rows evaluation), only the cost does —
    seed distributions confined to one partition's training set (or a
    serving hot set) do not pay full-graph cost per hop.  A graph whose
    rows are not stored in ascending order takes the dense sweep at every
    hop (the push sums in ascending source order).

    Parameters
    ----------
    graph:
        Graph being sampled (undirected in all paper experiments), a
        :class:`CSRGraph` or a streaming
        :class:`~repro.graph.mutable.MutableGraph` (read through its
        overlay, ``==`` the evaluation on its ``materialize()``).  For a
        directed graph pass the graph whose CSR row ``u`` lists the vertices
        ``v`` that can sample ``u`` (the reverse of the sampling direction).
    initial:
        ``p[0]`` — per-vertex minibatch membership probabilities, a 1-D
        vector.
    fanouts:
        Per-hop fanouts, hop 1 first; ``-1`` = full expansion.
    sparse_cutoff:
        Frontier-size threshold for the sparse hop path, as a fraction of
        the edge count (0 forces dense sweeps, 1 forces sparse hops; the
        parity tests pin both extremes).
    """
    p_prev = check_probability_vector(initial, "initial")
    if len(p_prev) != graph.num_vertices:
        raise ValueError("initial must have one probability per vertex")
    table = transition_table(graph)
    n, m = graph.num_vertices, graph.num_edges
    # A streaming overlay is read as its base's rows with its own rows
    # re-summed over them; while it holds rows it is its own (undirected)
    # incoming graph.
    base = graph.base if isinstance(graph, MutableGraph) else graph
    overlay, overlay_op = table.overlay()
    incoming = graph if len(overlay) else transition_table(base).incoming()

    hopwise: List[np.ndarray] = []
    log_not_total = np.zeros(p_prev.shape, dtype=np.float64)
    # ``frontier is None`` means "assume dense": skip frontier bookkeeping
    # once a hop's support has grown past any chance of a sparse follow-up,
    # and at every hop on a graph whose rows are not stored in ascending
    # source order (the push would sum them in another order).
    pushable = base.has_sorted_neighbors()  # overlay rows are kept sorted
    frontier: Optional[np.ndarray] = (
        np.flatnonzero(p_prev != 0.0) if pushable else None)

    for fanout in fanouts:
        tv = table.vertex_transition(fanout)
        if (frontier is not None
                and int(incoming.degrees[frontier].sum())
                <= sparse_cutoff * m):
            # Push: the frontier's own rows of the incoming graph,
            # transposed, add each frontier source into the rows containing
            # it in ascending source order — on ascending rows, the pull's
            # operands in the pull's order.
            push = (row_set(incoming, frontier) if len(overlay) else
                    transition_table(incoming).all_rows()[frontier])
            p_h = hop_values(tv[frontier], p_prev[frontier], push.T)
            frontier = np.flatnonzero(p_h != 0.0)
            accumulate_total(log_not_total, p_h, where=frontier)
        else:
            # Row set: every row, in CSR order; an overlay's rows are then
            # re-summed from their effective sources over the base's.
            p_h = hop_values(tv, p_prev, transition_table(base).all_rows())
            if len(overlay):
                p_h[overlay] = hop_values(tv, p_prev, overlay_op)
            accumulate_total(log_not_total, p_h)
            # Recompute the frontier only while the support is small enough
            # that the next hop could plausibly take the sparse path.
            if pushable:
                live = p_h != 0.0
                frontier = (np.flatnonzero(live)
                            if np.count_nonzero(live) <= sparse_cutoff * n
                            else None)
        hopwise.append(p_h)
        p_prev = p_h

    return VIPResult(total=_one_minus_exp(log_not_total), hopwise=hopwise,
                     initial=np.asarray(initial, dtype=np.float64))


def vip_for_training_set(
    graph: CSRGraph,
    train_idx: np.ndarray,
    fanouts: Sequence[int],
    batch_size: int,
) -> VIPResult:
    """VIP under uniform minibatches drawn from ``train_idx``."""
    p0 = uniform_minibatch_probability(graph.num_vertices, train_idx, batch_size)
    return vip_probabilities(graph, p0, fanouts)


def partitionwise_vip(
    graph: CSRGraph,
    partition: Partition,
    train_idx: np.ndarray,
    fanouts: Sequence[int],
    batch_size: int,
) -> np.ndarray:
    """Partition-wise VIP matrix ``P`` of shape ``(K, N)``.

    Row ``k`` is the VIP vector seeded by partition ``k``'s local training
    vertices (``p[0]_k(u) = B / |T_k|`` on ``T_k``), i.e. the probability
    that machine ``k`` needs vertex ``u`` for one of its minibatches.  This
    is the quantity that ranks both remote-cache candidates and the local
    CPU/GPU split (paper §3.2).

    All K recursions share the graph's :class:`TransitionTable`, so
    transition arrays are computed at most once per distinct fanout for
    the whole matrix.
    """
    train_idx = np.asarray(train_idx, dtype=np.int64)
    owner = partition.assignment[train_idx]
    out = np.zeros((partition.num_parts, graph.num_vertices), dtype=np.float64)
    for k in range(partition.num_parts):
        local_train = train_idx[owner == k]
        if len(local_train) == 0:
            continue
        # The full access probability (includes minibatch membership):
        # identical to equation (2) for remote vertices, and the correct
        # ranking for local CPU/GPU placement of training vertices.
        out[k] = vip_for_training_set(graph, local_train, fanouts,
                                      batch_size).access
    return out


def expected_remote_volume(
    vip_matrix: np.ndarray,
    partition: Partition,
    steps_per_epoch: np.ndarray,
    cached: Optional[np.ndarray] = None,
) -> float:
    """Expected per-epoch remote-vertex fetch count implied by VIP values.

    Machine ``k`` fetches vertex ``u`` in a given minibatch with probability
    ``P[k, u]`` if ``u`` is remote and not cached; summing over the epoch's
    minibatches gives the expected communication volume the caching policy
    minimizes (§3.2 "Communication reduction").

    Evaluated as one vectorized pass over the ``(K, N)`` matrix: the
    owner one-hot matrix is materialized once, instead of allocating a
    fresh N-length remote mask per machine.

    Parameters
    ----------
    vip_matrix:
        ``(K, N)`` partition-wise VIP values.
    steps_per_epoch:
        ``(K,)`` minibatch count per machine per epoch.
    cached:
        Optional boolean ``(K, N)`` cache membership.
    """
    vip_matrix = np.asarray(vip_matrix, dtype=np.float64)
    if vip_matrix.ndim != 2:
        raise ValueError(f"vip_matrix must be 2-D (K, N), got {vip_matrix.shape}")
    K, N = vip_matrix.shape
    owner = partition.assignment
    if owner.shape != (N,):
        raise ValueError(
            f"vip_matrix has {N} columns but the partition covers "
            f"{owner.shape[0]} vertices"
        )
    steps = np.asarray(steps_per_epoch, dtype=np.float64)
    if steps.shape != (K,):
        raise ValueError(f"steps_per_epoch must have shape ({K},), got {steps.shape}")
    local = np.equal.outer(np.arange(K), owner)  # one-hot pass
    contrib = np.where(local, 0.0, vip_matrix)
    if cached is not None:
        if cached.shape != (K, N):
            raise ValueError(f"cached must have shape ({K}, {N}), got {cached.shape}")
        contrib = np.where(cached, 0.0, contrib)
    return float(steps @ contrib.sum(axis=1))
