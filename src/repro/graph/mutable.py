"""Streaming graph mutation: a delta-CSR overlay over :class:`CSRGraph`.

Every workload so far drifts only the *seed distribution* over a frozen
graph.  :class:`MutableGraph` opens the evolving-graph scenario: edge
insert/delete batches on an undirected graph — the one kind of change a
live system lands — are applied to an **overlay** on top of an immutable
base CSR, so mutation cost is proportional to churn instead of graph size,
and downstream consumers can find out exactly which rows changed
(:meth:`MutableGraph.dirty_frontier`) instead of re-deriving the world from
scratch.  The vertex set is fixed: the feature store has rows for the base
graph's vertices and no others.

Design
------
* **Base + overlay.**  The base is an ordinary (immutable, canonical,
  symmetric) :class:`CSRGraph`.  Rows touched by a mutation get a private
  overlay copy (sorted, duplicate-free — the same canonical form
  :meth:`CSRGraph.from_edges` with ``dedup=True`` produces); untouched
  rows keep reading the base arrays.  Every edge op changes both
  directions.  Edge semantics are set-based: inserting a present edge and
  deleting an absent one are counted no-ops.
* **Append-only delta log.**  Each applied batch appends one
  :class:`DeltaRecord` carrying the batch's version and, for every row it
  touched, the row's *prior* content.  Deleted edges simply vanish from the
  overlay rows; the log is what remembers them.  The log is the basis for
  *exact* multi-consumer dirty tracking: :meth:`dirty_frontier`
  ``(since)`` replays prior contents to reconstruct each candidate row at
  ``since`` and reports only rows whose content *actually differs* now — a
  row changed and reverted inside the window is not dirty.
* **Version counter.**  ``version`` increments once per applied batch.
  Consumers (VIP snapshots, caches) remember the version they last saw
  and ask for the frontier since then; nothing is cleared, so any number
  of independent consumers can track the same graph.
* **Compaction.**  Past ``compact_cutoff`` (overlay entries as a fraction
  of base edges) — or on demand — :meth:`compact` rebuilds a clean base
  CSR through :meth:`CSRGraph.from_edges` (``dedup=True``) and drops the
  overlay.  Compaction changes no effective row, so the delta log (and
  every consumer's dirty bookkeeping) survives it untouched.

Read paths
----------
The neighborhood sampler reads *through* the overlay: :class:`MutableGraph`
implements the same vectorized adjacency protocol as :class:`CSRGraph`
(``degrees``, :meth:`row_starts`, :meth:`take_edges`) by lazily freezing
the overlay rows into a side pool, so :func:`repro.sampling.neighbor.
sample_neighbors` works on either class with identical RNG consumption.
Incremental VIP (:mod:`repro.vip.incremental`) reads effective rows through
the same protocol (:func:`repro.graph.csr.rows_concat`); on a symmetric
graph the rows containing a vertex are its own row, which is all
:meth:`in_rows_union` reads.  Consumers that need a plain CSR call
:meth:`materialize` (cached per version; free when the overlay is empty).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.csr import (CSRGraph, rows_concat, sorted_edge_keys,
                              sorted_unique)

#: Default overlay-size cutoff (fraction of base directed edges) past which
#: :meth:`MutableGraph.apply` compacts automatically.
COMPACT_CUTOFF = 0.25

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class EdgeBatch:
    """One batch of edge insertions and deletions.

    Endpoints are given once per edge; the batch is symmetrized at apply
    time (both CSR directions change).  Arrays may be empty; duplicates
    within the batch collapse to one set operation.
    """

    add_src: np.ndarray = field(default_factory=lambda: _EMPTY)
    add_dst: np.ndarray = field(default_factory=lambda: _EMPTY)
    del_src: np.ndarray = field(default_factory=lambda: _EMPTY)
    del_dst: np.ndarray = field(default_factory=lambda: _EMPTY)

    def __post_init__(self):
        for name in ("add_src", "add_dst", "del_src", "del_dst"):
            object.__setattr__(self, name,
                               np.asarray(getattr(self, name),
                                          dtype=np.int64).ravel())
        if self.add_src.shape != self.add_dst.shape:
            raise ValueError("add_src and add_dst must have equal length")
        if self.del_src.shape != self.del_dst.shape:
            raise ValueError("del_src and del_dst must have equal length")

    @property
    def num_ops(self) -> int:
        return len(self.add_src) + len(self.del_src)

    def __repr__(self) -> str:
        return (f"EdgeBatch(+{len(self.add_src)} edges, "
                f"-{len(self.del_src)} edges)")


@dataclass(frozen=True)
class DeltaRecord:
    """One applied batch in the append-only delta log.

    ``prior_rows`` maps each row the batch touched to its content *before*
    the batch; with the current rows this reconstructs any row at any
    logged version.
    """

    version: int
    prior_rows: Dict[int, np.ndarray]
    edges_added: int
    edges_removed: int


def id_union(num_vertices: int, *ids: np.ndarray) -> np.ndarray:
    """Sorted union of vertex-id arrays: ``np.unique`` of their concatenation,
    from one boolean scatter per array instead of a hash and a sort."""
    seen = np.zeros(num_vertices, dtype=bool)
    for arr in ids:
        seen[arr] = True
    return np.flatnonzero(seen)


def _symmetrized(src: np.ndarray, dst: np.ndarray):
    """``(src, dst)`` plus the reverse of every non-loop pair."""
    loops = src == dst
    return (np.concatenate([src, dst[~loops]]),
            np.concatenate([dst, src[~loops]]))


class MutableGraph:
    """Delta-CSR overlay supporting streaming edge mutation of an
    undirected graph.

    Parameters
    ----------
    base:
        The starting graph; its adjacency must be symmetric
        (:meth:`CSRGraph.is_undirected`, the repo-wide convention that
        symmetric adjacency == undirected graph).  Canonicalized (rows
        sorted, duplicate edges dropped) if not already canonical, since
        overlay semantics are set-based —
        :meth:`CSRGraph.has_sorted_neighbors` is exactly the
        canonical-form predicate.
    compact_cutoff:
        Auto-compact when overlay entries exceed this fraction of base
        directed edges; ``None`` disables auto-compaction.
    """

    def __init__(self, base: CSRGraph, *,
                 compact_cutoff: Optional[float] = COMPACT_CUTOFF):
        if not base.is_undirected():
            raise ValueError(
                "MutableGraph needs an undirected graph (symmetric "
                "adjacency); got a directed base"
            )
        if not base.has_sorted_neighbors():
            src, dst = base.edges()
            base = CSRGraph.from_edges(src, dst, base.num_vertices, dedup=True)
        self.base = base
        if compact_cutoff is not None and compact_cutoff < 0:
            raise ValueError(
                f"compact_cutoff must be non-negative or None (0 compacts "
                f"after every batch), got {compact_cutoff}"
            )
        self.compact_cutoff = compact_cutoff
        #: Bumped once per applied batch.
        self.version = 0
        self._n = base.num_vertices
        self._degrees = base.degrees.astype(np.int64).copy()
        #: Overlay rows: effective (sorted, unique) adjacency of every row
        #: touched since the last compact.
        self._rows: Dict[int, np.ndarray] = {}
        self.log: List[DeltaRecord] = []
        # Per-version caches for the frozen read path / materialization.
        self._frozen: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._csr: Optional[CSRGraph] = None
        self._csr_version = -1

    # ------------------------------------------------------------------
    # Basic properties (CSRGraph-compatible where meaningful)
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return self._n

    @property
    def num_edges(self) -> int:
        """Effective directed adjacency entries (through the overlay)."""
        return int(self._degrees.sum())

    @property
    def degrees(self) -> np.ndarray:
        """Effective out-degree per vertex (maintained incrementally;
        treat as read-only)."""
        return self._degrees

    @property
    def overlay_entries(self) -> int:
        """Directed adjacency entries held in overlay rows."""
        return sum(len(r) for r in self._rows.values())

    def neighbors(self, v: int) -> np.ndarray:
        """Effective neighbors of ``v`` (sorted; do not mutate)."""
        row = self._rows.get(int(v))
        return self.base.neighbors(v) if row is None else row

    def __repr__(self) -> str:
        return (f"MutableGraph(num_vertices={self._n}, "
                f"num_edges={self.num_edges}, version={self.version}, "
                f"overlay_rows={len(self._rows)})")

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_edges(self, src: Iterable[int], dst: Iterable[int]) -> DeltaRecord:
        """Insert edges (idempotent per edge); one version bump."""
        return self.apply(EdgeBatch(add_src=src, add_dst=dst))

    def remove_edges(self, src: Iterable[int], dst: Iterable[int]) -> DeltaRecord:
        """Delete edges (absent edges are counted no-ops); one bump."""
        return self.apply(EdgeBatch(del_src=src, del_dst=dst))

    def apply(self, batch: EdgeBatch) -> DeltaRecord:
        """Apply one :class:`EdgeBatch`; bumps :attr:`version` by one and
        returns the appended :class:`DeltaRecord`.  Auto-compacts past the
        configured overlay cutoff."""
        for arr in (batch.add_src, batch.add_dst, batch.del_src,
                    batch.del_dst):
            self._check_range(arr)
        prior: Dict[int, np.ndarray] = {}
        added = self._edit_rows(*_symmetrized(batch.add_src, batch.add_dst),
                                True, prior)
        removed = self._edit_rows(*_symmetrized(batch.del_src, batch.del_dst),
                                  False, prior)
        self.version += 1
        rec = DeltaRecord(version=self.version, prior_rows=prior,
                          edges_added=added, edges_removed=removed)
        self.log.append(rec)
        self._frozen = None
        if (self.compact_cutoff is not None
                and self.overlay_entries
                > self.compact_cutoff * max(self.base.num_edges, 1)):
            self.compact()
        return rec

    # -- internals ------------------------------------------------------
    def _check_range(self, arr: np.ndarray) -> None:
        if len(arr) and (arr.min() < 0 or arr.max() >= self._n):
            raise ValueError(
                f"edge endpoint out of range [0, {self._n}); a batch must "
                f"name existing vertices"
            )

    def _edit_rows(self, src: np.ndarray, dst: np.ndarray, insert: bool,
                   prior: Dict[int, np.ndarray]) -> int:
        """Group ``(src, dst)`` by source row and apply set inserts or
        deletes, recording each changed row's first prior content; returns
        the number of ops that changed a row."""
        applied = 0
        if not len(src):
            return applied
        src, dst = np.divmod(sorted_edge_keys(src, dst, self._n), self._n)
        bounds = np.flatnonzero(np.diff(src)) + 1
        starts = np.concatenate([[0], bounds, [len(src)]])
        for i in range(len(starts) - 1):
            v = int(src[starts[i]])
            targets = sorted_unique(dst[starts[i]:starts[i + 1]])
            row = self.neighbors(v)
            if insert:
                new_row = sorted_unique(np.concatenate([row, targets]))
            else:
                new_row = np.setdiff1d(row, targets, assume_unique=True)
            if len(new_row) == len(row):
                continue
            # Views/overlay arrays are never mutated in place, so the
            # prior record can share storage.
            prior.setdefault(v, row)
            applied += abs(len(new_row) - len(row))
            self._rows[v] = new_row
            self._degrees[v] = len(new_row)
        return applied

    # ------------------------------------------------------------------
    # Dirty tracking
    # ------------------------------------------------------------------
    def rows_at(self, since_version: int,
                rows: Iterable[int]) -> Dict[int, np.ndarray]:
        """Content of ``rows`` as of ``since_version``, reconstructed from
        the delta log."""
        want = {int(v): None for v in rows}
        for rec in self.log:
            if rec.version <= since_version:
                continue
            for v, row in rec.prior_rows.items():
                if v in want and want[v] is None:
                    want[v] = row
        return {v: self.neighbors(v) if row is None else row
                for v, row in want.items()}

    def dirty_frontier(self, since_version: int = 0) -> np.ndarray:
        """Vertices whose adjacency row content differs from what it was
        at ``since_version`` — *exactly*: rows whose mutations cancelled
        out inside the window are not reported.  O(churn since the
        version); read-only."""
        return self._dirty(since_version)[0]

    def _dirty(self, since_version: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(dirty_frontier, rows whose length changed)`` since
        ``since_version``, from one walk of the log.  The second set is
        the rows whose uniform-sampling transition factor is stale."""
        if since_version < 0:
            raise ValueError(
                f"since_version must be non-negative, got {since_version}")
        if since_version >= self.version:
            return _EMPTY, _EMPTY
        candidates: set = set()
        for rec in self.log[since_version:]:  # log[i] is version i + 1
            candidates.update(rec.prior_rows)
        then = self.rows_at(since_version, candidates)
        dirty = sorted(v for v in candidates
                       if not np.array_equal(self.neighbors(v), then[v]))
        return (np.array(dirty, dtype=np.int64),
                np.array([v for v in dirty
                          if len(then[v]) != self._degrees[v]],
                         dtype=np.int64))

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    def in_rows_union(self, vertices: np.ndarray) -> np.ndarray:
        """Sorted unique rows whose adjacency contains any of ``vertices``
        (on the *current* effective graph) — the frontier-expansion step
        of incremental VIP.  The graph is symmetric, so these are the
        neighbors of ``vertices``: cost ∝ their degree volume, fully
        vectorized through the frozen pool layout."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if not len(vertices):
            return _EMPTY
        return id_union(self._n, rows_concat(self, vertices)[1])

    # -- vectorized sampler protocol -----------------------------------
    def _freeze(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pool layout for :meth:`row_starts`/:meth:`take_edges`: overlay
        rows packed into a side pool addressed past ``base.num_edges``."""
        if self._frozen is None:
            starts = np.array(self.base.indptr[:-1], dtype=np.int64)
            pool = _EMPTY
            if self._rows:
                keys = sorted(self._rows)
                lengths = [len(self._rows[v]) for v in keys]
                starts[keys] = self.base.num_edges + np.concatenate(
                    [[0], np.cumsum(lengths)[:-1]])
                pool = np.concatenate([self._rows[v] for v in keys])
            self._frozen = (starts, pool)
        return self._frozen

    def row_starts(self, targets: np.ndarray) -> np.ndarray:
        """Start position of each target's row in the virtual edge pool
        (base ``indices`` below ``base.num_edges``, overlay pool above)."""
        return self._freeze()[0][targets]

    def take_edges(self, positions: np.ndarray) -> np.ndarray:
        """Gather neighbor ids at virtual pool ``positions``: base
        ``indices`` below ``base.num_edges``, the overlay pool above."""
        indices, pool = self.base.indices, self._freeze()[1]
        if not len(pool):
            return indices[positions]
        m0 = len(indices)
        over = positions >= m0
        out = (indices[np.where(over, 0, positions)] if m0
               else np.zeros(len(positions), dtype=np.int64))
        if over.any():
            out[over] = pool[positions[over] - m0]
        return out

    # ------------------------------------------------------------------
    # Materialization / compaction
    # ------------------------------------------------------------------
    def materialize(self) -> CSRGraph:
        """The effective graph as a clean :class:`CSRGraph` (cached per
        version; returns the base itself while the overlay is empty)."""
        if self._csr is not None and self._csr_version == self.version:
            return self._csr
        if not self._rows:
            csr = self.base
        else:
            bsrc, bdst = self.base.edges()
            keep = np.ones(self._n, dtype=bool)
            keep[np.fromiter(self._rows, dtype=np.int64,
                             count=len(self._rows))] = False
            mask = keep[bsrc]
            bsrc, bdst = bsrc[mask], bdst[mask]  # drop the full edge arrays
            src = [np.full(len(row), v, dtype=np.int64)
                   for v, row in self._rows.items()] + [bsrc]
            dst = list(self._rows.values()) + [bdst]
            # dedup=True: the overlay keeps rows canonical already, but the
            # compact path goes through the same duplicate-dropping,
            # neighbor-sorting constructor the rest of the system builds
            # graphs with, so compacted and incrementally-read rows agree
            # byte for byte.
            csr = CSRGraph.from_edges(np.concatenate(src),
                                      np.concatenate(dst),
                                      self._n, dedup=True)
            # An undirected base with symmetrized batches stays undirected.
            csr._is_undirected = True
        self._csr = csr
        self._csr_version = self.version
        return csr

    def compact(self) -> CSRGraph:
        """Rebuild the base from the effective graph and drop the overlay.

        Changes no effective row — the delta log and every consumer's
        ``since_version`` bookkeeping remain valid across compaction.
        Returns the new base."""
        self.base = self.materialize()
        self._rows = {}
        self._degrees = self.base.degrees.astype(np.int64).copy()
        self._frozen = None
        return self.base


def land_batch(graph, batch: EdgeBatch, *,
               new_of_old: Optional[np.ndarray] = None) -> MutableGraph:
    """Land one edge-churn batch on a live system's graph — the one way
    training (``SalientPP.apply_graph_updates``) and serving
    (``InferenceService.run(mutations=)``) mutate.  A :class:`CSRGraph` is
    wrapped in a :class:`MutableGraph` on first use; the overlay is
    returned for the caller to re-point its samplers at.  Endpoints must
    name existing vertices (the vertex set is fixed: the feature store has
    rows for no others); ``new_of_old`` translates a batch given in the
    caller's original numbering."""
    if not isinstance(graph, MutableGraph):
        graph = MutableGraph(graph)
    if new_of_old is not None:
        arrays = (batch.add_src, batch.add_dst, batch.del_src, batch.del_dst)
        for arr in arrays:  # apply() checks too, but only after this lookup
            graph._check_range(arr)
        batch = EdgeBatch(*(new_of_old[arr] for arr in arrays))
    graph.apply(batch)
    return graph
