"""Streaming graph mutation: a delta-CSR overlay over :class:`CSRGraph`.

Every workload so far drifts only the *seed distribution* over a frozen
graph.  :class:`MutableGraph` opens the evolving-graph scenario: edge and
vertex insert/delete batches are applied to an **overlay** on top of an
immutable base CSR, so mutation cost is proportional to churn instead of
graph size, and downstream consumers can find out exactly which rows
changed (:meth:`MutableGraph.dirty_frontier`) instead of re-deriving the
world from scratch.

Design
------
* **Base + overlay.**  The base is an ordinary (immutable, canonical)
  :class:`CSRGraph`.  Rows touched by a mutation get a private overlay
  copy (sorted, duplicate-free — the same canonical form
  :meth:`CSRGraph.from_edges` with ``dedup=True`` produces); untouched
  rows keep reading the base arrays.  Edge semantics are set-based:
  inserting a present edge and deleting an absent one are counted no-ops.
* **Append-only delta log with tombstones.**  Each applied batch appends
  one :class:`DeltaRecord` carrying the batch's version and, for every row
  it touched, the row's *prior* content.  Deleted vertices are tombstoned
  (their rows emptied, ids retained — ids are stable for the lifetime of
  the graph) and deleted edges simply vanish from the overlay rows; the
  log is what remembers them.  The log is the basis for *exact*
  multi-consumer dirty tracking: :meth:`dirty_frontier` ``(since)``
  replays prior contents to reconstruct each candidate row at ``since``
  and reports only rows whose content *actually differs* now — a row
  changed and reverted inside the window is not dirty.
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
the same protocol (:func:`repro.graph.csr.rows_concat`) and the incoming
adjacency through :meth:`in_rows_union`.  Consumers that
need a plain CSR call :meth:`materialize` (cached per version; free when
the overlay is empty).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.graph.csr import (CSRGraph, row_positions, rows_concat,
                             sorted_edge_keys)

#: Default overlay-size cutoff (fraction of base directed edges) past which
#: :meth:`MutableGraph.apply` compacts automatically.
COMPACT_CUTOFF = 0.25

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass(frozen=True)
class EdgeBatch:
    """One batch of edge insertions and deletions.

    Endpoints are given once per edge; on an undirected graph the batch is
    symmetrized at apply time (both CSR directions change).  Arrays may be
    empty; duplicates within the batch collapse to one set operation.
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
    the batch (the tombstone record for anything the batch deleted); with
    the current rows this reconstructs any row at any logged version.
    """

    version: int
    prior_rows: Dict[int, np.ndarray]
    prior_num_vertices: int
    edges_added: int
    edges_removed: int


def id_union(num_vertices: int, *ids: np.ndarray) -> np.ndarray:
    """Sorted union of vertex-id arrays: ``np.unique`` of their concatenation,
    from one boolean scatter per array instead of a hash and a sort."""
    seen = np.zeros(num_vertices, dtype=bool)
    for arr in ids:
        seen[arr] = True
    return np.flatnonzero(seen)


class MutableGraph:
    """Delta-CSR overlay supporting streaming edge/vertex mutation.

    Parameters
    ----------
    base:
        The starting graph.  Canonicalized (rows sorted, duplicate edges
        dropped) if not already canonical, since overlay semantics are
        set-based — :meth:`CSRGraph.has_sorted_neighbors` is exactly the
        canonical-form predicate.
    undirected:
        Apply every edge op in both directions (defaults to
        ``base.is_undirected()``, the repo-wide convention that symmetric
        adjacency == undirected graph).
    compact_cutoff:
        Auto-compact when overlay entries exceed this fraction of base
        directed edges; ``None`` disables auto-compaction.
    """

    def __init__(self, base: CSRGraph, *, undirected: Optional[bool] = None,
                 compact_cutoff: Optional[float] = COMPACT_CUTOFF):
        if undirected is None:
            undirected = base.is_undirected()
        if not base.has_sorted_neighbors():
            src, dst = base.edges()
            base = CSRGraph.from_edges(src, dst, base.num_vertices, dedup=True)
        self.base = base
        self.undirected = bool(undirected)
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
        #: Incoming-adjacency overlay (directed graphs only; aliases
        #: ``_rows`` when undirected).  Base side is ``base.reverse()``,
        #: built lazily on first in-neighbor query.
        self._in_rows: Dict[int, np.ndarray] = {} if not undirected else self._rows
        self._base_incoming: Optional[CSRGraph] = None
        self._tombstoned: set = set()
        self.log: List[DeltaRecord] = []
        # Per-version caches for the frozen read path / materialization.
        self._frozen: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._frozen_in: Optional[Tuple[np.ndarray, np.ndarray,
                                        np.ndarray]] = None
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

    def is_tombstoned(self, v: int) -> bool:
        """True if ``v`` was removed (its id survives, its row is empty)."""
        return int(v) in self._tombstoned

    def neighbors(self, v: int) -> np.ndarray:
        """Effective out-neighbors of ``v`` (sorted; do not mutate)."""
        row = self._rows.get(int(v))
        if row is not None:
            return row
        if v >= self.base.num_vertices:
            return _EMPTY
        return self.base.neighbors(v)

    def in_neighbors(self, v: int) -> np.ndarray:
        """Effective in-neighbors of ``v`` — the rows whose adjacency
        list contains ``v`` (== :meth:`neighbors` when undirected)."""
        if self.undirected:
            return self.neighbors(v)
        row = self._in_rows.get(int(v))
        if row is not None:
            return row
        if v >= self.base.num_vertices:
            return _EMPTY
        return self._incoming_base().neighbors(v)

    def __repr__(self) -> str:
        return (f"MutableGraph(num_vertices={self._n}, "
                f"num_edges={self.num_edges}, version={self.version}, "
                f"overlay_rows={len(self._rows)}, "
                f"undirected={self.undirected})")

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_vertices(self, count: int) -> np.ndarray:
        """Append ``count`` isolated vertices; returns their ids."""
        if count < 0:
            raise ValueError(f"count must be non-negative, got {count}")
        ids = np.arange(self._n, self._n + count, dtype=np.int64)
        if count:
            self._apply(EdgeBatch(), new_vertices=int(count))
        return ids

    def add_edges(self, src: Iterable[int], dst: Iterable[int]) -> DeltaRecord:
        """Insert edges (idempotent per edge); one version bump."""
        return self._apply(EdgeBatch(add_src=src, add_dst=dst))

    def remove_edges(self, src: Iterable[int], dst: Iterable[int]) -> DeltaRecord:
        """Delete edges (absent edges are counted no-ops); one bump."""
        return self._apply(EdgeBatch(del_src=src, del_dst=dst))

    def remove_vertices(self, vertices: Iterable[int]) -> DeltaRecord:
        """Tombstone ``vertices``: delete every incident edge (both
        directions) and leave the ids as permanently isolated rows."""
        vs = np.unique(np.asarray(vertices, dtype=np.int64))
        if len(vs) and (vs[0] < 0 or vs[-1] >= self._n):
            raise ValueError("vertex id out of range")
        del_src, del_dst = [], []
        for v in vs:
            out = self.neighbors(v)
            del_src.append(np.full(len(out), v, dtype=np.int64))
            del_dst.append(out.copy())
            if not self.undirected:
                inc = self.in_neighbors(v)
                del_src.append(inc.copy())
                del_dst.append(np.full(len(inc), v, dtype=np.int64))
        batch = EdgeBatch(
            del_src=np.concatenate(del_src) if del_src else _EMPTY,
            del_dst=np.concatenate(del_dst) if del_dst else _EMPTY,
        )
        rec = self._apply(batch, tombstones=[int(v) for v in vs])
        return rec

    def apply(self, batch: EdgeBatch) -> DeltaRecord:
        """Apply one :class:`EdgeBatch`; bumps :attr:`version` by one and
        returns the appended :class:`DeltaRecord`.  Auto-compacts past the
        configured overlay cutoff."""
        return self._apply(batch)

    # -- internals ------------------------------------------------------
    def _check_range(self, arr: np.ndarray) -> None:
        if len(arr) and (arr.min() < 0 or arr.max() >= self._n):
            raise ValueError(
                f"edge endpoint out of range [0, {self._n}); use "
                f"add_vertices to grow the graph"
            )

    def _touch(self, prior: Dict[int, np.ndarray], v: int) -> None:
        if v not in prior:
            prior[v] = self.neighbors(v)  # views/overlay arrays are never
            # mutated in place, so the prior record can share storage.

    def _row_set(self, rows: Dict[int, np.ndarray], v: int,
                 content: np.ndarray) -> None:
        rows[v] = content
        if rows is self._rows:
            self._degrees[v] = len(content)

    def _edit_rows(self, rows: Dict[int, np.ndarray],
                   read_row, src: np.ndarray, dst: np.ndarray,
                   insert: bool, prior: Dict[int, np.ndarray],
                   track_prior: bool) -> int:
        """Group ``(src, dst)`` by source row and apply set inserts or
        deletes; returns the number of ops that changed a row."""
        applied = 0
        if not len(src):
            return applied
        src, dst = np.divmod(sorted_edge_keys(src, dst, self._n), self._n)
        bounds = np.flatnonzero(np.diff(src)) + 1
        starts = np.concatenate([[0], bounds, [len(src)]])
        for i in range(len(starts) - 1):
            v = int(src[starts[i]])
            targets = np.unique(dst[starts[i]:starts[i + 1]])
            row = read_row(v)
            if insert:
                new_row = np.union1d(row, targets)
            else:
                new_row = np.setdiff1d(row, targets, assume_unique=True)
            if len(new_row) == len(row):
                continue
            if track_prior:
                self._touch(prior, v)
            applied += abs(len(new_row) - len(row))
            self._row_set(rows, v, new_row)
        return applied

    def _apply(self, batch: EdgeBatch, *, new_vertices: int = 0,
               tombstones: Optional[List[int]] = None) -> DeltaRecord:
        for arr in (batch.add_src, batch.add_dst, batch.del_src,
                    batch.del_dst):
            self._check_range(arr)
        tombstoned_now = set(tombstones or ())
        if tombstoned_now & self._tombstoned:
            raise ValueError("vertex already removed")
        add_src, add_dst = batch.add_src, batch.add_dst
        if len(add_src):
            dead = np.fromiter(self._tombstoned, dtype=np.int64,
                               count=len(self._tombstoned))
            if len(dead) and (np.isin(add_src, dead).any()
                              or np.isin(add_dst, dead).any()):
                raise ValueError("cannot add edges incident to a removed vertex")
        prior_n = self._n
        prior: Dict[int, np.ndarray] = {}
        self._n += new_vertices
        if new_vertices:
            self._degrees = np.concatenate([
                self._degrees, np.zeros(new_vertices, dtype=np.int64)
            ])
        if self.undirected and len(add_src):
            loops = add_src == add_dst
            add_src, add_dst = (np.concatenate([add_src, add_dst[~loops]]),
                                np.concatenate([add_dst, add_src[~loops]]))
        del_src, del_dst = batch.del_src, batch.del_dst
        if self.undirected and len(del_src):
            loops = del_src == del_dst
            del_src, del_dst = (np.concatenate([del_src, del_dst[~loops]]),
                                np.concatenate([del_dst, del_src[~loops]]))

        added = self._edit_rows(self._rows, self.neighbors,
                                add_src, add_dst, True, prior, True)
        removed = self._edit_rows(self._rows, self.neighbors,
                                  del_src, del_dst, False, prior, True)
        if not self.undirected:
            # Mirror the ops on the incoming overlay (swap endpoints).
            # Prior rows track out-rows only — the frontier contract is
            # about rows (out-adjacency), and in-rows of a changed edge
            # are recoverable from the same record.
            self._edit_rows(self._in_rows, self.in_neighbors,
                            add_dst, add_src, True, prior, False)
            self._edit_rows(self._in_rows, self.in_neighbors,
                            del_dst, del_src, False, prior, False)
        self._tombstoned |= tombstoned_now
        for v in tombstoned_now:
            # An isolated removed vertex still counts as touched: its
            # row is pinned to the overlay so a later compact cannot
            # resurrect base edges.
            self._touch(prior, v)
            self._row_set(self._rows, v, _EMPTY)
            if not self.undirected:
                self._in_rows[v] = _EMPTY

        self.version += 1
        rec = DeltaRecord(version=self.version, prior_rows=prior,
                          prior_num_vertices=prior_n,
                          edges_added=added, edges_removed=removed)
        self.log.append(rec)
        self._frozen = None
        self._frozen_in = None
        if (self.compact_cutoff is not None
                and self.overlay_entries
                > self.compact_cutoff * max(self.base.num_edges, 1)):
            self.compact()
        return rec

    # ------------------------------------------------------------------
    # Dirty tracking
    # ------------------------------------------------------------------
    def rows_at(self, since_version: int,
                rows: Iterable[int]) -> Dict[int, np.ndarray]:
        """Content of ``rows`` as of ``since_version``, reconstructed from
        the delta log (rows beyond the then-vertex-count are empty)."""
        want = {int(v): None for v in rows}
        n_then = self._n
        for rec in self.log:
            if rec.version <= since_version:
                continue
            n_then = min(n_then, rec.prior_num_vertices)
            for v, row in rec.prior_rows.items():
                if v in want and want[v] is None:
                    want[v] = row
        out = {}
        for v, row in want.items():
            if row is None:
                row = self.neighbors(v)
            out[v] = row if v < n_then else _EMPTY
        return out

    def dirty_frontier(self, since_version: int = 0) -> np.ndarray:
        """Vertices whose adjacency row content differs from what it was
        at ``since_version`` — *exactly*: rows whose mutations cancelled
        out inside the window are not reported.  New vertices appear only
        once they have edges.  O(churn since the version)."""
        if since_version >= self.version:
            return _EMPTY
        if since_version < 0 or (self.log and
                                 since_version < self.log[0].version - 1):
            raise ValueError(
                f"version {since_version} predates the delta log "
                f"(trimmed below {self.log[0].version - 1 if self.log else 0})"
            )
        candidates: set = set()
        for rec in self.log:
            if rec.version > since_version:
                candidates.update(rec.prior_rows)
        then = self.rows_at(since_version, candidates)
        dirty = [v for v in candidates
                 if not np.array_equal(self.neighbors(v), then[v])]
        return np.array(sorted(dirty), dtype=np.int64)

    def degree_changed(self, since_version: int = 0) -> np.ndarray:
        """Subset of :meth:`dirty_frontier` whose row *length* changed —
        the rows whose uniform-sampling transition factor is stale."""
        dirty = self.dirty_frontier(since_version)
        then = self.rows_at(since_version, dirty)
        keep = [v for v in dirty if len(then[int(v)]) != self._degrees[v]]
        return np.array(keep, dtype=np.int64)

    def trim_log(self, before_version: int) -> int:
        """Drop delta records at or below ``before_version`` (call once
        every consumer has refreshed past it); returns records dropped.
        Frontier queries for older versions raise afterwards."""
        keep = [r for r in self.log if r.version > before_version]
        dropped = len(self.log) - len(keep)
        self.log = keep
        return dropped

    # ------------------------------------------------------------------
    # Read paths
    # ------------------------------------------------------------------
    def _incoming_base(self) -> CSRGraph:
        if self._base_incoming is None:
            self._base_incoming = (self.base if self.undirected
                                   else self.base.reverse())
        return self._base_incoming

    def in_rows_union(self, vertices: np.ndarray) -> np.ndarray:
        """Sorted unique rows whose adjacency contains any of ``vertices``
        (on the *current* effective graph) — the frontier-expansion step
        of incremental VIP.  Cost ∝ the in-degree volume of ``vertices``,
        fully vectorized through the frozen pool layout."""
        vertices = np.asarray(vertices, dtype=np.int64)
        if not len(vertices):
            return _EMPTY
        if self.undirected:
            return id_union(self._n, rows_concat(self, vertices)[1])
        starts, pool, indeg = self._freeze_incoming()
        pos = row_positions(starts[vertices], indeg[vertices])
        return id_union(self._n, self._take_pooled(
            self._incoming_base().indices, pool, pos))

    # -- vectorized sampler protocol -----------------------------------
    def _freeze(self) -> Tuple[np.ndarray, np.ndarray]:
        """Pool layout for :meth:`row_starts`/:meth:`take_edges`: overlay
        rows packed into a side pool addressed past ``base.num_edges``."""
        if self._frozen is None:
            m0 = self.base.num_edges
            starts = np.empty(self._n, dtype=np.int64)
            nb = self.base.num_vertices
            starts[:nb] = self.base.indptr[:-1]
            starts[nb:] = m0  # new vertices: empty unless in the overlay
            if self._rows:
                keys = sorted(self._rows)
                offs = m0
                pool_parts = []
                for v in keys:
                    row = self._rows[v]
                    starts[v] = offs
                    offs += len(row)
                    pool_parts.append(row)
                pool = (np.concatenate(pool_parts) if pool_parts
                        else _EMPTY)
            else:
                pool = _EMPTY
            self._frozen = (starts, pool)
        return self._frozen

    def _freeze_incoming(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Incoming-side pool layout (directed graphs): ``(starts, pool,
        in_degrees)`` over the reverse base + ``_in_rows`` overlay."""
        if self._frozen_in is None:
            gin = self._incoming_base()
            m0 = gin.num_edges
            nb = gin.num_vertices
            starts = np.empty(self._n, dtype=np.int64)
            starts[:nb] = gin.indptr[:-1]
            starts[nb:] = m0
            indeg = np.zeros(self._n, dtype=np.int64)
            indeg[:nb] = np.diff(gin.indptr)
            if self._in_rows:
                offs = m0
                pool_parts = []
                for v in sorted(self._in_rows):
                    row = self._in_rows[v]
                    starts[v] = offs
                    indeg[v] = len(row)
                    offs += len(row)
                    pool_parts.append(row)
                pool = (np.concatenate(pool_parts) if pool_parts
                        else _EMPTY)
            else:
                pool = _EMPTY
            self._frozen_in = (starts, pool, indeg)
        return self._frozen_in

    def row_starts(self, targets: np.ndarray) -> np.ndarray:
        """Start position of each target's row in the virtual edge pool
        (base ``indices`` below ``base.num_edges``, overlay pool above)."""
        return self._freeze()[0][targets]

    def take_edges(self, positions: np.ndarray) -> np.ndarray:
        """Gather neighbor ids at virtual pool ``positions``."""
        return self._take_pooled(self.base.indices, self._freeze()[1],
                                 positions)

    @staticmethod
    def _take_pooled(base_indices: np.ndarray, pool: np.ndarray,
                     positions: np.ndarray) -> np.ndarray:
        """Gather from a virtual pool: ``base_indices`` below its length,
        the overlay ``pool`` above."""
        m0 = len(base_indices)
        if not len(pool):
            return base_indices[positions]
        over = positions >= m0
        safe = np.where(over, 0, positions)
        out = base_indices[safe] if m0 else np.zeros(len(positions),
                                                     dtype=np.int64)
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
        if not self._rows and self._n == self.base.num_vertices:
            csr = self.base
        else:
            src, dst = [], []
            bsrc, bdst = self.base.edges()
            if self._rows:
                keep = np.ones(self.base.num_vertices, dtype=bool)
                overlay_rows = np.fromiter(self._rows, dtype=np.int64,
                                           count=len(self._rows))
                keep[overlay_rows[overlay_rows < self.base.num_vertices]] = False
                mask = keep[bsrc]
                bsrc, bdst = bsrc[mask], bdst[mask]
                for v, row in self._rows.items():
                    src.append(np.full(len(row), v, dtype=np.int64))
                    dst.append(row)
            src.append(bsrc)
            dst.append(bdst)
            # dedup=True: the overlay keeps rows canonical already, but the
            # compact path goes through the same duplicate-dropping,
            # neighbor-sorting constructor the rest of the system builds
            # graphs with, so compacted and incrementally-read rows agree
            # byte for byte.
            csr = CSRGraph.from_edges(np.concatenate(src),
                                      np.concatenate(dst),
                                      self._n, dedup=True)
        self._csr = csr
        self._csr_version = self.version
        return csr

    def compact(self) -> CSRGraph:
        """Rebuild the base from the effective graph and drop the overlay.

        Changes no effective row — the delta log and every consumer's
        ``since_version`` bookkeeping remain valid across compaction (the
        log's tombstone records are self-contained).  Returns the new
        base."""
        self.base = self.materialize()
        self._rows = {}
        if self.undirected:
            self._in_rows = self._rows
        else:
            self._in_rows = {}
        self._base_incoming = None
        self._degrees = self.base.degrees.astype(np.int64).copy()
        self._frozen = None
        self._frozen_in = None
        return self.base


def land_batch(graph, batch: EdgeBatch, *,
               new_of_old: Optional[np.ndarray] = None) -> MutableGraph:
    """Land one edge-churn batch on a live system's graph — the one way
    training (``SalientPP.apply_graph_updates``) and serving
    (``InferenceService.run(mutations=)``) mutate.  A :class:`CSRGraph` is
    wrapped in a :class:`MutableGraph` on first use; the overlay is
    returned for the caller to re-point its samplers at.  Endpoints must
    name existing vertices (the feature store has rows for no others; grow
    with :meth:`MutableGraph.add_vertices`); ``new_of_old`` translates a
    batch given in the caller's original numbering."""
    if not isinstance(graph, MutableGraph):
        graph = MutableGraph(graph)
    if new_of_old is not None:
        arrays = (batch.add_src, batch.add_dst, batch.del_src, batch.del_dst)
        for arr in arrays:  # apply() checks too, but only after this lookup
            graph._check_range(arr)
        batch = EdgeBatch(*(new_of_old[arr] for arr in arrays))
    graph.apply(batch)
    return graph
