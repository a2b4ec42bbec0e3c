"""Immutable compressed-sparse-row (CSR) graph.

The CSR layout is the workhorse of the whole system: the neighborhood sampler
walks ``indptr``/``indices`` directly, VIP analysis converts the structure to
``scipy.sparse`` transition matrices, and the partitioner coarsens it level by
level.  Graphs are immutable after construction; all transformations return
new instances.

Vertex ids are ``0..num_vertices-1``.  ``indices[indptr[v]:indptr[v+1]]`` are
the *out*-neighbors of ``v``; for undirected graphs each edge appears in both
directions (as in OGB preprocessing — see Table 2 of the paper, "edge counts
reflect the graph after making it undirected").
"""

from __future__ import annotations

from typing import Iterable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

#: Largest vertex count whose packed edge keys ``src * n + dst`` fit int64.
MAX_PACKED_VERTICES = 3_037_000_499


def sorted_edge_keys(src: np.ndarray, dst: np.ndarray, num_vertices: int) -> np.ndarray:
    """Ascending packed keys ``src * num_vertices + dst``.  ``np.divmod`` by
    ``num_vertices`` turns them back into the edge list ordered by source,
    then destination — a two-key ``lexsort`` for the cost of one value sort."""
    if num_vertices > MAX_PACKED_VERTICES:
        raise ValueError(f"num_vertices {num_vertices} exceeds {MAX_PACKED_VERTICES}: "
                         "src * num_vertices + dst would overflow int64")
    keys = src * num_vertices + dst
    keys.sort()
    return keys


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """``np.unique(values)`` for integer ids: one sort plus a neighbour
    compare, the idiom :meth:`CSRGraph.from_edges`' dedup spells.  numpy
    2.x sends a plain ``np.unique`` of integers through a hash set and then
    sorts what it kept, several times slower on the id arrays this code
    base deduplicates.  Same values, same dtype; the input is not modified."""
    out = np.sort(np.asarray(values), axis=None)
    if len(out) > 1:
        keep = np.empty(len(out), dtype=bool)
        keep[0] = True
        np.not_equal(out[1:], out[:-1], out=keep[1:])
        out = out[keep]
    return out


def take_into(src: np.ndarray, idx: np.ndarray, out: np.ndarray) -> None:
    """``out[...] = src[idx]`` along axis 0, written straight into ``out``.

    ``np.take(..., out=)`` in its default ``mode="raise"`` fills a scratch
    copy and then copies it over, so that a failed bounds check leaves
    ``out`` untouched.  Here the range is checked once up front and the take
    runs in ``mode="clip"``, which writes in place: an out-of-range index
    still raises ``IndexError``, and nothing is ever clamped."""
    if len(idx) and (idx.min() < 0 or idx.max() >= len(src)):
        bad = idx.min() if idx.min() < 0 else idx.max()
        raise IndexError(
            f"index {bad} is out of bounds for axis 0 with size {len(src)}")
    np.take(src, idx, axis=0, out=out, mode="clip")


def row_positions(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Flat edge-pool positions ``starts[i] + 0..counts[i]-1`` of rows that
    start at ``starts`` and hold ``counts`` entries each, row-major."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return (np.repeat(starts - (ends - counts), counts)
            + np.arange(total, dtype=np.int64))


def rows_concat(graph, rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(counts, flat)``: the adjacency lists of ``rows`` concatenated
    row-major, each in stored order.  Reads through the vectorized
    adjacency protocol (``degrees`` / ``row_starts`` / ``take_edges``), so
    it serves a :class:`CSRGraph` and a streaming
    :class:`~repro.graph.mutable.MutableGraph` alike — one gather, no
    per-row Python."""
    rows = np.asarray(rows, dtype=np.int64)
    counts = graph.degrees[rows]
    return counts, graph.take_edges(
        row_positions(graph.row_starts(rows), counts))


def _check_index(index: np.ndarray, num_rows: int) -> None:
    """Row indices must lie in ``[0, num_rows)``: numpy would wrap a
    negative one silently, a compressed sparse product reads an unchecked
    one out of bounds."""
    if len(index) and (index.min() < 0 or index.max() >= num_rows):
        bad = index.min() if index.min() < 0 else index.max()
        raise ValueError(f"index {bad} is outside [0, {num_rows})")


def edge_operator(ptr: np.ndarray, index: np.ndarray, num_cols: int,
                  dtype) -> sp.csr_array:
    """The 0/1 matrix with a one at ``(i, index[e])`` for every edge ``e`` in
    ``[ptr[i], ptr[i+1])`` — an MFG block *is* this matrix, and so is a row
    set of a graph (``ptr`` from the rows' degrees, ``index`` their
    concatenated adjacency, :func:`rows_concat`).

    ``A @ x`` sums the rows ``x[index[e]]`` of each segment left to right in
    edge order, starting from ``+0.0``; ``A.T @ g`` scatter-adds ``g[i]`` to
    row ``index[e]`` in the same order (the arrays are shared, not copied).
    ``dtype`` must be the dtype of the rows being summed: a float64
    operator would upcast a float32 sum.  ``index`` is checked against
    ``num_cols``.
    """
    _check_index(index, num_cols)
    return sp.csr_array((np.ones(len(index), dtype=dtype), index, ptr),
                        shape=(len(ptr) - 1, num_cols))


class CSRGraph:
    """A directed graph in CSR form (use :meth:`to_undirected` to symmetrize).

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``num_vertices + 1``; monotonically
        non-decreasing, ``indptr[0] == 0``, ``indptr[-1] == num_edges``.
    indices:
        Flat neighbor array of length ``num_edges``.
    check:
        Validate structural invariants (O(V+E)); disable only on hot paths
        that construct graphs from already-validated parts.
    """

    __slots__ = ("indptr", "indices", "version", "_degrees", "_is_sorted",
                 "_is_undirected", "_transition_table")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray, *, check: bool = True):
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int64)
        #: Structure-version token.  0 for the lifetime of a well-behaved
        #: (immutable) graph; anything that mutates the arrays in place
        #: must call :meth:`bump_version` so per-graph caches (degrees,
        #: the VIP :class:`~repro.vip.analytic.TransitionTable`) can
        #: detect staleness instead of silently serving old structure.
        self.version = 0
        self._degrees: Optional[np.ndarray] = None
        self._is_sorted: Optional[bool] = None
        self._is_undirected: Optional[bool] = None
        #: Lazily attached per-graph cache of Proposition-1 transition
        #: probabilities and hot-path scratch buffers — owned and populated
        #: by :func:`repro.vip.analytic.transition_table`.  Lives on the
        #: graph so its lifetime (and validity: graphs are immutable)
        #: exactly matches the structure it caches.
        self._transition_table = None
        if check:
            self._validate()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls,
        src: Iterable[int],
        dst: Iterable[int],
        num_vertices: Optional[int] = None,
        *,
        dedup: bool = False,
        sort_neighbors: bool = True,
    ) -> "CSRGraph":
        """Build a graph from parallel ``src``/``dst`` arrays.

        Parameters
        ----------
        num_vertices:
            Total vertex count; inferred as ``max(src, dst) + 1`` if omitted.
        dedup:
            Drop duplicate ``(src, dst)`` pairs.
        sort_neighbors:
            Sort each adjacency list (required by some downstream consumers;
            cheap relative to the counting sort).
        """
        src = np.asarray(src, dtype=np.int64).ravel()
        dst = np.asarray(dst, dtype=np.int64).ravel()
        if src.shape != dst.shape:
            raise ValueError(f"src and dst must have equal length, got {src.size} vs {dst.size}")
        if num_vertices is None:
            num_vertices = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
        if src.size and (src.min() < 0 or dst.min() < 0 or
                         src.max() >= num_vertices or dst.max() >= num_vertices):
            raise ValueError("edge endpoints out of range")

        if sort_neighbors or dedup:
            keys = sorted_edge_keys(src, dst, num_vertices)
            if dedup and keys.size:
                keys = keys[np.r_[True, keys[1:] != keys[:-1]]]
            src, dst = np.divmod(keys, num_vertices)
        else:
            order = np.argsort(src, kind="stable")
            src, dst = src[order], dst[order]
        counts = np.bincount(src, minlength=num_vertices)
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        graph = cls(indptr, dst, check=False)
        if dedup:  # unique sorted keys: every row strictly ascending
            graph._is_sorted = True
        return graph

    @classmethod
    def from_scipy(cls, mat: sp.spmatrix) -> "CSRGraph":
        """Build from any scipy sparse matrix (pattern only; values ignored)."""
        csr = mat.tocsr()
        if csr.shape[0] != csr.shape[1]:
            raise ValueError(f"adjacency matrix must be square, got {csr.shape}")
        return cls(csr.indptr.astype(np.int64), csr.indices.astype(np.int64), check=False)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of directed adjacency entries (2x edge count if undirected)."""
        return len(self.indices)

    @property
    def degrees(self) -> np.ndarray:
        """Out-degree of every vertex (cached)."""
        if self._degrees is None:
            self._degrees = np.diff(self.indptr)
        return self._degrees

    @property
    def max_degree(self) -> int:
        return int(self.degrees.max(initial=0))

    @property
    def avg_degree(self) -> float:
        return self.num_edges / max(self.num_vertices, 1)

    def neighbors(self, v: int) -> np.ndarray:
        """Out-neighbors of ``v`` (a view into ``indices``; do not mutate)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        return int(self.indptr[v + 1] - self.indptr[v])

    def bump_version(self) -> int:
        """Declare an in-place structural change: increment :attr:`version`
        and drop every derived per-graph cache (degrees, sortedness,
        symmetry, the VIP transition table).  CSR graphs are immutable by
        convention, so ordinary code never calls this; it exists so the
        rare in-place mutator cannot leave stale caches behind."""
        self.version += 1
        self._degrees = None
        self._is_sorted = None
        self._is_undirected = None
        self._transition_table = None
        return self.version

    # -- vectorized adjacency protocol ---------------------------------
    # (shared with repro.graph.mutable.MutableGraph, which reads through
    # its overlay; the sampler targets this protocol, not raw arrays)
    def row_starts(self, targets: np.ndarray) -> np.ndarray:
        """Start position of each target's adjacency row in the flat
        edge pool (here simply ``indptr[targets]``)."""
        return self.indptr[targets]

    def take_edges(self, positions: np.ndarray) -> np.ndarray:
        """Gather neighbor ids at flat edge-pool ``positions`` (which
        callers derive from :meth:`row_starts` and :attr:`degrees`, so they
        are in range: ``mode="clip"`` only skips ``np.take``'s bounds-check
        path, ~2x faster)."""
        return np.take(self.indices, positions, mode="clip")

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def reverse(self) -> "CSRGraph":
        """Transpose: edge (u, v) becomes (v, u)."""
        src, dst = self.edges()
        return CSRGraph.from_edges(dst, src, self.num_vertices)

    def to_undirected(self, *, remove_self_loops: bool = False) -> "CSRGraph":
        """Symmetrize: keep each (u, v) and add (v, u); deduplicate.

        Mirrors the OGB preprocessing used by the paper ("all graphs were
        made undirected").
        """
        src, dst = self.edges()
        if remove_self_loops:
            keep = src != dst
            src, dst = src[keep], dst[keep]
        all_src = np.concatenate([src, dst])
        all_dst = np.concatenate([dst, src])
        graph = CSRGraph.from_edges(all_src, all_dst, self.num_vertices, dedup=True)
        graph._is_undirected = True  # both directions of every edge, once
        return graph

    def remove_self_loops(self) -> "CSRGraph":
        src, dst = self.edges()
        keep = src != dst
        return CSRGraph.from_edges(src[keep], dst[keep], self.num_vertices)

    def relabel(self, new_of_old: np.ndarray) -> "CSRGraph":
        """Apply a vertex permutation: vertex ``v`` becomes ``new_of_old[v]``.

        Used by the partition-contiguous + VIP reordering (paper §4.1).
        """
        new_of_old = np.asarray(new_of_old, dtype=np.int64)
        if new_of_old.shape != (self.num_vertices,):
            raise ValueError("new_of_old must have one entry per vertex")
        if np.bincount(new_of_old, minlength=self.num_vertices).max(initial=1) != 1:
            raise ValueError("new_of_old must be a permutation")
        src, dst = self.edges()
        return CSRGraph.from_edges(new_of_old[src], new_of_old[dst], self.num_vertices)

    def induced_subgraph(self, vertices: np.ndarray) -> Tuple["CSRGraph", np.ndarray]:
        """Subgraph on ``vertices`` with local relabeling.

        Returns ``(subgraph, vertices)`` where subgraph vertex ``i``
        corresponds to global vertex ``vertices[i]``.
        """
        vertices = sorted_unique(np.asarray(vertices, dtype=np.int64))
        local_of_global = np.full(self.num_vertices, -1, dtype=np.int64)
        local_of_global[vertices] = np.arange(len(vertices))
        src, dst = self.edges()
        keep = (local_of_global[src] >= 0) & (local_of_global[dst] >= 0)
        sub = CSRGraph.from_edges(
            local_of_global[src[keep]], local_of_global[dst[keep]], len(vertices)
        )
        return sub, vertices

    # ------------------------------------------------------------------
    # Export / comparison
    # ------------------------------------------------------------------
    def edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return parallel (src, dst) arrays of all directed edges."""
        src = np.repeat(np.arange(self.num_vertices, dtype=np.int64), self.degrees)
        return src, self.indices.copy()

    def to_scipy(self, dtype=np.float64) -> sp.csr_matrix:
        """Pattern matrix with unit weights (rows = sources)."""
        data = np.ones(self.num_edges, dtype=dtype)
        return sp.csr_matrix(
            (data, self.indices, self.indptr),
            shape=(self.num_vertices, self.num_vertices),
        )

    def is_undirected(self) -> bool:
        """True if the adjacency pattern is symmetric (cached: the O(E)
        check runs once per graph — graphs are immutable)."""
        if self._is_undirected is None:
            # Parallel edges are counted: int64, as an int8 count of 256
            # copies wraps to 0 and passes for no edge at all.
            a = self.to_scipy(dtype=np.int64)
            self._is_undirected = bool((a != a.T).nnz == 0)
        return self._is_undirected

    def has_sorted_neighbors(self) -> bool:
        if self._is_sorted is None:
            if len(self.indices) <= 1:
                self._is_sorted = True
            else:
                # Boolean passes only: an int64 diff of the indices would
                # be an edge-sized transient eight times larger.
                ascending = self.indices[1:] > self.indices[:-1]
                starts = self.indptr[1:-1]  # first slot of each later list
                ascending[starts[(starts > 0)
                                 & (starts < len(self.indices))] - 1] = True
                self._is_sorted = bool(ascending.all())
        return self._is_sorted

    def __eq__(self, other) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (np.array_equal(self.indptr, other.indptr)
                and np.array_equal(self.indices, other.indices))

    def __hash__(self):
        return hash((self.num_vertices, self.num_edges,
                     self.indices[:16].tobytes() if self.num_edges else b""))

    def __repr__(self) -> str:
        return (f"CSRGraph(num_vertices={self.num_vertices}, "
                f"num_edges={self.num_edges}, avg_degree={self.avg_degree:.2f})")

    # ------------------------------------------------------------------
    def _validate(self) -> None:
        if self.indptr.ndim != 1 or len(self.indptr) < 1:
            raise ValueError("indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0:
            raise ValueError(f"indptr[0] must be 0, got {self.indptr[0]}")
        if self.indptr[-1] != len(self.indices):
            raise ValueError(
                f"indptr[-1] ({self.indptr[-1]}) must equal len(indices) ({len(self.indices)})"
            )
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if len(self.indices) and (
            self.indices.min() < 0 or self.indices.max() >= self.num_vertices
        ):
            raise ValueError("neighbor index out of range")
