"""METIS-like multilevel k-way graph partitioner.

The paper partitions OGB graphs with METIS using an edge-cut minimization
objective plus balancing constraints on the number of training, validation,
test, and overall vertices as well as edges per partition (§1, §4.1).  METIS
is unavailable here, so this module implements the same three-phase multilevel
scheme from scratch:

1. **Coarsening** — repeated randomized heavy-edge matching contracts the
   graph until it is small; contracted vertices carry summed multi-constraint
   weight vectors and contracted parallel edges carry summed edge weights.
2. **Initial partitioning** — greedy balanced growth on the coarsest graph,
   preferring the partition with the strongest edge connection among those
   with balance headroom.
3. **Uncoarsening with refinement** — the partition is projected back level
   by level; at each level a boundary Fiduccia–Mattheyses-style pass moves
   vertices with positive cut gain to their most connected feasible part,
   respecting every balance constraint.

Per level, the work is array operations over the level's edges.  Matching
draws its races over every edge but filters each round's eligible edges from
the last round's; contraction is one gather of the pairs' rows plus one
counting transpose (the adjacency is symmetric, so the transpose of the
coarse rows *is* the sorted coarse CSR); refinement builds one ``(n, k)``
table of per-part connection weights.  Per pass, refinement reads the
boundary, the gains and the ordered mover list off that table — vertices,
not edges — and after the moves updates only the rows next to a vertex that
moved.  Two loops stay in Python because every step depends on the one
before: greedy growth on the coarsest graph, and the application of a pass's
moves, where each move changes the part loads the next mover's balance
checks read.  The second is long — on papers-mini, K=8, the passes queue
252k movers and 28k of them move — so :func:`_apply_moves` does not step
through all of it: a mover that fails its checks keeps failing until some
move changes the loads, so one vectorised evaluation decides a whole stretch
of movers and the walk jumps to the first that can move.  A pass in which
every part is over its cap (the finest level's first: 58k boundary
vertices) cannot move anything and is not prepared at all.

The assignment and the generator's draw sequence are pinned bit for bit
against a verbatim copy of the original loops (``tests/partition/
reference_multilevel.py``).  An equally good cut would not do as the
contract: partition randomness alone moves communication volume by ±12 %.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, gt, lt, sub
from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.graph.csr import CSRGraph, row_positions
from repro.partition.interface import Partition
from repro.utils.rng import SeedLike, as_generator


@dataclass
class _Level:
    """One level of the coarsening hierarchy."""

    indptr: np.ndarray      # CSR over coarse vertices
    indices: np.ndarray
    edge_weights: np.ndarray
    vertex_weights: np.ndarray  # (n, C) multi-constraint weights
    fine_to_coarse: Optional[np.ndarray]  # map from previous level (None at finest)

    @property
    def num_vertices(self) -> int:
        return len(self.indptr) - 1


def metis_like_partition(
    graph: CSRGraph,
    num_parts: int,
    *,
    vertex_weights: Optional[np.ndarray] = None,
    balance_tolerance: float = 1.08,
    coarsen_until: Optional[int] = None,
    matching_rounds: int = 3,
    refine_passes: int = 4,
    seed: SeedLike = 0,
) -> Partition:
    """Partition ``graph`` into ``num_parts`` parts minimizing edge cut.

    Parameters
    ----------
    graph:
        Undirected graph: both directions of every edge, as many times each
        (:meth:`CSRGraph.is_undirected`).  Refinement's connection table
        and contraction's one transpose read an edge's weight from its
        reverse, so a directed graph is rejected with ``ValueError``.
    vertex_weights:
        ``(N, C)`` multi-constraint weights; every constraint column is kept
        within ``balance_tolerance`` of its ideal per-part share.  Defaults to
        unit weights (vertex-count balance only).  Callers reproducing the
        paper pass columns for total/train/val/test vertices; edge balance is
        added automatically as an extra column of vertex degrees.
    balance_tolerance:
        Maximum allowed ``part_weight / ideal_weight`` per constraint.
    coarsen_until:
        Stop coarsening below this many vertices.  The default
        ``max(128*k, n/8)`` stops early enough that community-scale structure
        survives contraction (aggressive coarsening merges across communities
        once supernodes approach community size, which permanently degrades
        the achievable cut).

    Returns
    -------
    Partition
    """
    n = graph.num_vertices
    if not graph.is_undirected():
        raise ValueError(
            "metis_like_partition needs an undirected graph (every edge stored "
            "in both directions); symmetrize it with graph.to_undirected()")
    if num_parts <= 0:
        raise ValueError(f"num_parts must be positive, got {num_parts}")
    if num_parts > max(n, 1):
        raise ValueError(f"cannot split {n} vertices into {num_parts} parts")
    if num_parts == 1 or n == 0:
        return Partition(np.zeros(n, dtype=np.int64), num_parts)
    if balance_tolerance < 1.0:
        raise ValueError(f"balance_tolerance must be >= 1, got {balance_tolerance}")

    rng = as_generator(seed)
    vw = _normalize_vertex_weights(graph, vertex_weights)
    if coarsen_until is None:
        coarsen_until = max(128 * num_parts, n // 8)

    levels = _coarsen(graph, vw, coarsen_until, matching_rounds, rng)
    coarsest = levels[-1]

    # Balance tolerances are relaxed at coarse levels (where single
    # supernodes carry large weight and a tight cap may be infeasible) and
    # tightened to the requested tolerance by level 0, as in METIS.
    def tol_at(level_idx: int) -> float:
        if len(levels) == 1:
            return balance_tolerance
        frac = level_idx / (len(levels) - 1)
        return balance_tolerance + 0.5 * frac

    part = _initial_partition(coarsest, num_parts, tol_at(len(levels) - 1), rng)
    part = _refine(coarsest, part, num_parts, tol_at(len(levels) - 1), refine_passes, rng)

    # Project back through the hierarchy, refining at every level.
    for level_idx in range(len(levels) - 2, -1, -1):
        fine = levels[level_idx]
        part = part[levels[level_idx + 1].fine_to_coarse]
        part = _refine(fine, part, num_parts, tol_at(level_idx), refine_passes, rng)

    return Partition(part.astype(np.int64), num_parts)


# ----------------------------------------------------------------------
# Phase 1: coarsening
# ----------------------------------------------------------------------

def _normalize_vertex_weights(graph: CSRGraph, vw: Optional[np.ndarray]) -> np.ndarray:
    if vw is None:
        out = np.ones((graph.num_vertices, 1), dtype=np.float64)
    else:
        out = np.asarray(vw, dtype=np.float64)
        if out.ndim == 1:
            out = out[:, None]
        if out.shape[0] != graph.num_vertices:
            raise ValueError(
                f"vertex_weights rows ({out.shape[0]}) != vertices ({graph.num_vertices})"
            )
        if not np.all(out >= 0):
            raise ValueError("vertex_weights must be non-negative (and not NaN)")
    # Edge balance as an extra constraint column (paper balances edges too).
    return np.column_stack([out, graph.degrees.astype(np.float64)])


def _coarsen(
    graph: CSRGraph,
    vertex_weights: np.ndarray,
    coarsen_until: int,
    matching_rounds: int,
    rng: np.random.Generator,
) -> List[_Level]:
    level = _Level(
        indptr=graph.indptr,
        indices=graph.indices,
        edge_weights=np.ones(graph.num_edges, dtype=np.float64),
        vertex_weights=vertex_weights,
        fine_to_coarse=None,
    )
    levels = [level]
    while level.num_vertices > coarsen_until:
        matched = _heavy_edge_matching(level, matching_rounds, rng)
        coarse, reduction = _contract(level, matched)
        if reduction > 0.95:  # matching stalled; further levels won't help
            break
        levels.append(coarse)
        level = coarse
    return levels


def _heavy_edge_matching(level: _Level, rounds: int,
                         rng: np.random.Generator) -> np.ndarray:
    """Randomized heavy-edge matching via weighted proposals + acceptance.

    Per round: every unmatched vertex proposes to one unmatched neighbor,
    sampled with probability proportional to edge weight (exponential race);
    each vertex accepts its highest-priority proposer; conflicts (a vertex in
    both an accepted pair and its own accepted proposal) are resolved Luby
    style by keeping pairs that hold the max random priority at both
    endpoints.  This matches a large constant fraction per round even on
    power-law graphs, where naive mutual-proposal matching herds onto hubs
    and stalls.
    """
    n = level.num_vertices
    indptr, indices, ew = level.indptr, level.indices, level.edge_weights
    mate = np.full(n, -1, dtype=np.int64)
    draw = np.empty(len(ew))
    # Eligible edges (both endpoints unmatched, not a self loop), ascending:
    # a proposer's eligible edges are one run of its CSR row.  Matched
    # vertices stay matched, so a later round keeps the runs of the still
    # unmatched proposers and, of those, the edges to unmatched targets.
    edge = np.flatnonzero(np.repeat(np.arange(n), np.diff(indptr)) != indices)

    for round_idx in range(rounds):
        unmatched = mate < 0
        if not unmatched.any():
            break
        if round_idx:
            still = unmatched[proposers]
            edge = edge[row_positions(run_start[still], run_len[still])]
            edge = edge[unmatched[indices[edge]]]
        # Exponential race: argmax of ew/Exp(1) samples a neighbor with
        # probability proportional to edge weight.  One draw per edge of the
        # level, eligible or not, so the stream does not depend on the set.
        rng.standard_exponential(out=draw)
        race, bound = ew[edge] / draw[edge], np.searchsorted(edge, indptr)
        if len(edge) == 0:  # checked after the draw: the stream must not shift
            break
        # Each proposer's run of eligible edges, from the CSR row bounds.
        run_len = np.diff(bound)
        proposers = np.flatnonzero(run_len)
        run_start, run_len = bound[proposers], run_len[proposers]
        run_max = np.maximum.reduceat(race, run_start)
        # A vertex proposes along the first edge attaining its run's max:
        # every run holds one, so the first at or after the run's start.
        hit = np.flatnonzero(race == np.repeat(run_max, run_len))
        hit = hit[np.searchsorted(hit, run_start)]
        targets = indices[edge[hit]]
        # Acceptance: each target keeps its max-priority proposer.
        prio = rng.random(n)
        max_prio = np.zeros(n)
        np.maximum.at(max_prio, targets, prio[proposers])
        accepted = prio[proposers] == max_prio[targets]
        pa, pb = proposers[accepted], targets[accepted]
        # Conflict resolution: a vertex may sit in two tentative pairs (as
        # proposer and as acceptor); keep pairs that are max-priority at both
        # endpoints.
        pair_prio = rng.random(len(pa))
        best = np.full(n, -1.0)
        np.maximum.at(best, pa, pair_prio)
        np.maximum.at(best, pb, pair_prio)
        keep = (pair_prio == best[pa]) & (pair_prio == best[pb])
        a, b = pa[keep], pb[keep]
        mate[a] = b
        mate[b] = a
    return mate


def _segment_sums(ids: np.ndarray, rows: np.ndarray, num: int) -> np.ndarray:
    """``out[ids[i]] += rows[i]`` for ``i`` ascending, into ``(num, C)`` zeros:
    one weighted ``bincount`` per column accumulates in that same order."""
    return np.column_stack([np.bincount(ids, weights=col, minlength=num)
                            for col in rows.T])


def _contract(level: _Level, mate: np.ndarray) -> Tuple[_Level, float]:
    """Contract matched pairs into coarse vertices; returns (level, n_c/n)."""
    n = level.num_vertices
    # Representative of each vertex: min(v, mate) for matched, self otherwise.
    rep = np.where(mate >= 0, np.minimum(np.arange(n), mate), np.arange(n))
    is_rep = rep == np.arange(n)
    coarse_of_rep = np.cumsum(is_rep) - 1
    fine_to_coarse = coarse_of_rep[rep]
    nc = int(is_rep.sum())

    cvw = _segment_sums(fine_to_coarse, level.vertex_weights, nc)

    # Contract edges by counting.  Each coarse vertex's fine rows, one after
    # the other, with their columns relabelled, are the coarse rows in some
    # column order; one counting transpose sorts them.  The adjacency is
    # symmetric, edge weights included, so that transpose *is* the coarse
    # CSR, columns ascending and parallel edges adjacent: ``sum_duplicates``
    # only merges.  Edge weights are integer-valued (ones at the finest
    # level, sums of them above), so every sum is exact in any order: the
    # arrays are ``==`` scipy's canonical COO -> CSR of the relabelled list.
    rows = sp.csr_matrix((level.edge_weights, level.indices, level.indptr),
                         shape=(n, n))[np.argsort(fine_to_coarse, kind="stable")]
    row_end = np.cumsum(np.bincount(fine_to_coarse, weights=np.diff(level.indptr),
                                    minlength=nc).astype(np.int64))
    adj = sp.csr_matrix((rows.data, fine_to_coarse[rows.indices], np.r_[0, row_end]),
                        shape=(nc, nc)).tocsc().T
    adj.sum_duplicates()
    # Drop the self loops (a pair's inner edges), now at most one per row.
    loop = np.flatnonzero(adj.indices == np.repeat(
        np.arange(nc, dtype=adj.indices.dtype), np.diff(adj.indptr)))
    loops_before = np.zeros(nc + 1, dtype=np.int64)
    loops_before[adj.indices[loop] + 1] = 1

    coarse = _Level(
        indptr=adj.indptr - np.cumsum(loops_before),
        indices=np.delete(adj.indices, loop).astype(np.int64),
        edge_weights=np.delete(adj.data, loop),
        vertex_weights=cvw,
        fine_to_coarse=fine_to_coarse,
    )
    return coarse, nc / max(n, 1)


# ----------------------------------------------------------------------
# Phase 2: initial partition of the coarsest graph
# ----------------------------------------------------------------------

def _initial_partition(
    level: _Level,
    k: int,
    tol: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Greedy graph growing (GGGP): grow each part breadth-first from a seed,
    always absorbing the unassigned vertex with the strongest connection to
    the growing region, until the part reaches its ideal share on any
    constraint.  Leftover vertices join the least-loaded part; refinement
    cleans up afterwards."""
    import heapq

    n = level.num_vertices
    vw = level.vertex_weights
    ideal = np.maximum(vw.sum(axis=0) / k, 1e-12)
    loads = np.zeros((k, vw.shape[1]), dtype=np.float64)
    part = np.full(n, -1, dtype=np.int64)
    indptr, indices, ew = level.indptr, level.indices, level.edge_weights
    conn = [0.0] * n  # connection to the current region

    unassigned_order = rng.permutation(n)
    cursor = 0

    for p in range(k - 1):
        # Seed: first unassigned vertex in random order.
        while cursor < n and part[unassigned_order[cursor]] >= 0:
            cursor += 1
        if cursor >= n:
            break
        seed = int(unassigned_order[cursor])
        heap = [(-1.0, seed)]
        conn[seed] = 1.0
        while heap and np.all(loads[p] < ideal):
            neg_c, v = heapq.heappop(heap)
            if part[v] >= 0 or -neg_c < conn[v]:
                continue  # stale entry
            part[v] = p
            loads[p] += vw[v]
            row = slice(indptr[v], indptr[v + 1])
            for u, w in zip(indices[row].tolist(), ew[row].tolist()):
                if part[u] < 0:
                    conn[u] += w
                    heapq.heappush(heap, (-conn[u], u))

    # Remaining vertices: the last part, unless it would blow past the cap,
    # in which case spill to the least-loaded (normalized) part.
    rest = np.flatnonzero(part < 0)
    cap, ideal0, loads_py = (tol * ideal).tolist(), float(ideal[0]), loads.tolist()
    for v, w in zip(rest.tolist(), vw[rest].tolist()):
        p = k - 1
        if any(map(gt, map(add, loads_py[p], w), cap)):
            p = min(range(k), key=lambda q: loads_py[q][0] / ideal0)
        part[v] = p
        loads_py[p] = list(map(add, loads_py[p], w))
    return part


# ----------------------------------------------------------------------
# Phase 3: boundary FM refinement
# ----------------------------------------------------------------------

def _refine(
    level: _Level,
    part: np.ndarray,
    k: int,
    tol: float,
    passes: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Boundary refinement: move positive-gain vertices to their most
    connected part while all balance constraints stay within tolerance.

    Vertices in over-cap parts are also moved (to the best *feasible* part)
    regardless of gain sign — this doubles as the balance-repair step after
    projection from a coarser level, where supernode granularity may have
    left parts outside tolerance.
    """
    part = part.copy()
    n = level.num_vertices
    vw = level.vertex_weights
    ideal = np.maximum(vw.sum(axis=0) / k, 1e-12)
    cap = tol * ideal
    over_cap = cap * (1 + 1e-9)
    floor = max(2.0 - tol, 0.25) * ideal  # keep source parts from draining
    loads = _segment_sums(part, vw, k)
    # conn[v, p]: weight of v's edges into part p, kept current across the
    # passes.  A vertex is on the boundary when it has weight outside its
    # own part: edge weights are positive, so when its row total exceeds
    # its own-part entry.  Weights are integer-valued, so the table holds
    # the same exact sums a per-pass recount would.
    conn = sp.csr_matrix((level.edge_weights, part[level.indices], level.indptr),
                         shape=(n, k)).toarray()
    total = conn.sum(axis=1)
    first_of_row = np.arange(0, n * k, k)

    for pass_idx in range(passes):
        # A part over cap on some constraint takes no mover (weights are
        # non-negative), so when every part is, no mover can move.
        if (loads > cap).any(axis=1).all():
            break
        own = conn.ravel()[first_of_row + part]
        boundary = np.flatnonzero(total > own)
        if len(boundary) == 0:
            break
        own_part = part[boundary]
        gains = conn[boundary]
        gains -= own[boundary][:, None]
        gains.ravel()[first_of_row[:len(boundary)] + own_part] = -np.inf
        best_gain = gains.max(axis=1)

        src_over = np.any(loads > over_cap, axis=1)[own_part]
        movers = np.flatnonzero((best_gain > 1e-12) | src_over)
        if len(movers) == 0:
            break
        # Apply in descending-gain order; gains are not recomputed within the
        # pass (standard one-sided FM approximation), so only strictly
        # positive moves are taken for balanced sources and the outer loop
        # re-evaluates.
        order = movers[np.argsort(-best_gain[movers], kind="stable")]
        vertex, gain, cur = boundary[order], gains[order], own_part[order]
        loads, moved = _apply_moves(
            part, loads, cap, over_cap, floor, vertex=vertex, cur=cur,
            weight=vw[vertex], gainful=gain > 1e-12,
            targets=np.argsort(-gain, axis=1, kind="stable"))
        if moved == 0:
            break
        if pass_idx + 1 < passes:
            _move_connections(conn, level, vertex, cur, part)
    return part


def _move_connections(conn: np.ndarray, level: _Level, vertex: np.ndarray,
                      old: np.ndarray, part: np.ndarray) -> None:
    """Update ``conn`` for the movers in ``vertex`` whose part left ``old``.

    The adjacency is symmetric, so a moved ``v``'s edge ``(v, u, w)`` stands
    for ``u``'s edge to ``v``: ``conn[u, old] -= w`` and ``conn[u, new] += w``.
    Only rows next to a moved vertex change; the sums stay exact."""
    n, k = conn.shape
    moved = part[vertex] != old
    v = vertex[moved]
    degree = np.diff(level.indptr)[v]
    pos = row_positions(level.indptr[v], degree)
    row = level.indices[pos] * k
    w = level.edge_weights[pos]
    delta = (np.bincount(row + np.repeat(part[v], degree), weights=w,
                         minlength=n * k)
             - np.bincount(row + np.repeat(old[moved], degree), weights=w,
                           minlength=n * k))
    conn += delta.reshape(n, k)


_STUCK_RUN = 24     # consecutive no-op visits before the move walk rescans
_MAX_WINDOW = 8192  # most movers per scan: (window, k, C) temporaries stay MBs


def _apply_moves(part, loads, cap, over_cap, floor, *, vertex, cur, weight,
                 targets, gainful) -> Tuple[np.ndarray, int]:
    """Walk the pass's movers in order, moving each to the first part of its
    descending-gain ``targets`` row that stays within ``cap`` on every
    constraint.  A source within ``over_cap`` tries only its ``gainful``
    (strictly positive gain) targets and must stay above ``floor``; an
    over-cap source tries every other part, at a loss if need be.

    Whether a mover moves depends only on the current loads, so a run of
    movers that fail under loads that no move has changed can be decided in
    one vectorised evaluation: the walk starts at, and after ``_STUCK_RUN``
    consecutive no-ops jumps to, the next mover that evaluation finds.
    Mutates ``part``; returns ``(loads, moves applied)``.
    """
    k, num = len(loads), len(vertex)
    loads_py, cap_py, over_py, floor_py = (
        a.tolist() for a in (loads, cap, over_cap, floor))
    num_gainful = gainful.sum(axis=1)
    # Constraint-major and part-major copies for the scan: its innermost
    # axis is the window of movers, not a handful of constraints or parts.
    weight_t = np.ascontiguousarray(weight.T)             # (C, num)
    gainful_t = np.ascontiguousarray(gainful.T)           # (k, num)
    others_t = np.arange(k)[:, None] != cur               # (k, num)
    cap_t, floor_t = cap[:, None, None], floor[:, None]

    def next_mover(lo: int) -> int:
        """First position ``>= lo`` that moves under the current loads."""
        now = np.array(loads_py)
        now_t = np.ascontiguousarray(now.T)               # (C, k)
        over_part = (now > over_cap).any(axis=1)
        width = 64
        while lo < num:
            sl = slice(lo, lo + width)
            w, lcur, over = weight_t[:, sl], now_t[:, cur[sl]], over_part[cur[sl]]
            blocked = np.logical_or.reduce(
                now_t[:, :, None] + w[:, None, :] > cap_t, axis=0)   # (part, mover)
            ok = (np.where(over, others_t[:, sl], gainful_t[:, sl])
                  & ~blocked).any(axis=0)
            ok &= over | ~np.logical_or.reduce(
                lcur - w < np.minimum(floor_t, lcur), axis=0)
            if ok.any():
                return lo + int(ok.argmax())
            lo, width = lo + width, min(4 * width, _MAX_WINDOW)
        return num

    moved = stuck = 0
    j = next_mover(0)
    while j < num:
        c = int(cur[j])
        lcur, w = loads_py[c], weight[j].tolist()
        if any(map(gt, lcur, over_py)):
            tries = k - 1
        elif any(map(lt, map(sub, lcur, w), map(min, floor_py, lcur))):
            tries = 0
        else:
            tries = num_gainful[j]
        for t in targets[j, :tries].tolist():
            if not any(map(gt, map(add, loads_py[t], w), cap_py)):
                part[vertex[j]] = t
                loads_py[t] = list(map(add, loads_py[t], w))
                loads_py[c] = list(map(sub, lcur, w))
                moved += 1
                stuck = 0
                break
        else:
            stuck += 1
            if stuck == _STUCK_RUN:
                j, stuck = next_mover(j + 1) - 1, 0
        j += 1
    return np.array(loads_py), moved
