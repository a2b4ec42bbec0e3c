"""VIP scores on a live graph (:class:`VIPTracker`), and the incremental
refresh wave (dirty-frontier recursion).

A live system scores ``vip-refresh`` through :class:`VIPTracker` only, and
the tracker scores each consumer it must rescore with one full evaluation
on the graph as sampled, as the paper evaluates Proposition 1 once per seed
distribution (§3.2).  Measured,
the wave below never paid on a live path: a training phase boundary trips
its churn gate every time, and on the serving churn rung the full
evaluation is cheaper.  The wave (:func:`snapshot_vip`,
:func:`incremental_vip`) has no caller under ``src/``; it stays only
because the end-to-end benchmark's streaming layer and the perf harness
still call it.

:func:`repro.vip.analytic.vip_probabilities` evaluates Proposition 1 from
scratch: every hop touches every row the recursion's support reaches.  When
the *graph* changes by a small edge-churn batch, almost all of that work
reproduces values the previous evaluation already holds, bit for bit — the
per-row hop value

    p[h](u) = 1 - prod_{v in row(u)} (1 - t(v) * p[h-1](v))

depends only on (a) row ``u``'s neighbor list, (b) the per-source transition
factor ``t(v) = min(1, f / d(v))``, and (c) ``p[h-1]`` at the row's sources.
All three are local: a mutation batch perturbs them on an O(churn)-sized set
of vertices, and the perturbation propagates per hop only into rows that
*contain* a perturbed source.

:func:`incremental_vip` exploits this.  Against a :class:`VIPSnapshot` of a
previous evaluation it recomputes, per hop, only

    R_h  =  D  ∪  in(T)  ∪  in(C_{h-1})

where ``D`` is the graph's exact dirty frontier since the snapshot (rows
whose content changed — :meth:`repro.graph.mutable.MutableGraph.
dirty_frontier`), ``T`` the rows whose degree (hence transition factor)
changed, ``C_{h-1}`` the rows whose hop-``h-1`` value actually changed, and
``in(S)`` the rows of the *current* graph containing a member of ``S``.
``C_h`` is then filtered **bitwise**: a recomputed row whose value came out
identical does not propagate.  This confines the wave to the churn's
expansion support — mutations far from the seed distribution's reach never
propagate at all.

Bit-identity
------------
The result is bit-identical to a full :func:`vip_probabilities` run on the
materialized (compacted) graph: a recomputed row is one more row set handed
to the same kernel (:func:`repro.vip.analytic.hop_values` over the rows'
0/1 operator, :func:`repro.vip.analytic.row_set`), and every skipped scalar
is carried over from a previous evaluation of that kernel:

* effective overlay rows are sorted and duplicate-free exactly like
  compacted CSR rows, and the kernel sums each row left to right from
  ``+0.0`` in stored order, so a recomputed row sees the same operands in
  the same order as the full evaluation's row — whichever other rows
  share its product;
* transition factors are patched per dirty row with the one formula
  (:func:`repro.vip.analytic.vertex_transition_values`; the snapshot
  carries the per-fanout vertex arrays forward — the "invalidate only
  dirty rows of the transition table" rule);
* equation (2)'s accumulator is replayed in hop order for exactly the
  rows where some hop value changed.

The hypothesis differential suites (``tests/streaming/``,
``tests/vip/test_active_set.py``) assert equality with the production full
evaluation with ``==`` per element across random churn on undirected
graphs and ``-1`` fanouts, and hold that evaluation to the frozen dense
oracle ``tests/vip/reference_dense.py`` within the summation-order bound.

Past a churn cutoff (touched edge volume so far, plus the current hop's
volume for each hop still to come, as a fraction of the dense sweep's
total ``num_hops * num_edges``) the wave is no longer cheaper than a sweep
and the refresh falls back to the full evaluation on the materialized
graph (a fresh :func:`snapshot_vip`) — same output, full cost, decided
before the hop that trips is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.graph.mutable import MutableGraph, id_union
from repro.utils.validation import check_probability_vector
from repro.vip.analytic import (VIPResult, _normalize_fanout, _one_minus_exp,
                                accumulate_total, hop_values, row_set,
                                vertex_transition_values, vip_probabilities)

#: Default fraction of the dense sweep's total edge volume
#: (``num_hops * num_edges``) a refresh may touch, cumulatively across hops
#: and projected over the hops still to come, before it falls back to a
#: full recompute on the materialized graph.  The incremental path's
#: per-edge cost is close to the dense sweep's, and the dense path
#: additionally pays a CSR rebuild, so the crossover sits well past half
#: the sweep volume; 0.5 is conservative.
CHURN_CUTOFF = 0.5

_EMPTY = np.empty(0, dtype=np.int64)


@dataclass
class RefreshStats:
    """What one :func:`incremental_vip` call actually did."""

    mode: str  #: ``"incremental"``, ``"full"`` (cutoff fallback), or ``"noop"``
    dirty_rows: int = 0  #: |D| — rows whose content changed since the snapshot
    rows_recomputed: int = 0  #: Σ_h |R_h|
    edges_touched: int = 0  #: Σ_h (edge volume of R_h)
    rows_changed: int = 0  #: Σ_h |C_h| — recomputed rows whose value changed


@dataclass
class VIPSnapshot:
    """One consumer's view of a VIP evaluation on a streaming graph.

    Pins the graph :attr:`version` the evaluation saw together with
    everything the next refresh needs to be O(churn): the full
    :class:`~repro.vip.analytic.VIPResult` (hopwise values are the
    recursion state) and the per-fanout vertex-transition arrays (the
    consumer's slice of the transition table, patched — not recomputed —
    on refresh).  Snapshots are independent: any number of them can be
    held on the same graph at different versions.
    """

    version: int
    initial: np.ndarray
    fanouts: Tuple[int, ...]
    result: VIPResult
    vertex_transitions: Dict[int, np.ndarray]
    stats: RefreshStats = field(
        default_factory=lambda: RefreshStats(mode="full"))

    @property
    def access(self) -> np.ndarray:
        return self.result.access


def _capture_transitions(mgraph: MutableGraph,
                         fanouts: Sequence[int]) -> Dict[int, np.ndarray]:
    degrees = mgraph.degrees
    out: Dict[int, np.ndarray] = {}
    for fanout in fanouts:
        key = _normalize_fanout(fanout)
        if key not in out:
            out[key] = vertex_transition_values(key, degrees)
    return out


def _checked_initial(initial, n: int) -> np.ndarray:
    """``initial`` checked and clipped as :func:`vip_probabilities` checks
    it; a snapshot or refresh scores one distribution, a 1-D vector."""
    p0 = check_probability_vector(initial, "initial")
    if p0.shape != (n,):
        raise ValueError(f"initial must have one probability per vertex "
                         f"({n}), got shape {p0.shape}")
    return p0


def snapshot_vip(
    mgraph: MutableGraph,
    initial: np.ndarray,
    fanouts: Sequence[int],
) -> VIPSnapshot:
    """Full Proposition-1 evaluation on the materialized graph, captured as
    the baseline :class:`VIPSnapshot` for later incremental refreshes."""
    given = np.asarray(initial, dtype=np.float64)
    p0 = _checked_initial(given, mgraph.num_vertices)
    return VIPSnapshot(
        version=mgraph.version, initial=p0,
        fanouts=tuple(int(f) for f in fanouts),
        result=vip_probabilities(mgraph.materialize(), given, fanouts),
        vertex_transitions=_capture_transitions(mgraph, fanouts))


def _patch_transitions(snapshot: VIPSnapshot, mgraph: MutableGraph,
                       stale_rows: np.ndarray) -> Dict[int, np.ndarray]:
    """Dirty-row invalidation of the snapshot's transition-table slice:
    only entries whose degree changed are recomputed; everything else is
    carried forward bit-for-bit."""
    degrees = mgraph.degrees[stale_rows]
    out: Dict[int, np.ndarray] = {}
    for key, tv in snapshot.vertex_transitions.items():
        if len(stale_rows):
            tv = tv.copy()
            tv[stale_rows] = vertex_transition_values(key, degrees)
        out[key] = tv
    return out


def incremental_vip(
    mgraph: MutableGraph,
    snapshot: VIPSnapshot,
    initial: Optional[np.ndarray] = None,
    *,
    churn_cutoff: float = CHURN_CUTOFF,
) -> VIPSnapshot:
    """Refresh a VIP evaluation after graph churn, touching O(churn) rows.

    Parameters
    ----------
    mgraph:
        The streaming graph; must be the one ``snapshot`` was taken on.
    snapshot:
        The consumer's previous evaluation (:func:`snapshot_vip` or a
        previous refresh).
    initial:
        New ``p[0]``; defaults to the snapshot's.  Seed-distribution drift
        is handled the same way graph churn is — rows whose ``p[0]``
        changed seed the hop-1 wave — so one call refreshes a window in
        which both the graph and the hot set moved.  Checked
        and clipped exactly as :func:`vip_probabilities` checks it.
    churn_cutoff:
        Fraction of the dense sweep's total edge volume
        (``num_hops * num_edges``) the refresh may touch, cumulatively
        across hops and projected over the hops still to come, before
        falling back to the full evaluation (``0`` forces full, ``1``
        never falls back).

    Returns
    -------
    VIPSnapshot
        The refreshed snapshot; ``.result`` is **bit-identical** to
        ``vip_probabilities(mgraph.materialize(), initial, fanouts)`` and
        ``.stats`` records which path ran and how much it touched.
    """
    if initial is None:
        initial = snapshot.result.initial
    if not 0.0 <= churn_cutoff <= 1.0:
        raise ValueError(f"churn_cutoff must be in [0, 1], got {churn_cutoff}")
    n = mgraph.num_vertices
    m = max(mgraph.num_edges, 1)
    fanouts = snapshot.fanouts
    p0 = _checked_initial(initial, n)
    # What vip_probabilities reports as ``initial`` (and ``access`` reads):
    # the vector as given; the recursion runs on the clipped ``p0``.
    given = np.asarray(initial, dtype=np.float64)

    # Both dirty sets (changed rows, changed degrees) from one log walk.
    dirty, deg_changed = mgraph._dirty(snapshot.version)
    p0_old = snapshot.initial
    seed_changed = np.flatnonzero(p0 != p0_old)
    stats = RefreshStats(mode="incremental", dirty_rows=len(dirty))

    vtrans = _patch_transitions(snapshot, mgraph, deg_changed)
    if not len(dirty) and not len(seed_changed):
        # Nothing observable changed (mutations cancelled out, same seeds):
        # the previous result is already the answer.
        stats.mode = "noop"
        return VIPSnapshot(
            version=mgraph.version, initial=p0, fanouts=fanouts,
            result=VIPResult(total=snapshot.result.total,
                             hopwise=list(snapshot.result.hopwise),
                             initial=given),
            vertex_transitions=vtrans, stats=stats)

    hop_arrays: List[np.ndarray] = []
    changed_union = _EMPTY
    changed_prev = seed_changed
    p_prev = p0
    old_prev = p0_old
    for h, fanout in enumerate(fanouts):
        # Dirty rows are recomputed at every hop: their source list
        # changed, and an added or removed source may be live at any hop
        # (a dead one adds an exact +0.0, so the row comes out identical
        # and the bitwise filter stops it).  Transition-stale vertices are
        # different — the rows containing them kept their sources, and a
        # source with p = 0 contributes 1 - t·0 = 1.0 → log = +0.0 under
        # the old and new factor alike — so they only need recomputing
        # where the source is live under either hop array.  That filter is
        # what keeps hub-degree churn far from the seed distribution's
        # reach cheap.
        if len(deg_changed):
            t_active = deg_changed[(p_prev[deg_changed] != 0.0)
                                   | (old_prev[deg_changed] != 0.0)]
        else:
            t_active = deg_changed
        rows = id_union(n, dirty, mgraph.in_rows_union(t_active),
                        mgraph.in_rows_union(changed_prev))
        old_h = snapshot.result.hopwise[h]
        if not len(rows):
            hop_arrays.append(old_h)
            changed_prev = _EMPTY
            p_prev = old_h
            old_prev = old_h
            continue
        hop_volume = int(mgraph.degrees[rows].sum())
        stats.rows_recomputed += len(rows)
        stats.edges_touched += hop_volume
        # Cumulative gate against the dense sweep's total volume, taken
        # before the hop's rows are read and projected over the hops still
        # to come at this hop's volume each, so a refresh that will end
        # full does not compute hops first (a training-set swap moves p[0]
        # on every seed, and its hop 1 alone predicts the trip).  Per-hop
        # volume is bounded by m, so cutoff 1.0 can never trip and 0.0
        # trips on the first touched edge.
        remaining = len(fanouts) - h - 1
        if (stats.edges_touched + remaining * hop_volume
                > churn_cutoff * (len(fanouts) * m)):
            stats.mode = "full"
            refreshed = snapshot_vip(mgraph, initial, fanouts)
            refreshed.stats = stats
            return refreshed
        # Row set: R_h, read through the overlay.
        values = hop_values(vtrans[_normalize_fanout(fanout)], p_prev,
                            row_set(mgraph, rows),
                            active=np.flatnonzero(p_prev))
        # Bitwise filter: only rows whose value actually moved propagate.
        moved = values != old_h[rows]
        changed = rows[moved]
        stats.rows_changed += len(changed)
        if len(changed):
            # Always copy: old_h must stay pristine (it is next hop's
            # old_prev in the activity filter).
            new_h = old_h.copy()
            new_h[changed] = values[moved]
            hop_arrays.append(new_h)
            changed_union = id_union(n, changed_union, changed)
        else:
            hop_arrays.append(old_h)
        changed_prev = changed
        p_prev = hop_arrays[-1]
        old_prev = old_h

    # Equation (2): replay the hop-ordered log accumulation on exactly the
    # rows where some hop value changed; all other totals carry over.
    total = snapshot.result.total
    if len(changed_union):
        total = total.copy()
        acc = np.zeros(len(changed_union), dtype=np.float64)
        for p_h in hop_arrays:
            accumulate_total(acc, p_h[changed_union])
        total[changed_union] = _one_minus_exp(acc)

    return VIPSnapshot(
        version=mgraph.version, initial=p0, fanouts=fanouts,
        result=VIPResult(total=total, hopwise=hop_arrays, initial=given),
        vertex_transitions=vtrans, stats=stats)


class _Scored:
    """One consumer's scores and what they were computed at: the graph,
    its version and ``p[0]`` — kept as its support and values, since a
    ``p[0]`` is a training set's or a hot set's, a small part of N."""

    def __init__(self, graph, p0: np.ndarray, access: np.ndarray):
        self.graph, self.version, self.access = graph, graph.version, access
        # Through a mask: flatnonzero of a float64 vector is ~10x slower.
        self.support = np.flatnonzero(p0 != 0.0)
        self.values = p0[self.support]

    def matches(self, graph, p0: np.ndarray) -> bool:
        if self.graph is not graph or self.version != graph.version:
            return False
        support = np.flatnonzero(p0 != 0.0)
        return (np.array_equal(support, self.support)
                and np.array_equal(p0[support], self.values))


class VIPTracker:
    """Proposition-1 access scores on the graph a live system samples —
    the one refresh path behind every ``vip-refresh`` score provider (a
    provider builds its consumers' ``p[0]`` and asks :meth:`access`).

    One call scores a *round*: every consumer named in it.  A consumer of
    the previous round whose graph version and ``p[0]`` both ``==`` the
    ones it was scored at gets its stored scores back (O(N)), so the K
    providers of one refresh round can each ask for all K consumers and
    only the first call computes.  Each of the rest is one
    :func:`vip_probabilities` of its ``p0`` on the graph as sampled (a
    ``CSRGraph`` as it is, a :class:`MutableGraph` read through its
    overlay, never materialized), ``.access``.
    """

    def __init__(self, graph, fanouts: Sequence[int]):
        #: The graph scored.  Whoever lands a batch re-points it at the
        #: overlay; a tracker left untold keeps scoring the graph it has.
        self.graph = graph
        self.fanouts = tuple(int(f) for f in fanouts)
        # The last round's consumers and what they were scored at.
        self._scored: Dict[object, _Scored] = {}

    def access(self, p0s: Mapping[object, np.ndarray]
               ) -> Dict[object, np.ndarray]:
        """Per-vertex access probability under each consumer's ``p0``
        (``{consumer: p0}`` in, ``{consumer: access}`` out, same order)."""
        graph = self.graph
        computed = False
        kept: Dict[object, _Scored] = {}
        for consumer, p0 in p0s.items():
            p0 = np.asarray(p0, dtype=np.float64)
            last = self._scored.get(consumer)
            if last is not None and last.matches(graph, p0):
                kept[consumer] = last
                continue
            access = vip_probabilities(graph, p0, self.fanouts).access
            access.flags.writeable = False  # handed out again on a hit
            kept[consumer] = _Scored(graph, p0, access)
            computed = True
        if computed:
            # Only this round's consumers are kept: a round's later calls
            # ask for the same ones, and a serving tracker, asked for one
            # machine at a time, holds one machine's scores, not K.
            self._scored = kept
        return {consumer: kept[consumer].access for consumer in p0s}
