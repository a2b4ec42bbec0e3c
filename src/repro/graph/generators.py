"""Synthetic graph and workload generators.

The paper evaluates on OGB graphs (ogbn-products, ogbn-papers100M,
lsc-mag240) which are unavailable offline at full scale; the generators here
produce scaled-down graphs that preserve the two properties VIP analysis and
edge-cut partitioning are sensitive to:

* **Skewed (power-law) degree distributions** — drive both the benefit of
  frequency-based caching and the degree-policy baseline of Figure 2.
* **Community structure** — gives METIS-style partitioners a meaningful
  edge-cut to find, which in turn makes the local/remote vertex split (and
  hence communication volume) realistic.

Beyond graphs, this module also generates *non-stationary workloads* for
the dynamic-cache experiments: :func:`drifting_training_sets` (the active
training set migrates across graph communities between epochs) and
:func:`streaming_request_stream` (online-inference request batches whose
popularity hot set shifts over time).  Both produce workloads where the
build-time static VIP cache goes stale and adaptive policies pay off.

All generators take a seed / :class:`numpy.random.Generator` and are fully
vectorized (no per-vertex Python loops).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, sorted_unique
from repro.utils.rng import SeedLike, as_generator


def erdos_renyi(num_vertices: int, avg_degree: float, seed: SeedLike = None) -> CSRGraph:
    """G(n, m) random graph with ``m = n * avg_degree / 2`` undirected edges."""
    rng = as_generator(seed)
    n = int(num_vertices)
    m = int(round(n * avg_degree / 2))
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = rng.integers(0, n, size=m, dtype=np.int64)
    keep = src != dst
    return CSRGraph.from_edges(src[keep], dst[keep], n, dedup=True).to_undirected()


def pareto_degree_weights(
    num_vertices: int,
    avg_degree: float,
    power: float = 2.5,
    seed: SeedLike = None,
) -> np.ndarray:
    """Expected-degree weights following a Pareto (power-law) distribution.

    ``power`` is the exponent of the degree distribution tail; 2-3 matches
    citation and co-purchase networks.  The returned weights are scaled so
    their mean equals ``avg_degree``.
    """
    if power <= 1.0:
        raise ValueError(f"power must be > 1 for a finite mean, got {power}")
    rng = as_generator(seed)
    w = rng.pareto(power - 1.0, size=num_vertices) + 1.0
    # Clip the extreme tail so a single vertex cannot swallow a large fraction
    # of all edges at small n (keeps expected degrees realizable).
    w = np.minimum(w, num_vertices ** 0.5)
    return w * (avg_degree / w.mean())


def _draw_from_cdf(cdf: np.ndarray, rng: np.random.Generator, size: int) -> np.ndarray:
    """``np.searchsorted(cdf, rng.random(size), side="right")``, with the
    queries searched in ascending order and scattered back: a sorted query
    stream walks ``cdf`` front to back instead of jumping across it, and
    every query still gets its own index."""
    draws = rng.random(size)
    order = np.argsort(draws)
    out = np.empty(size, dtype=np.int64)
    out[order] = np.searchsorted(cdf, draws[order], side="right")
    return out


def chung_lu(
    weights: np.ndarray,
    seed: SeedLike = None,
    *,
    num_edges: Optional[int] = None,
) -> CSRGraph:
    """Chung–Lu random graph: edge endpoints drawn proportional to weights.

    Produces an undirected simple graph whose expected degrees approximate
    ``weights``.  This is the vectorized stand-in for preferential-attachment
    growth (same degree-law, O(M) generation).
    """
    rng = as_generator(seed)
    w = np.asarray(weights, dtype=np.float64)
    n = len(w)
    m = int(round(w.sum() / 2)) if num_edges is None else int(num_edges)
    p = w / w.sum()
    cdf = np.cumsum(p)
    src = _draw_from_cdf(cdf, rng, m)
    dst = _draw_from_cdf(cdf, rng, m)
    keep = src != dst
    return CSRGraph.from_edges(src[keep], dst[keep], n, dedup=True).to_undirected()


def power_law_community_graph(
    num_vertices: int,
    avg_degree: float,
    num_communities: int = 64,
    intra_fraction: float = 0.9,
    power: float = 2.5,
    seed: SeedLike = None,
) -> Tuple[CSRGraph, np.ndarray]:
    """The OGB stand-in: power-law degrees + planted community structure.

    Vertices are assigned to ``num_communities`` communities with log-normal
    size skew; ``intra_fraction`` of edges stay within a community (endpoints
    drawn Chung-Lu-style, proportional to per-vertex weights), the rest
    connect arbitrary vertices.  Returns ``(graph, community_of_vertex)``.

    With ``intra_fraction`` around 0.9 a k-way edge-cut partitioner recovers a
    cut comparable (relatively) to METIS on the real OGB graphs, which is what
    makes the downstream communication-volume experiments meaningful.
    """
    if not 0.0 <= intra_fraction <= 1.0:
        raise ValueError(f"intra_fraction must be in [0, 1], got {intra_fraction}")
    rng = as_generator(seed)
    n = int(num_vertices)
    C = int(num_communities)

    # Log-normal community sizes, at least 2 vertices each.
    raw = rng.lognormal(mean=0.0, sigma=0.75, size=C)
    sizes = np.maximum((raw / raw.sum() * n).astype(np.int64), 2)
    while sizes.sum() != n:  # fix rounding drift
        delta = n - int(sizes.sum())
        idx = rng.integers(0, C)
        if sizes[idx] + np.sign(delta) >= 2:
            sizes[idx] += np.sign(delta)
    community = rng.permutation(np.repeat(np.arange(C, dtype=np.int64), sizes))

    w = pareto_degree_weights(n, avg_degree, power=power, seed=rng)
    total_edges = int(round(n * avg_degree / 2))
    m_intra = int(round(total_edges * intra_fraction))
    m_inter = total_edges - m_intra

    # Allocate intra-community edges proportional to community weight mass.
    comm_weight = np.bincount(community, weights=w, minlength=C)
    alloc = rng.multinomial(m_intra, comm_weight / comm_weight.sum())

    members_of = [np.flatnonzero(community == c0) for c0 in range(C)]
    src_parts, dst_parts = [], []
    for c0 in range(C):
        m_c, members = int(alloc[c0]), members_of[c0]
        if m_c == 0 or len(members) < 2:
            continue
        pw = w[members]
        cdf = np.cumsum(pw / pw.sum())
        s = members[_draw_from_cdf(cdf, rng, m_c)]
        d = members[_draw_from_cdf(cdf, rng, m_c)]
        src_parts.append(s)
        dst_parts.append(d)

    if m_inter > 0:
        cdf = np.cumsum(w / w.sum())
        src_parts.append(_draw_from_cdf(cdf, rng, m_inter))
        dst_parts.append(_draw_from_cdf(cdf, rng, m_inter))

    src = np.concatenate(src_parts) if src_parts else np.empty(0, dtype=np.int64)
    dst = np.concatenate(dst_parts) if dst_parts else np.empty(0, dtype=np.int64)
    keep = src != dst
    g = CSRGraph.from_edges(src[keep], dst[keep], n, dedup=True).to_undirected()
    return g, community


# ----------------------------------------------------------------------
# Non-stationary workload generators (dynamic-cache experiments).


def drifting_training_sets(
    train_pool: np.ndarray,
    community: np.ndarray,
    num_phases: int,
    *,
    active_fraction: float = 0.4,
    window_fraction: float = 0.3,
    background_fraction: float = 0.2,
    seed: SeedLike = None,
) -> List[np.ndarray]:
    """Training sets that migrate across graph communities between phases.

    Phase ``t`` activates ``active_fraction`` of the training pool, drawn
    mostly from a sliding window of ``window_fraction`` of the communities
    (the window rotates one full circle over the phases, wrapping around)
    plus a ``background_fraction`` share sampled uniformly from the whole
    pool.  The windowed part makes the *neighborhood-expansion* hot set
    move through the graph — exactly the drift that stales a build-time VIP
    cache — while the uniform background keeps every partition of a
    community-aware partitioner supplied with seeds, so the bulk-synchronous
    trainer never starves.

    Parameters
    ----------
    train_pool:
        Candidate training vertex ids (e.g. ``dataset.train_idx``, in
        whatever vertex numbering the consumer uses).
    community:
        Per-vertex community labels aligned with that numbering
        (``dataset.community``).
    num_phases:
        Number of training sets to generate (typically one per epoch).

    Returns
    -------
    list of ``num_phases`` sorted id arrays (phases may overlap).
    """
    if not 0.0 < active_fraction <= 1.0:
        raise ValueError(f"active_fraction must be in (0, 1], got {active_fraction}")
    if not 0.0 < window_fraction <= 1.0:
        raise ValueError(f"window_fraction must be in (0, 1], got {window_fraction}")
    if not 0.0 <= background_fraction <= 1.0:
        raise ValueError(
            f"background_fraction must be in [0, 1], got {background_fraction}"
        )
    rng = as_generator(seed)
    pool = np.asarray(train_pool, dtype=np.int64)
    comm = np.asarray(community)[pool]
    comm_ids = sorted_unique(comm)
    C = len(comm_ids)
    win = max(1, int(round(window_fraction * C)))
    size = max(1, int(round(active_fraction * len(pool))))
    n_bg = int(round(background_fraction * size))

    phases = []
    for t in range(num_phases):
        start = int(round(t * C / max(num_phases, 1))) % C
        window = comm_ids[(np.arange(win) + start) % C]
        in_window = np.isin(comm, window)
        windowed = pool[in_window]
        n_win = min(size - n_bg, len(windowed))
        chosen = rng.choice(windowed, size=n_win, replace=False) if n_win else \
            np.empty(0, dtype=np.int64)
        # Uniform background (plus top-up if the window ran short).
        rest = pool[~np.isin(pool, chosen)]
        n_rest = min(size - n_win, len(rest))
        if n_rest:
            chosen = np.concatenate([chosen, rng.choice(rest, size=n_rest,
                                                        replace=False)])
        phases.append(np.sort(chosen))
    return phases


def streaming_request_stream(
    candidate_ids: np.ndarray,
    num_batches: int,
    batch_size: int,
    *,
    hot_fraction: float = 0.05,
    hot_mass: float = 0.8,
    drift_interval: int = 50,
    seed: SeedLike = None,
) -> Iterator[np.ndarray]:
    """Online-inference request batches with a drifting popularity hot set.

    Each batch draws ``batch_size`` distinct seed vertices from
    ``candidate_ids``: with probability mass ``hot_mass`` from the current
    *hot set* (``hot_fraction`` of the candidates), uniformly otherwise —
    the skewed-and-shifting traffic shape of a production inference service
    (trending items, news cycles).  Every ``drift_interval`` batches a fresh
    hot set is drawn, so frequency state built on the old one goes stale.

    **Guarantee**: every yielded batch has *exactly* ``batch_size`` distinct
    seeds — the cold top-up draws from all candidates outside the hot picks
    (including not-yet-picked hot ids), so the pool can only run short when
    ``batch_size > len(candidate_ids)``, which is rejected up front instead
    of silently yielding an under-sized batch.

    Yields ``num_batches`` sorted id arrays.
    """
    if not 0.0 < hot_fraction <= 1.0:
        raise ValueError(f"hot_fraction must be in (0, 1], got {hot_fraction}")
    if not 0.0 <= hot_mass <= 1.0:
        raise ValueError(f"hot_mass must be in [0, 1], got {hot_mass}")
    if drift_interval <= 0:
        raise ValueError(f"drift_interval must be positive, got {drift_interval}")
    cand = np.asarray(candidate_ids, dtype=np.int64)
    if len(sorted_unique(cand)) != len(cand):
        raise ValueError("candidate_ids must be distinct")
    if batch_size > len(cand):
        raise ValueError(
            f"batch_size {batch_size} exceeds the {len(cand)} candidate ids; "
            f"a batch of distinct seeds that size cannot exist"
        )
    rng = as_generator(seed)
    ordered = np.sort(cand)
    n_hot = max(1, int(round(hot_fraction * len(cand))))
    hot = rng.choice(cand, size=n_hot, replace=False)
    for b in range(num_batches):
        if b > 0 and b % drift_interval == 0:
            hot = rng.choice(cand, size=n_hot, replace=False)
        n_from_hot = min(rng.binomial(batch_size, hot_mass), n_hot)
        picks = rng.choice(hot, size=n_from_hot, replace=False)
        n_cold = batch_size - n_from_hot
        if n_cold:
            # Cold picks come from outside the hot picks (unpicked hot ids
            # included) so the batch keeps exactly batch_size distinct seeds:
            # draw positions in the sorted candidates *minus the picks*
            # (what ``np.setdiff1d(cand, picks)`` would build, per batch, at
            # O(|cand| log |cand|)) and shift each past the picked positions
            # at or before it — the same generator calls, the same values.
            taken = np.sort(np.searchsorted(ordered, picks))
            idx = rng.choice(len(ordered) - len(picks), size=n_cold,
                             replace=False)
            idx += np.searchsorted(taken - np.arange(len(taken)), idx,
                                   side="right")
            picks = np.concatenate([picks, ordered[idx]])
        yield np.sort(picks)


def edge_stream(
    graph,
    num_batches: int,
    batch_edges: int,
    *,
    delete_fraction: float = 0.5,
    pool: Optional[np.ndarray] = None,
    seed: SeedLike = None,
) -> Iterator["EdgeBatch"]:
    """Edge-churn batches for the streaming-graph workloads.

    Yields :class:`~repro.graph.mutable.EdgeBatch`\\ es of ``batch_edges``
    operations each, split ``delete_fraction`` deletions / the rest
    insertions.  The stream is *live*: each batch is drawn against the
    graph's **current** state (degrees and adjacency are re-read at yield
    time), so the intended protocol is apply-then-advance::

        for batch in edge_stream(mgraph, 20, 500, seed=0):
            mgraph.apply(batch)
            ...

    Shape of the churn — chosen to mirror how real graphs grow rather than
    uniform noise:

    * **Insertions** attach preferentially: both endpoints are drawn with
      probability proportional to current degree + 1.
    * **Deletions** remove a uniform neighbor of a degree-biased vertex —
      i.e. (approximately) a uniform existing edge — without ever
      enumerating the edge set, so drawing a batch is O(batch), not O(M).

    ``pool`` restricts both endpoints to a vertex subset of ``[0, N)``
    (e.g. one partition, to localize churn — locality is also what makes
    incremental VIP's dirty wave stay narrow).
    Batches may contain duplicate or already-absent ops — the overlay's
    set semantics absorb them.
    """
    from repro.graph.mutable import EdgeBatch

    if batch_edges <= 0:
        raise ValueError(f"batch_edges must be positive, got {batch_edges}")
    if not 0.0 <= delete_fraction <= 1.0:
        raise ValueError(
            f"delete_fraction must be in [0, 1], got {delete_fraction}"
        )
    rng = as_generator(seed)
    if pool is None:
        pool = np.arange(graph.num_vertices, dtype=np.int64)
    else:
        pool = sorted_unique(np.asarray(pool, dtype=np.int64))
        if len(pool) < 2:
            raise ValueError("pool must contain at least two vertices")
        if pool[0] < 0 or pool[-1] >= graph.num_vertices:
            bad = pool[0] if pool[0] < 0 else pool[-1]
            raise ValueError(f"pool vertex {bad} is outside "
                             f"[0, {graph.num_vertices})")

    n_del = int(round(delete_fraction * batch_edges))
    n_add = batch_edges - n_del
    for _ in range(num_batches):
        degrees = np.asarray(graph.degrees, dtype=np.float64)[pool]
        w = degrees + 1.0
        p_add = w / w.sum()

        add_src = add_dst = del_src = del_dst = np.empty(0, dtype=np.int64)
        if n_add:
            add_src = rng.choice(pool, size=n_add, p=p_add)
            add_dst = rng.choice(pool, size=n_add, p=p_add)
            keep = add_src != add_dst  # no self-loops
            add_src, add_dst = add_src[keep], add_dst[keep]
        if n_del:
            has_edges = degrees > 0
            if has_edges.any():
                p_del = np.where(has_edges, degrees, 0.0)
                p_del /= p_del.sum()
                del_src = rng.choice(pool, size=n_del, p=p_del)
                del_dst = np.empty(n_del, dtype=np.int64)
                for i, v in enumerate(del_src):
                    row = graph.neighbors(int(v))
                    del_dst[i] = row[rng.integers(len(row))]
            else:
                del_src = del_dst = np.empty(0, dtype=np.int64)
        yield EdgeBatch(add_src=add_src, add_dst=add_dst,
                        del_src=del_src, del_dst=del_dst)
