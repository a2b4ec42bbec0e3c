"""Frozen reference: ``sample_neighbors`` as it stood before the
picked-candidates-only trim (``src/repro/sampling/neighbor.py`` at the parent
of that change), copied verbatim — ``_segment_ids`` and the function body are
untouched.  Never edit it: ``test_neighbor_reference.py`` holds the production
function to this one with ``np.array_equal`` on both outputs and equal
generator state afterwards.
"""

from typing import Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.neighbor import SampleArena


def _segment_ids(arena: SampleArena, offsets: np.ndarray, total: int) -> np.ndarray:
    """``repeat(arange(len(offsets) - 1), diff(offsets))`` into the arena:
    segment boundaries counted per position (``bincount``, so duplicate
    boundaries from empty segments accumulate), cumulative-summed in place."""
    seg = arena.i64("seg", total)
    bounds = offsets[1:-1]
    seg[:] = np.bincount(bounds[bounds < total], minlength=total)
    np.cumsum(seg, out=seg)
    return seg


def sample_neighbors(
    graph: CSRGraph,
    targets: np.ndarray,
    fanout: int,
    rng: np.random.Generator,
    *,
    arena: Optional[SampleArena] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Sample ≤ ``fanout`` neighbors per target, uniformly without replacement.

    Parameters
    ----------
    graph:
        Any object implementing the vectorized adjacency protocol
        (``degrees``, ``row_starts``, ``take_edges``) — a
        :class:`CSRGraph` or a streaming
        :class:`~repro.graph.mutable.MutableGraph`.  The RNG stream
        depends only on the effective adjacency, so an empty overlay
        samples bit-identically to its base.
    fanout:
        Per-vertex cap; ``-1`` (or any negative) keeps all neighbors (full
        neighborhood expansion).
    arena:
        Optional :class:`SampleArena` providing reusable scratch buffers
        (a private one is created per call otherwise).  Results and RNG
        consumption are identical either way.

    Returns
    -------
    (dst_ptr, src_global):
        CSR-style offsets over ``targets`` and the sampled global neighbor
        ids, grouped per target.
    """
    if arena is None:
        arena = SampleArena()
    targets = np.asarray(targets, dtype=np.int64)
    deg = graph.degrees[targets]
    starts = graph.row_starts(targets)

    if fanout < 0:
        take = deg
    else:
        take = np.minimum(deg, fanout)
    dst_ptr = np.zeros(len(targets) + 1, dtype=np.int64)
    np.cumsum(take, out=dst_ptr[1:])
    total = int(dst_ptr[-1])
    if total == 0:
        return dst_ptr, np.empty(0, dtype=np.int64)

    # Gather candidate edge positions for the whole frontier.
    cand_total = int(deg.sum())
    cand_starts = np.zeros(len(targets) + 1, dtype=np.int64)
    np.cumsum(deg, out=cand_starts[1:])
    seg = _segment_ids(arena, cand_starts, cand_total)
    # Position of each candidate within graph.indices:
    # edge_pos = starts[seg] + (ramp - cand_starts[seg]).
    rel = arena.i64("rel", cand_total)
    np.take(cand_starts, seg, out=rel)
    np.subtract(arena.ramp(cand_total), rel, out=rel)
    edge_pos = arena.i64("edge_pos", cand_total)
    np.take(starts, seg, out=edge_pos)
    np.add(edge_pos, rel, out=edge_pos)

    if fanout < 0 or np.all(take == deg):
        return dst_ptr, graph.take_edges(edge_pos)

    # Random-key selection: per segment, keep the `take` smallest keys.
    # Combining the segment id and the key into one float (integer part =
    # segment, fraction = key) makes this a single argsort, ~2-3x faster than
    # lexsort; 52 mantissa bits leave ample randomness for any frontier size.
    keys = arena.f64("keys", cand_total)
    rng.random(out=keys)
    np.add(keys, seg, out=keys)
    order = np.argsort(keys)
    out_rel = np.arange(total, dtype=np.int64) - np.repeat(dst_ptr[:-1], take)
    pick = order[np.repeat(cand_starts[:-1], take) + out_rel]
    return dst_ptr, graph.take_edges(edge_pos[pick])
