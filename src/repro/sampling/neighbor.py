"""Vectorized node-wise neighborhood sampling.

This is the Python counterpart of SALIENT's C++ ``fast_sampler``: for each
destination vertex, sample at most ``fanout`` of its neighbors uniformly
without replacement, independently across vertices and hops — exactly the
random process analyzed by the paper's Proposition 1 (so the analytic VIP
model and this sampler agree by construction, which the Monte-Carlo tests
verify).

The without-replacement draw uses the random-key trick: assign each candidate
edge an i.i.d. uniform key and keep the ``fanout`` smallest keys per
destination.  A per-row threshold first drops the keys that cannot be among
them (about 3x the kept keys survive, out of 10-30x), then one global
``argsort`` over the survivors, keyed by segment id + key, orders every row at
once — no per-vertex Python loop.  The uniforms are drawn for every candidate
in candidate order, so the threshold changes no output and no RNG state.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, sorted_unique, take_into
from repro.sampling.mfg import MFG, MFGBlock
from repro.utils.rng import SeedLike, as_generator, derive_seed


class SampleArena:
    """Reusable scratch buffers for :func:`sample_neighbors`.

    The per-call intermediates are the dominant allocations on the
    per-batch sampling path: ``keys`` (one random key per *candidate* edge
    of the frontier, typically 10-100x the batch size), ``seg`` (segment
    ids of the threshold's survivors, or of every candidate when all are
    kept) and ``edge_pos`` (candidate edge positions, when all are kept).
    An arena keeps one growable buffer per role and hands out prefix views,
    so a long-lived :class:`NeighborSampler` allocates these once at the
    high-water mark instead of once per hop per minibatch.

    Outputs (``dst_ptr`` and the sampled neighbor ids) are always freshly
    allocated — they outlive the call inside :class:`MFGBlock`\\ s.  The
    sampled values and the RNG stream are bit-identical with or without an
    arena.
    """

    def __init__(self):
        self._i64: Dict[str, np.ndarray] = {}
        self._f64: Dict[str, np.ndarray] = {}
        self._ramp = np.empty(0, dtype=np.int64)

    @staticmethod
    def _grown(buf: Optional[np.ndarray], n: int, dtype) -> np.ndarray:
        if buf is None or len(buf) < n:
            cap = max(n, 2 * len(buf) if buf is not None else n)
            return np.empty(cap, dtype=dtype)
        return buf

    def i64(self, name: str, n: int) -> np.ndarray:
        """A length-``n`` int64 view (contents unspecified)."""
        buf = self._grown(self._i64.get(name), n, np.int64)
        self._i64[name] = buf
        return buf[:n]

    def f64(self, name: str, n: int) -> np.ndarray:
        """A length-``n`` float64 view (contents unspecified)."""
        buf = self._grown(self._f64.get(name), n, np.float64)
        self._f64[name] = buf
        return buf[:n]

    def ramp(self, n: int) -> np.ndarray:
        """Read-only view of ``arange(n)`` (grown once, shared)."""
        if len(self._ramp) < n:
            self._ramp = np.arange(max(n, 2 * len(self._ramp)), dtype=np.int64)
        return self._ramp[:n]


def _segment_ids(arena: SampleArena, offsets: np.ndarray, total: int) -> np.ndarray:
    """``repeat(arange(len(offsets) - 1), diff(offsets))`` into the arena:
    segment boundaries counted per position (``bincount``, so duplicate
    boundaries from empty segments accumulate), cumulative-summed in place."""
    seg = arena.i64("seg", total)
    bounds = offsets[1:-1]
    seg[:] = np.bincount(bounds[bounds < total], minlength=total)
    np.cumsum(seg, out=seg)
    return seg


def _key_thresholds(take: np.ndarray, deg: np.ndarray) -> np.ndarray:
    """Per-row key threshold ``t = (take + 3 sqrt(take) + 3) / deg``: a
    capped row's keys below ``t`` number ``take + 3 sqrt(take) + 3`` on
    average (binomial, spread < ``sqrt`` of that), so its ``take`` smallest
    are rarely cut; an uncapped row (``take == deg``) gets ``t > 1`` and
    keeps every key."""
    return (take + 3 * np.sqrt(take) + 3) / np.maximum(deg, 1)


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

    # Candidates of the whole frontier, grouped per target (segment).
    cand_total = int(deg.sum())
    cand_starts = np.zeros(len(targets) + 1, dtype=np.int64)
    np.cumsum(deg, out=cand_starts[1:])

    if fanout < 0 or np.all(take == deg):
        # Every candidate is kept; its position within graph.indices is
        # ramp + (starts - cand_starts)[seg]: one shift per segment.
        seg = _segment_ids(arena, cand_starts, cand_total)
        edge_pos = arena.i64("edge_pos", cand_total)
        take_into(starts - cand_starts[:-1], seg, edge_pos)
        np.add(edge_pos, arena.ramp(cand_total), out=edge_pos)
        return dst_ptr, graph.take_edges(edge_pos)

    # Random-key selection: per segment, keep the `take` smallest keys.
    keys = arena.f64("keys", cand_total)
    rng.random(out=keys)
    # Only keys below a per-row threshold can be among a row's `take`
    # smallest.  A row left with fewer than `take` survivors keeps every key
    # instead (t = 1; one more pass at most), so the selection is exact
    # whatever the threshold is; it only sets how many keys survive.
    keep = keys < np.repeat(_key_thresholds(take, deg), deg)
    while True:
        surv = np.flatnonzero(keep)
        surv_starts = np.searchsorted(surv, cand_starts)
        short = np.diff(surv_starts) < take
        if not short.any():
            break
        keep[np.repeat(short, deg)] = True
    # Combining the segment id and the key into one float (integer part =
    # segment, fraction = key) sorts every row's survivors in one argsort;
    # 52 mantissa bits leave ample randomness for any frontier size.  (Two
    # keys of one row that round to one float here tie, and argsort orders
    # ties arbitrarily — the only way two sorts of these keys can differ.)
    order = np.argsort(keys[surv] + _segment_ids(arena, surv_starts, len(surv)))
    # Output slot j of segment i holds the segment's (j - dst_ptr[i])-th
    # smallest key: sorted position j + (surv_starts - dst_ptr)[i].
    slot = np.repeat(surv_starts[:-1] - dst_ptr[:-1], take)
    pick = surv[order[slot + arena.ramp(total)]]
    # Edge positions for the picked candidates only: a slot's segment is
    # known, so candidate -> edge position is one shift per segment, no
    # per-candidate lookup.
    pick += np.repeat(starts - cand_starts[:-1], take)
    return dst_ptr, graph.take_edges(pick)


class NeighborSampler:
    """L-hop node-wise sampler producing :class:`MFG` minibatches.

    Parameters
    ----------
    graph:
        The (typically undirected) graph to sample from.
    fanouts:
        Per-hop fanouts, hop 1 first — e.g. ``(15, 10, 5)`` samples 15
        neighbors of each seed, then 10 of each hop-1 vertex, then 5.
    seed:
        Default randomness; :meth:`sample` also accepts an explicit ``rng``
        so distributed machines can run independent streams.
    """

    def __init__(self, graph: CSRGraph, fanouts: Sequence[int], seed: SeedLike = None):
        if len(fanouts) == 0:
            raise ValueError("fanouts must be non-empty")
        if any(f == 0 for f in fanouts):
            raise ValueError("fanouts must be non-zero (use -1 for full expansion)")
        self.graph = graph
        self.fanouts = tuple(int(f) for f in fanouts)
        self._rng = as_generator(seed)
        # Stamped membership table: avoids an O(N) clear per minibatch.
        self._stamp = np.zeros(graph.num_vertices, dtype=np.int64)
        self._local = np.zeros(graph.num_vertices, dtype=np.int64)
        self._epoch = 0
        # Scratch reused across every hop of every minibatch this sampler
        # produces (the seg/key/position arrays of sample_neighbors).
        self._arena = SampleArena()

    @property
    def num_hops(self) -> int:
        return len(self.fanouts)

    def rng_state(self) -> str:
        """The default stream's cursor as a ``repr`` string (PCG64 state
        holds 128-bit ints, so it travels as text — restore parses it with
        ``ast.literal_eval``).  Together with :meth:`set_rng_state` this is
        the replay hook for checkpoint/recovery: capturing at an epoch
        boundary and restoring later reproduces the same draws."""
        return repr(self._rng.bit_generator.state)

    def set_rng_state(self, state: str) -> None:
        """Restore a :meth:`rng_state` cursor and reset the stamped
        membership tables.  The stamp/local tables are scratch (their
        contents never influence which vertices are drawn, only the dedup
        bookkeeping within one minibatch), but entries written by an
        aborted partial epoch would collide with replayed stamp values —
        zeroing them alongside the epoch counter is always valid."""
        import ast

        self._rng.bit_generator.state = ast.literal_eval(state)
        self._stamp[:] = 0
        self._local[:] = 0
        self._epoch = 0

    def sample(self, seeds: np.ndarray, rng: Optional[np.random.Generator] = None) -> MFG:
        """Sample the L-hop expanded neighborhood of ``seeds``."""
        rng = self._rng if rng is None else rng
        n = self.graph.num_vertices
        seeds = np.asarray(seeds, dtype=np.int64)
        # numpy would wrap a negative seed onto vertex n + seed silently.
        if len(seeds) and (seeds.min() < 0 or seeds.max() >= n):
            bad = seeds.min() if seeds.min() < 0 else seeds.max()
            raise ValueError(f"seed {bad} is outside [0, {n})")

        self._epoch += 1
        stamp, local, epoch = self._stamp, self._local, self._epoch

        n_id = [seeds]
        count = len(seeds)
        stamp[seeds] = epoch
        rank = np.arange(count, dtype=np.int64)
        local[seeds] = rank
        # Repeated seeds share one slot, so one of them reads back another's
        # rank.  (Stamps left by the rejected call are harmless: the next
        # call stamps epoch + 1.)
        if not np.array_equal(local[seeds], rank):
            raise ValueError("seeds must be unique")

        frontier = seeds  # S_{h-1}: all vertices known so far are targets
        blocks = []
        for fanout in self.fanouts:
            dst_ptr, src_global = sample_neighbors(self.graph, frontier, fanout,
                                                   rng, arena=self._arena)
            # Register newly seen vertices (sorted for determinism).
            fresh_mask = stamp[src_global] != epoch
            fresh = sorted_unique(src_global[fresh_mask])
            stamp[fresh] = epoch
            local[fresh] = count + np.arange(len(fresh), dtype=np.int64)
            count += len(fresh)
            n_id.append(fresh)

            blocks.append(MFGBlock(
                dst_ptr=dst_ptr,
                src_index=local[src_global],
                num_src=count,
                num_dst=len(frontier),
            ))
            # Next hop expands every vertex seen so far (cumulative sets);
            # concatenating the per-hop fresh lists preserves prefix order.
            frontier = np.concatenate(n_id)

        return MFG(n_id=np.concatenate(n_id), blocks=blocks, seeds=seeds)

    def batches(
        self,
        ids: np.ndarray,
        batch_size: int,
        *,
        shuffle: bool = True,
        drop_last: bool = False,
        epoch: int = 0,
        seed: SeedLike = None,
    ) -> Iterator[MFG]:
        """Iterate MFGs over ``ids`` in minibatches.

        The shuffle order is derived from ``(seed, epoch)`` so epochs are
        reproducible and distributed workers can coordinate steps.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {batch_size}")
        order = ids
        if shuffle:
            shuffle_rng = as_generator(derive_seed(seed, "shuffle", epoch))
            order = ids[shuffle_rng.permutation(len(ids))]
        n_full = len(order) // batch_size
        end = n_full * batch_size if drop_last else len(order)
        for start in range(0, end, batch_size):
            batch = order[start:start + batch_size]
            if len(batch) == 0:
                break
            yield self.sample(batch)


def num_batches(num_ids: int, batch_size: int, drop_last: bool = False) -> int:
    """Number of minibatches `batches()` will yield."""
    if drop_last:
        return num_ids // batch_size
    return (num_ids + batch_size - 1) // batch_size
