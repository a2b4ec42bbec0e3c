"""Message-flow graphs (MFGs) for minibatch GNN computation.

An MFG is the output of L-hop node-wise neighborhood sampling for one
minibatch: the set of vertices involved (``n_id``, seeds first) and one
bipartite *block* per hop.  Block ``h`` connects sampled hop-``h`` sources to
their hop-``h-1`` destinations; the GNN consumes blocks outermost-first
(block ``L-1`` feeds model layer 1).

The hop sets are cumulative — ``S_0 = seeds``, ``S_h = S_{h-1} ∪ sampled
neighbors`` — and ``n_id`` is laid out so each ``S_h`` is a prefix.  A layer
therefore reads its destination representations as a prefix of its source
representations (how GraphSAGE-style UPD accesses "self" vectors without
explicit self-loop edges).

Edges inside a block are grouped by destination, so a block *is* a CSR
matrix: ``(dst_ptr, src_index)`` are the row offsets and column indices of
the ``num_dst x num_src`` 0/1 operator ``A``.  Mean aggregation is the
product ``A @ X`` and its backward ``A.T @ G`` inside the layer's one tape
node (``nn.functional.sage_conv``), summed left to right in edge order.

A *window* of MFGs crosses a process boundary as two int64 arrays
(:func:`pack_window`): ``flat``, every array of every MFG back to back, and
``layout``, the sizes that cut it up again.  :func:`unpack_window` rebuilds
the MFGs as views into ``flat`` through the same constructors, so every
:class:`MFGBlock` check runs on what was received.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass
class MFGBlock:
    """One hop's bipartite sampling block.

    Attributes
    ----------
    dst_ptr:
        ``(num_dst + 1,)`` offsets; sampled in-neighbors of destination ``i``
        are ``src_index[dst_ptr[i]:dst_ptr[i+1]]``.
    src_index:
        Local indices (into the first ``num_src`` entries of the MFG's
        ``n_id``) of sampled sources, grouped by destination.
    num_src / num_dst:
        Sizes of the source and destination vertex sets; destinations are the
        first ``num_dst`` sources.
    """

    dst_ptr: np.ndarray
    src_index: np.ndarray
    num_src: int
    num_dst: int

    def __post_init__(self):
        self.dst_ptr = np.asarray(self.dst_ptr, dtype=np.int64)
        self.src_index = np.asarray(self.src_index, dtype=np.int64)
        if len(self.dst_ptr) != self.num_dst + 1:
            raise ValueError("dst_ptr length must be num_dst + 1")
        ptr = self.dst_ptr
        if ptr[0] != 0:
            raise ValueError(f"dst_ptr must start at 0, got dst_ptr[0] = {ptr[0]}")
        if (ptr[1:] < ptr[:-1]).any():
            i = int(np.flatnonzero(ptr[1:] < ptr[:-1])[0]) + 1
            raise ValueError(
                f"dst_ptr must be non-decreasing, got dst_ptr[{i}] = "
                f"{ptr[i]} < dst_ptr[{i - 1}] = {ptr[i - 1]}")
        if self.dst_ptr[-1] != len(self.src_index):
            raise ValueError("dst_ptr[-1] must equal len(src_index)")
        if self.num_dst > self.num_src:
            raise ValueError("destinations must be a subset (prefix) of sources")
        if len(self.src_index) and (
            self.src_index.min() < 0 or self.src_index.max() >= self.num_src
        ):
            raise ValueError("src_index out of range")

    @property
    def num_edges(self) -> int:
        return len(self.src_index)

    def neighbor_counts(self) -> np.ndarray:
        """Number of sampled neighbors per destination."""
        return np.diff(self.dst_ptr)


@dataclass
class MFG:
    """A sampled L-hop neighborhood for one minibatch.

    Attributes
    ----------
    n_id:
        Global vertex ids of all involved vertices; ``n_id[:len(seeds)]`` are
        the seeds and each hop set ``S_h`` is a prefix.
    blocks:
        ``blocks[h-1]`` is hop ``h`` (``blocks[0]`` has the seeds as
        destinations).  The GNN iterates them in reverse.
    seeds:
        The minibatch vertices (global ids).
    """

    n_id: np.ndarray
    blocks: List[MFGBlock]
    seeds: np.ndarray

    @property
    def num_vertices(self) -> int:
        return len(self.n_id)

    @property
    def num_hops(self) -> int:
        return len(self.blocks)

    @property
    def num_edges(self) -> int:
        return int(sum(b.num_edges for b in self.blocks))

    @property
    def batch_size(self) -> int:
        return len(self.seeds)

    def hop_sizes(self) -> List[int]:
        """|S_h| for h = 0..L (cumulative hop-set sizes)."""
        sizes = [self.batch_size]
        sizes.extend(b.num_src for b in self.blocks)
        return sizes

    def validate(self) -> None:
        """Structural consistency checks (used by tests)."""
        prev_dst = self.batch_size
        for h, blk in enumerate(self.blocks):
            if blk.num_dst != prev_dst:
                raise AssertionError(
                    f"block {h}: num_dst {blk.num_dst} != previous hop size {prev_dst}"
                )
            if blk.num_src < blk.num_dst:
                raise AssertionError(f"block {h}: src smaller than dst")
            prev_dst = blk.num_src
        if self.blocks and self.blocks[-1].num_src != len(self.n_id):
            raise AssertionError("outermost block src set must equal n_id")


def pack_window(mfgs: Sequence[MFG]) -> Tuple[np.ndarray, np.ndarray]:
    """``mfgs`` as ``(flat, layout)``, two int64 arrays.  ``flat`` holds,
    per MFG, ``n_id``, ``seeds`` and each block's ``dst_ptr`` and
    ``src_index``; ``layout`` is ``[len(mfgs)]``, then per MFG ``[hops,
    len(n_id), len(seeds)]`` followed by ``[num_src, num_dst, num_edges]``
    per block."""
    layout, parts = [len(mfgs)], [np.empty(0, dtype=np.int64)]
    for mfg in mfgs:
        layout += (mfg.num_hops, len(mfg.n_id), len(mfg.seeds))
        parts += (mfg.n_id, mfg.seeds)
        for block in mfg.blocks:
            layout += (block.num_src, block.num_dst, block.num_edges)
            parts += (block.dst_ptr, block.src_index)
    return np.concatenate(parts), np.array(layout, dtype=np.int64)


def unpack_window(flat: np.ndarray, layout: np.ndarray) -> List[MFG]:
    """The MFGs :func:`pack_window` packed, their arrays views into
    ``flat`` (the int64 array it returned, or a copy).  A ``layout`` that
    does not add up to ``flat`` raises :class:`ValueError`, as does any
    block its constructor rejects."""
    sizes, end = iter(np.asarray(layout).tolist()), 0

    def take(n: int) -> np.ndarray:
        nonlocal end
        if n < 0 or end + n > len(flat):
            raise ValueError(f"window layout wants {n} values at offset "
                             f"{end} of a {len(flat)}-value window")
        end += n
        return flat[end - n:end]

    mfgs = []
    try:
        for _ in range(next(sizes)):
            hops, vertices, batch = next(sizes), next(sizes), next(sizes)
            n_id, seeds, blocks = take(vertices), take(batch), []
            for _ in range(hops):
                num_src, num_dst, edges = next(sizes), next(sizes), next(sizes)
                blocks.append(MFGBlock(take(num_dst + 1), take(edges),
                                       num_src, num_dst))
            mfgs.append(MFG(n_id, blocks, seeds))
    except StopIteration:
        raise ValueError("window layout ends before its last block") from None
    if next(sizes, None) is not None or end != len(flat):
        raise ValueError(f"window layout does not add up: entries left over "
                         f"or {end} of {len(flat)} values read")
    return mfgs
