"""Baseline partitioners: random, hash, BFS region growing, streaming LDG.

These serve two purposes: (a) the partitioner-quality ablation benchmark
(multilevel vs cheap alternatives), and (b) fast partitions for unit tests
that do not care about cut quality.
"""

from __future__ import annotations

from collections import deque
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.interface import Partition
from repro.utils.rng import SeedLike, as_generator


def random_partition(
    num_vertices: int,
    num_parts: int,
    seed: SeedLike = 0,
) -> Partition:
    """Balanced random partition (shuffled round-robin)."""
    if num_parts <= 0:
        raise ValueError(f"num_parts must be positive, got {num_parts}")
    rng = as_generator(seed)
    assignment = np.arange(num_vertices, dtype=np.int64) % num_parts
    rng.shuffle(assignment)
    return Partition(assignment, num_parts)


def hash_partition(num_vertices: int, num_parts: int) -> Partition:
    """Deterministic modulo partition (what naive distributed stores use)."""
    if num_parts <= 0:
        raise ValueError(f"num_parts must be positive, got {num_parts}")
    assignment = np.arange(num_vertices, dtype=np.int64) % num_parts
    return Partition(assignment, num_parts)


def bfs_partition(
    graph: CSRGraph,
    num_parts: int,
    seed: SeedLike = 0,
) -> Partition:
    """Grow K balanced regions breadth-first from random seeds.

    Regions claim unvisited vertices in round-robin BFS order until all
    vertices are assigned (isolated vertices are scattered round-robin).
    """
    rng = as_generator(seed)
    n = graph.num_vertices
    if num_parts > max(n, 1):
        raise ValueError(f"cannot split {n} vertices into {num_parts} parts")
    assignment = np.full(n, -1, dtype=np.int64)
    capacity = int(np.ceil(n / num_parts))
    sizes = np.zeros(num_parts, dtype=np.int64)

    seeds = rng.choice(n, size=num_parts, replace=False)
    queues = []
    for k, s in enumerate(seeds):
        assignment[s] = k
        sizes[k] += 1
        queues.append(deque([int(s)]))

    active = True
    while active:
        active = False
        for k in range(num_parts):
            if sizes[k] >= capacity:
                continue
            q = queues[k]
            while q and sizes[k] < capacity:
                v = q.popleft()
                claimed = False
                for u in graph.neighbors(v):
                    if assignment[u] < 0:
                        assignment[u] = k
                        sizes[k] += 1
                        q.append(int(u))
                        claimed = True
                        if sizes[k] >= capacity:
                            break
                if claimed:
                    active = True
                    break  # round-robin to next part to keep growth balanced

    # Unreached vertices (other components / full regions): round-robin into
    # the lightest parts.
    rest = np.flatnonzero(assignment < 0)
    for v in rest:
        k = int(np.argmin(sizes))
        assignment[v] = k
        sizes[k] += 1
    return Partition(assignment, num_parts)


def ldg_partition(
    graph: CSRGraph,
    num_parts: int,
    seed: SeedLike = 0,
    *,
    order: Optional[np.ndarray] = None,
) -> Partition:
    """Linear Deterministic Greedy streaming partitioner.

    Each vertex (in random or supplied ``order``) goes to the part maximizing
    ``|N(v) ∩ P_k| * (1 - size_k / capacity)`` — the classic streaming
    heuristic balancing locality against load.
    """
    rng = as_generator(seed)
    n = graph.num_vertices
    if num_parts > max(n, 1):
        raise ValueError(f"cannot split {n} vertices into {num_parts} parts")
    if order is None:
        order = rng.permutation(n)
    assignment = np.full(n, -1, dtype=np.int64)
    sizes = np.zeros(num_parts, dtype=np.float64)
    capacity = max(1.0, 1.1 * n / num_parts)

    for v in order:
        nbrs = graph.neighbors(int(v))
        placed = assignment[nbrs] >= 0
        conn = np.bincount(assignment[nbrs[placed]], minlength=num_parts)
        score = conn * np.maximum(1.0 - sizes / capacity, 0.0)
        if np.all(score <= 0):
            k = int(np.argmin(sizes))
        else:
            k = int(np.argmax(score))
        assignment[v] = k
        sizes[k] += 1.0
    return Partition(assignment, num_parts)
