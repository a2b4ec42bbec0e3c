"""Reproducible random-number management.

Every stochastic component in the library (graph generators, the neighborhood
sampler, weight initialization) accepts either an integer seed or a
:class:`numpy.random.Generator`.  These helpers normalize the two and derive
statistically independent child streams, so that e.g. the K logical machines
of a simulated cluster each sample minibatches from their own stream while the
whole run stays deterministic under a single top-level seed.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

SeedLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def as_generator(seed: SeedLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Parameters
    ----------
    seed:
        ``None`` (fresh OS entropy), an ``int``, a ``SeedSequence``, or an
        existing ``Generator`` (returned unchanged).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_generators(seed: SeedLike, n: int) -> list:
    """Derive ``n`` independent generators from a single seed.

    Uses :class:`numpy.random.SeedSequence` spawning, which guarantees
    non-overlapping streams.  Passing a ``Generator`` spawns from its
    underlying bit generator's seed sequence when available, otherwise from
    integers drawn from it.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if isinstance(seed, np.random.Generator):
        # Derive children deterministically from the generator's stream.
        children = seed.integers(0, 2**63 - 1, size=n)
        return [np.random.default_rng(int(c)) for c in children]
    ss = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in ss.spawn(n)]


def derive_seed(seed: SeedLike, *keys: Union[int, str]) -> int:
    """Derive a stable 63-bit integer seed from ``seed`` and context ``keys``.

    The same ``(seed, keys)`` pair always yields the same derived seed, which
    lets far-apart components (e.g. the sampler on machine 3 at epoch 7)
    re-create their stream without threading generator objects through every
    call site.
    """
    material = [0 if seed is None else _seed_entropy(seed)]
    for key in keys:
        if isinstance(key, str):
            material.append(int.from_bytes(key.encode("utf8"), "little") % (2**61))
        else:
            material.append(int(key))
    ss = np.random.SeedSequence(material)
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)


def machine_stream_seed(seed: SeedLike, stream: str, machine: int) -> int:
    """Seed of one logical machine's named RNG stream.

    Every cluster backend — the in-process trainer and the multiproc
    workers alike — seeds machine ``k``'s per-role generators with
    ``derive_seed(seed, stream, k)``.  The derivation depends only on the
    run seed, the stream name, and the machine id: never on process spawn
    order, pids, or import order, so K worker processes reproduce the
    in-process sampler streams bit-for-bit regardless of which worker
    starts first.  Streams in use:

    ``"sampler"``
        The machine's :class:`~repro.sampling.neighbor.NeighborSampler`
        (its persistent per-hop randomness).
    ``"order"``
        The machine's epoch shuffle (combined with the epoch number inside
        :meth:`NeighborSampler.batches`).
    ``"inference"``
        The sampler a machine evaluates its share of a split with — a
        fresh one per evaluation
        (:meth:`~repro.distributed.executor.DistributedTrainer.eval_shards`).
    """
    return derive_seed(seed, stream, machine)


def _seed_entropy(seed: SeedLike) -> int:
    if isinstance(seed, int):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        ent = seed.entropy
        if isinstance(ent, (list, tuple)):
            return int(ent[0]) if ent else 0
        return int(ent or 0)
    if isinstance(seed, np.random.Generator):
        return int(seed.integers(0, 2**63 - 1))
    raise TypeError(f"unsupported seed type: {type(seed)!r}")


def permutation_from_order(order: Sequence[int], n: Optional[int] = None) -> np.ndarray:
    """Return the inverse permutation of ``order``.

    ``order[i]`` is the old index placed at new position ``i``; the returned
    array maps old index -> new position, convenient for relabeling edges.
    """
    order = np.asarray(order)
    n = len(order) if n is None else n
    inv = np.empty(n, dtype=np.int64)
    inv[order] = np.arange(len(order), dtype=np.int64)
    return inv
