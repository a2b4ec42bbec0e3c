"""One hypothesis strategy for every Proposition-1 differential suite.

``tests/vip/test_active_set.py`` (static graphs) and ``tests/streaming/``
(overlays under churn) draw the same :func:`vip_case` — ``-1`` fanouts,
both cutoffs at {0, default, 1}, a chained churn + ``p[0]``-drift schedule
— and compare against the same frozen oracle (``reference_dense.py``), so
the one row kernel in ``repro.vip.analytic`` is held to a second
implementation through every row-set choice (all rows, frontier rows,
churned rows) on both graph classes.  Static cases are directed or
undirected; ``vip_case(overlay=True)`` draws undirected graphs only, the
one shape a ``MutableGraph`` takes.  ``tests/conftest.py`` puts this
directory on ``sys.path``.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from hypothesis import strategies as st

from reference_dense import vip_probabilities_dense
from repro.graph import CSRGraph, erdos_renyi
from repro.graph.mutable import EdgeBatch
from repro.vip.analytic import SPARSE_HOP_CUTOFF
from repro.vip.incremental import CHURN_CUTOFF


def random_base(n, avg_deg, directed, seed):
    rng = np.random.default_rng(seed)
    if directed:
        m = int(avg_deg * n)
        return CSRGraph.from_edges(rng.integers(0, n, m),
                                   rng.integers(0, n, m), n, dedup=True)
    return erdos_renyi(n, avg_deg, seed=seed)


def sparse_p0(n, support, seed):
    """A sparse-ish ``p[0]`` (the partition-restricted shape production
    sees); ``support`` 0 and ``n`` are both drawn."""
    rng = np.random.default_rng(seed)
    p0 = np.zeros(n)
    if support:
        idx = rng.choice(n, size=min(support, n), replace=False)
        p0[idx] = rng.random(len(idx))
    return p0


def random_batch(rng, alive, size):
    pick = lambda: rng.choice(alive, size=size)  # noqa: E731
    return EdgeBatch(add_src=pick(), add_dst=pick(),
                     del_src=pick(), del_dst=pick())


@dataclass(frozen=True)
class VIPCase:
    graph: CSRGraph
    directed: bool
    fanouts: Tuple[int, ...]
    p0_seed: int
    support: int
    churn_seed: int
    rounds: int
    sparse_cutoff: float  #: 0 pins all-rows hops, 1 pins frontier-row hops
    churn_cutoff: float  #: 1 pins the incremental wave, 0 the full fallback

    def p0(self, drift=0):
        """``p[0]`` over the base's vertices; each ``drift`` is an
        unrelated distribution of the same support size."""
        return sparse_p0(self.graph.num_vertices, self.support,
                         self.p0_seed + drift)


@st.composite
def vip_case(draw, overlay=False):
    n = draw(st.integers(min_value=2, max_value=80))
    directed = False if overlay else draw(st.booleans())
    return VIPCase(
        graph=random_base(n, draw(st.floats(0.0, 7.0)), directed,
                          draw(st.integers(0, 2**16))),
        directed=directed,
        fanouts=tuple(draw(st.lists(st.sampled_from([-1, 1, 2, 3, 7, 17]),
                                    min_size=1, max_size=4))),
        p0_seed=draw(st.integers(0, 2**16)),
        support=draw(st.integers(0, n)),
        churn_seed=draw(st.integers(0, 2**16)),
        rounds=draw(st.integers(min_value=1, max_value=3)),
        sparse_cutoff=draw(st.sampled_from([0.0, SPARSE_HOP_CUTOFF, 1.0])),
        churn_cutoff=draw(st.sampled_from([0.0, CHURN_CUTOFF, 1.0])),
    )


def assert_matches_oracle(result, graph, p0, fanouts):
    """``result`` (a ``VIPResult``) equals the frozen dense evaluation on
    ``graph`` element for element: ``total``, every ``hopwise[h]``,
    ``access``."""
    ref = vip_probabilities_dense(graph, p0, fanouts)
    assert np.array_equal(result.total, ref.total)
    assert len(result.hopwise) == len(ref.hopwise)
    for a, b in zip(result.hopwise, ref.hopwise):
        assert np.array_equal(a, b)
    assert np.array_equal(result.initial, ref.initial)
    assert np.array_equal(result.access, ref.access)


def oracle_access(graph, p0, fanouts):
    """What ``VIPTracker.access`` must return on (materialized) ``graph``."""
    return vip_probabilities_dense(graph, p0, fanouts).access
