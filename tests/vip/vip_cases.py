"""One hypothesis strategy for every Proposition-1 differential suite.

``tests/vip/test_active_set.py`` (static graphs) and ``tests/streaming/``
(overlays under churn) draw the same :func:`vip_case` — ``-1`` fanouts,
both cutoffs at {0, default, 1}, a chained churn + ``p[0]``-drift schedule
— and hold every evaluator to the production full evaluation (all rows
every hop) with ``==``, and that evaluation to the frozen oracle
(``reference_dense.py``) within the summation-order bound of
:func:`oracle_slack`, so the one row kernel in ``repro.vip.analytic`` is
held to a second implementation through every row-set choice (all rows,
frontier pushes, churned rows) on both graph classes.  Static cases are
directed or undirected, with rows in ascending order or shuffled (a
frontier push sums in ascending source order, so a shuffled graph must
take the dense sweep); ``vip_case(overlay=True)`` draws sorted undirected
graphs only, the one shape a ``MutableGraph`` takes.  ``tests/conftest.py``
puts this directory on ``sys.path``.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from hypothesis import strategies as st

from reference_dense import _compute_edge_transition, vip_probabilities_dense
from repro.graph import CSRGraph, erdos_renyi
from repro.graph.mutable import EdgeBatch
from repro.utils.validation import check_probability_vector
from repro.vip.analytic import SPARSE_HOP_CUTOFF, vip_probabilities
from repro.vip.incremental import CHURN_CUTOFF


def random_base(n, avg_deg, directed, seed):
    rng = np.random.default_rng(seed)
    if directed:
        m = int(avg_deg * n)
        return CSRGraph.from_edges(rng.integers(0, n, m),
                                   rng.integers(0, n, m), n, dedup=True)
    return erdos_renyi(n, avg_deg, seed=seed)


def shuffle_rows(graph, seed):
    """``graph`` with each row's sources in a random stored order."""
    rng = np.random.default_rng(seed)
    row = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    order = np.lexsort((rng.random(graph.num_edges), row))
    return CSRGraph(graph.indptr, graph.indices[order])


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
    avg_deg = draw(st.floats(0.0, 7.0))
    graph_seed = draw(st.integers(0, 2**16))
    graph = random_base(n, avg_deg, directed, graph_seed)
    if not overlay and draw(st.booleans()):
        graph = shuffle_rows(graph, graph_seed)
    return VIPCase(
        graph=graph,
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


#: Double-precision machine epsilon (the spacing of floats at 1.0).
EPS = np.finfo(np.float64).eps


def full_evaluation(graph, p0, fanouts):
    """The production full evaluation: every hop over all rows."""
    return vip_probabilities(graph, p0, fanouts, sparse_cutoff=0.0)


def assert_same_result(result, ref):
    """``total``, every ``hopwise[h]``, ``initial`` and ``access`` of two
    ``VIPResult`` objects equal element for element."""
    assert np.array_equal(result.total, ref.total)
    assert len(result.hopwise) == len(ref.hopwise)
    for a, b in zip(result.hopwise, ref.hopwise):
        assert np.array_equal(a, b)
    assert np.array_equal(result.initial, ref.initial)
    assert np.array_equal(result.access, ref.access)


def oracle_slack(result, graph, p0, fanouts):
    """Largest ``|result - oracle| / bound`` over every hop (0 when equal).

    Production sums each row of equation (3) left to right; the frozen
    oracle sums the same terms ``x`` (bit-identical logs) with numpy's
    pairwise ``reduceat``.  Two orders of ``count`` terms differ by at most
    ``count * eps * sum|x|`` on the log-sum, and ``1 - exp`` carries that
    as ``exp(S)`` times it, plus the rounding of ``exp`` and of the
    subtraction on each side (``8 * eps``).  Each hop is compared with the
    oracle re-seeded at ``result``'s previous hop, so the bound is one
    hop's, not a compounded one.  A row with a ``-inf`` term (``t p = 1``)
    is ``1.0`` in any order and must be equal.
    """
    src = np.repeat(np.arange(graph.num_vertices), graph.degrees)
    prev = check_probability_vector(p0, "initial")
    worst = 0.0
    for fanout, got in zip(fanouts, result.hopwise):
        ref = vip_probabilities_dense(graph, prev, (fanout,)).hopwise[0]
        t = _compute_edge_transition(graph, fanout)
        with np.errstate(divide="ignore"):
            x = np.log(np.maximum(1.0 - t * prev[graph.indices], 0.0))
        dead = np.bincount(src, weights=np.isinf(x),
                           minlength=graph.num_vertices) > 0
        abs_sum = np.bincount(src, weights=np.where(np.isinf(x), 0.0, -x),
                              minlength=graph.num_vertices)
        bound = (graph.degrees * EPS * abs_sum * np.exp(-abs_sum)
                 + 8 * EPS)
        diff = np.abs(got - ref)
        assert np.array_equal(got[dead], ref[dead])
        assert np.all(diff <= bound), float(np.max(diff / bound))
        worst = max(worst, float(np.max(diff / bound, initial=0.0)))
        prev = got
    return worst


def assert_within_oracle_bound(result, graph, p0, fanouts):
    """``result`` is Proposition 1 on ``graph`` up to summation order: each
    hop within :func:`oracle_slack`'s bound of the frozen oracle, and
    equation (2) of its own hops (the oracle's elementwise accumulator,
    no reduction, so ``==``)."""
    assert len(result.hopwise) == len(fanouts)
    oracle_slack(result, graph, p0, fanouts)
    log_not_total = np.zeros(graph.num_vertices)
    for p_h in result.hopwise:
        with np.errstate(divide="ignore"):
            log_not_total += np.log(np.maximum(1.0 - p_h, 0.0))
    total = np.clip(1.0 - np.exp(log_not_total), 0.0, 1.0)
    assert np.array_equal(result.total, total)
    assert np.array_equal(result.initial, np.asarray(p0, dtype=np.float64))


def assert_matches_full(result, graph, p0, fanouts):
    """``result`` (a ``VIPResult``) equals the production full evaluation
    on ``graph`` element for element, and that evaluation is within the
    summation-order bound of the frozen oracle."""
    full = full_evaluation(graph, p0, fanouts)
    assert_same_result(result, full)
    assert_within_oracle_bound(full, graph, p0, fanouts)


def full_access(graph, p0, fanouts):
    """What ``VIPTracker.access`` must return on (materialized) ``graph``:
    the production full evaluation's, held to the oracle's bound."""
    full = full_evaluation(graph, p0, fanouts)
    assert_within_oracle_bound(full, graph, p0, fanouts)
    return full.access
