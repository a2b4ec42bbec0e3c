"""Proposition 1 read through a streaming overlay ≡ Proposition 1 on the
materialized CSR, bit for bit.

``vip_probabilities(mgraph, ...)`` never builds a CSR: a dense hop
multiplies by the base graph's cached operator and re-sums the overlay's
rows over it, a sparse hop pushes from the frontier's rows read through the
overlay, and the transitions come from the effective degrees (one table per
graph version).  Each row still sums its own sorted source list left to
right, as the materialized CSR stores it, so ``total`` and every hop must
match ``vip_probabilities(mgraph.materialize(), ...)`` to the bit — signed
zeros included.  The hypothesis suite covers inserts, deletes, reverted
rows (churned and churned back), emptied rows, auto-compaction, the sparse
cutoff at {0, default, 1} and full-expansion ``-1`` fanouts (all drawn by
the shared :func:`vip_cases.vip_case`); the rest pins the per-version
transition table, and the materialized evaluation is held to the frozen
oracle's bound (:func:`vip_cases.assert_matches_full`).
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from vip_cases import assert_matches_full, random_batch, vip_case
from repro.graph import erdos_renyi
from repro.graph.mutable import EdgeBatch, MutableGraph
from repro.vip.analytic import transition_table, vip_probabilities


def assert_bitwise(a, b):
    """Equal bit patterns: ``==`` that also tells ``-0.0`` from ``+0.0``."""
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_overlay_matches_materialized(mg, p0, fanouts, sparse_cutoff):
    got = vip_probabilities(mg, p0, fanouts, sparse_cutoff=sparse_cutoff)
    graph = mg.materialize()
    want = vip_probabilities(graph, p0, fanouts, sparse_cutoff=sparse_cutoff)
    assert_bitwise(got.total, want.total)
    assert len(got.hopwise) == len(want.hopwise) == len(fanouts)
    for a, b in zip(got.hopwise, want.hopwise):
        assert_bitwise(a, b)
    assert_bitwise(got.initial, want.initial)
    assert_matches_full(want, graph, p0, fanouts)


def churn_back(mg, batch):
    """Undo ``batch``'s inserts and redo its deletes: the rows it touched
    stay in the overlay with their base content (reverted rows)."""
    mg.apply(EdgeBatch(add_src=batch.del_src, add_dst=batch.del_dst,
                       del_src=batch.add_src, del_dst=batch.add_dst))


def isolate(mg, v):
    """Delete every edge of ``v`` — the emptied-row churn."""
    nbrs = mg.neighbors(v).copy()
    mg.remove_edges(np.full(len(nbrs), v), nbrs)


@settings(max_examples=80, deadline=None)
@given(case=vip_case(overlay=True),
       compact_cutoff=st.sampled_from([None, 0.0, 0.1, 0.25]),
       revert=st.lists(st.booleans(), min_size=3, max_size=3),
       empty=st.lists(st.booleans(), min_size=3, max_size=3))
def test_overlay_equals_materialized(case, compact_cutoff, revert, empty):
    rng = np.random.default_rng(case.churn_seed)
    mg = MutableGraph(case.graph, compact_cutoff=compact_cutoff)
    everyone = np.arange(mg.num_vertices)
    # Version 0: no overlay yet, the base read as it is.
    assert_overlay_matches_materialized(mg, case.p0(), case.fanouts,
                                        case.sparse_cutoff)
    for i in range(case.rounds):
        batch = random_batch(rng, everyone, int(rng.integers(1, 8)))
        mg.apply(batch)
        if revert[i]:
            churn_back(mg, batch)
        if empty[i]:
            isolate(mg, int(rng.choice(everyone)))
        assert_overlay_matches_materialized(
            mg, case.p0(drift=i + 1), case.fanouts, case.sparse_cutoff)


def test_transitions_follow_the_version():
    """The overlay's transition table is one per version: a batch that
    changes a degree gets a new table whose ``t`` reads the new degree,
    and an unchanged version keeps the cached one."""
    mg = MutableGraph(erdos_renyi(40, 4.0, seed=3), compact_cutoff=None)
    p0 = np.zeros(40)
    p0[:10] = 0.5
    table = transition_table(mg)
    assert transition_table(mg) is table
    before = table.vertex_transition(2)
    hub = int(np.argmax(mg.degrees))
    mg.add_edges(np.full(6, hub), np.setdiff1d(np.arange(40),
                                               mg.neighbors(hub))[:6])
    fresh = transition_table(mg)
    assert fresh is not table and fresh.version == mg.version
    after = fresh.vertex_transition(2)
    assert after[hub] < before[hub]
    assert_overlay_matches_materialized(mg, p0, (2, 2), 0.0)


def test_overlay_rows_are_resummed_even_when_reverted():
    """A reverted row sits in the overlay with its base content and an
    emptied row sums nothing (``+0.0`` in every hop): both read back as
    the materialized graph's rows."""
    mg = MutableGraph(erdos_renyi(30, 5.0, seed=5), compact_cutoff=None)
    p0 = np.zeros(30)
    p0[[0, 1, 2, 3]] = 1.0
    base = mg.base
    new = [int(np.setdiff1d(np.arange(1, 30), mg.neighbors(0))[0]),
           int(np.setdiff1d(np.arange(5, 30), mg.neighbors(4))[0])]
    mg.add_edges([0, 4], new)
    mg.remove_edges([0, 4], new)
    isolate(mg, 7)
    assert mg.degrees[7] == 0 and mg.base is base
    for v in (0, 4):  # reverted: in the overlay, with the base's content
        assert v in mg.overlay_rows()
        assert np.array_equal(mg.neighbors(v), base.neighbors(v))
    assert_overlay_matches_materialized(mg, p0, (-1, 3), 0.0)
    assert_overlay_matches_materialized(mg, p0, (-1, 3), 1.0)
