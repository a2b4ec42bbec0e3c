"""The multilevel partitioner is pinned, bit for bit, to its original loops.

``reference_multilevel.py`` (beside this file) is the partitioner as it
stood before its inner loops were vectorised, kept verbatim as the parity
oracle.  Identity — not "an equally good cut" — is the contract: the
partition decides the reordered dataset and through it every exact number
downstream (communication rows, simulated times, losses).
"""

import hashlib

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import reference_multilevel as reference
from repro.core import RunConfig, make_partition
from repro.graph import (CSRGraph, erdos_renyi, load_dataset,
                         power_law_community_graph)
from repro.partition import metis_like_partition, multilevel


@st.composite
def partition_cases(draw):
    seed = draw(st.integers(0, 2**31 - 1))
    n = draw(st.integers(50, 3_000))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        graph, _ = power_law_community_graph(
            n, draw(st.floats(3.0, 12.0)),
            num_communities=draw(st.integers(2, 10)),
            intra_fraction=draw(st.floats(0.5, 0.95)), seed=seed)
    else:
        graph = erdos_renyi(n, draw(st.floats(2.0, 10.0)), seed=seed)
    columns = draw(st.integers(1, 4))
    if draw(st.booleans()):  # role-indicator style: small integers
        weights = rng.integers(0, 4, size=(n, columns)).astype(np.float64)
    else:                    # sums that round: order of addition matters
        weights = rng.random((n, columns)) * draw(st.sampled_from([1.0, 7.3]))
    options = dict(
        vertex_weights=weights,
        balance_tolerance=draw(st.floats(1.0, 1.3)),
        refine_passes=draw(st.integers(0, 4)),
        coarsen_until=draw(st.sampled_from([None, None, 16, 150])),
    )
    return graph, draw(st.integers(2, 8)), options, seed


@given(partition_cases())
@settings(max_examples=40, deadline=None)
def test_assignment_and_rng_stream_match_the_reference(case):
    graph, k, options, seed = case
    rng_ref, rng_new = np.random.default_rng(seed), np.random.default_rng(seed)
    want = reference.metis_like_partition(graph, k, seed=rng_ref, **options)
    got = metis_like_partition(graph, k, seed=rng_new, **options)
    assert np.array_equal(got.assignment, want.assignment)
    assert got.assignment.dtype == want.assignment.dtype
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_edgeless_and_self_loop_graphs_match_the_reference():
    loops = CSRGraph.from_edges([0, 1, 1, 2, 5], [0, 1, 2, 1, 5], 300)
    empty = CSRGraph.from_edges([], [], 300)
    for graph in (loops, empty):
        want = reference.metis_like_partition(graph, 3, seed=4)
        got = metis_like_partition(graph, 3, seed=4)
        assert np.array_equal(got.assignment, want.assignment)


@st.composite
def contraction_cases(draw):
    """A symmetric weighted level (self loops, parallel edges, isolated
    vertices, integer weights up to 2**40) and a matching on it, possibly
    empty.  Pairs need not be adjacent: contraction takes any involution."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    touched = draw(st.integers(1, n))  # vertices past this one are isolated
    m = draw(st.integers(0, 4 * n))
    src = rng.integers(0, touched, m)
    dst = rng.integers(0, touched, m)
    loops = draw(st.integers(0, m))
    dst[:loops // 4] = src[:loops // 4]
    parallel = rng.integers(0, max(m, 1), m // 3)
    src, dst = np.r_[src, src[parallel]], np.r_[dst, dst[parallel]]
    weight = rng.integers(1, 2**40, len(src), endpoint=True).astype(np.float64)
    # Both directions of every edge with one weight; a loop is its own reverse.
    back = src != dst
    src, dst = np.r_[src, dst[back]], np.r_[dst, src[back]]
    weight = np.r_[weight, weight[back]]
    order = rng.permutation(len(src))  # rows in no particular column order
    order = order[np.argsort(src[order], kind="stable")]
    level = multilevel._Level(
        indptr=np.r_[0, np.cumsum(np.bincount(src, minlength=n))],
        indices=dst[order], edge_weights=weight[order],
        vertex_weights=rng.random((n, 2)), fine_to_coarse=None)
    pairs = draw(st.integers(0, n // 2))
    perm = rng.permutation(n)
    mate = np.full(n, -1, dtype=np.int64)
    mate[perm[:pairs]], mate[perm[pairs:2 * pairs]] = (perm[pairs:2 * pairs],
                                                        perm[:pairs])
    return level, mate


def contract_oracle(level, mate):
    """The contraction as scipy's canonical COO -> CSR of the relabelled
    edge list, self loops dropped first: the expression it replaced."""
    n = level.num_vertices
    rep = np.where(mate >= 0, np.minimum(np.arange(n), mate), np.arange(n))
    is_rep = rep == np.arange(n)
    fine_to_coarse = (np.cumsum(is_rep) - 1)[rep]
    nc = int(is_rep.sum())
    src = np.repeat(np.arange(n), np.diff(level.indptr))
    csrc, cdst = fine_to_coarse[src], fine_to_coarse[level.indices]
    edge = np.flatnonzero(csrc != cdst)
    adj = sp.coo_matrix((level.edge_weights[edge], (csrc[edge], cdst[edge])),
                        shape=(nc, nc)).tocsr()
    return (adj.indptr.astype(np.int64), adj.indices.astype(np.int64),
            adj.data, fine_to_coarse)


@given(contraction_cases())
@settings(max_examples=60, deadline=None)
def test_contraction_by_counting_matches_the_canonical_sum(case):
    level, mate = case
    coarse, reduction = multilevel._contract(level, mate)
    indptr, indices, data, fine_to_coarse = contract_oracle(level, mate)
    for got, want in ((coarse.indptr, indptr), (coarse.indices, indices),
                      (coarse.edge_weights, data),
                      (coarse.fine_to_coarse, fine_to_coarse)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
    assert reduction == coarse.num_vertices / level.num_vertices


# sha1(assignment.tobytes()) of RunConfig(seed=0).resolve(ds) + make_partition
# at the end-to-end benchmark's pinned configurations, recorded from the
# reference implementation.
# K=2 on papers-mini and K=4 on mag240c-mini are there for their length:
# many moves over many passes, which the small hypothesis graphs seldom reach.
GOLDEN = {
    ("papers-mini", 8): "7d84b4daf9710f81dfe1bf24c01d779d1501739a",
    ("papers-mini", 4): "cc7e6007bb1f079f16edae07acfda8fe95307aa6",
    ("papers-mini", 2): "036955352490d3410e0f7b30d124e9182cc270c6",
    ("products-mini", 2): "fa91693c07a35dede22250aeff6e40b0cbe6a909",
    ("mag240c-mini", 4): "fea203d3047ebe177433d60e9a61ea2838ab286c",
}


@pytest.fixture(scope="module")
def datasets():
    return {name: load_dataset(name, seed=0)
            for name in {name for name, _ in GOLDEN}}


@pytest.mark.parametrize("name,k", sorted(GOLDEN))
def test_benchmark_partitions_keep_their_digest(datasets, name, k):
    ds = datasets[name]
    cfg = RunConfig(seed=0, num_machines=k).resolve(ds)
    assignment = make_partition(ds, cfg).assignment
    assert hashlib.sha1(assignment.tobytes()).hexdigest() == GOLDEN[(name, k)]
