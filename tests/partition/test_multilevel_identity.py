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
from hypothesis import given, settings, strategies as st

import reference_multilevel as reference
from repro.core import RunConfig, make_partition
from repro.graph import (CSRGraph, erdos_renyi, load_dataset,
                         power_law_community_graph)
from repro.partition import metis_like_partition


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


# sha1(assignment.tobytes()) of RunConfig(seed=0).resolve(ds) + make_partition
# at the end-to-end benchmark's pinned configurations, recorded from the
# reference implementation.
GOLDEN = {
    ("papers-mini", 8): "7d84b4daf9710f81dfe1bf24c01d779d1501739a",
    ("papers-mini", 4): "cc7e6007bb1f079f16edae07acfda8fe95307aa6",
    ("products-mini", 2): "fa91693c07a35dede22250aeff6e40b0cbe6a909",
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
