"""``VIPTracker`` scores a live graph one way: one Proposition-1
evaluation per consumer on the graph as sampled, memoized per
``(graph, version, p0)``.

A round's scores are ``==`` each consumer scored alone, and both are ``==``
``vip_probabilities(materialize(), p0).access`` — across churn, ``p[0]``
drift, compaction and the re-point from the static base to the overlay
that landing the first batch does.  The memo hands back the stored array
for an unchanged consumer and evaluates exactly what moved: one changed
``p[0]`` is one 1-D evaluation, a new graph version one 1-D evaluation per
consumer of the round.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vip_cases import full_access, random_batch, sparse_p0, vip_case
from repro.graph import erdos_renyi
from repro.graph.mutable import MutableGraph
from repro.vip import VIPTracker
from repro.vip import incremental


@settings(max_examples=40, deadline=None)
@given(case=vip_case(overlay=True), k=st.integers(1, 4),
       drifting=st.lists(st.booleans(), min_size=4, max_size=4),
       compact_at=st.integers(0, 3))
def test_round_equals_each_consumer_alone_equals_full(case, k, drifting,
                                                      compact_at):
    rng = np.random.default_rng(case.churn_seed)
    mg = MutableGraph(case.graph, compact_cutoff=None)
    everyone = np.arange(mg.num_vertices)
    together = VIPTracker(mg.base, case.fanouts)
    alone = VIPTracker(mg.base, case.fanouts)

    def assert_round(i):
        # Consumer 0 scores an empty p0; the others drift where drawn to.
        round_ = {j: (case.p0(drift=16 * j + (i if drifting[j] else 0))
                      if j else np.zeros(mg.num_vertices))
                  for j in range(k)}
        got = together.access(round_)
        assert list(got) == list(round_)
        graph = mg.materialize()
        for consumer, p0 in round_.items():
            want = full_access(graph, p0, case.fanouts)
            assert np.array_equal(got[consumer], want)
            assert np.array_equal(alone.access({consumer: p0})[consumer],
                                  want)

    assert_round(0)  # the static base
    together.graph = alone.graph = mg  # the first batch lands
    for i in range(case.rounds):
        mg.apply(random_batch(rng, everyone, int(rng.integers(1, 6))))
        if i == compact_at:
            mg.compact()
        assert_round(i + 1)


@pytest.fixture
def evaluations(monkeypatch):
    """The shape of every ``p0`` the tracker hands to Proposition 1."""
    calls = []
    evaluate = incremental.vip_probabilities
    monkeypatch.setattr(incremental, "vip_probabilities",
                        lambda *a, **kw: calls.append(np.shape(a[1]))
                        or evaluate(*a, **kw))
    return calls


def _tracker(overlay):
    g = erdos_renyi(120, 5.0, seed=3)
    mg = MutableGraph(g, compact_cutoff=None)
    tracker = VIPTracker(mg if overlay else g, (3, 2))
    round_ = {k: sparse_p0(120, 10, seed=k) for k in range(4)}
    return mg, tracker, round_


@pytest.mark.parametrize("overlay", [False, True], ids=["static", "overlay"])
def test_unchanged_round_returns_the_stored_arrays(overlay, evaluations):
    _mg, tracker, round_ = _tracker(overlay)
    first = tracker.access(round_)
    assert evaluations == [(120,)] * 4
    again = tracker.access({k: p0.copy() for k, p0 in round_.items()})
    assert all(again[k] is first[k] for k in round_)
    assert evaluations == [(120,)] * 4
    assert not any(scores.flags.writeable for scores in first.values())


@pytest.mark.parametrize("overlay", [False, True], ids=["static", "overlay"])
def test_one_changed_p0_is_one_evaluation(overlay, evaluations):
    mg, tracker, round_ = _tracker(overlay)
    first = tracker.access(round_)
    moved = {**round_, 2: sparse_p0(120, 10, seed=99)}
    got = tracker.access(moved)
    assert evaluations == [(120,)] * 5
    assert all(got[k] is first[k] for k in (0, 1, 3))
    assert np.array_equal(got[2], full_access(mg.materialize(), moved[2],
                                              (3, 2)))


def test_new_version_rescores_every_consumer(evaluations):
    mg, tracker, round_ = _tracker(overlay=False)
    tracker.access(round_)
    tracker.graph = mg  # re-pointed at the overlay: a new graph
    tracker.access(round_)
    mg.add_edges([1], [90])
    got = tracker.access(round_)
    assert evaluations == [(120,)] * 12
    mat = mg.materialize()
    for k, p0 in round_.items():
        assert np.array_equal(got[k], full_access(mat, p0, (3, 2)))
