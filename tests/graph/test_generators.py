"""Generator tests: sizes, structure, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    chung_lu,
    erdos_renyi,
    pareto_degree_weights,
    power_law_community_graph,
    streaming_request_stream,
)


class TestErdosRenyi:
    def test_size_and_symmetry(self):
        g = erdos_renyi(500, 6.0, seed=0)
        assert g.num_vertices == 500
        assert g.is_undirected()
        assert 3.0 < g.avg_degree < 8.0  # some loss to dedup/self-loops

    def test_deterministic(self):
        assert erdos_renyi(100, 4.0, seed=5) == erdos_renyi(100, 4.0, seed=5)
        assert erdos_renyi(100, 4.0, seed=5) != erdos_renyi(100, 4.0, seed=6)


class TestParetoWeights:
    def test_mean_scaled(self):
        w = pareto_degree_weights(5000, 12.0, power=2.5, seed=0)
        assert w.mean() == pytest.approx(12.0)
        assert np.all(w > 0)

    def test_heavier_tail_with_smaller_power(self):
        # Tail-to-median ratio grows as the exponent shrinks (the mean is
        # rescaled, so compare shape, not absolute max).
        w_heavy = pareto_degree_weights(5000, 10.0, power=1.8, seed=0)
        w_light = pareto_degree_weights(5000, 10.0, power=3.5, seed=0)
        ratio = lambda w: np.quantile(w, 0.999) / np.median(w)
        assert ratio(w_heavy) > 2 * ratio(w_light)

    def test_rejects_power_leq_one(self):
        with pytest.raises(ValueError, match="power"):
            pareto_degree_weights(10, 5.0, power=1.0)


class TestChungLu:
    def test_degrees_follow_weights(self):
        w = pareto_degree_weights(2000, 10.0, seed=1)
        g = chung_lu(w, seed=2)
        assert g.is_undirected()
        # High-weight vertices should have higher realized degree on average.
        top = np.argsort(-w)[:100]
        bottom = np.argsort(w)[:100]
        assert g.degrees[top].mean() > 3 * g.degrees[bottom].mean()


class TestPowerLawCommunity:
    def test_structure(self):
        g, comm = power_law_community_graph(1000, 10.0, num_communities=10,
                                            intra_fraction=0.9, seed=0)
        assert g.num_vertices == 1000
        assert g.is_undirected()
        assert len(comm) == 1000
        assert len(np.unique(comm)) == 10
        src, dst = g.edges()
        intra = np.mean(comm[src] == comm[dst])
        assert intra > 0.75  # planted locality survives dedup

    def test_intra_fraction_controls_locality(self):
        g_loc, c_loc = power_law_community_graph(800, 8.0, 8, intra_fraction=0.95, seed=1)
        g_mix, c_mix = power_law_community_graph(800, 8.0, 8, intra_fraction=0.3, seed=1)
        def intra(g, c):
            s, d = g.edges()
            return np.mean(c[s] == c[d])
        assert intra(g_loc, c_loc) > intra(g_mix, c_mix) + 0.2

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError, match="intra_fraction"):
            power_law_community_graph(100, 5.0, 4, intra_fraction=1.5)

    def test_deterministic(self):
        g1, c1 = power_law_community_graph(300, 6.0, 6, seed=9)
        g2, c2 = power_law_community_graph(300, 6.0, 6, seed=9)
        assert g1 == g2
        assert np.array_equal(c1, c2)


class TestStreamingRequestStream:
    def test_exact_batch_size_guarantee(self):
        """Every batch has exactly batch_size distinct seeds — even when the
        hot set is tiny and hot_mass pushes most picks into it."""
        cand = np.arange(60)
        for seeds in streaming_request_stream(cand, 40, 50, hot_fraction=0.05,
                                              hot_mass=0.95, seed=0):
            assert len(seeds) == 50
            assert len(np.unique(seeds)) == 50
            assert np.all(np.isin(seeds, cand))

    def test_rejects_oversized_batch(self):
        """batch_size > |candidates| cannot yield distinct seeds: raise up
        front instead of silently under-filling."""
        with pytest.raises(ValueError, match="batch_size"):
            next(streaming_request_stream(np.arange(10), 1, 11, seed=0))

    def test_full_pool_batch_allowed(self):
        (seeds,) = streaming_request_stream(np.arange(10), 1, 10, seed=0)
        assert np.array_equal(seeds, np.arange(10))

    def test_rejects_duplicate_candidates(self):
        with pytest.raises(ValueError, match="distinct"):
            next(streaming_request_stream(np.array([1, 1, 2]), 1, 2, seed=0))

    def test_hot_set_drifts(self):
        """Batches after the drift point concentrate on a fresh hot set."""
        cand = np.arange(10_000)
        batches = list(streaming_request_stream(
            cand, 20, 64, hot_fraction=0.01, hot_mass=1.0,
            drift_interval=10, seed=4))
        before = np.unique(np.concatenate(batches[:10]))
        after = np.unique(np.concatenate(batches[10:]))
        overlap = len(np.intersect1d(before, after)) / len(after)
        assert overlap < 0.2

    def test_deterministic(self):
        a = list(streaming_request_stream(np.arange(100), 5, 8, seed=7))
        b = list(streaming_request_stream(np.arange(100), 5, 8, seed=7))
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def setdiff_request_stream(cand, num_batches, batch_size, *, hot_fraction,
                           hot_mass, drift_interval, seed):
    """The original ``streaming_request_stream`` loop — the cold pool
    rebuilt with ``np.setdiff1d`` per batch — kept as the reference the
    index-mapped draw must reproduce value for value."""
    rng = np.random.default_rng(seed)
    n_hot = max(1, int(round(hot_fraction * len(cand))))
    hot = rng.choice(cand, size=n_hot, replace=False)
    for b in range(num_batches):
        if b > 0 and b % drift_interval == 0:
            hot = rng.choice(cand, size=n_hot, replace=False)
        n_from_hot = min(rng.binomial(batch_size, hot_mass), n_hot)
        picks = rng.choice(hot, size=n_from_hot, replace=False)
        n_cold = batch_size - n_from_hot
        if n_cold:
            pool = np.setdiff1d(cand, picks)
            cold = rng.choice(pool, size=n_cold, replace=False)
            picks = np.concatenate([picks, cold])
        yield np.sort(picks)


@st.composite
def request_stream_cases(draw):
    """Unsorted, non-contiguous candidate ids; batch sizes up to the whole
    pool; hot_mass at both ends; drift boundaries inside the stream."""
    n = draw(st.integers(1, 60))
    ids = draw(st.lists(st.integers(0, 10_000), min_size=n, max_size=n,
                        unique=True))
    return dict(
        cand=np.array(draw(st.permutations(ids)), dtype=np.int64),
        num_batches=draw(st.integers(1, 12)),
        batch_size=draw(st.integers(1, n)),
        hot_fraction=draw(st.sampled_from([0.02, 0.3, 1.0])),
        hot_mass=draw(st.sampled_from([0.0, 0.4, 0.8, 1.0])),
        drift_interval=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**16)),
    )


@given(request_stream_cases())
@settings(max_examples=150, deadline=None)
def test_request_stream_equals_setdiff_reference(case):
    cand = case.pop("cand")
    num_batches, batch_size = case.pop("num_batches"), case.pop("batch_size")
    got = list(streaming_request_stream(cand, num_batches, batch_size, **case))
    want = list(setdiff_request_stream(cand, num_batches, batch_size, **case))
    assert len(got) == len(want) == num_batches
    for b, (x, y) in enumerate(zip(got, want)):
        assert np.array_equal(x, y), f"batch {b}: {x} != {y}"
