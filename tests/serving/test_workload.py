"""Load-generator tests: arrival shapes, determinism, closed-loop protocol."""

import math

import numpy as np
import pytest

from repro.serving import ClosedLoopWorkload, Request, poisson_requests, trace_requests


CAND = np.arange(500)


class TestRequest:
    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError, match="no seeds"):
            Request(rid=0, seeds=np.empty(0, dtype=np.int64), arrival=0.0)

    def test_coerces_seed_dtype(self):
        req = Request(rid=0, seeds=[3, 1, 2], arrival=0.0)
        assert req.seeds.dtype == np.int64
        assert req.num_seeds == 3


class TestPoissonRequests:
    def test_shape_and_monotone_arrivals(self):
        reqs = poisson_requests(CAND, 40, 6, rate_rps=100.0, seed=1)
        assert len(reqs) == 40
        assert [r.rid for r in reqs] == list(range(40))
        arrivals = [r.arrival for r in reqs]
        assert arrivals == sorted(arrivals)
        for r in reqs:
            assert len(r.seeds) == 6
            assert len(np.unique(r.seeds)) == 6

    def test_rate_controls_mean_gap(self):
        fast = poisson_requests(CAND, 200, 4, rate_rps=1000.0, seed=2)
        slow = poisson_requests(CAND, 200, 4, rate_rps=10.0, seed=2)
        assert fast[-1].arrival < slow[-1].arrival / 10

    def test_deterministic(self):
        a = poisson_requests(CAND, 30, 4, rate_rps=50.0, seed=9)
        b = poisson_requests(CAND, 30, 4, rate_rps=50.0, seed=9)
        assert all(x.arrival == y.arrival and np.array_equal(x.seeds, y.seeds)
                   for x, y in zip(a, b))

    @pytest.mark.parametrize("rate", [0.0, math.nan, math.inf, -math.inf])
    def test_rejects_bad_rate(self, rate):
        with pytest.raises(ValueError, match="rate_rps"):
            poisson_requests(CAND, 10, 4, rate_rps=rate)


class TestTraceRequests:
    def test_builds_from_trace(self):
        reqs = trace_requests([0.0, 0.5, 1.5], [np.array([1]), np.array([2]),
                                                np.array([3])])
        assert [r.arrival for r in reqs] == [0.0, 0.5, 1.5]

    def test_rejects_decreasing_times(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            trace_requests([1.0, 0.5], [np.array([1]), np.array([2])])

    def test_rejects_short_seed_stream(self):
        with pytest.raises(ValueError, match="ran out"):
            trace_requests([0.0, 1.0], [np.array([1])])


class TestClosedLoop:
    def test_initial_one_per_client(self):
        batches = [np.array([i]) for i in range(10)]
        wl = ClosedLoopWorkload(batches, num_clients=3, think_time_s=0.5)
        first = wl.initial()
        assert len(first) == 3
        assert [r.client for r in first] == [0, 1, 2]
        assert all(r.arrival == 0.0 for r in first)

    def test_on_complete_issues_next_after_think_time(self):
        batches = [np.array([i]) for i in range(4)]
        wl = ClosedLoopWorkload(batches, num_clients=2, think_time_s=0.25)
        first = wl.initial()
        nxt = wl.on_complete(first[0], now=1.0)
        assert nxt.client == 0
        assert nxt.arrival == 1.25
        assert nxt.rid == 2  # rids are global issue order

    def test_exhausted_stream_returns_none(self):
        wl = ClosedLoopWorkload([np.array([1])], num_clients=1)
        first = wl.initial()
        assert wl.on_complete(first[0], now=0.0) is None

    def test_initial_truncated_by_short_stream(self):
        wl = ClosedLoopWorkload([np.array([1])], num_clients=4)
        assert len(wl.initial()) == 1

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError, match="num_clients"):
            ClosedLoopWorkload([], num_clients=0)
        with pytest.raises(ValueError, match="think_time"):
            ClosedLoopWorkload([], num_clients=1, think_time_s=-1.0)
