"""Tests for shared utilities: RNG management, tables, validation."""

import sys
import threading
import time
from contextlib import closing

import numpy as np
import pytest

from invariants import run_ahead_threads as helper_threads
from repro.utils import (
    Table,
    ahead,
    as_generator,
    check_in_range,
    check_positive,
    check_probability_vector,
    derive_seed,
    format_bytes,
    format_count,
    format_seconds,
    spawn_generators,
)
from repro.utils.rng import machine_stream_seed, permutation_from_order


class TestRNG:
    def test_as_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_as_generator_from_int_deterministic(self):
        assert as_generator(5).integers(0, 100) == as_generator(5).integers(0, 100)

    def test_spawn_generators_independent(self):
        a, b = spawn_generators(0, 2)
        assert a.integers(0, 2**31) != b.integers(0, 2**31)

    def test_spawn_count(self):
        assert len(spawn_generators(1, 5)) == 5
        assert spawn_generators(1, 0) == []
        with pytest.raises(ValueError):
            spawn_generators(1, -1)

    def test_spawn_from_generator(self):
        gens = spawn_generators(np.random.default_rng(3), 3)
        assert len(gens) == 3

    def test_derive_seed_stable(self):
        assert derive_seed(7, "sampler", 3) == derive_seed(7, "sampler", 3)
        assert derive_seed(7, "sampler", 3) != derive_seed(7, "sampler", 4)
        assert derive_seed(7, "a") != derive_seed(7, "b")
        assert derive_seed(None, "x") == derive_seed(None, "x")

    def test_permutation_from_order(self):
        order = np.array([2, 0, 1])
        inv = permutation_from_order(order)
        assert np.array_equal(inv[order], np.arange(3))

    def test_machine_stream_seed_is_derive_seed(self):
        # The contract every cluster backend relies on: machine k's stream
        # seed is exactly derive_seed(run_seed, stream, k).
        assert machine_stream_seed(123, "sampler", 2) == derive_seed(123, "sampler", 2)
        assert machine_stream_seed(None, "order", 0) == derive_seed(None, "order", 0)

    def test_machine_stream_seeds_distinct_per_machine_and_stream(self):
        seeds = {machine_stream_seed(7, stream, k)
                 for stream in ("sampler", "order", "model")
                 for k in range(8)}
        assert len(seeds) == 24

    def test_machine_stream_seeds_spawn_order_independent(self):
        # Creating the generators in any machine order yields the same
        # per-machine streams: the seed is a pure function of
        # (run seed, stream, machine), never of construction order.
        def draws(machine_order):
            out = {}
            for k in machine_order:
                gen = np.random.default_rng(machine_stream_seed(0, "sampler", k))
                out[k] = gen.integers(0, 2**31, size=16)
            return out

        fwd = draws(range(4))
        rev = draws(reversed(range(4)))
        for k in range(4):
            assert np.array_equal(fwd[k], rev[k])


class TestTable:
    def test_render_includes_rows(self):
        t = Table(["a", "b"], title="T")
        t.add_row(["x", 1.5])
        t.add_rows([["y", None], ["z", True]])
        out = t.render()
        assert "T" in out and "x" in out and "1.500" in out
        assert "-" in out  # None rendering
        assert "yes" in out

    def test_ragged_rows_padded(self):
        t = Table(["a", "b", "c"])
        t.add_row(["only"])
        assert "only" in t.render()


class TestFormatters:
    def test_bytes(self):
        assert format_bytes(512) == "512 B"
        assert format_bytes(2048) == "2.00 KiB"
        assert "MiB" in format_bytes(5 * 1024**2)
        assert "GiB" in format_bytes(3 * 1024**3)

    def test_seconds(self):
        assert "us" in format_seconds(5e-7)
        assert "ms" in format_seconds(0.005)
        assert format_seconds(2.0) == "2.00 s"
        assert "min" in format_seconds(300)

    def test_count(self):
        assert format_count(999) == "999"
        assert format_count(1500) == "1.50K"
        assert format_count(2.5e6) == "2.50M"
        assert format_count(3e9) == "3.00B"


class TestValidation:
    def test_check_positive(self):
        check_positive(1, "x")
        check_positive(0, "x", strict=False)
        with pytest.raises(ValueError, match="positive"):
            check_positive(0, "x")
        with pytest.raises(ValueError, match="non-negative"):
            check_positive(-1, "x", strict=False)

    def test_check_in_range(self):
        check_in_range(0.5, "x", 0, 1)
        with pytest.raises(ValueError):
            check_in_range(2, "x", 0, 1)
        with pytest.raises(ValueError):
            check_in_range(0, "x", 0, 1, inclusive=False)

    def test_check_probability_vector(self):
        out = check_probability_vector(np.array([0.0, 0.5, 1.0]), "p")
        assert np.all((0 <= out) & (out <= 1))
        with pytest.raises(ValueError, match="lie in"):
            check_probability_vector(np.array([1.5]), "p")
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="p entries must be finite"):
                check_probability_vector(np.array([0.5, bad]), "p")
        with pytest.raises(ValueError, match="sum"):
            check_probability_vector(np.array([0.5, 0.2]), "p", allow_improper=False)


def wait_until(cond, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not cond():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestRunAhead:
    """The one background thread: ordered, bounded, joined on every exit."""

    def test_order_preserved_and_thread_joined_on_exhaustion(self):
        it = ahead.run_ahead(iter_squares(50), 2)
        assert not helper_threads()  # starts with the first next()
        assert next(it)[0] == 0 and helper_threads()
        assert [item for item, _waited in it] == [i * i for i in range(1, 50)]
        assert not helper_threads()
        assert list(it) == []  # exhausted stays exhausted

    @pytest.mark.parametrize("slots", [1, 2, 5])
    def test_producer_never_more_than_slots_ahead(self, slots):
        produced = []

        def gen():
            for i in range(30):
                produced.append(i)
                yield i

        with closing(ahead.run_ahead(gen(), slots)) as it:
            assert next(it)[0] == 0
            # Left alone, the producer fills its slots and stops there.
            wait_until(lambda: len(produced) == 1 + slots)
            time.sleep(0.02)
            assert len(produced) == 1 + slots
            for taken, (item, _waited) in enumerate(it, start=2):
                assert item == taken - 1
                assert len(produced) <= taken + slots
        assert produced == list(range(30)) and not helper_threads()

    def test_producer_exception_reaches_the_consumer_in_order(self):
        def gen():
            yield 1
            yield 2
            raise RuntimeError("stream ended early")

        it = ahead.run_ahead(gen(), 2)
        assert [next(it)[0], next(it)[0]] == [1, 2]
        with pytest.raises(RuntimeError, match="stream ended early") as err:
            next(it)
        # The producer's own frame is in the traceback.
        assert any(tb.name == "gen" for tb in err.traceback)
        assert not helper_threads()
        with pytest.raises(StopIteration):
            next(it)

    def test_close_is_idempotent_and_joins_a_full_handoff(self):
        produced, finalized = [], []

        def gen():
            try:
                for i in range(100):
                    produced.append(i)
                    yield i
            finally:
                finalized.append(True)

        it = ahead.run_ahead(gen(), 2)
        assert next(it)[0] == 0
        wait_until(lambda: len(produced) == 3)  # producer parked on a slot
        time.sleep(0.01)
        it.close()
        assert not helper_threads() and finalized == [True]
        assert len(produced) == 3
        it.close()
        assert list(it) == []

    def test_consumer_abandoning_midway_joins_the_thread(self):
        with pytest.raises(KeyError):
            with closing(ahead.run_ahead(iter_squares(1000), 2)) as it:
                for item, _waited in it:
                    if item == 9:
                        raise KeyError("consumer failed")
        assert not helper_threads()

    def test_waited_marks_empty_handoffs_only(self):
        produced, gate = [], threading.Event()

        def gen():
            for i in range(3):
                if i == 2:
                    gate.wait()
                produced.append(i)
                yield i

        with closing(ahead.run_ahead(gen(), 2)) as it:
            assert next(it)[0] == 0  # may or may not have been ready yet
            wait_until(lambda: produced == [0, 1])
            time.sleep(0.01)
            assert next(it) == (1, False)
            threading.Timer(0.02, gate.set).start()
            assert next(it) == (2, True)


    def test_stress_more_threads_than_cores_on_a_short_switch_interval(self):
        """Six producers (this host has fewer cores) preempted every 10 µs:
        every hand-off keeps its order, loses nothing, and stays within its
        bound — what a lost update on the queue or the semaphore would break."""
        slots, n, produced = 2, 3000, [0] * 6

        def gen(i):
            for item in range(n):
                produced[i] += 1
                yield item

        its = [ahead.run_ahead(gen(i), slots) for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        deadline = time.monotonic() + 60.0
        try:
            for taken in range(1, n + 1):
                for i, it in enumerate(its):
                    assert next(it)[0] == taken - 1
                    assert produced[i] <= taken + slots
                assert time.monotonic() < deadline
            for it in its:
                assert list(it) == []
        finally:
            sys.setswitchinterval(interval)
            for it in its:
                it.close()
        assert produced == [n] * 6 and not helper_threads()


def iter_squares(n):
    for i in range(n):
        yield i * i


class TestSpareCoreRule:
    def test_usable_cores_is_the_affinity_mask(self):
        import os
        assert ahead.usable_cores() == len(os.sched_getaffinity(0)) >= 1

    def test_spare_core_compares_cores_to_compute_processes(self, monkeypatch):
        monkeypatch.setattr(ahead, "usable_cores", lambda: 4)
        assert [ahead.spare_core(n) for n in (1, 3, 4, 8)] == \
            [True, True, False, False]
