"""Tests for shared utilities: RNG management, tables, validation."""

import gc
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.distributed.multiproc.channel import ChannelError
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


class Owner:
    """Something for an ``AheadProcess`` to belong to."""


def squares(request):
    """``produce`` for the tests below: ``request["n"]`` squares, each
    logged to ``request["log"]`` (if given) as the child draws it."""
    for i in range(request["n"]):
        if request.get("log"):
            with open(request["log"], "a") as f:
                f.write(f"{i}\n")
        if i in request.get("sleep_before", ()):
            time.sleep(0.3)
        if i == request.get("fail_at"):
            raise RuntimeError(f"stream ended early at {i}")
        if i == request.get("hang_at"):
            time.sleep(60)
        yield i * i
    return f"{request['n']} drawn in {os.getpid()}"


def one_more(request, _value):
    """``follow`` for the guess tests: the next request asks for one more."""
    return {**request, "n": request["n"] + 1}


def logged(log):
    return [int(line) for line in log.read_text().splitlines()]


def drawn(log):
    return len(logged(log)) if log.exists() else 0


class TestAheadProcess:
    """The one background worker: a forked child, ordered, bounded, closed
    with its owner, its failures raised promptly in the parent."""

    def test_requests_stream_in_order_and_return_the_generators_value(self):
        owner = Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner)
        try:
            assert proc.pid != os.getpid() and proc in ahead.OPEN
            for n in (5, 1, 0, 7):  # stale credits are skipped between them
                proc.request({"n": n})
                assert [proc.take()[0] for _ in range(n)] == \
                    [i * i for i in range(n)]
                assert proc.result() == f"{n} drawn in {proc.pid}"
        finally:
            proc.close()
        assert proc not in ahead.OPEN and proc.channel.proc.exitcode == -9
        proc.close()  # idempotent

    @pytest.mark.parametrize("slots", [1, 2, 5])
    def test_the_child_never_draws_more_than_slots_ahead(self, slots,
                                                         tmp_path):
        log, owner = tmp_path / "drawn", Owner()
        proc = ahead.AheadProcess(squares, slots, owner=owner)
        try:
            proc.request({"n": 20, "log": str(log)})
            # Left alone, the child fills its slots and stops there.
            wait_until(lambda: drawn(log) == slots)
            time.sleep(0.05)
            assert drawn(log) == slots
            for taken in range(1, 21):
                assert proc.take()[0] == (taken - 1) ** 2
                assert drawn(log) <= taken + slots
            proc.result()
        finally:
            proc.close()
        assert drawn(log) == 20

    def test_waited_marks_items_not_yet_in_the_pipe(self):
        owner = Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner)
        try:
            proc.request({"n": 2, "sleep_before": (1,)})
            assert proc.channel.conn.poll(5.0)
            assert proc.take() == (0, False)
            assert proc.take() == (1, True)  # drawn 0.3 s after the first
            proc.result()
        finally:
            proc.close()

    def test_an_exception_in_the_child_reaches_the_parent_with_its_traceback(
            self):
        owner = Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner)
        try:
            proc.request({"n": 5, "fail_at": 2})
            assert [proc.take()[0], proc.take()[0]] == [0, 1]
            with pytest.raises(ChannelError, match="stream ended early at 2")\
                    as err:
                proc.take()
            assert "in squares" in str(err.value)  # the child's own frame
            proc.channel.proc.join(5.0)
            assert proc.channel.proc.exitcode == 1
        finally:
            proc.close()

    def test_a_killed_child_raises_promptly_with_its_exit_code(self):
        owner = Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner)
        try:
            proc.request({"n": 10})
            proc.take()
            os.kill(proc.pid, signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(ChannelError, match=r"exit code -9"):
                for _ in range(9):
                    proc.take()
            assert time.monotonic() - t0 < 2.0
        finally:
            proc.close()

    def test_the_child_exits_on_end_of_stream_from_its_parent(self):
        owner = Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner)
        proc.channel.close()
        proc.channel.proc.join(5.0)
        assert proc.channel.proc.exitcode == 0
        proc.close()
        assert proc not in ahead.OPEN

    def test_collecting_the_owner_closes_the_child(self):
        owner = Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner)
        del owner
        gc.collect()
        assert proc not in ahead.OPEN and proc.channel.proc.exitcode == -9

    # -- the guess: with ``follow``, the child draws the next request's
    # items before it arrives, and serves them only to that request.

    def test_a_matching_request_is_served_from_the_guess(self, tmp_path):
        """The guessed items are drawn once: the stream the request gets
        continues the guess's generator after them."""
        log, owner = tmp_path / "drawn", Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner, follow=one_more)
        try:
            proc.request({"n": 3, "log": str(log)})
            assert [proc.take()[0] for _ in range(3)] == [0, 1, 4]
            proc.result()
            assert proc.guessed is False
            wait_until(lambda: drawn(log) == 3 + 2)  # the guess: n = 4
            proc.request({"n": 4, "log": str(log)})
            assert [proc.take()[0] for _ in range(4)] == [0, 1, 4, 9]
            assert proc.result() == f"4 drawn in {proc.pid}"
            assert proc.guessed is True
            wait_until(lambda: drawn(log) == 3 + 4 + 2)  # the next: n = 5
            assert logged(log) == [0, 1, 2, 0, 1, 2, 3, 0, 1]
        finally:
            proc.close()

    def test_any_other_request_gets_the_fresh_stream(self, tmp_path):
        log, owner = tmp_path / "drawn", Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner, follow=one_more)
        try:
            proc.request({"n": 3, "log": str(log)})
            [proc.take() for _ in range(3)]
            proc.result()
            wait_until(lambda: drawn(log) == 3 + 2)
            proc.request({"n": 6, "log": str(log)})  # not the guessed n = 4
            assert [proc.take()[0] for _ in range(6)] == \
                [i * i for i in range(6)]
            assert proc.result() == f"6 drawn in {proc.pid}"
            assert proc.guessed is False
            assert logged(log)[:3 + 2 + 6] == [0, 1, 2, 0, 1, *range(6)]
        finally:
            proc.close()

    @pytest.mark.parametrize("slots", [1, 2, 5])
    def test_a_guess_never_draws_more_than_slots(self, slots, tmp_path):
        log, owner = tmp_path / "drawn", Owner()
        proc = ahead.AheadProcess(squares, slots, owner=owner,
                                  follow=one_more)
        try:
            proc.request({"n": 10, "log": str(log)})
            [proc.take() for _ in range(10)]
            proc.result()
            wait_until(lambda: drawn(log) == 10 + slots)
            time.sleep(0.05)
            assert drawn(log) == 10 + slots
        finally:
            proc.close()

    def test_stale_credits_do_not_stop_a_guess(self, tmp_path):
        """A stream of 20 leaves the credits for its last ``slots`` items
        in the pipe: the guess drawn behind them still fills its slots and
        is served."""
        log, owner = tmp_path / "drawn", Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner, follow=one_more)
        try:
            proc.request({"n": 20, "log": str(log)})
            [proc.take() for _ in range(20)]
            proc.result()
            wait_until(lambda: drawn(log) == 20 + 2)
            proc.request({"n": 21, "log": str(log)})
            assert [proc.take()[0] for _ in range(21)][-1] == 400
            proc.result()
            assert proc.guessed is True
            assert logged(log)[:20 + 21] == [*range(20), *range(21)]
        finally:
            proc.close()

    def test_a_request_waits_for_the_guessed_item_in_progress_at_most(
            self, tmp_path):
        """The guess's items each take 0.3 s: a different request arriving
        during the first is served once that item is drawn, before the
        guess draws another."""
        log, owner = tmp_path / "guessed", Owner()
        proc = ahead.AheadProcess(
            squares, 3, owner=owner,
            follow=lambda req, _value: (
                {"n": 3, "sleep_before": (0, 1, 2), "log": str(log)}
                if req.get("first") else {"n": 0}))
        try:
            proc.request({"n": 1, "first": True})
            proc.take()
            proc.result()
            wait_until(lambda: drawn(log) == 1)  # inside the first item
            proc.request({"n": 1})
            assert proc.take()[0] == 0
            proc.result()
            assert proc.guessed is False
            assert logged(log) == [0]
        finally:
            proc.close()

    def test_a_silent_child_raises_after_the_timeout(self, monkeypatch):
        """A child that is alive but sends nothing fails the waiting call
        after ``TIMEOUT_S``; it does not hang it."""
        monkeypatch.setattr(ahead, "TIMEOUT_S", 1.0)
        owner = Owner()
        proc = ahead.AheadProcess(squares, 2, owner=owner)
        try:
            proc.request({"n": 2, "hang_at": 1})
            assert proc.take()[0] == 0
            t0 = time.monotonic()
            with pytest.raises(ChannelError, match="no message within 1s"):
                proc.take()
            assert 0.9 < time.monotonic() - t0 < 5.0
            assert proc.channel.proc.is_alive()
        finally:
            proc.close()

    def test_a_guess_that_raises_is_dropped(self):
        """The failure is not the parent's until it asks for that stream:
        then it is served afresh and raises where the parent waits."""
        owner = Owner()
        proc = ahead.AheadProcess(
            squares, 2, owner=owner,
            follow=lambda req, _value: {"n": 3, "fail_at": 0})
        try:
            for _ in range(2):  # a request the guess did not foresee
                proc.request({"n": 2})
                assert [proc.take()[0] for _ in range(2)] == [0, 1]
                proc.result()
                assert proc.guessed is False
            proc.request({"n": 3, "fail_at": 0})
            with pytest.raises(ChannelError, match="stream ended early at 0"):
                proc.take()
        finally:
            proc.close()

    def test_forking_needs_a_single_threaded_process(self):
        assert ahead.can_fork()
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert not ahead.can_fork()
        finally:
            stop.set()
            thread.join()
        assert ahead.can_fork()


class TestSpareCoreRule:
    def test_usable_cores_is_the_affinity_mask(self):
        assert ahead.usable_cores() == len(os.sched_getaffinity(0)) >= 1

    def test_spare_core_counts_a_sampler_beside_each_compute_process(
            self, monkeypatch):
        monkeypatch.setattr(ahead, "usable_cores", lambda: 4)
        assert [ahead.spare_core(n) for n in (1, 2, 3, 4)] == \
            [True, True, False, False]
