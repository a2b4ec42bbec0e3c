"""Smoke coverage for the perf harness: the headline speedups are real.

The full harness (``benchmarks/perf/run.py``) times every tracked stage and
is gated in CI against ``baselines.json``.  This pytest wrapper runs the
cheap, high-signal subset inside the regular suite so a regression that
erases the active-set / coalesce wins fails fast, with CI-safe floors
(absolute walls vary by runner; the *ratios* are stable):

* ``partitionwise_vip`` must stay bit-identical to the production full
  evaluation, within the summation-order bound of the dense baseline, and
  at least 2.5x faster on the papers-mini 8-partition config (measured
  locally at ~3.5-4x; the committed BENCH_PERF.json records the headline).
* ``FetchPlan.coalesce`` at depth 16 must beat the seed bookkeeping.
"""

import numpy as np
import pytest

import harness
from repro.core import RunConfig
from repro.graph.datasets import make_synthetic_dataset
from repro.vip import partitionwise_vip
from repro.vip.analytic import uniform_minibatch_probability
from vip_cases import assert_within_oracle_bound, full_evaluation  # tests/vip


@pytest.fixture(scope="module")
def small_dataset():
    return make_synthetic_dataset(
        "perf-smoke-mini", num_vertices=6_000, avg_degree=10.0,
        feature_dim=16, num_classes=6, num_communities=8,
        intra_fraction=0.9, power=2.6, train_frac=0.3, seed=2,
    )


@pytest.mark.benchmark(group="perf_smoke")
def test_vip_active_set_speedup(benchmark, artifacts):
    ds = artifacts.dataset(harness.DATASET)
    cfg = RunConfig(num_machines=harness.K).resolve(ds)
    part = artifacts.partition(harness.DATASET, harness.K)

    dense_wall, vip_dense = harness._best_of(
        lambda: harness.partitionwise_vip_dense(
            ds.graph, part, ds.train_idx, cfg.fanouts, cfg.batch_size),
        repeats=2)
    wall, vip = harness._best_of(
        lambda: partitionwise_vip(ds.graph, part, ds.train_idx,
                                  cfg.fanouts, cfg.batch_size),
        repeats=2)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    benchmark.extra_info["dense_s"] = round(dense_wall, 4)
    benchmark.extra_info["active_s"] = round(wall, 4)

    # Row k is the full evaluation seeded by partition k, bit for bit, and
    # that is the dense oracle up to summation order (the per-hop bound).
    owner = part.assignment[ds.train_idx]
    for k in range(harness.K):
        p0 = uniform_minibatch_probability(
            ds.num_vertices, ds.train_idx[owner == k], cfg.batch_size)
        full = full_evaluation(ds.graph, p0, cfg.fanouts)
        assert np.array_equal(vip[k], full.access)
        assert_within_oracle_bound(full, ds.graph, p0, cfg.fanouts)
    assert np.max(np.abs(vip - vip_dense)) <= harness.ORACLE_TOLERANCE
    assert dense_wall / wall >= 2.5, (
        f"active-set VIP speedup collapsed: {dense_wall / wall:.2f}x "
        f"(dense {dense_wall:.3f}s vs active {wall:.3f}s)"
    )


def test_coalesce_rewrite_wins_at_depth(small_dataset):
    stages = {}
    harness.coalesce_stages(stages, dataset=small_dataset, depth=16,
                            ids_per_plan=2_048)
    entry = stages["coalesce.depth16"]
    assert entry["speedup_vs_dense"] > 1.0, entry


def test_sampling_stage_matches_reference(small_dataset):
    """The stage asserts MFG + cursor digests equal to the frozen sampler's
    before reporting, and the reference argsorts more keys than are kept."""
    stages = {}
    harness.sampling_stages(stages, dataset=small_dataset, rounds=1)
    entry = stages["sampling.sample"]
    assert entry["batches"] > 0 and entry["dense_wall_s"] > 0
    assert entry["candidate_edges"] > entry["rows_per_s"] * entry["wall_s"]


def test_window_handoff_stage_matches_the_drawn_windows(small_dataset):
    """The stage asserts both hand-offs give back every drawn MFG before
    reporting; the packed one sends one frame per window."""
    stages = {}
    harness.window_handoff_stages(stages, dataset=small_dataset, rounds=1)
    entry = stages["sampling.window_handoff"]
    assert entry["windows"] > 0 and entry["dense_wall_s"] > 0
    assert entry["mb_per_epoch"] > 0


def test_sync_update_stage_holds_the_bound_update_to_k_steps(
        small_dataset, monkeypatch):
    """The stage asserts every replica's weights ``==`` the K-step loop's
    before reporting: an update that is stepped but not bound fails it."""
    import repro.distributed.comm as comm

    stages = {}
    harness.sync_update_stages(stages, dataset=small_dataset, steps=2,
                               rounds=1)
    entry = stages["train.sync_update"]
    assert entry["machines"] == 4 and entry["parameters"] > 0
    assert entry["wall_s"] > 0 and entry["dense_wall_s"] > 0
    monkeypatch.setattr(comm, "bind_replicas", lambda table: None)
    with pytest.raises(AssertionError, match="diverged"):
        harness.sync_update_stages({}, dataset=small_dataset, steps=2,
                                   rounds=1)


def test_harness_entry_schema(small_dataset):
    """Every entry carries the documented keys with sane values."""
    stages = {}
    harness.gather_stages(stages, dataset=small_dataset, rounds=10,
                          ids_per_round=512)
    (_name, entry), = stages.items()
    assert set(entry) >= {"wall_s", "rows_per_s", "speedup_vs_dense"}
    assert entry["wall_s"] > 0
    assert entry["rows_per_s"] > 0


# ----------------------------------------------------------------------
# run.py trajectory + gating logic (pure, no harness runs)
# ----------------------------------------------------------------------

_FAKE_DOC = {
    "dataset": "papers-mini",
    "stages": {
        "train.epoch_bsp_multiproc": {
            "wall_s": 1.5, "dense_wall_s": 1.8, "speedup_vs_dense": 1.2,
            "spawn_wall_s": 4.0, "warm_start_wall_s": 0.1, "cores": 8,
            "mean_loss": 2.9,
        },
        "gather.into": {"wall_s": 0.2, "speedup_vs_dense": 1.4},
    },
}


def test_append_history_entries_are_jsonl(tmp_path):
    import json

    import run

    path = tmp_path / "history.jsonl"
    first = run.append_history(_FAKE_DOC, str(path))
    run.append_history(_FAKE_DOC, str(path))
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2  # appends, never truncates
    for line in lines:
        entry = json.loads(line)
        assert entry["dataset"] == "papers-mini"
        assert "timestamp_utc" in entry and "git_sha" in entry
        assert entry["dirty"] in (True, False, None)
        mp = entry["stages"]["train.epoch_bsp_multiproc"]
        assert mp["wall_s"] == 1.5 and mp["cores"] == 8
        assert "mean_loss" not in mp  # compact trajectory, walls only
    assert first["stages"]["gather.into"] == {
        "wall_s": 0.2, "speedup_vs_dense": 1.4}
    assert first["src_code_lines"] == run.loc.src_code_lines() > 0


def test_history_stamps_the_tree_it_measured(tmp_path):
    """``git_sha`` alone would name the parent of an uncommitted tree:
    ``dirty`` says whether the measured tree was that commit."""
    import subprocess

    import run

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t",
                        *args], cwd=tmp_path, check=True,
                       capture_output=True)

    assert run.git_stamp(str(tmp_path)) == {"git_sha": None, "dirty": None}
    git("init", "-q")
    (tmp_path / "code.py").write_text("x = 1\n")
    git("add", "code.py")
    git("commit", "-q", "-m", "one")
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tmp_path,
                         capture_output=True, text=True).stdout.strip()
    assert run.git_stamp(str(tmp_path)) == {"git_sha": sha, "dirty": False}
    (tmp_path / "code.py").write_text("x = 2\n")
    assert run.git_stamp(str(tmp_path)) == {"git_sha": sha, "dirty": True}
    git("commit", "-q", "-am", "two")
    stamp = run.git_stamp(str(tmp_path))
    assert stamp["git_sha"] != sha and stamp["dirty"] is False
    (tmp_path / "new.py").write_text("y = 1\n")
    assert run.git_stamp(str(tmp_path))["dirty"] is True


def test_loc_counts_code_lines_only():
    """Blank lines, comments and docstrings are not code; a string that
    is not a docstring, and every line of a multi-line statement, are."""
    import loc

    source = '''"""Module docstring,
spanning two lines."""

# a comment
import os  # trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        x = "not a docstring"
        return os.path.join(x,
                            x)
'''
    assert loc.code_lines(source) == 6


def test_committed_history_file_is_valid_jsonl():
    """The committed trajectory (when present) must stay parseable — the
    harness appends blindly, so a torn line would poison every later run."""
    import json
    import os

    import run

    path = os.path.join(os.path.dirname(os.path.abspath(run.__file__)),
                        "history.jsonl")
    if not os.path.exists(path):
        pytest.skip("no committed history yet")
    with open(path) as fh:
        for line in fh:
            entry = json.loads(line)
            assert "stages" in entry and "timestamp_utc" in entry


def test_parallel_gates_conditional_on_cores():
    """Speedup floors and amortization ratios bind only at the baseline's
    requires_cores — a 1-core run records the numbers without failing."""
    import copy

    import run

    baselines = {
        "max_regression": 2.5,
        "stages": {
            "train.epoch_bsp_multiproc": {
                "wall_s": 4.0, "min_speedup_vs_dense": 1.0,
                "max_wall_vs_dense": 1.2, "requires_cores": 2,
            },
        },
    }
    slow = copy.deepcopy(_FAKE_DOC)
    entry = slow["stages"]["train.epoch_bsp_multiproc"]
    entry.update(wall_s=3.0, speedup_vs_dense=0.6, cores=1)
    assert run.check_against_baselines(slow, baselines) == []

    entry["cores"] = 8  # same numbers with real cores -> both gates fire
    failures = run.check_against_baselines(slow, baselines)
    assert len(failures) == 2
    assert any("speedup_vs_dense" in f for f in failures)
    assert any("max_wall_vs_dense" in f or "dense_wall_s" in f
               for f in failures)

    good = copy.deepcopy(_FAKE_DOC)
    good["stages"]["train.epoch_bsp_multiproc"]["cores"] = 8
    assert run.check_against_baselines(good, baselines) == []


def test_diff_names_the_stage_that_moved_most(tmp_path, capsys):
    """``run.py --diff A B``: entries by line index or sha prefix (the
    latest of a sha), stages by size of change either way."""
    import json
    import re

    import run

    def entry(sha, **walls):
        return {"git_sha": sha, "dirty": False, "timestamp_utc": "t",
                "stages": {stage: {"wall_s": w} for stage, w in walls.items()}}

    path = tmp_path / "history.jsonl"
    path.write_text("".join(json.dumps(e) + "\n" for e in (
        entry("aaa111", fast=1.0, slow=1.0, gone=1.0),
        entry("bbb222", fast=0.9, slow=1.0, gone=1.0),
        entry("bbb222", fast=0.5, slow=1.5, new=1.0))))
    assert run.history_entry(str(path), "0")["stages"]["fast"]["wall_s"] == 1.0
    assert run.history_entry(str(path), "-1") == \
        run.history_entry(str(path), "bbb")  # the sha's latest entry
    with pytest.raises(SystemExit, match="no line 7"):
        run.history_entry(str(path), "7")
    with pytest.raises(SystemExit, match="'ccc'"):
        run.history_entry(str(path), "ccc")

    a, b = (run.history_entry(str(path), ref) for ref in ("aaa", "-1"))
    assert [(stage, ratio) for stage, _a, _b, ratio
            in run.diff_entries(a, b)] == [("fast", 0.5), ("slow", 1.5)]
    assert run.main(["--history", str(path), "--diff", "aaa", "-1"]) == 0
    out = capsys.readouterr().out
    assert "moved most: fast (0.500x)" in out
    assert re.search(r"gone +only in A", out)
    assert re.search(r"new +only in B", out)
