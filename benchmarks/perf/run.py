#!/usr/bin/env python
"""Run the perf-regression harness and write BENCH_PERF.json.

Usage (from the repo root)::

    PYTHONPATH=src python benchmarks/perf/run.py                 # full run
    PYTHONPATH=src python benchmarks/perf/run.py --check \\
        benchmarks/perf/baselines.json                           # CI gate
    PYTHONPATH=src python benchmarks/perf/run.py --diff -2 -1    # last two runs

Writes the machine-readable stage table (``stage -> {wall_s, rows_per_s,
speedup_vs_dense}``) to ``BENCH_PERF.json`` at the repo root by default.
With ``--check``, every tracked stage's wall time is compared against the
committed baseline and the process exits non-zero if any stage regressed by
more than the baseline file's ``max_regression`` factor (generous, to ride
out CI-runner variance) — or if a tracked speedup fell below its floor.
With ``--diff A B``, nothing runs: two entries of the history file, each
named by line index or ``git_sha`` prefix, are compared stage by stage
(wall ratio B/A, the largest change first) and the stage that moved most
is named.
"""

import argparse
import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
_REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
if os.path.isdir(os.path.join(_REPO_ROOT, "src", "repro")):
    sys.path.insert(0, os.path.join(_REPO_ROOT, "src"))

import harness  # noqa: E402  (sibling module; resolved via the path insert)
import loc  # noqa: E402


def check_against_baselines(doc: dict, baselines: dict) -> list:
    """Return a list of human-readable violations (empty = pass)."""
    failures = []
    max_regression = float(baselines.get("max_regression", 2.0))
    for stage, base in baselines.get("stages", {}).items():
        got = doc["stages"].get(stage)
        if got is None:
            failures.append(f"{stage}: missing from this run")
            continue
        # Millisecond-scale stages carry no wall_s baseline: shared-runner
        # noise dwarfs them, so only their speedup floors are gated.
        if "wall_s" in base:
            limit = float(base["wall_s"]) * max_regression
            if got["wall_s"] > limit:
                failures.append(
                    f"{stage}: wall_s {got['wall_s']:.4f} > {limit:.4f} "
                    f"(baseline {base['wall_s']} x {max_regression})"
                )
        # Parallelism assertions (speedup floors, spawn-amortization
        # ratios) only bind when the run had the CPU budget they assume:
        # K workers time-slicing one core can eliminate overhead, never
        # compute.  ``requires_cores`` in the baseline names that budget;
        # runs below it record the numbers without gating on them.
        requires_cores = int(base.get("requires_cores", 1))
        cores = int(got.get("cores", requires_cores))
        parallel_gates_bind = cores >= requires_cores
        floor = base.get("min_speedup_vs_dense")
        if floor is not None and parallel_gates_bind:
            speedup = got.get("speedup_vs_dense")
            if speedup is None or speedup < float(floor):
                failures.append(
                    f"{stage}: speedup_vs_dense {speedup} < floor {floor}"
                )
        # Spawn amortization: a steady-state (post-first) epoch must stay
        # within the given ratio of the in-process epoch wall.
        ratio = base.get("max_wall_vs_dense")
        if ratio is not None and parallel_gates_bind:
            dense = got.get("dense_wall_s")
            if dense is None or got["wall_s"] > float(ratio) * dense:
                failures.append(
                    f"{stage}: wall_s {got['wall_s']} > "
                    f"{ratio} x dense_wall_s {dense}"
                )
    return failures


def git_stamp(root: str = _REPO_ROOT) -> dict:
    """The tree a run measured: ``git_sha``, the commit checked out, and
    ``dirty``, whether the working tree differed from it (a changed,
    staged or untracked, non-ignored file) — then the code that ran is
    ``git_sha`` plus uncommitted changes, not ``git_sha``.  Both ``None``
    outside a git checkout."""
    import subprocess

    def git(*args):
        return subprocess.run(["git", *args], capture_output=True,
                              text=True, cwd=root, timeout=10)

    try:
        head = git("rev-parse", "HEAD")
        if head.returncode:
            return {"git_sha": None, "dirty": None}
        return {"git_sha": head.stdout.strip(),
                "dirty": bool(git("status", "--porcelain").stdout.strip())}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "dirty": None}


def append_history(doc: dict, path: str) -> dict:
    """Append one compact trajectory entry for this run to ``path``.

    One JSON line per run — the measured tree (:func:`git_stamp`), UTC
    timestamp, ``src/repro``'s code line count (:mod:`loc`) and the
    per-stage walls/speedups — so the BENCH trajectory over commits can be
    plotted without re-running old checkouts.  Returns the appended entry.
    """
    import datetime

    entry = {
        **git_stamp(),
        "timestamp_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "dataset": doc.get("dataset"),
        "src_code_lines": loc.src_code_lines(),
        "stages": {
            stage: {
                key: val for key, val in e.items()
                if key in ("wall_s", "speedup_vs_dense", "dense_wall_s",
                           "spawn_wall_s", "warm_start_wall_s", "cores",
                           "wire_sent_bytes", "wire_received_bytes",
                           "warm_pool_hit", "warm_pool_miss")
                and val is not None
            }
            for stage, e in doc["stages"].items()
        },
    }
    with open(path, "a") as fh:
        json.dump(entry, fh, sort_keys=True)
        fh.write("\n")
    return entry


def history_entry(path: str, ref: str) -> dict:
    """The history entry ``ref`` names: a line index (``0`` the first,
    ``-1`` the last) or a ``git_sha`` prefix (its latest entry)."""
    with open(path) as fh:
        entries = [json.loads(line) for line in fh if line.strip()]
    try:
        return entries[int(ref)]
    except ValueError:
        pass
    except IndexError:
        raise SystemExit(f"{path} has {len(entries)} entries, no line {ref}")
    matches = [e for e in entries if (e.get("git_sha") or "").startswith(ref)]
    if not matches:
        raise SystemExit(f"no entry of {path} has a git_sha starting {ref!r}")
    return matches[-1]


def diff_entries(a: dict, b: dict) -> list:
    """``(stage, wall_a, wall_b, ratio b/a)`` for every stage with a wall
    in both entries, the largest change (either way) first."""
    rows = [(stage, a["stages"][stage]["wall_s"], e["wall_s"],
             e["wall_s"] / a["stages"][stage]["wall_s"])
            for stage, e in b["stages"].items()
            if e.get("wall_s") and a["stages"].get(stage, {}).get("wall_s")]
    return sorted(rows, key=lambda row: -abs(math.log(row[3])))


def print_diff(a: dict, b: dict) -> None:
    def name(e):
        dirty = "+dirty" if e.get("dirty") else ""
        return f"{(e.get('git_sha') or '?')[:8]}{dirty} {e['timestamp_utc']}"

    rows = diff_entries(a, b)
    print(f"A {name(a)}\nB {name(b)}")
    width = max([len(r[0]) for r in rows] + [5])
    print(f"  {'stage':<{width}}  {'A ms':>10}  {'B ms':>10}  B/A")
    for stage, wall_a, wall_b, ratio in rows:
        print(f"  {stage:<{width}}  {wall_a * 1e3:>10.2f}  "
              f"{wall_b * 1e3:>10.2f}  {ratio:.3f}")
    for only, entry in (("A", a), ("B", b)):
        other = b if only == "A" else a
        for stage in sorted(set(entry["stages"]) - set(other["stages"])):
            print(f"  {stage:<{width}}  only in {only}")
    if rows:
        stage, _a, _b, ratio = rows[0]
        print(f"moved most: {stage} ({ratio:.3f}x)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=os.path.join(_REPO_ROOT,
                                                      "BENCH_PERF.json"),
                        help="output path (default: <repo>/BENCH_PERF.json)")
    parser.add_argument("--check", metavar="BASELINES.json", default=None,
                        help="fail on regression vs this baseline file")
    parser.add_argument("--history",
                        default=os.path.join(os.path.dirname(
                            os.path.abspath(__file__)), "history.jsonl"),
                        help="trajectory file to append this run to "
                             "(empty string disables)")
    parser.add_argument("--requests", type=int, default=1_200,
                        help="serving-stage request count")
    parser.add_argument("--engines", default="bsp,pipelined,async",
                        help="comma-separated engine list for epoch stages")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"),
                        help="compare two --history entries (line index or "
                             "git_sha prefix) stage by stage; runs nothing")
    args = parser.parse_args(argv)
    if args.diff:
        print_diff(*(history_entry(args.history, ref) for ref in args.diff))
        return 0

    doc = harness.run_all(num_requests=args.requests,
                          engines=tuple(e for e in args.engines.split(",") if e))
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.out}")
    if args.history:
        append_history(doc, args.history)
        print(f"appended history entry to {args.history}")
    width = max(len(s) for s in doc["stages"])
    for stage, entry in sorted(doc["stages"].items()):
        speedup = entry.get("speedup_vs_dense")
        speedup = f"  {speedup:>6.2f}x vs dense" if speedup else ""
        print(f"  {stage:<{width}}  {entry['wall_s']*1e3:>10.2f} ms{speedup}")
    print(f"src_code_lines {loc.src_code_lines()}")

    if args.check:
        with open(args.check) as fh:
            baselines = json.load(fh)
        failures = check_against_baselines(doc, baselines)
        if failures:
            print("PERF REGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  {f}", file=sys.stderr)
            return 1
        print(f"all {len(baselines.get('stages', {}))} tracked stages "
              f"within {baselines.get('max_regression', 2.0)}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
