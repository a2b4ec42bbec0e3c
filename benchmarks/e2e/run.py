"""End-to-end benchmark runner — the command in ``BENCHMARK.json``.

One workload, one run, in a fresh child of this process — what the driver
calls::

    python3 benchmarks/e2e/run.py --workload train_static --seed 0 \\
        --seconds 15 --trace 0

prints every metric by name and, as the last line of stdout, one JSON object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The command returns
only after every process the run started has ended (``supervised``).

Every workload (each repeat in a fresh subprocess: cold imports, cold
Planner, honest ``ru_maxrss``)::

    python benchmarks/e2e/run.py --seed 0 [--repeats N] [--trace]
        [--scale full|smoke] [--out results.json]

and ``--compare A.json B.json`` judges two such result files by the bounds.
Exits non-zero when a correctness check fails.  Results and traces go to
``benchmarks/e2e/out/`` only.
"""

import os

# Pin BLAS/OpenMP before numpy loads; worker processes inherit it.  Unpinned,
# a K=2 multiproc epoch on 2 cores is 0.7-3.4 s and bimodal instead of 0.23 s.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")
sys.path[:0] = [HERE, os.path.join(REPO, "src")]

import metrics  # noqa: E402


def provenance(seed):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "nproc": os.cpu_count(),
        "sched_getaffinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_sha": sha,
        "seed": seed,
    }


def quartiles(values):
    """``{median, q1, q3, n}`` (quartiles as ``statistics.quantiles``)."""
    values = list(values)
    q1, _mid, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                    else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


# ----------------------------------------------------------------------
# One workload: measured in a forked child, supervised by this process.

def run_one(workload, seed, seconds, trace, scale):
    """Returns ``(contract_result, detail)``; ``detail`` goes to the result
    file only."""
    import workloads
    from spans import SpanRecorder

    run_id = f"{workload}-s{seed}-{'traced' if trace else 'untraced'}"
    recorder = SpanRecorder(workload, run_id) if trace else None
    run = workloads.Run(workload, seed, scale, seconds, recorder)
    end_to_end = workloads.RUNNERS[workload](run)
    if trace:
        run.layer["machine.ref_kernel_ms"] = statistics.median(
            run.samples["ref_kernel_ms"])
        measured = metrics.layer_names(workload)
        run.check("layer_metrics_complete", set(run.layer) == measured,
                  sorted(set(run.layer) ^ measured))
        values = {name: float(run.layer.get(name, 0.0))
                  for name in metrics.LAYER_UNITS}
        units = metrics.LAYER_UNITS
        recorder.write_chrome(os.path.join(OUT, f"trace-{workload}.json"))
    else:
        values, units = end_to_end, metrics.E2E_UNITS
    result = {
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    detail = {
        "run": run_id, "workload": workload, "seed": seed, "scale": scale,
        "seconds": seconds, "sizes": run.sizes,
        "samples": {k: quartiles(v) for k, v in run.samples.items()},
        "failed_checks": {k: v for k, v in run.checks.items() if v},
        "checks_run": sorted(run.checks),
        "provenance": provenance(seed),
        "result": result,
    }
    return result, detail


#: How long processes that outlive the workload get to end by themselves.
ORPHAN_GRACE_S = 10.0
PR_SET_CHILD_SUBREAPER = 36


def children_of(pid):
    out = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
            except (OSError, ValueError, IndexError):
                continue
            if ppid == pid:
                out.append(int(entry))
    return out


def supervised(work):
    """Run ``work()`` in a forked child; return its exit code only once every
    process it started has ended.

    ``multiprocessing``'s resource tracker (started with the multiproc
    backend's first worker) exits when its parent's end of a pipe closes, that
    is shortly *after* the parent: a run that measures in this process leaves
    it behind for the next run to share a core with.  This process therefore
    only supervises: as child subreaper it inherits whatever the workload
    orphans, waits ``ORPHAN_GRACE_S`` for it to end by itself, stops what has
    not (SIGTERM, then SIGKILL), and reaps it all.  The fork happens before numpy is imported, so the
    child's imports and ``ru_maxrss`` are as cold as a fresh interpreter's.
    """
    try:
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: orphans go to init, as without this function

    def terminate(signum, _frame):
        raise SystemExit(128 + signum)

    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        return work()  # normal interpreter exit: atexit handlers run
    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, terminate)
    code, deadline = 1, 0.0  # interrupted while waiting: stop them at once
    stop = signal.SIGTERM
    try:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        deadline = time.monotonic() + ORPHAN_GRACE_S
    finally:
        while True:
            try:
                reaped = os.waitpid(-1, os.WNOHANG)[0]
            except ChildProcessError:
                break  # no child left, and none can appear
            if reaped:
                continue
            if time.monotonic() > deadline:
                # SIGTERM first: the resource tracker ignores it and unlinks
                # the dead workload's shared memory before it ends.
                for orphan in children_of(os.getpid()):
                    print(f"left-over process {orphan}: {stop.name}",
                          file=sys.stderr)
                    try:
                        os.kill(orphan, stop)
                    except ProcessLookupError:
                        pass
                stop, deadline = signal.SIGKILL, time.monotonic() + 2.0
            time.sleep(0.005)
    return code if code >= 0 else 1


def main_one(args):
    if not os.path.isdir(os.path.join(REPO, "src", "repro")):
        sys.exit(f"{REPO}/src/repro not found: the benchmark measures the "
                 f"program in this checkout and cannot run without it")
    return supervised(lambda: measure_one(args))


def measure_one(args):
    result, detail = run_one(args.workload, args.seed, args.seconds,
                             bool(args.trace), args.scale)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{detail['run']}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for name, entry in result["metrics"].items():
        print(f"{name:36s} {entry['value']:.6g} {entry['unit']}")
    for name, failures in detail["failed_checks"].items():
        print(f"CHECK FAILED {name}: {failures[:3]}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Every workload, each run in a fresh subprocess.

def spawn(workload, seed, seconds, trace, scale):
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace)), "--scale", scale],
        capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload}: run produced no result "
                         f"(exit {proc.returncode})")
    if proc.returncode:
        sys.stderr.write(proc.stderr)
    return json.loads(lines[-1])


def main_all(args):
    document = {"provenance": provenance(args.seed), "seed": args.seed,
                "repeats": args.repeats, "scale": args.scale,
                "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for workload in metrics.WORKLOADS:
        runs = [spawn(workload, args.seed, args.seconds, False, args.scale)
                for _ in range(args.repeats)]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            # median of the runs' medians, with the runs' own quartiles
            "metrics": {
                name: {"unit": unit, "values": [
                    r["metrics"][name]["value"] for r in runs]}
                for name, unit in metrics.E2E_UNITS.items()},
        }
        for stats in entry["metrics"].values():
            stats.update(quartiles(stats["values"]))
        if args.trace:
            traced = spawn(workload, args.seed, args.seconds, True,
                           args.scale)
            entry["correct"] &= traced["correct"]
            entry["layers"] = traced["metrics"]
        all_correct &= entry["correct"]
        document["workloads"][workload] = entry
        print(f"== {workload}: correct={entry['correct']} "
              f"attempted={entry['attempted']} failed={entry['failed']}")
        for name, stats in entry["metrics"].items():
            print(f"  {name:34s} {stats['median']:.6g} {stats['unit']}  "
                  f"[q1 {stats['q1']:.6g}, q3 {stats['q3']:.6g}, "
                  f"n={stats['n']}]")
        for name, layer in sorted(entry.get("layers", {}).items()):
            if name in metrics.layer_names(workload):
                print(f"  {name:34s} {layer['value']:.6g} {layer['unit']}")
    out = args.out or os.path.join(
        OUT, f"results-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w") as fh:
        json.dump(document, fh, indent=1)
    print(f"wrote {out}")
    return 0 if all_correct else 1


# ----------------------------------------------------------------------
# --compare A.json B.json

def verdict(a, b, better, bound):
    """``ok`` / ``worse`` / ``unresolved`` for B against base A."""
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (b["median"] - a["median"]) / abs(a["median"])
    spread = max((s["q3"] - s["q1"]) / abs(s["median"]) for s in (a, b))
    if better == "lower":
        b_always_better = max(b["values"]) < min(a["values"])
    else:
        b_always_better = min(b["values"]) > max(a["values"])
    if spread > bound and not b_always_better:
        return "unresolved"
    return "worse" if worse_by > bound else "ok"


def main_compare(path_a, path_b):
    with open(path_a) as fa, open(path_b) as fb:
        doc_a, doc_b = json.load(fa), json.load(fb)
    any_bad = False
    print(f"A = {path_a} (base)\nB = {path_b}")
    for workload in metrics.WORKLOADS:
        print(f"== {workload}")
        for name, unit, better, bound, _doc in metrics.END_TO_END:
            a = doc_a["workloads"][workload]["metrics"][name]
            b = doc_b["workloads"][workload]["metrics"][name]
            outcome = verdict(a, b, better, bound)
            any_bad |= outcome != "ok"
            print(f"  {name:18s} A {a['median']:.6g} [{a['q1']:.6g}, "
                  f"{a['q3']:.6g}]  B {b['median']:.6g} [{b['q1']:.6g}, "
                  f"{b['q3']:.6g}] {unit}  B/A {b['median'] / a['median']:.4f}"
                  f" (base A; {better} is better, bound {bound:g})  "
                  f"{outcome}")
    return 1 if any_bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(metrics.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--repeats", type=int, default=1)
    parser.add_argument("--out", help="result file for an all-workload run")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return main_compare(*args.compare)
    return main_one(args) if args.workload else main_all(args)


if __name__ == "__main__":
    sys.exit(main())
