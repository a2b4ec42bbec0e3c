"""The accounting laws, stated once for every suite.

:func:`check_invariants` takes an :class:`~repro.distributed.records.EpochReport`
or a :class:`~repro.serving.metrics.ServingReport` and raises
``AssertionError`` naming the ``(machine, step)`` that broke a law:

* per record — every row sits in exactly one bucket (``gpu + cpu + cached +
  remote + coalesced + unavailable == total``), ``remote_per_peer`` adds up
  to ``remote_rows``, nothing is fetched from the machine itself;
* the report's ``gather`` is :meth:`GatherStats.sum` over its records;
* training — ledger bytes are the records' per-peer rows × row size (8 bytes
  per requested id);
* trace volumes are record volumes — GPU_GATHER covers every row, FEATURE_COMM
  carries the comm rows (serving: demand there, refresh in CACHE_REFRESH);
* serving — every request is counted once, retries add up, one prediction
  per seed of every answered request and none for a shed one.

:func:`check_registry` is the fourth law — obs counters = report totals: with
``repro.obs`` on, every ``store.*`` / ``cache.*`` counter equals the matching
field of the report's summed ``gather``, and for a serving report the
``serve.*`` / ``serving.*`` counters equal its availability ledger and its
window / batch counts.

:func:`check_timeline` states the laws of simulated time — what holds of the
:class:`~repro.pipeline.events.Timeline` a clock filled, whichever clock it
was (the epoch simulator's or a serving run's):

* every placed key is an event of the trace, and every step-scope event is
  placed (a key is placed at most once by construction);
* per ``(machine, step)`` the stages run in order — SAMPLE, LOCAL_SLICE, H2D,
  GPU_GATHER, TRAIN, each starting no earlier than the one before ends — and
  a window's FEATURE_COMM ends before its steps' H2Ds start;
* at most ``cpu_workers`` CPU placements, and one of any other resource,
  overlap per machine;
* training — ``epoch_time`` is the latest end, and durations folded by
  ``stage.resource`` in placement order are ``resource_busy``;
* serving — a request's ``started`` is the start of its window's first
  SAMPLE, its ``completed`` the end of its micro-batch's TRAIN, and one
  machine's windows (through CACHE_REFRESH) never overlap.

Suites reach all three through the fixtures of the same names in
``conftest.py``.

:func:`trace_shape` / :func:`assert_trace_shape_equal` compare two
``EventTrace`` s as schedules (what the simulator prices, ignoring emission
order) — the parity suites' comparator; nothing in ``src/`` calls it.
"""

import dataclasses
import gc
import glob
import os
import subprocess

import numpy as np

from repro.distributed.feature_store import GatherStats
from repro.pipeline.events import RESOURCES, STEP_STAGES, Stage
from repro.utils import ahead

BUCKETS = ("gpu_rows", "cpu_rows", "cached_rows", "remote_rows",
           "coalesced_rows", "unavailable_rows")


#: registry counter -> the ``GatherStats`` field it mirrors.
COUNTERS = {
    "store.gather_rows": "total_rows",
    "store.gpu_rows": "gpu_rows",
    "store.cpu_rows": "cpu_rows",
    "store.cached_rows": "cached_rows",
    "store.remote_rows": "remote_rows",
    "store.coalesced_rows": "coalesced_rows",
    "store.unavailable_rows": "unavailable_rows",
    "cache.admissions": "cache_insertions",
    "cache.evictions": "cache_evictions",
    "cache.refresh_rows": "refresh_rows",
}


def leaked_samplers() -> list:
    """Sampler processes (``utils/ahead.AheadProcess``) still open although
    the engine that forked them is gone.  The law: empty after every test —
    an engine's finalizer closes its process at the latest
    (``tests/conftest.py`` checks it after every test).  Engines and their
    trainers reference each other, so unreachable ones are collected first."""
    if not ahead.OPEN:
        return []
    gc.collect()
    return [proc.pid for proc in ahead.OPEN if proc.owner() is None]


def worker_pids() -> set:
    """Every live process named ``repro-mp-worker`` — the multiproc
    backend's forked workers and the sampler processes they fork, which
    inherit the name: what CI's orphan probe (``pgrep -x``) matches.  A
    zombie has ended and is left out (whoever reaps an orphan may be slow)."""
    found = subprocess.run(["pgrep", "-x", "repro-mp-worker"],
                           capture_output=True, text=True).stdout.split()
    return {int(pid) for pid in found if _state(int(pid)) not in ("Z", "")}


def leftover_segments(backend) -> list:
    """Shared-memory segments under ``backend``'s name prefix still in
    ``/dev/shm``.  The law: empty once the backend is torn down.  Every
    segment a backend creates is named ``rpmp`` + its own 8 random hex
    digits + a key, so a segment it lost track of is found, and another
    process's (a live multiproc run beside the suite) is not."""
    prefix = backend.segment_names[0][:len("rpmp") + 8]
    assert all(name.startswith(prefix) for name in backend.segment_names)
    return glob.glob(f"/dev/shm/{prefix}*")


def _state(pid: int) -> str:
    """A process's state letter (``""``: no such process)."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return ""


def unreaped(procs) -> list:
    """Pids among ``procs`` (worker handles) that are still children of
    this process — alive, or ended but never reaped.  The law: empty once
    the backend that started them is closed."""
    left = []
    for proc in procs:
        try:
            os.waitpid(proc.pid, os.WNOHANG)
        except ChildProcessError:
            continue  # reaped
        left.append(proc.pid)
    return left


def check_registry(snapshot, report) -> None:
    """``snapshot`` (``OBS.metrics.snapshot()``) against the report of the
    run it recorded; a counter never touched reads 0."""
    def value(name):
        return snapshot.get(name, {"value": 0})["value"]

    serving = hasattr(report, "steps")
    want = {name: getattr(report.gather, field)
            for name, field in COUNTERS.items()}
    want["store.gathers"] = len(report.steps if serving else report.records)
    if serving:
        a = report.availability
        want.update({
            "serving.requests": a.answered,
            "serve.degraded_requests": a.degraded,
            "serve.shed_requests": a.shed,
            "serve.retries": a.retries,
            "serving.windows": report.num_windows,
            "serving.batches": report.num_batches,
        })
    for name, expected in want.items():
        assert value(name) == expected, (
            f"{name} = {value(name)} but the report implies {expected}")


def _volume(trace, stage, key) -> int:
    return int(sum(ev.volume(key) for ev in trace.events if ev.stage is stage))


def _check_record(rec) -> None:
    g, at = rec.gather, f"(machine {rec.machine}, step {rec.step})"
    buckets = {name: getattr(g, name) for name in BUCKETS}
    assert min(buckets.values()) >= 0, f"{at}: negative bucket in {buckets}"
    assert sum(buckets.values()) == g.total_rows, (
        f"{at}: buckets {buckets} do not add up to total_rows {g.total_rows}")
    assert int(g.remote_per_peer.sum()) == g.remote_rows, (
        f"{at}: remote_per_peer {g.remote_per_peer.tolist()} != "
        f"remote_rows {g.remote_rows}")
    for name in ("remote_per_peer", "refresh_fetch_per_peer"):
        per_peer = getattr(g, name)
        assert per_peer is None or per_peer[rec.machine] == 0, (
            f"{at}: {name} fetches {per_peer[rec.machine]} rows from itself")


def _check_gather_is_the_fold(report, records) -> None:
    want = GatherStats.sum(r.gather for r in records)
    for f in dataclasses.fields(GatherStats):
        got, exp = getattr(report.gather, f.name), getattr(want, f.name)
        assert np.array_equal(got, exp), (
            f"report.gather.{f.name} = {got} but its records sum to {exp}")


def _check_epoch(report, bytes_per_row: int) -> None:
    K = report.ledger.num_machines
    rows = np.zeros((K, K), dtype=np.int64)
    for rec in report.records:
        g = rec.gather
        rows[rec.machine] += g.remote_per_peer
        if g.refresh_fetch_per_peer is not None:
            rows[rec.machine] += g.refresh_fetch_per_peer
    comm = report.gather.comm_rows()
    assert int(rows.sum()) == comm
    assert np.array_equal(report.ledger.request_bytes, 8.0 * rows), (
        "ledger request bytes != 8 x per-peer comm rows; "
        f"totals {report.ledger.request_bytes.sum()} vs {8 * comm}")
    assert np.array_equal(report.ledger.feature_bytes,
                          float(bytes_per_row) * rows), (
        "ledger feature bytes != bytes_per_row x per-peer comm rows; "
        f"totals {report.ledger.feature_bytes.sum()} vs "
        f"{bytes_per_row * comm}")
    trace = report.events
    assert _volume(trace, Stage.FEATURE_COMM, "in_rows") == comm, (
        "trace FEATURE_COMM in_rows != demand + refresh rows "
        f"({_volume(trace, Stage.FEATURE_COMM, 'in_rows')} vs {comm})")
    assert _volume(trace, Stage.FEATURE_COMM, "out_rows") == comm, (
        "rows served to peers != rows requested from peers "
        f"({_volume(trace, Stage.FEATURE_COMM, 'out_rows')} vs {comm})")


def _check_serving(report) -> None:
    g, a, trace = report.gather, report.availability, report.trace
    assert [(s.machine, s.step) for s in report.steps] == \
        list(zip(trace.machine_of_step, range(trace.num_steps))), (
        "steps are not one record per trace step, in trace order")
    assert _volume(trace, Stage.FEATURE_COMM, "in_rows") == g.remote_rows, (
        "trace FEATURE_COMM in_rows != demand rows "
        f"({_volume(trace, Stage.FEATURE_COMM, 'in_rows')} vs "
        f"{g.remote_rows})")
    assert _volume(trace, Stage.CACHE_REFRESH, "rows") == g.refresh_rows, (
        "trace CACHE_REFRESH rows != refresh rows "
        f"({_volume(trace, Stage.CACHE_REFRESH, 'rows')} vs {g.refresh_rows})")
    assert a.total == len(report.records), (
        f"ledger counts {a.total} requests, report has "
        f"{len(report.records)} records")
    assert a.retries == sum(r.retries for r in report.records)
    assert a.unavailable_rows == g.unavailable_rows
    for r in report.records:
        if r.status == "shed":
            assert r.rid not in report.predictions, (
                f"shed request {r.rid} has a prediction")
        else:
            got = len(report.predictions.get(r.rid, ()))
            assert got == r.num_seeds, (
                f"request {r.rid} (machine {r.machine}, {r.status}): "
                f"{got} predictions for {r.num_seeds} seeds")


def check_invariants(report, *, bytes_per_row=None) -> None:
    """Assert the accounting laws on one report (see the module docstring).
    ``bytes_per_row`` (the store's) is required for an ``EpochReport``."""
    serving = hasattr(report, "steps")
    records = report.steps if serving else report.records
    for rec in records:
        _check_record(rec)
    _check_gather_is_the_fold(report, records)
    trace = report.trace if serving else report.events
    total = _volume(trace, Stage.GPU_GATHER, "total_rows")
    assert total == report.gather.total_rows, (
        f"trace GPU_GATHER total_rows {total} != records' total_rows "
        f"{report.gather.total_rows}")
    if serving:
        _check_serving(report)
    else:
        _check_epoch(report, bytes_per_row)


# ----------------------------------------------------------------------
# the laws of simulated time

#: A serving placement starts at ``t0 + running total`` and the clock moves
#: on by ``t0 + total``; the previous placement's own end is ``start +
#: duration``.  Same sum, other association: they agree to this, relative.
REL_TOL = 1e-12


def _ends_by(end, start) -> bool:
    return end <= start + REL_TOL * max(abs(start), 1e-300)


def check_timeline(trace, timeline, *, cpu_workers, timing=None,
                   report=None) -> None:
    """Assert the timeline laws (module docstring) on the ``timeline`` a
    clock filled from ``trace``.  ``timing`` is the ``PipelineResult`` of a
    simulated epoch, ``report`` the ``ServingReport`` of a serving run —
    pass the one that owns the timeline for its clock's own laws."""
    events = trace.index()
    stray = [key for key in timeline if key not in events]
    assert not stray, f"placed keys that are no event of the trace: {stray}"
    unplaced = [key for key in events
                if key[0].scope == "step" and key not in timeline]
    assert not unplaced, f"step-scope events never placed: {unplaced}"

    def end(key):
        start, duration = timeline[key]
        return start + duration

    for lo, hi in trace.windows:
        owners = (range(trace.num_machines) if trace.machine_of_step is None
                  else (trace.machine_of_step[lo],))
        for k in owners:
            for s in range(lo, hi):
                chain = [(st, k, s) for st in STEP_STAGES]
                for before, after in zip(chain, chain[1:]):
                    assert _ends_by(end(before), timeline[after][0]), (
                        f"{after} starts at {timeline[after][0]}, before "
                        f"{before} ends at {end(before)}")
                comm = (Stage.FEATURE_COMM, k, lo)
                assert comm not in timeline or _ends_by(
                    end(comm), timeline[(Stage.H2D, k, s)][0]), (
                    f"H2D of (machine {k}, step {s}) starts before its "
                    f"window's feature exchange ends")

    lanes = {}
    for (stage, k, _s), (start, duration) in timeline.items():
        if duration > 0:
            lanes.setdefault((stage.resource, k), []).append(
                (start, start + duration))
    for (resource, k), spans in lanes.items():
        width = cpu_workers if resource == "cpu" else 1
        ends = []  # of the placements still running, in start order
        for start, stop in sorted(spans):
            ends = [e for e in ends if not _ends_by(e, start)] + [stop]
            assert len(ends) <= width, (
                f"{len(ends)} placements overlap on {resource} of machine "
                f"{k} at t={start} (it has {width} lane(s))")

    if timing is not None:
        assert timing.epoch_time == max(end(key) for key in timeline), (
            "epoch_time is not the latest placed end")
        busy = {r: np.zeros(trace.num_machines) for r in RESOURCES}
        for (stage, k, _s), (_start, duration) in timeline.items():
            busy[stage.resource][k if k >= 0 else slice(None)] += duration
        for r in RESOURCES:
            assert np.array_equal(busy[r], timing.resource_busy[r]), (
                f"resource_busy[{r!r}] is not the fold of the timeline")
    if report is not None:
        window_of = {s: lo for lo, hi in trace.windows for s in range(lo, hi)}
        for r in report.records:
            if r.status == "shed":
                assert r.step == -1, f"shed request {r.rid} names a step"
                continue
            assert (report.steps[r.step].machine, report.steps[r.step].step) \
                == (r.machine, r.step), f"request {r.rid}: step != its record"
            first = timeline[(Stage.SAMPLE, r.machine, window_of[r.step])]
            assert r.started == first[0], (
                f"request {r.rid} started at {r.started}, its window's "
                f"first SAMPLE at {first[0]}")
            done = end((Stage.TRAIN, r.machine, r.step))
            assert abs(r.completed - done) <= REL_TOL * done, (
                f"request {r.rid} completed at {r.completed}, its "
                f"micro-batch's TRAIN ends at {done}")
        busy_until = {}
        for lo, _hi in trace.windows:  # emitted in each machine's clock order
            k = trace.machine_of_step[lo]
            start = timeline[(Stage.SAMPLE, k, lo)][0]
            assert _ends_by(busy_until.get(k, 0.0), start), (
                f"machine {k}: window {lo} starts at {start}, inside the "
                f"previous one (busy until {busy_until[k]})")
            busy_until[k] = end((Stage.CACHE_REFRESH, k, lo))


# ----------------------------------------------------------------------
# trace-shape comparison (the schedule comparator of the parity suites)
# ----------------------------------------------------------------------

def trace_shape(trace) -> dict:
    """Canonical structural summary of a trace, suitable for equality.

    Captures everything the simulator prices — engine name, machine/step
    counts, comm-window tiling, allreduce barriers, and every event's
    ``(stage, machine, step)`` key with its exact volumes — while ignoring
    event *emission order* (engines may interleave machines differently
    without changing the schedule).  Two traces with equal shapes simulate
    to identical epoch times under any cost model.
    """
    return {
        "engine": trace.engine,
        "num_machines": trace.num_machines,
        "num_steps": trace.num_steps,
        "windows": [tuple(w) for w in trace.windows],
        "allreduce_steps": list(trace.allreduce_steps),
        "machine_of_step": (None if trace.machine_of_step is None
                            else list(trace.machine_of_step)),
        "events": {
            (ev.stage.value, ev.machine, ev.step): dict(sorted(ev.volumes))
            for ev in trace.events
        },
    }


def trace_shape_diff(actual, expected) -> list:
    """Human-readable differences between two traces' shapes (empty = equal).

    The multiproc parity tests diff a real backend's emitted trace against
    the in-process engine's (the simulator's input): same stages, same
    per-machine step assignment, same remote-row and byte volumes.
    """
    a, b = trace_shape(actual), trace_shape(expected)
    diffs = []
    for fld in ("engine", "num_machines", "num_steps", "windows",
                "allreduce_steps", "machine_of_step"):
        if a[fld] != b[fld]:
            diffs.append(f"{fld}: {a[fld]!r} != {b[fld]!r}")
    ev_a, ev_b = a["events"], b["events"]
    for key in sorted(set(ev_b) - set(ev_a)):
        diffs.append(f"missing event {key}")
    for key in sorted(set(ev_a) - set(ev_b)):
        diffs.append(f"unexpected event {key}")
    for key in sorted(set(ev_a) & set(ev_b)):
        if ev_a[key] != ev_b[key]:
            diffs.append(f"event {key} volumes: {ev_a[key]!r} != {ev_b[key]!r}")
    return diffs


def assert_trace_shape_equal(actual, expected, max_diffs=20) -> None:
    """Assert two traces describe the same schedule; raises with a
    readable diff listing (capped at ``max_diffs`` lines) otherwise."""
    diffs = trace_shape_diff(actual, expected)
    if diffs:
        shown = diffs[:max_diffs]
        if len(diffs) > max_diffs:
            shown.append(f"... and {len(diffs) - max_diffs} more")
        raise AssertionError("trace shape mismatch:\n  " + "\n  ".join(shown))
