"""The multiproc transport, over an in-process pipe (no worker processes).

``Channel`` is the one thing that touches a coordinator↔worker pipe: every
frame the protocol sends must round-trip through it and be counted at its
packed size, and every way a peer can fail — silence past a deadline, a
closed pipe, a flipped byte, a process that exited — must raise a
``ChannelError`` naming the machine.  A dead peer's buffered frames are
read before it is declared dead, so the traceback a worker managed to send
(``worker raised:``) wins over its exit (``process died``).
"""

import multiprocessing
import os
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import RunConfig, SalientPP
from repro.distributed.multiproc import SegmentSpec, WorkerSpec
from repro.distributed.multiproc.channel import Channel, ChannelError
from repro.distributed.wire import WireError, pack_message
from repro.obs import OBS, clock_anchor


def _pair(machine=1):
    """(coordinator end naming ``machine``, worker end)."""
    a, b = multiprocessing.Pipe(duplex=True)
    return Channel(a, machine=machine), Channel(b)


def _exited_process(exitcode=13):
    """A stand-in for a worker Process that has exited: its sentinel is a
    pipe read end at EOF, which ``connection.wait`` reports ready."""
    r, w = os.pipe()
    os.close(w)
    return SimpleNamespace(sentinel=r, exitcode=exitcode,
                           join=lambda timeout=None: None)


@pytest.fixture(scope="module")
def protocol_frames(tiny_dataset):
    """One frame of every kind the protocol sends, with payloads taken from
    a real (in-process) epoch where the payload is a system's state."""
    system = SalientPP.build(tiny_dataset, RunConfig(
        num_machines=2, replication_factor=0.1, batch_size=16,
        fanouts=(5, 5), hidden_dim=16))
    OBS.reset()
    OBS.enable(lane="worker-0")
    try:
        report = system.train_epoch(0).report
        spans, metrics = OBS.tracer.drain(), OBS.metrics.snapshot()
    finally:
        OBS.disable()
        OBS.reset()
    tr = system.trainer
    model = tr.models[0]
    state = {"model": dict(model.state_dict()),
             "adam": tr.optimizers[0].state_dict(),
             "sampler": tr.samplers[0].rng_state()}
    records = [r for r in report.records if r.machine == 0]
    spec = WorkerSpec(
        machine=0, num_machines=2, sampler_seed=11, order_seed=23,
        model_seed=5, num_vertices=400, num_classes=4, feature_dim=16,
        fanouts=(5, 5), batch_size=16, hidden_dim=16, lr=0.01,
        engine="bsp", pipeline_depth=1, steps_per_epoch=len(records),
        gpu_rows=10, part_offsets=np.array([0, 200, 400]),
        local_train=np.arange(0, 60, 2), cache_ids=np.arange(300, 320),
        segments={"labels": SegmentSpec("rpmpaaaalabels", (400,), "<i8")})
    return [
        ("ready", {"pid": 4321}),
        ("bind", spec),
        ("bound", {"machine": 0}),
        ("run", {"epoch": 0, "dry_run": False,
                 "trace": {"trace_id": "ab" * 8, "parent": 7}}),
        ("step", {"step": 3}),
        ("avg", {"step": 3}),
        ("window", {"w0": 2}),
        ("done", {"records": records,
                  "digests": np.zeros((len(records), 8), dtype=np.int64),
                  "state": dict(model.state_dict()), "spans": spans,
                  "clock": list(clock_anchor()), "metrics": metrics}),
        ("done", {"records": records, "digests": np.zeros(
            (len(records), 8), dtype=np.int64), "state": None}),
        ("eval", {"ids": np.arange(1, 200, 3), "seed": 2**62 + 5,
                  "fanouts": (-1, 5)}),
        ("scored", {"machine": 0, "correct": 41, "total": 67}),
        ("ckpt", None),
        ("state", state),
        ("restore", state),
        ("restore", None),
        ("restored", {"machine": 0}),
        ("abort", None),
        ("aborted", {"machine": 0}),
        ("park", None),
        ("parked", {"pid": 4321}),
        ("stop", None),
    ]


def _send_async(channel, kind, payload):
    # Large frames exceed the pipe buffer: the writer must not block the
    # reader.
    thread = threading.Thread(target=channel.send, args=(kind, payload))
    thread.start()
    return thread


def test_every_protocol_frame_round_trips_and_is_counted(protocol_frames):
    coord, worker = _pair()
    sizes = {}
    for kind, payload in protocol_frames:
        for sender, receiver in ((worker, coord), (coord, worker)):
            thread = _send_async(sender, kind, payload)
            got_kind, got = receiver.recv(time.monotonic() + 30.0)
            thread.join()
            assert got_kind == kind
            # Dataclasses arrive as their field dicts, which encode to the
            # same bytes: equal re-encodings are equal values.
            assert pack_message(kind, got) == pack_message(kind, payload)
        n, nbytes = sizes.get(kind, (0, 0))
        sizes[kind] = (n + 1, nbytes + len(pack_message(kind, payload)))
    expected = {kind: list(v) for kind, v in sizes.items()}
    for table in (coord.sent, coord.received, worker.sent, worker.received):
        assert table == expected


def test_attach_counts_into_the_given_tables_only():
    coord, worker = _pair(machine=None)
    sent, received = {}, {}
    coord.attach(3, sent, received)
    coord.send("avg", {"step": 0})
    worker.send("step", {"step": 0})
    assert coord.recv(time.monotonic() + 5.0) == ("step", {"step": 0})
    assert coord.sent is sent and coord.received is received
    assert sent == {"avg": [1, len(pack_message("avg", {"step": 0}))]}
    assert received == {"step": [1, len(pack_message("step", {"step": 0}))]}
    coord.attach()  # parked: fresh tables, no machine
    coord.send("park", None)
    assert "park" not in sent and coord.machine is None


def test_expired_deadline_names_the_machine():
    coord, _worker = _pair(machine=1)
    t0 = time.monotonic()
    with pytest.raises(ChannelError, match="no message within") as excinfo:
        coord.recv(t0 + 0.05)
    assert excinfo.value.machine == 1
    assert str(excinfo.value).startswith("worker 1: ")
    assert time.monotonic() - t0 < 2.0


def test_closed_peer_names_the_machine():
    coord, worker = _pair(machine=1)
    worker.close()
    with pytest.raises(ChannelError, match="connection closed") as excinfo:
        coord.recv(time.monotonic() + 5.0)
    assert excinfo.value.machine == 1
    with pytest.raises(ChannelError, match="pipe closed while sending") \
            as excinfo:
        coord.send("avg", {"step": 0})
    assert excinfo.value.machine == 1


def test_every_flipped_byte_is_malformed_and_named():
    coord, worker = _pair(machine=1)
    frame = pack_message("step", {"step": 3})
    for i in range(len(frame)):
        torn = bytearray(frame)
        torn[i] ^= 0xFF
        worker.conn.send_bytes(bytes(torn))
        with pytest.raises(ChannelError, match="malformed message") \
                as excinfo:
            coord.recv(time.monotonic() + 5.0)
        assert excinfo.value.machine == 1
        assert isinstance(excinfo.value.__cause__, WireError)
        assert excinfo.value.__cause__.machine == 1
    assert coord.received == {}  # a rejected frame is never counted


def test_corrupt_fault_flips_one_frame():
    coord, worker = _pair(machine=1)
    worker.corrupt_next = True
    worker.send("step", {"step": 3})
    worker.send("step", {"step": 4})
    with pytest.raises(ChannelError, match="checksum") as excinfo:
        coord.recv(time.monotonic() + 5.0)
    assert excinfo.value.machine == 1
    assert coord.recv(time.monotonic() + 5.0) == ("step", {"step": 4})


def test_dead_peer_is_read_before_it_is_declared_dead():
    # The worker's last frames are still in the pipe when its process is
    # gone: the coordinator reads them first, then learns of the death.
    coord, worker = _pair(machine=1)
    coord.proc = _exited_process(exitcode=13)
    try:
        worker.send("step", {"step": 0})
        worker.send("error", {"machine": 1, "traceback": "Boom: at step 1"})
        worker.close()
        deadline = time.monotonic() + 5.0
        assert coord.recv(deadline) == ("step", {"step": 0})
        with pytest.raises(ChannelError, match="worker raised:\nBoom"):
            coord.recv(deadline)
        with pytest.raises(ChannelError,
                           match=r"process died \(exit code 13\)") as excinfo:
            coord.recv(deadline)
        assert excinfo.value.machine == 1
    finally:
        os.close(coord.proc.sentinel)


@pytest.mark.parametrize("last_frame, why", [
    ({"machine": 1, "traceback": "Boom"}, "worker raised:\nBoom"),
    (None, "process died (exit code 13)"),
])
def test_watched_peer_death_ends_the_wait(last_frame, why):
    # Waiting on rank 0, which is silent, while rank 1's process exits:
    # the wait ends at once with rank 1's failure — its own traceback when
    # it sent one (behind a stale token), else its death.
    waiting, _rank0 = _pair(machine=0)
    dead, rank1 = _pair(machine=1)
    dead.proc = _exited_process(exitcode=13)
    try:
        rank1.send("step", {"step": 0})
        if last_frame is not None:
            rank1.send("error", last_frame)
        rank1.close()
        t0 = time.monotonic()
        with pytest.raises(ChannelError) as excinfo:
            waiting.recv(t0 + 30.0, watch=[waiting, dead])
        assert time.monotonic() - t0 < 5.0
        assert excinfo.value.machine == 1
        assert excinfo.value.why == why
    finally:
        os.close(dead.proc.sentinel)


@pytest.mark.parametrize("last_frame, why", [
    ({"machine": 1, "traceback": "Boom"}, "worker raised:\nBoom"),
    (None, "process died (exit code 13)"),
])
def test_send_to_an_exited_peer_raises_its_last_word(last_frame, why):
    # A rank that died between rounds (after its last reply) fails the next
    # send into its pipe with its own failure, not a bare broken pipe.
    coord, worker = _pair(machine=1)
    coord.proc = _exited_process(exitcode=13)
    try:
        worker.send("scored", {"machine": 1, "correct": 3, "total": 4})
        if last_frame is not None:
            worker.send("error", last_frame)
        worker.close()
        with pytest.raises(ChannelError) as excinfo:
            coord.send("eval", {"ids": np.arange(4), "seed": 1,
                                "fanouts": (5, 5)})
        assert excinfo.value.machine == 1
        assert excinfo.value.why == why
    finally:
        os.close(coord.proc.sentinel)


def test_own_frames_win_over_a_watched_death():
    waiting, rank0 = _pair(machine=0)
    dead, rank1 = _pair(machine=1)
    dead.proc = _exited_process()
    try:
        rank1.close()
        rank0.send("step", {"step": 0})
        assert waiting.recv(time.monotonic() + 5.0, watch=[dead]) \
            == ("step", {"step": 0})
    finally:
        os.close(dead.proc.sentinel)
