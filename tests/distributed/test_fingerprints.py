"""Fingerprints are hashes of wire encodings: ``content_hash`` is canonical
(dict order never matters, every type distinction the wire keeps does), and
the cluster key checkpoints persist under is that hash of a projection of
the worker specs — no processes needed to check what enters it."""

import dataclasses

import numpy as np
import pytest

from repro.distributed.faults import FaultSpec
from repro.distributed.multiproc import WorkerSpec, _cluster_fingerprint
from repro.distributed.multiproc.segments import SegmentSpec
from repro.distributed.wire import WireError, content_hash


def _spec(machine=0, **changes) -> WorkerSpec:
    spec = WorkerSpec(
        machine=machine, num_machines=2, sampler_seed=11 + machine,
        order_seed=23 + machine, model_seed=5, num_vertices=400,
        num_classes=4, feature_dim=16, fanouts=(5, 5), batch_size=16,
        hidden_dim=16, lr=0.01, engine="bsp",
        pipeline_depth=1, steps_per_epoch=3, gpu_rows=10,
        part_offsets=np.array([0, 200, 400]),
        local_train=np.arange(machine, 60, 2),
        cache_ids=np.arange(300, 320),
        segments={"feat0": SegmentSpec("rpmp-aaaa-feat0", (200, 16), "<f4"),
                  "labels": SegmentSpec("rpmp-aaaa-labels", (400,), "<i8")},
    )
    return dataclasses.replace(spec, **changes)


class TestContentHash:
    def test_dict_insertion_order_does_not_matter(self):
        a = {"x": 1, "y": {"p": np.arange(3), "q": "s"}}
        b = {"y": {"q": "s", "p": np.arange(3)}, "x": 1}
        assert content_hash(a) == content_hash(b)

    @pytest.mark.parametrize("a, b", [
        (1, 1.0), ((1, 2), [1, 2]), ("1", 1), (None, False), (b"a", "a"),
        (np.arange(4, dtype=np.int64), np.arange(4, dtype=np.int32)),
        (np.zeros((2, 3)), np.zeros((3, 2))), ({"a": 1}, {"b": 1}),
        ([np.arange(2), np.arange(3)], [np.arange(3), np.arange(2)]),
    ])
    def test_every_wire_distinction_is_a_hash_distinction(self, a, b):
        assert content_hash(a) != content_hash(b)

    def test_dataclass_hashes_as_its_fields_minus_memos(self, tiny_partition):
        before = content_hash(tiny_partition)
        tiny_partition.members(0)  # fills the compare=False memo
        assert content_hash(tiny_partition) == before
        assert before == content_hash(
            {"num_parts": tiny_partition.num_parts,
             "assignment": tiny_partition.assignment})

    def test_what_the_wire_cannot_encode_cannot_be_fingerprinted(self):
        with pytest.raises(WireError):
            content_hash({"f": object()})


class TestClusterFingerprint:
    def test_equal_clusters_share_a_key(self):
        assert (_cluster_fingerprint([_spec(0), _spec(1)])
                == _cluster_fingerprint([_spec(0), _spec(1)]))

    def test_segment_names_faults_and_the_host_reading_stay_out(self):
        base = _cluster_fingerprint([_spec(0), _spec(1)])
        renamed = {key: dataclasses.replace(seg, name="rpmp-zzzz-" + key)
                   for key, seg in _spec().segments.items()}
        faulty = (FaultSpec("kill", 0, epoch=1, step=2),)
        assert _cluster_fingerprint(
            [_spec(0, segments=renamed, faults=faulty), _spec(1)]) == base
        # spare_core describes the host, not the cluster: the same workers
        # serve a run that samples ahead and one that does not.
        assert _cluster_fingerprint(
            [_spec(0, spare_core=True), _spec(1, spare_core=True)]) == base

    @pytest.mark.parametrize("changes", [
        {"sampler_seed": 99}, {"lr": 0.02}, {"fanouts": (5, 4)},
        {"engine": "pipelined"}, {"cache_ids": np.arange(300, 321)},
        {"local_train": np.arange(0, 60, 2).astype(np.int32)},
        {"segments": {"feat0": SegmentSpec("rpmp-aaaa-feat0", (200, 32),
                                           "<f4"),
                      "labels": SegmentSpec("rpmp-aaaa-labels", (400,),
                                            "<i8")}},
    ], ids=lambda c: next(iter(c)))
    def test_everything_else_enters(self, changes):
        assert (_cluster_fingerprint([_spec(0, **changes), _spec(1)])
                != _cluster_fingerprint([_spec(0), _spec(1)]))

    def test_machine_order_matters(self):
        assert (_cluster_fingerprint([_spec(0), _spec(1)])
                != _cluster_fingerprint([_spec(1), _spec(0)]))
