"""Round-trip and framing tests for the coordinator/worker wire format.

The property suite (hypothesis) drives arbitrary nested values and ndarrays
of every supported dtype through ``pack``/``unpack`` and demands bit-exact
round trips; the plan-codec tests build real :class:`FetchPlan`\\ s through a
real :class:`PartitionedFeatureStore` and assert decoded plans *execute*
identically, not merely compare equal.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.distributed.feature_store import FetchPlan, PartitionedFeatureStore
from repro.distributed.wire import (
    MAGIC,
    WireError,
    decode_fetch_plan,
    encode_fetch_plan,
    pack_message,
    pack_obj,
    unpack_message,
    unpack_obj,
)
from repro.partition import metis_like_partition, reorder_dataset

# ----------------------------------------------------------------------
# value round trips (hypothesis)
# ----------------------------------------------------------------------

_DTYPES = [np.dtype(s) for s in
           ("bool", "int8", "int16", "int32", "int64",
            "uint8", "uint16", "uint32", "uint64",
            "float16", "float32", "float64")]


@st.composite
def ndarrays(draw):
    dtype = draw(st.sampled_from(_DTYPES))
    shape = tuple(draw(st.lists(st.integers(0, 5), min_size=0, max_size=3)))
    size = int(np.prod(shape)) if shape else 1
    raw = draw(st.binary(min_size=size * dtype.itemsize,
                         max_size=size * dtype.itemsize))
    return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-2**63, max_value=2**63 - 1),
    st.floats(allow_nan=False),
    st.text(max_size=40),
    st.binary(max_size=40),
    ndarrays(),
)

values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=10), children, max_size=4),
    ),
    max_leaves=12,
)


def assert_same(a, b):
    """Structural equality with exact dtype/shape/type checks."""
    assert type(a) is type(b), (type(a), type(b))
    if isinstance(a, np.ndarray):
        assert a.dtype == b.dtype
        assert a.shape == b.shape
        assert np.array_equal(a, b, equal_nan=True)
    elif isinstance(a, (list, tuple)):
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert_same(x, y)
    elif isinstance(a, dict):
        assert list(a.keys()) == list(b.keys())
        for key in a:
            assert_same(a[key], b[key])
    elif isinstance(a, float):
        assert a == b or (np.isnan(a) and np.isnan(b))
    else:
        assert a == b


@settings(max_examples=200, deadline=None)
@given(values)
def test_value_round_trip(value):
    assert_same(unpack_obj(pack_obj(value)), value)


@settings(max_examples=100, deadline=None)
@given(ndarrays())
def test_ndarray_round_trip_bit_identical(arr):
    out = unpack_obj(pack_obj(arr))
    assert out.dtype == arr.dtype
    assert out.shape == arr.shape
    assert out.tobytes() == arr.tobytes()  # bit-level, catches NaN payloads


@settings(max_examples=100, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
               min_size=1, max_size=20), values)
def test_message_round_trip(kind, payload):
    k2, p2 = unpack_message(pack_message(kind, payload))
    assert k2 == kind
    assert_same(p2, payload)


def test_int_vs_float_and_list_vs_tuple_distinction():
    assert unpack_obj(pack_obj(3)) == 3 and isinstance(unpack_obj(pack_obj(3)), int)
    assert isinstance(unpack_obj(pack_obj(3.0)), float)
    assert unpack_obj(pack_obj([1, 2])) == [1, 2]
    assert unpack_obj(pack_obj((1, 2))) == (1, 2)
    assert unpack_obj(pack_obj(None)) is None
    assert unpack_obj(pack_obj(True)) is True


def test_numpy_scalars_become_python_scalars():
    assert unpack_obj(pack_obj(np.int64(7))) == 7
    assert unpack_obj(pack_obj(np.float64(0.5))) == 0.5
    assert unpack_obj(pack_obj(np.bool_(True))) is True


# ----------------------------------------------------------------------
# encode-time rejections and framing errors
# ----------------------------------------------------------------------

def test_unrepresentable_values_raise_at_encode_time():
    with pytest.raises(WireError):
        pack_obj(2**64)  # beyond 64-bit
    with pytest.raises(WireError):
        pack_obj(object())
    with pytest.raises(WireError):
        pack_obj({1: "non-string key"})
    with pytest.raises(WireError):
        pack_obj(np.array([object()], dtype=object))
    with pytest.raises(WireError):
        pack_obj(np.zeros(2, dtype=np.complex128))


def test_bad_magic_rejected():
    data = pack_message("ok", [1, 2])
    with pytest.raises(WireError, match="magic"):
        unpack_message(b"XXXX" + data[len(MAGIC):])


def test_bad_version_rejected():
    data = bytearray(pack_message("ok", None))
    data[len(MAGIC)] = 99
    with pytest.raises(WireError, match="version"):
        unpack_message(bytes(data))


def test_truncation_rejected_everywhere():
    data = pack_message("step", {"a": np.arange(10), "b": "hello"})
    for cut in range(len(data)):
        with pytest.raises(WireError):
            unpack_message(data[:cut])


def test_trailing_bytes_rejected():
    with pytest.raises(WireError, match="trailing"):
        unpack_obj(pack_obj([1]) + b"\x00")
    with pytest.raises(WireError, match="trailing"):
        unpack_message(pack_message("ok", None) + b"junk")


def test_corrupt_ndarray_header_cannot_overread():
    # Header claiming a huge shape must fail cleanly, not allocate/overread.
    data = bytearray(pack_obj(np.arange(4, dtype=np.int64)))
    data[3:11] = (2**60).to_bytes(8, "little")  # dim 0 of the shape
    with pytest.raises(WireError):
        unpack_obj(bytes(data))


# ----------------------------------------------------------------------
# corruption: byte flips must never decode (hypothesis)
# ----------------------------------------------------------------------
#
# The message CRC32 trailer covers the entire frame, and CRC32 detects
# every single-byte error, so *any* one-byte flip anywhere in a framed
# message — magic, version, kind, scalar payload, ndarray payload, or the
# trailer itself — must surface as WireError, never a garbage decode.

_kinds = st.text(alphabet=st.characters(min_codepoint=33, max_codepoint=126),
                 min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(_kinds, values, st.data())
def test_any_single_byte_flip_in_message_is_rejected(kind, payload, data):
    frame = bytearray(pack_message(kind, payload))
    pos = data.draw(st.integers(0, len(frame) - 1), label="flip position")
    delta = data.draw(st.integers(1, 255), label="xor mask")
    unpack_message(bytes(frame))  # pristine frame decodes
    frame[pos] ^= delta
    with pytest.raises(WireError):
        unpack_message(bytes(frame))


@settings(max_examples=150, deadline=None)
@given(ndarrays().filter(lambda a: a.nbytes > 0), st.data())
def test_ndarray_payload_byte_flip_trips_frame_crc(arr, data):
    # A bare value frame has no message trailer; the per-ndarray CRC alone
    # must reject a flipped payload byte (these bytes used to decode
    # silently into a wrong array before wire v2).
    frame = bytearray(pack_obj(arr))
    lo = len(frame) - 4 - arr.nbytes  # | ... shape | payload | crc32 |
    pos = data.draw(st.integers(lo, len(frame) - 5), label="payload byte")
    delta = data.draw(st.integers(1, 255), label="xor mask")
    frame[pos] ^= delta
    with pytest.raises(WireError, match="checksum"):
        unpack_obj(bytes(frame))


def test_ndarray_crc_trailer_flip_rejected():
    frame = bytearray(pack_obj(np.arange(16, dtype=np.int64)))
    frame[-1] ^= 0xFF
    with pytest.raises(WireError, match="checksum"):
        unpack_obj(bytes(frame))


@settings(max_examples=100, deadline=None)
@given(_kinds, values, st.data(), st.integers(0, 7))
def test_corrupt_message_attributes_machine(kind, payload, data, machine):
    # The coordinator decodes with machine=<rank>; every decode failure on
    # that pipe must name the peer so chaos runs are machine-attributed.
    frame = bytearray(pack_message(kind, payload))
    pos = data.draw(st.integers(0, len(frame) - 1), label="flip position")
    delta = data.draw(st.integers(1, 255), label="xor mask")
    frame[pos] ^= delta
    with pytest.raises(WireError) as excinfo:
        unpack_message(bytes(frame), machine=machine)
    assert excinfo.value.machine == machine


def test_clean_decode_failure_without_machine_stays_anonymous():
    frame = bytearray(pack_message("ok", [1, 2, 3]))
    frame[-1] ^= 0x01
    with pytest.raises(WireError) as excinfo:
        unpack_message(bytes(frame))
    assert excinfo.value.machine is None


# ----------------------------------------------------------------------
# fetch-plan codecs against a real store
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def store_setup(tiny_dataset):
    ds = tiny_dataset
    part = metis_like_partition(ds.graph, 4, seed=0)
    reordered = reorder_dataset(ds, part)
    caches = []
    for k in range(4):
        lo, hi = reordered.part_range(k)
        remote = np.setdiff1d(np.arange(ds.num_vertices), np.arange(lo, hi))
        caches.append(np.sort(np.random.default_rng(k).choice(
            remote, size=min(30, len(remote)), replace=False)))
    store = PartitionedFeatureStore.build(reordered, gpu_fraction=0.5,
                                          caches=caches)
    return store, reordered


def _plans_equal(a: FetchPlan, b: FetchPlan):
    assert a.machine == b.machine
    assert a.gpu_rows == b.gpu_rows and a.cpu_rows == b.cpu_rows
    for name in ("ids", "local_pos", "local_ids", "cached_pos", "cached_ids",
                 "remote_pos", "remote_ids", "nonlocal_ids"):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and np.array_equal(x, y), name


def test_real_plan_round_trip_and_execution(store_setup):
    store, reordered = store_setup
    rng = np.random.default_rng(11)
    n = reordered.dataset.num_vertices
    for machine in range(4):
        ids = rng.choice(n, size=100, replace=False)
        plan = store.plan_gather(machine, ids)
        plan2 = decode_fetch_plan(encode_fetch_plan(plan))
        _plans_equal(plan, plan2)
        feats1, stats1 = store.execute(plan)
        feats2, stats2 = store.execute(plan2)
        assert np.array_equal(feats1, feats2)
        assert np.array_equal(stats1.remote_per_peer, stats2.remote_per_peer)


def test_empty_plan_round_trip(store_setup):
    store, _ = store_setup
    plan = store.plan_gather(0, np.empty(0, dtype=np.int64))
    plan2 = decode_fetch_plan(encode_fetch_plan(plan))
    _plans_equal(plan, plan2)
    assert len(plan2.ids) == 0


def test_all_cached_plan_round_trip(store_setup):
    store, _ = store_setup
    cached = store.stores[2].cache_ids[:16]
    plan = store.plan_gather(2, cached)
    assert len(plan.remote_ids) == 0 and len(plan.cached_ids) == len(cached)
    plan2 = decode_fetch_plan(encode_fetch_plan(plan))
    _plans_equal(plan, plan2)


def test_huge_index_plan_round_trip():
    # Vertex ids near 2**62 survive without truncation (u64 shape dims,
    # int64 payloads).
    huge = np.array([2**62, 2**62 + 1, 2**62 + 7], dtype=np.int64)
    plan = FetchPlan(
        machine=0, ids=huge,
        local_pos=np.empty(0, dtype=np.int64),
        local_ids=np.empty(0, dtype=np.int64),
        gpu_rows=0, cpu_rows=0,
        cached_pos=np.empty(0, dtype=np.int64),
        cached_ids=np.empty(0, dtype=np.int64),
        remote_pos=np.arange(3), remote_ids=huge,
        nonlocal_ids=huge,
    )
    plan2 = decode_fetch_plan(encode_fetch_plan(plan))
    _plans_equal(plan, plan2)


def test_mixed_dtype_payload_round_trip():
    payload = {
        "f16": np.arange(4, dtype=np.float16),
        "f32": np.arange(4, dtype=np.float32),
        "u8": np.arange(4, dtype=np.uint8),
        "bool": np.array([True, False]),
        "empty": np.empty((0, 3), dtype=np.float64),
        "big": np.array([2**62], dtype=np.int64),
        "nested": [{"x": (1, 2.5, None)}],
    }
    out = unpack_obj(pack_obj(payload))
    for key in ("f16", "f32", "u8", "bool", "empty", "big"):
        assert out[key].dtype == payload[key].dtype
        assert np.array_equal(out[key], payload[key])
    assert out["empty"].shape == (0, 3)
    assert out["nested"] == [{"x": (1, 2.5, None)}]


def test_plan_missing_field_raises():
    with pytest.raises(WireError, match="missing field"):
        decode_fetch_plan(pack_obj({"machine": 0}))
    with pytest.raises(WireError, match="dict"):
        decode_fetch_plan(pack_obj([1, 2, 3]))
