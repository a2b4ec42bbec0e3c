"""The wire format: the one encoder for everything that leaves a process
or touches disk.

The multiproc cluster backend ships :class:`FetchPlan`\\ s, gradients, step
records, spans and stage events between the coordinator and its worker
processes over pipes; the planner's :class:`~repro.core.planner.
ArtifactCache` persists preprocessing artifacts and recovery checkpoints
as files; and every fingerprint in the package (:func:`content_hash`) is a
digest of an encoding.  A general-purpose object serializer would work,
but it is neither compact (every ndarray drags protocol framing and dtype
objects along) nor auditable; this module defines a small explicit format
instead:

* a **message** is ``MAGIC | version | kind | value`` — ``MAGIC`` is the
  4-byte tag ``b"RPWF"``, ``kind`` is a short ASCII name (a verb such as
  ``"step"`` or ``"avg"`` on a pipe, an artifact kind such as ``"vip"`` in
  a file), and ``value`` is one encoded value;
* a **value** is a one-byte type tag followed by its payload.  Scalars
  (``None``, bools, 64-bit ints, doubles, strings, bytes) and containers
  (list, tuple, dict with string keys) nest arbitrarily;
* an **ndarray frame** is ``dtype tag | ndim | shape (u64 each) | raw
  C-contiguous little-endian payload | crc32(payload)`` — the length is
  implied by dtype and shape, so a corrupt header can never over-read, and
  the CRC32 trailer rejects corrupt *payloads* (a flipped bit in the raw
  bytes used to decode silently into a wrong array);
* every **message** additionally carries a CRC32 trailer over its entire
  frame, so any corruption — header, scalar payload, or array — surfaces
  as :class:`WireError` instead of a garbage decode.

Values round-trip bit-identically: dtypes, shapes, int-vs-float distinctions,
and tuple-vs-list distinctions are all preserved (arrays come back native
little-endian, which is what every supported platform runs).  Anything the
format cannot represent exactly — object arrays, ints beyond 64 bits,
unknown types — raises :class:`WireError` at *encode* time rather than
producing a lossy payload.

**Dataclasses** are the one structured type: an instance encodes as the
dict of its fields (enum members as their values; ``compare=False`` fields,
which only memoize the others, are left out), and
:func:`decode_dataclass` rebuilds it from the class's own field annotations
— nested dataclasses, ``Optional``/``List``/``Tuple``/``Dict`` of them, and
enums included.  Step records, worker specs, fault schedules and fetch
plans all cross the wire this way; there is no per-type codec to keep in
step with a field list.  Decoded plans are plain
:class:`~repro.distributed.feature_store.FetchPlan` objects the store can
execute directly.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import struct
import typing
import zlib
from typing import Any, Optional, Tuple

import numpy as np

from repro.distributed.feature_store import FetchPlan

MAGIC = b"RPWF"
#: v2 added the CRC32 integrity trailers (per ndarray frame + per message).
VERSION = 2

#: Bytes of a CRC32 trailer.
_CRC_NBYTES = 4

#: Value type tags.
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03
_T_FLOAT = 0x04
_T_STR = 0x05
_T_BYTES = 0x06
_T_LIST = 0x07
_T_TUPLE = 0x08
_T_DICT = 0x09
_T_NDARRAY = 0x0A

#: dtype tag -> canonical little-endian dtype.  Tags are stable wire
#: identifiers; never renumber.
_DTYPE_CODES = {
    0: np.dtype("bool"),
    1: np.dtype("int8"),
    2: np.dtype("int16"),
    3: np.dtype("<i4"),
    4: np.dtype("<i8"),
    5: np.dtype("uint8"),
    6: np.dtype("uint16"),
    7: np.dtype("<u4"),
    8: np.dtype("<u8"),
    9: np.dtype("<f2"),
    10: np.dtype("<f4"),
    11: np.dtype("<f8"),
}
#: (kind, itemsize) -> dtype tag, endianness-agnostic.
_DTYPE_TAGS = {(dt.kind, dt.itemsize): tag for tag, dt in _DTYPE_CODES.items()}

_MAX_NDIM = 32


class WireError(ValueError):
    """Malformed, truncated, corrupt, or unrepresentable wire data.

    ``machine`` attributes the failure to a peer when the decoding side
    knows which worker/machine produced the bytes (``None`` otherwise —
    the multiproc coordinator re-raises with the pipe's machine id).
    """

    def __init__(self, message: str, machine: Optional[int] = None):
        super().__init__(message)
        self.machine = machine


# ----------------------------------------------------------------------
# encoding
# ----------------------------------------------------------------------

def pack_ndarray(arr: np.ndarray, out: bytearray) -> None:
    """Append one ndarray frame (dtype tag, shape, raw payload) to ``out``."""
    tag = _DTYPE_TAGS.get((arr.dtype.kind, arr.dtype.itemsize))
    if tag is None:
        raise WireError(f"unsupported ndarray dtype {arr.dtype!r}")
    if arr.ndim > _MAX_NDIM:
        raise WireError(f"ndarray rank {arr.ndim} exceeds wire limit {_MAX_NDIM}")
    canonical = _DTYPE_CODES[tag]
    # asarray(order="C"), not ascontiguousarray: the latter promotes 0-d
    # arrays to 1-d, which would break shape round-tripping.
    arr = np.asarray(arr, dtype=canonical, order="C")
    out.append(tag)
    out.append(arr.ndim)
    for dim in arr.shape:
        out += struct.pack("<Q", dim)
    payload = arr.tobytes()
    out += payload
    out += struct.pack("<I", zlib.crc32(payload))


def _pack_value(obj: Any, out: bytearray, sort_keys: bool = False) -> None:
    if obj is None:
        out.append(_T_NONE)
    elif isinstance(obj, (bool, np.bool_)):
        out.append(_T_TRUE if obj else _T_FALSE)
    elif isinstance(obj, (int, np.integer)):
        out.append(_T_INT)
        try:
            out += struct.pack("<q", int(obj))
        except struct.error:
            raise WireError(f"integer {obj!r} exceeds 64-bit wire range") from None
    elif isinstance(obj, (float, np.floating)):
        out.append(_T_FLOAT)
        out += struct.pack("<d", float(obj))
    elif isinstance(obj, str):
        raw = obj.encode("utf8")
        if len(raw) > 0xFFFFFFFF:
            raise WireError("string too long for wire format")
        out.append(_T_STR)
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(obj, (bytes, bytearray, memoryview)):
        raw = bytes(obj)
        if len(raw) > 0xFFFFFFFF:
            raise WireError("bytes too long for wire format")
        out.append(_T_BYTES)
        out += struct.pack("<I", len(raw))
        out += raw
    elif isinstance(obj, np.ndarray):
        out.append(_T_NDARRAY)
        pack_ndarray(obj, out)
    elif isinstance(obj, (list, tuple)):
        out.append(_T_LIST if isinstance(obj, list) else _T_TUPLE)
        out += struct.pack("<I", len(obj))
        for item in obj:
            _pack_value(item, out, sort_keys)
    elif isinstance(obj, dict):
        out.append(_T_DICT)
        out += struct.pack("<I", len(obj))
        for key, val in (sorted(obj.items()) if sort_keys else obj.items()):
            if not isinstance(key, str):
                raise WireError(f"dict keys must be str, got {type(key).__name__}")
            _pack_value(key, out)
            _pack_value(val, out, sort_keys)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        # compare=False fields are memoized derivations of the others
        # (Partition._members): not part of the value, so they stay home.
        _pack_value({f.name: getattr(obj, f.name)
                     for f in dataclasses.fields(obj) if f.compare},
                    out, sort_keys)
    elif isinstance(obj, enum.Enum):
        _pack_value(obj.value, out)
    else:
        raise WireError(f"cannot encode {type(obj).__name__} on the wire")


def pack_obj(obj: Any) -> bytes:
    """Encode one value (scalars, str/bytes, list/tuple/dict, ndarrays)."""
    out = bytearray()
    _pack_value(obj, out)
    return bytes(out)


def content_hash(obj: Any) -> str:
    """SHA-256 hex digest of ``obj``'s canonical wire encoding (dict keys
    sorted) — the one fingerprint primitive: equal values hash equal
    whatever their dict insertion order, and anything the wire cannot
    represent exactly cannot be fingerprinted either."""
    out = bytearray()
    _pack_value(obj, out, sort_keys=True)
    return hashlib.sha256(out).hexdigest()


def pack_message(kind: str, payload: Any) -> bytes:
    """Frame ``payload`` as one coordinator/worker message of ``kind``."""
    raw_kind = kind.encode("ascii")
    if not 1 <= len(raw_kind) <= 255:
        raise WireError(f"message kind must be 1..255 ASCII bytes, got {kind!r}")
    out = bytearray(MAGIC)
    out.append(VERSION)
    out.append(len(raw_kind))
    out += raw_kind
    _pack_value(payload, out)
    out += struct.pack("<I", zlib.crc32(out))
    return bytes(out)


# ----------------------------------------------------------------------
# decoding
# ----------------------------------------------------------------------

def _need(buf: memoryview, offset: int, n: int) -> None:
    if offset + n > len(buf):
        raise WireError(
            f"truncated wire data: need {n} bytes at offset {offset}, "
            f"have {len(buf) - offset}"
        )


def unpack_ndarray(buf: memoryview, offset: int) -> Tuple[np.ndarray, int]:
    """Decode one ndarray frame at ``offset``; returns ``(array, end)``."""
    _need(buf, offset, 2)
    tag, ndim = buf[offset], buf[offset + 1]
    offset += 2
    dtype = _DTYPE_CODES.get(tag)
    if dtype is None:
        raise WireError(f"unknown ndarray dtype tag {tag}")
    if ndim > _MAX_NDIM:
        raise WireError(f"ndarray rank {ndim} exceeds wire limit {_MAX_NDIM}")
    _need(buf, offset, 8 * ndim)
    shape = struct.unpack_from(f"<{ndim}Q", buf, offset)
    offset += 8 * ndim
    count = 1
    for dim in shape:
        count *= dim
    nbytes = count * dtype.itemsize
    _need(buf, offset, nbytes + _CRC_NBYTES)
    end = offset + nbytes
    want = struct.unpack_from("<I", buf, end)[0]
    got = zlib.crc32(buf[offset:end])
    if got != want:
        raise WireError(
            f"ndarray payload checksum mismatch "
            f"(crc32 {got:#010x} != {want:#010x}) — corrupt frame"
        )
    arr = np.frombuffer(buf, dtype=dtype, count=count, offset=offset)
    try:
        # A corrupt dim of a zero-size frame can pass the length and crc
        # checks above (0 payload bytes either way) yet exceed numpy's
        # per-dimension limit.
        return arr.reshape(shape).copy(), end + _CRC_NBYTES
    except ValueError as exc:
        raise WireError(f"corrupt ndarray shape {shape}: {exc}") from exc


def _unpack_value(buf: memoryview, offset: int) -> Tuple[Any, int]:
    _need(buf, offset, 1)
    tag = buf[offset]
    offset += 1
    if tag == _T_NONE:
        return None, offset
    if tag == _T_TRUE:
        return True, offset
    if tag == _T_FALSE:
        return False, offset
    if tag == _T_INT:
        _need(buf, offset, 8)
        return struct.unpack_from("<q", buf, offset)[0], offset + 8
    if tag == _T_FLOAT:
        _need(buf, offset, 8)
        return struct.unpack_from("<d", buf, offset)[0], offset + 8
    if tag in (_T_STR, _T_BYTES):
        _need(buf, offset, 4)
        n = struct.unpack_from("<I", buf, offset)[0]
        offset += 4
        _need(buf, offset, n)
        raw = bytes(buf[offset:offset + n])
        if tag == _T_BYTES:
            return raw, offset + n
        try:
            return raw.decode("utf8"), offset + n
        except UnicodeDecodeError as exc:
            raise WireError(f"corrupt utf8 string payload: {exc}") from exc
    if tag in (_T_LIST, _T_TUPLE):
        _need(buf, offset, 4)
        n = struct.unpack_from("<I", buf, offset)[0]
        offset += 4
        items = []
        for _ in range(n):
            item, offset = _unpack_value(buf, offset)
            items.append(item)
        return (items if tag == _T_LIST else tuple(items)), offset
    if tag == _T_DICT:
        _need(buf, offset, 4)
        n = struct.unpack_from("<I", buf, offset)[0]
        offset += 4
        out = {}
        for _ in range(n):
            key, offset = _unpack_value(buf, offset)
            if not isinstance(key, str):
                raise WireError("dict keys must decode to str")
            out[key], offset = _unpack_value(buf, offset)
        return out, offset
    if tag == _T_NDARRAY:
        return unpack_ndarray(buf, offset)
    raise WireError(f"unknown value tag 0x{tag:02x}")


def unpack_obj(data: bytes) -> Any:
    """Decode one value; the buffer must contain exactly one value."""
    buf = memoryview(data)
    obj, offset = _unpack_value(buf, 0)
    if offset != len(buf):
        raise WireError(f"{len(buf) - offset} trailing bytes after value")
    return obj


def unpack_message(data: bytes, *,
                   machine: Optional[int] = None) -> Tuple[str, Any]:
    """Decode one framed message; returns ``(kind, payload)``.

    ``machine`` attributes any decode failure to the peer that produced
    the bytes: every :class:`WireError` raised from this call carries it,
    so a flipped bit on a worker pipe surfaces as *"machine k sent corrupt
    data"* rather than an anonymous checksum mismatch.
    """
    try:
        return _unpack_message(data)
    except WireError as exc:
        if machine is not None and exc.machine is None:
            exc.machine = machine
        raise


def _unpack_message(data: bytes) -> Tuple[str, Any]:
    buf = memoryview(data)
    _need(buf, 0, len(MAGIC) + 2)
    if bytes(buf[:len(MAGIC)]) != MAGIC:
        raise WireError(f"bad magic {bytes(buf[:len(MAGIC)])!r}")
    version = buf[len(MAGIC)]
    if version != VERSION:
        raise WireError(f"unsupported wire version {version}")
    kind_len = buf[len(MAGIC) + 1]
    offset = len(MAGIC) + 2
    _need(buf, offset, kind_len)
    try:
        kind = bytes(buf[offset:offset + kind_len]).decode("ascii")
    except UnicodeDecodeError as exc:
        raise WireError("message kind is not ASCII") from exc
    payload, offset = _unpack_value(buf, offset + kind_len)
    if offset != len(buf) - _CRC_NBYTES:
        raise WireError(
            f"message length mismatch: {len(buf) - _CRC_NBYTES - offset} "
            f"trailing bytes after payload"
        )
    want = struct.unpack_from("<I", buf, offset)[0]
    got = zlib.crc32(buf[:offset])
    if got != want:
        raise WireError(
            f"message checksum mismatch (crc32 {got:#010x} != {want:#010x}) "
            f"— corrupt or trailing bytes on the wire"
        )
    return kind, payload


# ----------------------------------------------------------------------
# dataclass codec
# ----------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _field_hints(cls) -> dict:
    return typing.get_type_hints(cls)


def _from_wire(hint, value):
    """Rebuild ``value`` as the annotated type ``hint`` describes: only
    dataclasses and enums need rebuilding (everything else the wire already
    round-trips exactly), wherever containers nest them."""
    if dataclasses.is_dataclass(hint):
        return decode_dataclass(hint, value)
    if isinstance(hint, type) and issubclass(hint, enum.Enum):
        return hint(value)
    if value is None:
        return None
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Union:
        inner = [a for a in args if a is not type(None)]
        return _from_wire(inner[0], value) if len(inner) == 1 else value
    if origin is dict:
        return {key: _from_wire(args[1], val) for key, val in value.items()}
    if origin is list or (origin is tuple and args[1:] == (Ellipsis,)):
        return origin(_from_wire(args[0], item) for item in value)
    return value


def decode_dataclass(cls, fields):
    """Rebuild a ``cls`` instance from its wire form (the dict of its
    fields); fields with a default may be absent.  Anything that is not
    such a dict — wrong container, missing field, a value that does not fit
    its annotation — raises :class:`WireError`, never a garbage object."""
    if not isinstance(fields, dict):
        raise WireError(f"{cls.__name__} payload must be a dict")
    hints = _field_hints(cls)
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in fields:
            try:
                kwargs[f.name] = _from_wire(hints[f.name], fields[f.name])
            except (TypeError, ValueError, AttributeError, IndexError) as exc:
                raise WireError(
                    f"malformed {cls.__name__}.{f.name}: {exc}") from None
        elif (f.default is dataclasses.MISSING
              and f.default_factory is dataclasses.MISSING):
            raise WireError(f"{cls.__name__} missing field {f.name!r}")
    return cls(**kwargs)


def encode_fetch_plan(plan: FetchPlan) -> bytes:
    """Serialize one :class:`FetchPlan` (bit-identical round trip)."""
    return pack_obj(plan)


def decode_fetch_plan(data: bytes) -> FetchPlan:
    return decode_dataclass(FetchPlan, unpack_obj(data))

