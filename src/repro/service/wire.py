"""Length-prefixed binary wire protocol between the cluster and shard workers.

The process-per-shard deployment (:mod:`repro.service.parallel`) puts each
shard's CLAM behind a socket; this module defines the only bytes that cross
that boundary.  Every frame is::

    <u32 length> <u32 crc32> <u8 version> <u8 frame-type> <u32 seq> <payload...>

with all integers little-endian and all simulated-time floats as IEEE-754
doubles (``<d``), so clocks and latencies survive the round trip bit-exactly
— the bit-identical results contract of the parallel cluster depends on it.
The length prefix counts everything after itself (checksum, preamble, and
payload); the CRC-32 covers everything after the checksum field, so a flipped
bit anywhere in the version, type, sequence number, or payload surfaces as a
typed :class:`CorruptFrameError` instead of a garbage decode.  The sequence
number lets a request/response peer discard stale frames (duplicates injected
by a lossy transport, or the late answer to a request it already gave up on)
without desynchronising the stream.

Frame types:

``BATCH_REQUEST``
    A clock advance (the dispatch/routing cost the parent accrued against the
    shard's mirrored clock) plus an ordered list of operations, laid out as
    columns::

        <d advance_ms> <u32 count>
        <u8 op-code> * count
        <u32 key length> * count  <u32 value length> * count
        <key blob> <value blob>

    Keys travel as their canonical bytes
    (:func:`repro.core.hashing.key_data`) and nothing else.  Digest memos do
    not cross the boundary: a worker builds its own
    :class:`~repro.core.hashing.KeyDigest` per distinct key of the
    sub-batch and fills its CLAM seeds in one packed FNV pass
    (:func:`repro.core.hashing.prime_digests`), so it never trusts a hash
    value that arrived in a frame.
``BATCH_RESPONSE``
    The worker clock's reading and the batch's busy time, a typed error code
    for the first failure plus its message, then one fixed-width record per
    result (in request order, possibly truncated if the shard's device failed
    mid-batch) and a blob holding the found lookup values.  Keys are not
    echoed: the requester knows them, and :func:`decode_batch_response`
    re-attaches them from the request.
``CONTROL_REQUEST`` / ``CONTROL_RESPONSE``
    Low-rate management traffic (counters, telemetry snapshots, fault
    injection, clean shutdown) as a JSON object — none of it is hot-path.

Error codes map worker-side exceptions back onto the service layer's typed
errors: ``ERR_DEVICE_FAILED`` re-raises as
:class:`~repro.core.errors.DeviceFailedError` (feeding replica failover and
hinted handoff exactly like an in-process device crash) and
``ERR_SHARD_UNAVAILABLE`` as
:class:`~repro.core.errors.ShardUnavailableError`.  Malformed frames raise
:class:`~repro.core.errors.WireProtocolError` subclasses:
:class:`TruncatedFrameError` when the peer hangs up mid-frame (how a killed
worker announces itself), :class:`OversizedFrameError` when a length prefix
exceeds :data:`MAX_FRAME_BYTES` (corruption or a desynchronised stream must
not turn into an attempted multi-gigabyte allocation), and
:class:`CorruptFrameError` when a frame's CRC-32 does not match its bytes.
The payload decoders are bounds-checked end to end: column lengths must sum
exactly to the blob sizes, op, error, record and served-from codes are
validated, and a response may not carry more results than its request had
operations, so any flip or truncation a fuzzer can produce decodes to a
typed ``WireProtocolError`` subclass, never a raw ``struct.error`` or
``UnicodeDecodeError``.
"""

from __future__ import annotations

import json
import struct
import zlib
from itertools import accumulate
from typing import Dict, List, Sequence, Tuple, Union

from repro.core.errors import DeviceFailedError, ShardUnavailableError, WireProtocolError
from repro.core.hashing import key_data
from repro.core.results import DeleteResult, InsertResult, LookupResult, ServedFrom
from repro.workloads.workload import OpKind

__all__ = [
    "ERR_DEVICE_FAILED",
    "ERR_NONE",
    "ERR_SHARD_UNAVAILABLE",
    "ERR_UNEXPECTED",
    "FRAME_BATCH_REQUEST",
    "FRAME_BATCH_RESPONSE",
    "FRAME_CONTROL_REQUEST",
    "FRAME_CONTROL_RESPONSE",
    "MAX_FRAME_BYTES",
    "WIRE_VERSION",
    "CorruptFrameError",
    "OversizedFrameError",
    "TruncatedFrameError",
    "decode_batch_request",
    "decode_batch_response",
    "decode_control",
    "encode_batch_request",
    "encode_batch_response",
    "encode_control",
    "raise_for_code",
    "recv_frame",
    "send_frame",
]

#: Protocol version carried in every frame; bumped on any layout change.
#: v2 added the CRC-32 checksum and the per-frame sequence number; v3 made
#: batch payloads columnar and dropped digest memos and echoed keys.
WIRE_VERSION = 3

#: Hard ceiling on one frame's body.  Generously above any real batch (the
#: executor sub-batches per shard) while small enough that a corrupt length
#: prefix fails fast instead of exhausting memory.
MAX_FRAME_BYTES = 64 * 1024 * 1024

FRAME_BATCH_REQUEST = 1
FRAME_BATCH_RESPONSE = 2
FRAME_CONTROL_REQUEST = 3
FRAME_CONTROL_RESPONSE = 4

_FRAME_TYPES = (
    FRAME_BATCH_REQUEST,
    FRAME_BATCH_RESPONSE,
    FRAME_CONTROL_REQUEST,
    FRAME_CONTROL_RESPONSE,
)

#: Typed error codes carried in batch responses.
ERR_NONE = 0
ERR_DEVICE_FAILED = 1
ERR_SHARD_UNAVAILABLE = 2
ERR_UNEXPECTED = 3

#: Op code -> kind: an operation's code is its index here.
_CODE_KINDS = (OpKind.LOOKUP, OpKind.INSERT, OpKind.UPDATE, OpKind.DELETE)
_OP_CODES: Dict[OpKind, int] = {kind: code for code, kind in enumerate(_CODE_KINDS)}

_SERVED_CODES: Dict[ServedFrom, int] = {
    ServedFrom.BUFFER: 0,
    ServedFrom.INCARNATION: 1,
    ServedFrom.DELETED: 2,
    ServedFrom.MISSING: 3,
}
_CODE_SERVED: Dict[int, ServedFrom] = {code: served for served, code in _SERVED_CODES.items()}

_RESULT_LOOKUP = 0
_RESULT_INSERT = 1
_RESULT_DELETE = 2

_HEADER = struct.Struct("<I")
_CRC = struct.Struct("<I")
#: version byte, frame-type byte, u32 sequence number.
_PREAMBLE = struct.Struct("<BBI")

ResultRecord = Union[LookupResult, InsertResult, DeleteResult]


class TruncatedFrameError(WireProtocolError):
    """Raised when the stream ends mid-frame — the peer died or hung up."""


class OversizedFrameError(WireProtocolError):
    """Raised when a length prefix exceeds :data:`MAX_FRAME_BYTES`."""


class CorruptFrameError(WireProtocolError):
    """Raised when a frame's CRC-32 does not match its bytes.

    Framing itself is intact (the length prefix was sane and the full body
    arrived), so the stream is still synchronised: the receiver may discard
    the frame and keep serving, and a request/response client may retry."""


def raise_for_code(code: int, message: str):
    """Re-raise a worker-reported error code as its typed exception."""
    if code == ERR_NONE:
        return
    if code == ERR_DEVICE_FAILED:
        raise DeviceFailedError(message)
    if code == ERR_SHARD_UNAVAILABLE:
        raise ShardUnavailableError(message)
    raise WireProtocolError(message or f"worker reported error code {code}")


# -- Framing ------------------------------------------------------------------------


def send_frame(sock, frame_type: int, payload: bytes, seq: int = 0) -> None:
    """Write one length-prefixed, checksummed frame to a connected socket."""
    body_len = len(payload) + _CRC.size + _PREAMBLE.size
    if body_len > MAX_FRAME_BYTES:
        raise OversizedFrameError(f"refusing to send {body_len}-byte frame (max {MAX_FRAME_BYTES})")
    covered = _PREAMBLE.pack(WIRE_VERSION, frame_type, seq) + payload
    sock.sendall(_HEADER.pack(body_len) + _CRC.pack(zlib.crc32(covered)) + covered)


def _recv_exact(sock, size: int) -> bytes:
    chunks: List[bytes] = []
    remaining = size
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            got = size - remaining
            raise TruncatedFrameError(f"stream ended after {got} of {size} frame bytes")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock) -> Tuple[int, int, bytes]:
    """Read one frame; returns ``(frame_type, seq, payload)``.

    Raises :class:`TruncatedFrameError` on EOF mid-frame (including EOF after
    a partial length prefix), :class:`OversizedFrameError` on a length prefix
    past :data:`MAX_FRAME_BYTES`, :class:`CorruptFrameError` on a CRC-32
    mismatch (checked before the version and type bytes, which the checksum
    covers), and :class:`WireProtocolError` on a version or frame-type byte
    this implementation does not speak.
    """
    (body_len,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if body_len > MAX_FRAME_BYTES:
        raise OversizedFrameError(f"frame length {body_len} exceeds limit {MAX_FRAME_BYTES}")
    if body_len < _CRC.size + _PREAMBLE.size:
        raise WireProtocolError(f"frame body of {body_len} bytes is too short for a preamble")
    body = _recv_exact(sock, body_len)
    (expected_crc,) = _CRC.unpack_from(body)
    covered = body[_CRC.size :]
    actual_crc = zlib.crc32(covered)
    if actual_crc != expected_crc:
        raise CorruptFrameError(
            f"frame CRC mismatch (expected {expected_crc:#010x}, computed {actual_crc:#010x})"
        )
    version, frame_type, seq = _PREAMBLE.unpack_from(covered)
    if version != WIRE_VERSION:
        raise WireProtocolError(f"unsupported wire version {version} (speaking {WIRE_VERSION})")
    if frame_type not in _FRAME_TYPES:
        raise WireProtocolError(f"unknown frame type {frame_type}")
    return frame_type, seq, covered[_PREAMBLE.size :]


# -- Bounds-checked decoding helpers ------------------------------------------------


def _unpack(fmt: struct.Struct, payload: bytes, offset: int) -> tuple:
    """``Struct.unpack_from`` that raises a typed error on a short buffer."""
    try:
        return fmt.unpack_from(payload, offset)
    except struct.error as error:
        raise WireProtocolError(f"frame payload truncated: {error}") from error


def _take(payload: bytes, offset: int, size: int) -> Tuple[bytes, int]:
    """Slice ``size`` bytes at ``offset``, raising if the payload is short."""
    end = offset + size
    if size < 0 or end > len(payload):
        raise WireProtocolError(
            f"frame payload truncated: wanted {size} bytes at offset {offset}, "
            f"have {len(payload)} total"
        )
    return bytes(payload[offset:end]), end


_BATCH_REQ_HEAD = struct.Struct("<dI")
#: Bytes per operation in the request's fixed-width columns: an op code and
#: the key and value lengths.
_REQUEST_COLUMN_BYTES = 1 + 4 + 4
_BATCH_RESP_HEAD = struct.Struct("<ddBII")
#: One result record: record type, flag (lookup: has a value; insert:
#: flushed; delete: removed from the buffer), served-from code, latency,
#: flush latency, three counters (lookup: flash reads, incarnations checked,
#: false-positive reads; insert: incarnations tried, flash writes, flash
#: reads) and the length of the record's value in the value blob.
_RECORD = struct.Struct("<BBBddIIII")

_ERROR_CODES = (ERR_NONE, ERR_DEVICE_FAILED, ERR_SHARD_UNAVAILABLE, ERR_UNEXPECTED)


# -- Batch requests -----------------------------------------------------------------


def encode_batch_request(advance_ms: float, operations: Sequence[Tuple[OpKind, object, bytes]]):
    """Encode ``(kind, key, value)`` triples plus the pending clock advance.

    Keys may be any :data:`~repro.core.hashing.KeyLike`; they travel as their
    canonical bytes (:func:`~repro.core.hashing.key_data`), the same bytes an
    in-process CLAM would index them under.
    """
    codes = bytearray()
    keys: List[bytes] = []
    values: List[bytes] = []
    for kind, key, value in operations:
        codes.append(_OP_CODES[kind])
        keys.append(key_data(key))
        values.append(value if type(value) is bytes else bytes(value))
    count = len(keys)
    lengths = struct.pack(f"<{2 * count}I", *map(len, keys), *map(len, values))
    return b"".join([_BATCH_REQ_HEAD.pack(advance_ms, count), codes, lengths, *keys, *values])


def _split(payload: bytes, start: int, lengths: Sequence[int]) -> List[bytes]:
    """Consecutive slices of ``payload`` from ``start`` (bounds already checked)."""
    ends = list(accumulate(lengths, initial=start))
    return [payload[begin:end] for begin, end in zip(ends, ends[1:])]


def decode_batch_request(payload: bytes) -> Tuple[float, List[OpKind], List[bytes], List[bytes]]:
    """Inverse of :func:`encode_batch_request`.

    Returns ``(advance_ms, kinds, keys, values)``: the request's columns,
    one entry per operation.  Op codes are validated, and the key and value
    lengths must sum exactly to the bytes that follow them.
    """
    advance_ms, count = _unpack(_BATCH_REQ_HEAD, payload, 0)
    offset = _BATCH_REQ_HEAD.size
    blobs = offset + count * _REQUEST_COLUMN_BYTES
    if blobs > len(payload):
        raise WireProtocolError(
            f"frame payload truncated: {count} operations need {blobs} bytes of "
            f"columns, have {len(payload)} total"
        )
    codes = payload[offset : offset + count]
    if codes and max(codes) >= len(_CODE_KINDS):
        raise WireProtocolError(f"unknown operation code {max(codes)}")
    lengths = struct.unpack_from(f"<{2 * count}I", payload, offset + count)
    key_lengths, value_lengths = lengths[:count], lengths[count:]
    keys_size = sum(key_lengths)
    if blobs + keys_size + sum(value_lengths) != len(payload):
        raise WireProtocolError(
            f"key and value lengths sum to {keys_size + sum(value_lengths)} bytes, "
            f"the blobs hold {len(payload) - blobs}"
        )
    kinds = [_CODE_KINDS[code] for code in codes]
    keys = _split(payload, blobs, key_lengths)
    values = _split(payload, blobs + keys_size, value_lengths)
    return advance_ms, kinds, keys, values


# -- Batch responses ----------------------------------------------------------------


def _encode_record(result: ResultRecord, values: List[bytes]) -> bytes:
    if isinstance(result, LookupResult):
        value = result.value
        if value is not None:
            values.append(value)
        return _RECORD.pack(
            _RESULT_LOOKUP,
            value is not None,
            _SERVED_CODES[result.served_from],
            result.latency_ms,
            0.0,
            result.flash_reads,
            result.incarnations_checked,
            result.false_positive_reads,
            len(value) if value is not None else 0,
        )
    if isinstance(result, InsertResult):
        return _RECORD.pack(
            _RESULT_INSERT,
            result.flushed,
            0,
            result.latency_ms,
            result.flush_latency_ms,
            result.incarnations_tried,
            result.flash_writes,
            result.flash_reads,
            0,
        )
    if isinstance(result, DeleteResult):
        return _RECORD.pack(
            _RESULT_DELETE, result.removed_from_buffer, 0, result.latency_ms, 0.0, 0, 0, 0, 0
        )
    raise WireProtocolError(f"cannot serialise result type {type(result).__name__}")


def encode_batch_response(
    results: Sequence[ResultRecord],
    error_code: int,
    error_message: str,
    clock_ms: float,
    busy_ms: float,
) -> bytes:
    """Encode results (request order, truncated at the first failure) + status.

    Result keys are not sent: the requester re-attaches them from its own
    request (see :func:`decode_batch_response`).
    """
    message_bytes = error_message.encode("utf-8")
    values: List[bytes] = []
    records = [_encode_record(result, values) for result in results]
    head = _BATCH_RESP_HEAD.pack(clock_ms, busy_ms, error_code, len(message_bytes), len(results))
    return b"".join([head, message_bytes, *records, *values])


def decode_batch_response(
    payload: bytes, keys: Sequence[bytes]
) -> Tuple[List[ResultRecord], int, str, float, float]:
    """Inverse of :func:`encode_batch_response` for a request over ``keys``.

    ``keys`` are the canonical key bytes of the request's operations, in
    request order; result ``i`` gets ``keys[i]``.  A response may carry
    fewer results than the request had operations only alongside an error
    code.  Returns ``(results, error_code, error_message, clock_ms,
    busy_ms)``.
    """
    clock_ms, busy_ms, error_code, message_len, result_count = _unpack(
        _BATCH_RESP_HEAD, payload, 0
    )
    if error_code not in _ERROR_CODES:
        raise WireProtocolError(f"unknown error code {error_code}")
    if result_count > len(keys) or (error_code == ERR_NONE and result_count != len(keys)):
        raise WireProtocolError(
            f"response carries {result_count} results for a {len(keys)}-operation request"
        )
    message_bytes, offset = _take(payload, _BATCH_RESP_HEAD.size, message_len)
    try:
        message = message_bytes.decode("utf-8")
    except UnicodeDecodeError as error:
        raise WireProtocolError(f"malformed error message: {error}") from error
    records_end = offset + result_count * _RECORD.size
    if records_end > len(payload):
        raise WireProtocolError(
            f"frame payload truncated: {result_count} result records need "
            f"{records_end} bytes, have {len(payload)} total"
        )
    results: List[ResultRecord] = []
    position = records_end  # start of the next value in the value blob
    for key, (record_type, flag, served_code, latency_ms, extra_ms, a, b, c, value_len) in zip(
        keys, _RECORD.iter_unpack(payload[offset:records_end])
    ):
        if flag > 1:
            raise WireProtocolError(f"malformed result record flag {flag}")
        end = position + value_len
        if record_type == _RESULT_LOOKUP:
            served = _CODE_SERVED.get(served_code)
            if served is None:
                raise WireProtocolError(f"unknown served-from code {served_code}")
            value = payload[position:end] if flag else None
            results.append(LookupResult(key, value, latency_ms, served, a, b, c))
        elif record_type == _RESULT_INSERT:
            results.append(InsertResult(key, latency_ms, bool(flag), extra_ms, a, b, c))
        elif record_type == _RESULT_DELETE:
            results.append(DeleteResult(key, latency_ms, bool(flag)))
        else:
            raise WireProtocolError(f"unknown result record type {record_type}")
        position = end
    if position != len(payload):
        raise WireProtocolError(
            f"value lengths sum to {position - records_end} bytes, "
            f"the value blob holds {len(payload) - records_end}"
        )
    return results, error_code, message, clock_ms, busy_ms


# -- Control frames -----------------------------------------------------------------


def encode_control(message: Dict[str, object]) -> bytes:
    """Encode a control message (JSON keeps this extensible off the hot path)."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8")


def decode_control(payload: bytes) -> Dict[str, object]:
    """Inverse of :func:`encode_control`."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise WireProtocolError(f"malformed control frame: {error}") from error
    if not isinstance(message, dict):
        raise WireProtocolError("control frame must decode to a JSON object")
    return message
