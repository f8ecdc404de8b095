"""Tests for the length-prefixed shard wire protocol (repro.service.wire)."""

import socket
import struct
import zlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.errors import (
    DeviceFailedError,
    ShardUnavailableError,
    WireProtocolError,
)
from repro.core.hashing import KeyDigest
from repro.core.results import DeleteResult, InsertResult, LookupResult, ServedFrom
from repro.service import wire
from repro.workloads.workload import OpKind


@pytest.fixture
def pair():
    left, right = socket.socketpair()
    yield left, right
    left.close()
    right.close()


def craft_frame(version: int, frame_type: int, seq: int, payload: bytes) -> bytes:
    """A raw v2 frame with a *valid* CRC, for byte-level tampering tests."""
    covered = struct.pack("<BBI", version, frame_type, seq) + payload
    return struct.pack("<I", len(covered) + 4) + struct.pack("<I", zlib.crc32(covered)) + covered


class ByteSock:
    """An in-memory socket double: serves a byte string, then EOF.

    Lets the fuzz tests run thousands of ``recv_frame`` calls without a
    socketpair per mutation."""

    def __init__(self, data: bytes) -> None:
        self._data = bytes(data)
        self._pos = 0

    def recv(self, size: int) -> bytes:
        chunk = self._data[self._pos : self._pos + size]
        self._pos += len(chunk)
        return chunk


class TestFraming:
    def test_roundtrip(self, pair):
        left, right = pair
        wire.send_frame(left, wire.FRAME_CONTROL_REQUEST, b"payload-bytes", seq=42)
        frame_type, seq, payload = wire.recv_frame(right)
        assert frame_type == wire.FRAME_CONTROL_REQUEST
        assert seq == 42
        assert payload == b"payload-bytes"

    def test_default_seq_is_zero(self, pair):
        left, right = pair
        wire.send_frame(left, wire.FRAME_CONTROL_REQUEST, b"")
        _, seq, _ = wire.recv_frame(right)
        assert seq == 0

    def test_multiple_frames_stay_delimited(self, pair):
        left, right = pair
        for index in range(5):
            wire.send_frame(left, wire.FRAME_BATCH_REQUEST, b"x" * index, seq=index)
        for index in range(5):
            _, seq, payload = wire.recv_frame(right)
            assert seq == index
            assert payload == b"x" * index

    def test_truncated_frame_raises_typed_error(self, pair):
        """A peer dying mid-frame surfaces as TruncatedFrameError, not a hang."""
        left, right = pair
        full = craft_frame(wire.WIRE_VERSION, wire.FRAME_BATCH_REQUEST, 0, b"y" * 90)
        assert struct.unpack_from("<I", full)[0] == 100  # 10-byte overhead + payload
        left.sendall(full[:30])  # length promises 100 body bytes; send 26
        left.close()
        with pytest.raises(wire.TruncatedFrameError, match="26 of 100"):
            wire.recv_frame(right)

    def test_eof_before_any_bytes_is_truncated(self, pair):
        left, right = pair
        left.close()
        with pytest.raises(wire.TruncatedFrameError, match="0 of 4"):
            wire.recv_frame(right)

    def test_oversized_length_prefix_rejected(self, pair):
        """A corrupt length prefix must fail fast, not attempt a 4 GiB recv."""
        left, right = pair
        left.sendall(struct.pack("<I", wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(wire.OversizedFrameError):
            wire.recv_frame(right)

    def test_oversized_send_rejected(self, pair):
        left, _right = pair

        class Huge(bytes):
            def __len__(self):
                return wire.MAX_FRAME_BYTES + 1

        with pytest.raises(wire.OversizedFrameError):
            wire.send_frame(left, wire.FRAME_BATCH_REQUEST, Huge())

    def test_wrong_version_rejected(self, pair):
        left, right = pair
        left.sendall(craft_frame(wire.WIRE_VERSION + 1, wire.FRAME_BATCH_REQUEST, 0, b""))
        with pytest.raises(WireProtocolError, match="version"):
            wire.recv_frame(right)

    def test_unknown_frame_type_rejected(self, pair):
        left, right = pair
        left.sendall(craft_frame(wire.WIRE_VERSION, 99, 0, b""))
        with pytest.raises(WireProtocolError, match="frame type"):
            wire.recv_frame(right)

    def test_body_shorter_than_preamble_rejected(self, pair):
        left, right = pair
        left.sendall(struct.pack("<I", 1) + b"z")
        with pytest.raises(WireProtocolError, match="too short"):
            wire.recv_frame(right)

    def test_corrupt_payload_raises_corrupt_frame_error(self, pair):
        left, right = pair
        frame = bytearray(craft_frame(wire.WIRE_VERSION, wire.FRAME_BATCH_REQUEST, 3, b"abcdef"))
        frame[-2] ^= 0x10  # one bit, deep in the payload
        left.sendall(bytes(frame))
        with pytest.raises(wire.CorruptFrameError, match="CRC"):
            wire.recv_frame(right)

    def test_corrupt_preamble_is_crc_not_version_error(self, pair):
        """The CRC covers the preamble, so a flipped version byte is reported
        as corruption (retryable) rather than a version mismatch (fatal)."""
        left, right = pair
        frame = bytearray(craft_frame(wire.WIRE_VERSION, wire.FRAME_BATCH_REQUEST, 0, b"pp"))
        frame[8] ^= 0x04  # the version byte (after 4-byte length + 4-byte crc)
        left.sendall(bytes(frame))
        with pytest.raises(wire.CorruptFrameError):
            wire.recv_frame(right)

    def test_corrupt_frame_error_is_wire_protocol_error(self):
        assert issubclass(wire.CorruptFrameError, WireProtocolError)


#: The keys of the sample batch request, which the sample response answers.
SAMPLE_KEYS = [b"fingerprint-xyz", b"plain-key", b"dead"]


def _sample_frames():
    """One realistic frame of every type, for the tamper/fuzz sweeps."""
    request = wire.encode_batch_request(
        1.25,
        [
            (OpKind.INSERT, KeyDigest(SAMPLE_KEYS[0]), b"value-bytes"),
            (OpKind.LOOKUP, SAMPLE_KEYS[1], b""),
            (OpKind.DELETE, KeyDigest(SAMPLE_KEYS[2]), b""),
        ],
    )
    response = wire.encode_batch_response(
        [
            LookupResult(SAMPLE_KEYS[0], b"v1", 0.125, ServedFrom.BUFFER, 1, 2, 0),
            InsertResult(SAMPLE_KEYS[1], 0.25, flushed=True, flush_latency_ms=1.5),
            DeleteResult(SAMPLE_KEYS[2], 0.5, removed_from_buffer=True),
        ],
        wire.ERR_DEVICE_FAILED,
        "DeviceFailedError: boom",
        12.5,
        3.25,
    )
    control = wire.encode_control({"op": "fault", "mode": "crash", "kwargs": {"n": 3}})
    return [
        (wire.FRAME_BATCH_REQUEST, request),
        (wire.FRAME_BATCH_RESPONSE, response),
        (wire.FRAME_CONTROL_REQUEST, control),
        (wire.FRAME_CONTROL_RESPONSE, control),
    ]


def _decode_response(payload):
    return wire.decode_batch_response(payload, SAMPLE_KEYS)


class TestWireFuzz:
    """Adversarial bytes must always surface as *typed* wire errors.

    The contract under fuzz is: any single-byte flip or truncation, anywhere
    in any frame type, decodes to a WireProtocolError subclass (or decodes
    successfully when the flip lands in dead space) — never a raw
    struct.error, UnicodeDecodeError, IndexError or MemoryError.
    """

    @pytest.mark.parametrize("frame_type,payload", _sample_frames())
    def test_single_byte_flips_always_typed(self, frame_type, payload):
        frame = craft_frame(wire.WIRE_VERSION, frame_type, 5, payload)
        for position in range(len(frame)):
            for mask in (0x01, 0x80, 0xFF):
                mutated = bytearray(frame)
                mutated[position] ^= mask
                try:
                    kind, _seq, decoded = wire.recv_frame(ByteSock(bytes(mutated)))
                except WireProtocolError:
                    continue  # typed: exactly what the contract demands
                # A flip that still framed correctly must be caught (or be a
                # no-op) by the payload decoders — also without raw errors.
                try:
                    if kind == wire.FRAME_BATCH_REQUEST:
                        wire.decode_batch_request(decoded)
                    elif kind == wire.FRAME_BATCH_RESPONSE:
                        _decode_response(decoded)
                    else:
                        wire.decode_control(decoded)
                except WireProtocolError:
                    pass

    @pytest.mark.parametrize("frame_type,payload", _sample_frames())
    def test_truncations_always_typed(self, frame_type, payload):
        frame = craft_frame(wire.WIRE_VERSION, frame_type, 5, payload)
        for cut in range(len(frame)):
            with pytest.raises(WireProtocolError):
                wire.recv_frame(ByteSock(frame[:cut]))

    @pytest.mark.parametrize("frame_type,payload", _sample_frames())
    def test_payload_mutations_never_raise_raw_errors(self, frame_type, payload):
        """Even *past* the CRC (an attacker or a memory flip on the far side
        of the checksum), the payload decoders are fully bounds-checked."""
        decoders = {
            wire.FRAME_BATCH_REQUEST: wire.decode_batch_request,
            wire.FRAME_BATCH_RESPONSE: _decode_response,
            wire.FRAME_CONTROL_REQUEST: wire.decode_control,
            wire.FRAME_CONTROL_RESPONSE: wire.decode_control,
        }
        decode = decoders[frame_type]
        for cut in range(len(payload)):
            try:
                decode(payload[:cut])
            except WireProtocolError:
                pass
        for position in range(len(payload)):
            mutated = bytearray(payload)
            mutated[position] ^= 0xFF
            try:
                decode(bytes(mutated))
            except WireProtocolError:
                pass


class TestFramingProperties:
    @given(
        frame_type=st.sampled_from(
            [
                wire.FRAME_BATCH_REQUEST,
                wire.FRAME_BATCH_RESPONSE,
                wire.FRAME_CONTROL_REQUEST,
                wire.FRAME_CONTROL_RESPONSE,
            ]
        ),
        seq=st.integers(min_value=0, max_value=2**32 - 1),
        payload=st.binary(max_size=512),
    )
    def test_crc_framing_roundtrip(self, frame_type, seq, payload):
        """Every (type, seq, payload) survives the CRC framing bit-exactly."""
        sent = []

        class Capture:
            def sendall(self, data):
                sent.append(bytes(data))

        wire.send_frame(Capture(), frame_type, payload, seq=seq)
        assert len(sent) == 1  # one frame, one write (the chaos layer relies on it)
        got_type, got_seq, got_payload = wire.recv_frame(ByteSock(sent[0]))
        assert (got_type, got_seq, got_payload) == (frame_type, seq, payload)

    @given(
        payload=st.binary(max_size=128),
        position=st.integers(min_value=0, max_value=10_000),
        bit=st.integers(min_value=0, max_value=7),
    )
    def test_any_single_bit_flip_is_detected(self, payload, position, bit):
        """CRC-32 detects every single-bit error; flips in the length prefix
        fall out as truncation/oversize/short-body errors — all typed."""
        frame = bytearray(craft_frame(wire.WIRE_VERSION, wire.FRAME_BATCH_REQUEST, 9, payload))
        frame[position % len(frame)] ^= 1 << bit
        with pytest.raises(WireProtocolError):
            wire.recv_frame(ByteSock(bytes(frame)))


class TestErrorCodes:
    def test_none_is_silent(self):
        wire.raise_for_code(wire.ERR_NONE, "")

    def test_device_failed(self):
        with pytest.raises(DeviceFailedError, match="boom"):
            wire.raise_for_code(wire.ERR_DEVICE_FAILED, "boom")

    def test_shard_unavailable(self):
        with pytest.raises(ShardUnavailableError, match="gone"):
            wire.raise_for_code(wire.ERR_SHARD_UNAVAILABLE, "gone")

    def test_unexpected_maps_to_wire_protocol_error(self):
        with pytest.raises(WireProtocolError):
            wire.raise_for_code(wire.ERR_UNEXPECTED, "worker exploded")


def _request_payload(advance_ms, codes, keys, values):
    """A raw v3 batch request, for tests that need malformed columns."""
    lengths = [len(key) for key in keys] + [len(value) for value in values]
    return (
        struct.pack("<dI", advance_ms, len(codes))
        + bytes(codes)
        + struct.pack(f"<{len(lengths)}I", *lengths)
        + b"".join(keys)
        + b"".join(values)
    )


class TestBatchRequest:
    def test_roundtrip_preserves_ops_keys_and_values(self):
        operations = [
            (OpKind.INSERT, KeyDigest(b"fingerprint-1"), b"value-bytes"),
            (OpKind.LOOKUP, b"plain-key", b""),
            (OpKind.DELETE, KeyDigest(b"dead"), b""),
            (OpKind.UPDATE, b"k2", b"\x00\xff" * 8),
            (OpKind.LOOKUP, b"", b""),
        ]
        payload = wire.encode_batch_request(1.25, operations)
        advance_ms, kinds, keys, values = wire.decode_batch_request(payload)
        assert advance_ms == 1.25
        assert kinds == [kind for kind, _, _ in operations]
        assert keys == [b"fingerprint-1", b"plain-key", b"dead", b"k2", b""]
        assert values == [b"value-bytes", b"", b"", b"\x00\xff" * 8, b""]

    @given(
        operations=st.lists(
            st.tuples(
                st.sampled_from(list(OpKind)),
                st.binary(max_size=40),
                st.binary(max_size=40),
            ),
            max_size=80,
        ),
        advance_ms=st.floats(allow_nan=False),
    )
    def test_any_batch_roundtrips(self, operations, advance_ms):
        payload = wire.encode_batch_request(advance_ms, operations)
        assert wire.decode_batch_request(payload) == (
            advance_ms,
            [kind for kind, _, _ in operations],
            [key for _, key, _ in operations],
            [value for _, _, value in operations],
        )

    def test_layout_is_columnar_and_carries_no_digest_memos(self):
        digest = KeyDigest(b"abc")
        digest.digest(7)  # a memo the wire must not carry
        payload = wire.encode_batch_request(0.5, [(OpKind.INSERT, digest, b"vv")])
        assert payload == _request_payload(0.5, [1], [b"abc"], [b"vv"])

    def test_keys_are_canonicalised(self):
        """Int and str keys travel as the bytes an in-process CLAM indexes."""
        operations = [
            (OpKind.INSERT, 5, b"v"),
            (OpKind.LOOKUP, "kö", b""),
            (OpKind.DELETE, 256, b""),
        ]
        _, _, keys, _ = wire.decode_batch_request(wire.encode_batch_request(0.0, operations))
        assert keys == [b"\x05", "kö".encode("utf-8"), b"\x01\x00"]

    def test_empty_batch_roundtrips(self):
        assert wire.decode_batch_request(wire.encode_batch_request(0.0, [])) == (0.0, [], [], [])

    def test_unknown_op_code_rejected(self):
        payload = _request_payload(0.0, [200], [b"k"], [b""])
        with pytest.raises(WireProtocolError, match="operation code"):
            wire.decode_batch_request(payload)

    def test_truncated_value_rejected(self):
        payload = wire.encode_batch_request(0.0, [(OpKind.INSERT, b"key", b"value")])
        with pytest.raises(WireProtocolError, match="sum to"):
            wire.decode_batch_request(payload[:-2])

    def test_count_beyond_payload_rejected(self):
        payload = struct.pack("<dI", 0.0, 2**32 - 1) + b"\x00" * 20
        with pytest.raises(WireProtocolError, match="truncated"):
            wire.decode_batch_request(payload)

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_length_sum_mismatch_rejected(self, delta):
        """A key or value length that disagrees with the blobs by one byte,
        either way, is rejected instead of shifting every later key."""
        good = _request_payload(0.0, [1, 0], [b"key-1", b"key-2"], [b"val", b""])
        lengths_at = struct.calcsize("<dI") + 2
        for column in range(4):
            broken = bytearray(good)
            (length,) = struct.unpack_from("<I", broken, lengths_at + 4 * column)
            struct.pack_into("<I", broken, lengths_at + 4 * column, max(0, length + delta))
            if bytes(broken) == good:
                continue
            with pytest.raises(WireProtocolError, match="sum to"):
                wire.decode_batch_request(bytes(broken))

    def test_trailing_bytes_rejected(self):
        payload = wire.encode_batch_request(0.0, [(OpKind.LOOKUP, b"key", b"")])
        with pytest.raises(WireProtocolError, match="sum to"):
            wire.decode_batch_request(payload + b"x")


class TestBatchResponse:
    def roundtrip(self, results, error_code=wire.ERR_NONE, message=""):
        payload = wire.encode_batch_response(results, error_code, message, 12.5, 3.25)
        return wire.decode_batch_response(payload, [result.key for result in results])

    def test_lookup_results_roundtrip_every_served_from(self):
        originals = [
            LookupResult(b"k1", b"v1", 0.123456789, ServedFrom.BUFFER),
            LookupResult(b"k2", b"v2", 1.5, ServedFrom.INCARNATION, 3, 2, 1),
            LookupResult(b"k3", None, 0.25, ServedFrom.DELETED),
            LookupResult(b"k4", None, 0.75, ServedFrom.MISSING, 4, 4, 4),
            LookupResult(b"k5", b"", 0.5, ServedFrom.BUFFER),
        ]
        decoded, code, message, clock_ms, busy_ms = self.roundtrip(originals)
        assert decoded == originals  # dataclass equality: every field, bit-exact
        assert (code, message) == (wire.ERR_NONE, "")
        assert (clock_ms, busy_ms) == (12.5, 3.25)

    def test_insert_and_delete_results_roundtrip(self):
        originals = [
            InsertResult(
                b"k",
                0.1 + 0.2,
                flushed=True,
                flush_latency_ms=7.7,
                incarnations_tried=2,
                flash_writes=5,
                flash_reads=3,
            ),
            InsertResult(b"k2", 0.001),
            DeleteResult(b"gone", 0.5, removed_from_buffer=True),
            DeleteResult(b"gone2", 1.0 / 3.0),
        ]
        decoded, _, _, _, _ = self.roundtrip(originals)
        assert decoded == originals

    def test_keys_are_not_echoed(self):
        """Records carry no key bytes; the requester's keys are re-attached."""
        result = LookupResult(b"long-key" * 8, None, 0.5, ServedFrom.MISSING)
        payload = wire.encode_batch_response([result], wire.ERR_NONE, "", 0.0, 0.0)
        assert b"long-key" not in payload
        decoded, _, _, _, _ = wire.decode_batch_response(payload, [b"mine"])
        assert decoded[0].key == b"mine"

    def test_float_fields_survive_bit_exactly(self):
        """Latencies feed the bit-identical contract; doubles must not drift."""
        awkward = 1.0000000000000002  # one ulp above 1.0
        decoded, _, _, clock_ms, _ = wire.decode_batch_response(
            wire.encode_batch_response(
                [InsertResult(b"k", awkward)], wire.ERR_NONE, "", awkward, 0.0
            ),
            [b"k"],
        )
        assert decoded[0].latency_ms == awkward
        assert clock_ms == awkward

    def test_error_code_and_message_roundtrip(self):
        payload = wire.encode_batch_response(
            [InsertResult(b"k", 1.0)], wire.ERR_DEVICE_FAILED, "DeviceFailedError: dead", 0.0, 0.0
        )
        decoded, code, message, _, _ = wire.decode_batch_response(payload, [b"k", b"k2"])
        assert len(decoded) == 1  # truncated result list rides with the error
        assert code == wire.ERR_DEVICE_FAILED
        assert message == "DeviceFailedError: dead"

    def test_result_count_mismatch_rejected(self):
        payload = wire.encode_batch_response(
            [InsertResult(b"a", 1.0), InsertResult(b"b", 1.0)], wire.ERR_NONE, "", 0.0, 0.0
        )
        with pytest.raises(WireProtocolError, match="results for a 1-operation"):
            wire.decode_batch_response(payload, [b"a"])  # more results than operations
        with pytest.raises(WireProtocolError, match="results for a 3-operation"):
            wire.decode_batch_response(payload, [b"a", b"b", b"c"])  # short without an error

    def test_unknown_error_code_rejected(self):
        payload = wire.encode_batch_response([], 9, "", 0.0, 0.0)
        with pytest.raises(WireProtocolError, match="error code"):
            wire.decode_batch_response(payload, [])

    def test_unknown_result_record_rejected(self):
        payload = bytearray(
            wire.encode_batch_response([DeleteResult(b"k", 1.0)], wire.ERR_NONE, "", 0.0, 0.0)
        )
        payload[struct.calcsize("<ddBII")] = 77  # the record-type byte
        with pytest.raises(WireProtocolError, match="record type"):
            wire.decode_batch_response(bytes(payload), [b"k"])

    def test_unknown_served_from_rejected(self):
        payload = bytearray(
            wire.encode_batch_response(
                [LookupResult(b"k", None, 1.0, ServedFrom.MISSING)], wire.ERR_NONE, "", 0.0, 0.0
            )
        )
        payload[struct.calcsize("<ddBII") + 2] = 9  # the served-from byte
        with pytest.raises(WireProtocolError, match="served-from"):
            wire.decode_batch_response(bytes(payload), [b"k"])

    def test_malformed_flag_rejected(self):
        payload = bytearray(
            wire.encode_batch_response([InsertResult(b"k", 1.0)], wire.ERR_NONE, "", 0.0, 0.0)
        )
        payload[struct.calcsize("<ddBII") + 1] = 2  # the flag byte
        with pytest.raises(WireProtocolError, match="flag"):
            wire.decode_batch_response(bytes(payload), [b"k"])

    def test_value_length_mismatch_rejected(self):
        payload = wire.encode_batch_response(
            [LookupResult(b"k", b"value", 1.0, ServedFrom.BUFFER)], wire.ERR_NONE, "", 0.0, 0.0
        )
        with pytest.raises(WireProtocolError, match="sum to"):
            wire.decode_batch_response(payload[:-1], [b"k"])
        with pytest.raises(WireProtocolError, match="sum to"):
            wire.decode_batch_response(payload + b"!", [b"k"])

    def test_invalid_utf8_message_rejected(self):
        payload = wire.encode_batch_response([], wire.ERR_UNEXPECTED, "abc", 0.0, 0.0)
        broken = payload.replace(b"abc", b"\xff\xfe\xff")
        with pytest.raises(WireProtocolError, match="message"):
            wire.decode_batch_response(broken, [])


class TestControlFrames:
    def test_roundtrip(self):
        message = {"op": "fault", "mode": "crash", "kwargs": {"after_n_ios": 3}}
        assert wire.decode_control(wire.encode_control(message)) == message

    def test_malformed_json_rejected(self):
        with pytest.raises(WireProtocolError, match="malformed"):
            wire.decode_control(b"{not json")

    def test_non_object_rejected(self):
        with pytest.raises(WireProtocolError, match="object"):
            wire.decode_control(b"[1, 2, 3]")
