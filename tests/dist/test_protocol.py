"""Unit tests for the repro.dist wire protocol."""

from __future__ import annotations

import math
import socket
import struct
import threading

import numpy as np
import pytest

from repro.dist.protocol import (
    HEADER,
    MAGIC,
    MAX_PAYLOAD_BYTES,
    MessageType,
    PROTOCOL_VERSION,
    WireFix,
    decode_fixes,
    decode_frames_seq,
    decode_header,
    decode_json,
    decode_message,
    decode_resume,
    encode_fixes,
    encode_frames,
    encode_json,
    encode_message,
    encode_resume,
    encode_trace_context,
    encode_traced_ingest,
    parse_bind,
    recv_message,
    send_message,
    split_traced_ingest,
)
from repro.obs import TraceContext
from repro.errors import TraceFormatError, ValidationError
from repro.wifi.csi import CsiFrame


def make_frame(source: str = "t0", seed: int = 0) -> CsiFrame:
    rng = np.random.default_rng(seed)
    csi = rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))
    return CsiFrame(csi=csi, rssi_dbm=-41.5, timestamp_s=1.25, source=source)


class TestFraming:
    def test_round_trip(self):
        data = encode_message(MessageType.FLUSH, b"hello")
        assert decode_message(data) == (MessageType.FLUSH, b"hello")

    def test_empty_payload_round_trip(self):
        assert decode_message(encode_message(MessageType.HEALTH)) == (
            MessageType.HEALTH,
            b"",
        )

    def test_bad_magic_rejected(self):
        data = b"XX" + encode_message(MessageType.HEALTH)[2:]
        with pytest.raises(TraceFormatError, match="magic"):
            decode_header(data)

    def test_wrong_version_rejected(self):
        data = HEADER.pack(MAGIC, PROTOCOL_VERSION + 1, int(MessageType.HEALTH), 0)
        with pytest.raises(TraceFormatError, match="version"):
            decode_header(data)

    def test_unknown_type_rejected(self):
        data = HEADER.pack(MAGIC, PROTOCOL_VERSION, 200, 0)
        with pytest.raises(TraceFormatError, match="message type"):
            decode_header(data)

    def test_truncated_header_rejected(self):
        with pytest.raises(TraceFormatError, match="truncated"):
            decode_header(b"SD\x01")

    def test_truncated_payload_rejected(self):
        data = encode_message(MessageType.FLUSH, b"hello")[:-2]
        with pytest.raises(TraceFormatError, match="truncated"):
            decode_message(data)

    def test_oversized_declared_payload_rejected(self):
        data = HEADER.pack(
            MAGIC, PROTOCOL_VERSION, int(MessageType.INGEST), MAX_PAYLOAD_BYTES + 1
        )
        with pytest.raises(TraceFormatError, match="cap"):
            decode_header(data)


class TestSocketIO:
    def test_send_recv_round_trip(self):
        a, b = socket.socketpair()
        with a, b:
            send_message(a, MessageType.METRICS, b"{}")
            assert recv_message(b) == (MessageType.METRICS, b"{}")

    def test_clean_eof_returns_none(self):
        a, b = socket.socketpair()
        with b:
            a.close()
            assert recv_message(b) is None

    def test_mid_message_eof_raises(self):
        a, b = socket.socketpair()
        with b:
            a.sendall(encode_message(MessageType.FLUSH, b"hello")[:-2])
            a.close()
            with pytest.raises(TraceFormatError, match="mid-message"):
                recv_message(b)

    def test_interleaved_messages_keep_boundaries(self):
        a, b = socket.socketpair()
        with a, b:
            sender = threading.Thread(
                target=lambda: [
                    send_message(a, MessageType.HEALTH),
                    send_message(a, MessageType.FLUSH, b"x" * 1000),
                ]
            )
            sender.start()
            assert recv_message(b) == (MessageType.HEALTH, b"")
            assert recv_message(b) == (MessageType.FLUSH, b"x" * 1000)
            sender.join()


class TestFrameBatches:
    def test_round_trip(self):
        entries = [("ap0", make_frame("t0", 0)), ("ap1", make_frame("t1", 1))]
        decoded = decode_frames_seq(encode_frames(entries))
        assert [(ap, f.source, seq) for ap, f, seq in decoded] == [
            ("ap0", "t0", 0),
            ("ap1", "t1", 0),
        ]
        for (_, sent), (_, got, _) in zip(entries, decoded):
            np.testing.assert_allclose(got.csi, sent.csi)
            assert got.rssi_dbm == sent.rssi_dbm
            assert got.timestamp_s == sent.timestamp_s

    def test_empty_batch(self):
        assert decode_frames_seq(encode_frames([])) == []

    def test_truncated_batch_rejected(self):
        payload = encode_frames([("ap0", make_frame())])
        with pytest.raises(TraceFormatError, match="truncated"):
            decode_frames_seq(payload[:-8])

    def test_trailing_bytes_rejected(self):
        payload = encode_frames([("ap0", make_frame())])
        with pytest.raises(TraceFormatError, match="trailing"):
            decode_frames_seq(payload + b"\x00")

    def test_single_antenna_is_validation_error(self):
        # Well-framed, semantically invalid: header says 1 antenna.
        payload = bytearray(encode_frames([("ap0", make_frame())]))
        meta = struct.Struct("!ddHHI")
        offset = 4 + 2 + len(b"ap0") + 2 + len(b"t0")
        rssi, stamp, _, subc, seq = meta.unpack_from(payload, offset)
        meta.pack_into(payload, offset, rssi, stamp, 1, subc, seq)
        with pytest.raises(ValidationError, match="antennas"):
            decode_frames_seq(bytes(payload[: offset + meta.size + 1 * subc * 16]))

    def test_garbage_is_format_error(self):
        with pytest.raises(TraceFormatError):
            decode_frames_seq(b"\xff" * 3)


class TestTracedIngest:
    def test_round_trip_preserves_context_and_batch(self):
        entries = [("ap0", make_frame("t0", 1)), ("ap1", make_frame("t1", 2))]
        context = TraceContext(trace_id="router-s3", span_id="router-s4")
        payload = encode_traced_ingest(entries, context)
        decoded_context, suffix = split_traced_ingest(payload)
        decoded = decode_frames_seq(suffix)
        assert decoded_context == context
        assert [ap for ap, _, _ in decoded] == ["ap0", "ap1"]
        for (_, sent), (_, received, _) in zip(entries, decoded):
            np.testing.assert_allclose(received.csi, sent.csi)
            assert received.source == sent.source

    def test_suffix_is_byte_identical_to_plain_ingest(self):
        # The shard decodes the batch with the same code path either
        # way; the traced payload is strictly prefix + INGEST bytes.
        entries = [("ap0", make_frame())]
        context = TraceContext(trace_id="t", span_id="s")
        traced = encode_traced_ingest(entries, context)
        assert traced.endswith(encode_frames(entries))
        assert traced[len(encode_trace_context(context)) :] == encode_frames(entries)

    def test_unsampled_context_round_trips(self):
        context = TraceContext(trace_id="", span_id="", sampled=False)
        decoded_context, suffix = split_traced_ingest(
            encode_traced_ingest([("ap0", make_frame())], context)
        )
        assert decoded_context.sampled is False
        assert len(decode_frames_seq(suffix)) == 1

    def test_payload_shorter_than_prefix_rejected(self):
        with pytest.raises(TraceFormatError):
            split_traced_ingest(b"\x01")

    def test_truncated_context_rejected(self):
        payload = encode_traced_ingest(
            [("ap0", make_frame())], TraceContext("trace", "span")
        )
        with pytest.raises(TraceFormatError):
            split_traced_ingest(payload[:10])

    def test_non_json_context_rejected(self):
        bad = struct.pack(">H", 4) + b"\xff\xfe\xfd\xfc" + encode_frames([])
        with pytest.raises(TraceFormatError):
            split_traced_ingest(bad)

    def test_non_object_context_rejected(self):
        blob = b"[1,2]"
        bad = struct.pack(">H", len(blob)) + blob + encode_frames([])
        with pytest.raises(TraceFormatError):
            split_traced_ingest(bad)

    def test_oversized_context_rejected_at_encode(self):
        huge = TraceContext(trace_id="t" * 70000, span_id="s")
        with pytest.raises(ValidationError):
            encode_trace_context(huge)

    def test_unknown_context_keys_tolerated(self):
        # Forward compatibility: a newer router may add fields.
        blob = b'{"trace_id":"t","span_id":"s","baggage":"x"}'
        payload = struct.pack(">H", len(blob)) + blob + encode_frames([])
        context, suffix = split_traced_ingest(payload)
        assert context == TraceContext(trace_id="t", span_id="s")
        assert decode_frames_seq(suffix) == []


class TestFixesAndJson:
    def test_wire_fix_round_trip(self):
        fix = WireFix(
            source="t0", timestamp_s=2.0, ok=True, x=1.5, y=2.5, num_aps=4, shard="s1"
        )
        assert decode_fixes(encode_fixes([fix])) == [fix]

    def test_wire_fix_round_trips_estimator(self):
        fix = WireFix(
            source="t0",
            timestamp_s=2.0,
            ok=True,
            x=1.5,
            y=2.5,
            num_aps=4,
            shard="s1",
            estimator="tof",
            downgraded=True,
        )
        (decoded,) = decode_fixes(encode_fixes([fix]))
        assert decoded.estimator == "tof" and decoded.downgraded
        # Fixes from shards predating the field still decode.
        legacy = dict(fix.to_dict())
        legacy.pop("estimator")
        legacy.pop("downgraded")
        assert WireFix.from_dict(legacy).estimator == ""

    def test_nan_position_becomes_null(self):
        fix = WireFix(source="t0", timestamp_s=2.0, ok=False)
        (decoded,) = decode_fixes(encode_fixes([fix]))
        assert not decoded.ok
        assert math.isnan(decoded.x) and math.isnan(decoded.y)
        assert fix.to_dict()["x"] is None

    def test_malformed_fix_rejected(self):
        with pytest.raises(TraceFormatError, match="FIXES"):
            decode_fixes(encode_json({"fixes": "nope"}))
        with pytest.raises(TraceFormatError, match="malformed"):
            decode_fixes(encode_json({"fixes": [{"source": "t0"}]}))

    def test_bad_json_is_format_error(self):
        with pytest.raises(TraceFormatError, match="JSON"):
            decode_json(b"{nope")

    def test_wire_fix_round_trips_track_checkpoint(self):
        ckpt = {"track_id": "t0@s1#1", "filter": {"state": [1.0, 2.0, 0.1, 0.0]}}
        fix = WireFix(
            source="t0",
            timestamp_s=2.0,
            ok=True,
            x=1.5,
            y=2.5,
            num_aps=4,
            shard="s1",
            track_id="t0@s1#1",
            track=ckpt,
        )
        (decoded,) = decode_fixes(encode_fixes([fix]))
        assert decoded.track_id == "t0@s1#1"
        assert decoded.track == ckpt
        # Fixes from shards predating tracking still decode.
        legacy = dict(fix.to_dict())
        legacy.pop("track_id")
        legacy.pop("track")
        older = WireFix.from_dict(legacy)
        assert older.track_id == "" and older.track is None

    def test_non_tracking_fix_omits_track_fields(self):
        fix = WireFix(source="t0", timestamp_s=2.0, ok=True, x=1.0, y=2.0)
        data = fix.to_dict()
        assert "track_id" not in data and "track" not in data


class TestResume:
    def test_round_trip(self):
        tracks = {
            "t0": {"track_id": "t0@s1#1", "filter": {"state": [0.0] * 4}},
            "t1": {"track_id": "t1@s1#2", "filter": {"state": [1.0] * 4}},
        }
        assert decode_resume(encode_resume(tracks)) == tracks

    def test_empty_resume(self):
        assert decode_resume(encode_resume({})) == {}

    def test_malformed_resume_rejected(self):
        with pytest.raises(TraceFormatError, match="RESUME"):
            decode_resume(encode_json({"tracks": "nope"}))
        with pytest.raises(TraceFormatError, match="RESUME"):
            decode_resume(encode_json({"tracks": {"t0": "nope"}}))

    def test_resume_reply_pairing(self):
        from repro.dist.protocol import REQUEST_REPLY

        assert REQUEST_REPLY[MessageType.RESUME] == MessageType.RESUME_OK


class TestBindSpecs:
    def test_unix_round_trip(self):
        addr = parse_bind("unix:/tmp/shard0.sock")
        assert (addr.kind, addr.path) == ("unix", "/tmp/shard0.sock")
        assert addr.spec() == "unix:/tmp/shard0.sock"

    def test_tcp_round_trip(self):
        addr = parse_bind("tcp:127.0.0.1:9001")
        assert (addr.kind, addr.host, addr.port) == ("tcp", "127.0.0.1", 9001)
        assert addr.spec() == "tcp:127.0.0.1:9001"

    @pytest.mark.parametrize(
        "spec",
        ["unix:", "tcp:9001", "tcp:host:notaport", "tcp:host:70000", "udp:x:1"],
    )
    def test_bad_specs_rejected(self, spec):
        with pytest.raises(TraceFormatError):
            parse_bind(spec)
