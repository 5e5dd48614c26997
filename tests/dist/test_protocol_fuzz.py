"""Seeded fuzz: hostile byte streams must die as typed protocol errors.

The dist layer's hardening contract: no matter what arrives on the wire
— random noise, truncations, bit flips in otherwise-valid messages —
the decoders raise :class:`~repro.errors.TraceFormatError` (framing
damage) or :class:`~repro.errors.ValidationError` (well-framed but
semantically impossible), never ``struct.error`` / ``KeyError`` /
``UnicodeDecodeError`` or a hang.  Everything is seeded, so a failure
reproduces exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dist import protocol
from repro.dist.protocol import MessageType, WireFix
from repro.errors import TraceFormatError, ValidationError
from repro.obs import TraceContext
from repro.wifi.csi import CsiFrame

ACCEPTABLE = (TraceFormatError, ValidationError)

DECODERS = (
    protocol.decode_message,
    protocol.decode_frames_seq,
    protocol.split_traced_ingest,
    protocol.decode_fixes,
    protocol.decode_json,
)


def make_frame(seed: int = 0) -> CsiFrame:
    rng = np.random.default_rng(seed)
    csi = rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))
    return CsiFrame(csi=csi, rssi_dbm=-40.0, timestamp_s=1.0, source="t0")


def valid_payloads() -> list:
    entries = [("ap0", make_frame(1), 7), ("ap1", make_frame(2), 8)]
    fix = WireFix(
        source="t0", timestamp_s=1.0, ok=True, x=1.0, y=2.0, num_aps=3, shard="s0"
    )
    return [
        protocol.encode_message(MessageType.INGEST, protocol.encode_frames(entries)),
        protocol.encode_frames(entries),
        protocol.encode_traced_ingest(
            [(ap, f) for ap, f, _ in entries], TraceContext("t", "s")
        ),
        protocol.encode_fixes([fix]),
        protocol.encode_json({"sources": ["t0"], "timestamp_s": 1.0}),
    ]


def assert_typed_failure(decoder, data: bytes) -> None:
    try:
        decoder(data)
    except ACCEPTABLE:
        pass
    except Exception as exc:  # pragma: no cover - the failure being hunted
        raise AssertionError(
            f"{decoder.__name__} leaked {type(exc).__name__}: {exc!r} "
            f"on {data[:40]!r}..."
        ) from exc


class TestRandomBytes:
    @pytest.mark.parametrize("decoder", DECODERS, ids=lambda d: d.__name__)
    def test_random_noise_never_leaks_raw_errors(self, decoder):
        rng = np.random.default_rng(1234)
        for _ in range(150):
            size = int(rng.integers(0, 200))
            assert_typed_failure(decoder, rng.bytes(size))


class TestTruncations:
    @pytest.mark.parametrize("decoder", DECODERS, ids=lambda d: d.__name__)
    def test_every_prefix_of_valid_payloads(self, decoder):
        for payload in valid_payloads():
            step = max(1, len(payload) // 64)
            for cut in range(0, len(payload), step):
                assert_typed_failure(decoder, payload[:cut])


class TestBitFlips:
    @pytest.mark.parametrize("decoder", DECODERS, ids=lambda d: d.__name__)
    def test_flipped_valid_payloads(self, decoder):
        rng = np.random.default_rng(99)
        for payload in valid_payloads():
            for _ in range(40):
                buf = bytearray(payload)
                for _ in range(int(rng.integers(1, 5))):
                    index = int(rng.integers(0, len(buf)))
                    buf[index] ^= int(rng.integers(1, 256))
                assert_typed_failure(decoder, bytes(buf))


class TestSeqBounds:
    def test_encode_rejects_out_of_range_seq(self):
        with pytest.raises(ValidationError, match="seq"):
            protocol.encode_frames([("ap0", make_frame(), 1 << 32)])
        with pytest.raises(ValidationError, match="seq"):
            protocol.encode_frames([("ap0", make_frame(), -1)])

    def test_seq_round_trips_through_v2_framing(self):
        entries = [("ap0", make_frame(1), 0), ("ap1", make_frame(2), 0xFFFFFFFF)]
        decoded = protocol.decode_frames_seq(protocol.encode_frames(entries))
        assert [seq for _, _, seq in decoded] == [0, 0xFFFFFFFF]
