"""The ``repro.dist`` wire protocol: length-prefixed binary messages.

Shards and the router speak a compact framed protocol over TCP or Unix
domain sockets.  Every message is::

    +-------+---------+----------+--------------+=========+
    | magic | version | msg type | payload len  | payload |
    | 2 B   | 1 B     | 1 B      | 4 B (u32 BE) | N bytes |
    +-------+---------+----------+--------------+=========+

* ``magic`` is ``b"SD"`` (SpotFi Dist); anything else is rejected.
* ``version`` is :data:`PROTOCOL_VERSION`; peers speaking a different
  version are rejected up front instead of mis-parsing payloads.
* ``msg type`` is a :class:`MessageType` value.
* ``payload len`` is bounded by :data:`MAX_PAYLOAD_BYTES` so a corrupt
  or hostile header cannot make a peer allocate gigabytes.

CSI ingest (:data:`MessageType.INGEST`) carries a binary batch of
``(ap_id, CsiFrame)`` entries — see :func:`encode_frames` — because the
frame matrix dominates the payload and JSON would triple it.  Control
messages (flush, health, metrics, fix events) carry JSON payloads, which
keeps them debuggable and schema-flexible.

Malformed input maps onto the library's error hierarchy:

* framing damage (bad magic/version/type, truncated or oversized
  payloads, undecodable JSON) raises
  :class:`~repro.errors.TraceFormatError`;
* structurally well-framed but semantically invalid frames (too few
  antennas/subcarriers, non-finite CSI) raise
  :class:`~repro.errors.ValidationError` — the same verdict the in-server
  :class:`~repro.faults.validator.FrameValidator` hands out.
"""

from __future__ import annotations

import json
import math
import socket
import struct
from dataclasses import dataclass
from enum import IntEnum
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CsiShapeError, TraceFormatError, ValidationError
from repro.obs.trace import TraceContext
from repro.wifi.csi import CsiFrame

#: First two bytes of every message.
MAGIC = b"SD"

#: Wire protocol version; bumped on any layout change.  Version 2 added
#: the per-frame delivery sequence number to INGEST batches (the
#: at-least-once failover dedup key).
PROTOCOL_VERSION = 2

#: Upper bound on a single message payload (guards allocation).
MAX_PAYLOAD_BYTES = 64 * 1024 * 1024

#: Message header: magic, version, msg type, payload length.
HEADER = struct.Struct("!2sBBI")

# rssi_dbm, timestamp_s, antennas, subcarriers, seq
_FRAME_META = struct.Struct("!ddHHI")
_U16 = struct.Struct("!H")
_U32 = struct.Struct("!I")

#: On-wire dtype for CSI matrices (explicit endianness; 16 B per entry).
WIRE_CSI_DTYPE = "<c16"


class MessageType(IntEnum):
    """Message kinds the router and shards exchange.

    Request/reply pairing: ``INGEST``/``INGEST_TRACED``/``FLUSH`` ->
    ``FIXES``, ``HEALTH`` -> ``HEALTH_OK``, ``METRICS`` ->
    ``METRICS_REPLY``, ``SHUTDOWN`` -> ``BYE``.  Any request may instead
    be answered with ``ERROR`` (JSON ``{"kind": ..., "message": ...}``).

    ``INGEST_TRACED`` is ``INGEST`` with a trace-context prefix (see
    :func:`encode_traced_ingest`); a router only emits it when a live,
    sampled trace needs to follow the batch, so tracing-unaware
    deployments never see the new type.

    ``RESUME`` hands a failed shard's track checkpoints to its ring
    successor during failover (JSON ``{"tracks": {source: checkpoint}}``,
    see :mod:`repro.mobility.tracks`); the successor adopts the tracks
    and answers ``RESUME_OK`` (``{"resumed": n}``).  The router sends it
    *before* replaying journaled traffic, so the restored state is in
    place when the replayed packets trigger fixes.
    """

    INGEST = 1
    FLUSH = 2
    FIXES = 3
    HEALTH = 4
    HEALTH_OK = 5
    METRICS = 6
    METRICS_REPLY = 7
    SHUTDOWN = 8
    BYE = 9
    ERROR = 10
    INGEST_TRACED = 11
    RESUME = 12
    RESUME_OK = 13


#: Declared request -> reply pairing, checked by analysis rule REP017:
#: every message type must either appear here or be listed in
#: :data:`UNPAIRED_MESSAGES`, so adding an enum member without deciding
#: its conversation role fails the static-analysis gate.
REQUEST_REPLY: Dict[MessageType, MessageType] = {
    MessageType.INGEST: MessageType.FIXES,
    MessageType.INGEST_TRACED: MessageType.FIXES,
    MessageType.FLUSH: MessageType.FIXES,
    MessageType.HEALTH: MessageType.HEALTH_OK,
    MessageType.METRICS: MessageType.METRICS_REPLY,
    MessageType.SHUTDOWN: MessageType.BYE,
    MessageType.RESUME: MessageType.RESUME_OK,
}

#: Message types that are deliberately not part of a request/reply pair.
#: ERROR may answer *any* request (see the MessageType docstring).
UNPAIRED_MESSAGES = frozenset({MessageType.ERROR})


# ----------------------------------------------------------------------
# Message framing
# ----------------------------------------------------------------------
def encode_message(msg_type: MessageType, payload: bytes = b"") -> bytes:
    """Frame one message: header plus payload."""
    if len(payload) > MAX_PAYLOAD_BYTES:
        raise TraceFormatError(
            f"payload of {len(payload)} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte protocol cap"
        )
    return HEADER.pack(MAGIC, PROTOCOL_VERSION, int(msg_type), len(payload)) + payload


def decode_header(data: bytes) -> Tuple[MessageType, int]:
    """Parse and validate a message header; returns (type, payload length)."""
    if len(data) < HEADER.size:
        raise TraceFormatError(
            f"message header truncated: got {len(data)} of {HEADER.size} bytes"
        )
    magic, version, raw_type, length = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise TraceFormatError(f"bad protocol magic {magic!r}; expected {MAGIC!r}")
    if version != PROTOCOL_VERSION:
        raise TraceFormatError(
            f"unsupported protocol version {version}; this peer speaks "
            f"{PROTOCOL_VERSION}"
        )
    try:
        msg_type = MessageType(raw_type)
    except ValueError:
        raise TraceFormatError(f"unknown message type {raw_type}") from None
    if length > MAX_PAYLOAD_BYTES:
        raise TraceFormatError(
            f"declared payload of {length} bytes exceeds the "
            f"{MAX_PAYLOAD_BYTES}-byte protocol cap"
        )
    return msg_type, length


def decode_message(data: bytes) -> Tuple[MessageType, bytes]:
    """Decode one complete in-memory message (header + payload)."""
    msg_type, length = decode_header(data)
    payload = data[HEADER.size : HEADER.size + length]
    if len(payload) < length:
        raise TraceFormatError(
            f"message payload truncated: got {len(payload)} of {length} bytes"
        )
    return msg_type, payload


# ----------------------------------------------------------------------
# Socket I/O
# ----------------------------------------------------------------------
def send_message(
    sock: socket.socket, msg_type: MessageType, payload: bytes = b""
) -> None:
    """Write one framed message to a connected socket."""
    sock.sendall(encode_message(msg_type, payload))


def recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    """Read exactly ``count`` bytes.

    Returns None on a clean EOF before the first byte (peer closed
    between messages); raises :class:`TraceFormatError` when the stream
    ends mid-read (a message was cut off).
    """
    chunks: List[bytes] = []
    remaining = count
    while remaining > 0:
        # Deadline is armed by the caller via sock.settimeout (router and
        # shard both do); recv then raises socket.timeout, not hangs.
        chunk = sock.recv(remaining)  # repro: noqa REP014
        if not chunk:
            if remaining == count:
                return None
            raise TraceFormatError(
                f"connection closed mid-message: got {count - remaining} of "
                f"{count} bytes"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_message(sock: socket.socket) -> Optional[Tuple[MessageType, bytes]]:
    """Read one framed message; None on clean EOF at a message boundary."""
    header = recv_exact(sock, HEADER.size)
    if header is None:
        return None
    msg_type, length = decode_header(header)
    if length == 0:
        return msg_type, b""
    payload = recv_exact(sock, length)
    if payload is None:
        raise TraceFormatError("connection closed before the message payload")
    return msg_type, payload


# ----------------------------------------------------------------------
# CSI frame batches (binary)
# ----------------------------------------------------------------------
def _encode_str(value: str) -> bytes:
    raw = value.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise ValidationError(f"string field of {len(raw)} bytes exceeds 65535")
    return _U16.pack(len(raw)) + raw


class _Cursor:
    """Bounds-checked reader over a payload buffer."""

    __slots__ = ("data", "offset")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.offset = 0

    def take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.data):
            raise TraceFormatError(
                f"frame batch truncated at byte {self.offset}: wanted {count} "
                f"more bytes, {len(self.data) - self.offset} left"
            )
        chunk = self.data[self.offset : end]
        self.offset = end
        return chunk

    def take_str(self) -> str:
        (length,) = _U16.unpack(self.take(_U16.size))
        try:
            return self.take(length).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"undecodable string field: {exc}") from exc


def encode_frames(entries: Sequence[Tuple[Any, ...]]) -> bytes:
    """Encode a batch of entries into an INGEST payload.

    Each entry is ``(ap_id, frame)`` or ``(ap_id, frame, seq)``; ``seq``
    is the router-assigned per-source delivery sequence number used for
    at-least-once redelivery dedup on the shard side.  Omitted (or 0) it
    means "unsequenced" — such frames bypass dedup entirely.
    """
    chunks: List[bytes] = [_U32.pack(len(entries))]
    for entry in entries:
        ap_id, frame = entry[0], entry[1]
        seq = int(entry[2]) if len(entry) > 2 else 0
        if not 0 <= seq <= 0xFFFFFFFF:
            raise ValidationError(f"frame seq {seq} outside the u32 range")
        csi = np.ascontiguousarray(frame.csi, dtype=np.complex128)
        chunks.append(_encode_str(ap_id))
        chunks.append(_encode_str(frame.source))
        chunks.append(
            _FRAME_META.pack(
                float(frame.rssi_dbm),
                float(frame.timestamp_s),
                csi.shape[0],
                csi.shape[1],
                seq,
            )
        )
        chunks.append(csi.astype(WIRE_CSI_DTYPE).tobytes())
    return b"".join(chunks)


def decode_frames_seq(payload: bytes) -> List[Tuple[str, CsiFrame, int]]:
    """Decode an INGEST payload into ``(ap_id, CsiFrame, seq)`` entries.

    Framing damage raises :class:`TraceFormatError`; a well-framed entry
    whose CSI is semantically invalid (too few antennas/subcarriers,
    non-finite values) raises :class:`ValidationError`.
    """
    cursor = _Cursor(payload)
    (count,) = _U32.unpack(cursor.take(_U32.size))
    entries: List[Tuple[str, CsiFrame, int]] = []
    for index in range(count):
        ap_id = cursor.take_str()
        source = cursor.take_str()
        rssi_dbm, timestamp_s, antennas, subcarriers, seq = _FRAME_META.unpack(
            cursor.take(_FRAME_META.size)
        )
        if antennas < 2 or subcarriers < 2:
            raise ValidationError(
                f"frame {index}: CSI needs >= 2 antennas and >= 2 subcarriers, "
                f"got ({antennas}, {subcarriers})"
            )
        raw = cursor.take(antennas * subcarriers * 16)
        csi = (
            np.frombuffer(raw, dtype=WIRE_CSI_DTYPE)
            .reshape(antennas, subcarriers)
            .astype(np.complex128)
        )
        try:
            frame = CsiFrame(
                csi=csi, rssi_dbm=rssi_dbm, timestamp_s=timestamp_s, source=source
            )
        except CsiShapeError as exc:
            raise ValidationError(f"frame {index}: {exc}") from exc
        entries.append((ap_id, frame, seq))
    if cursor.offset != len(payload):
        raise TraceFormatError(
            f"frame batch has {len(payload) - cursor.offset} trailing bytes"
        )
    return entries


# ----------------------------------------------------------------------
# Trace-context propagation
# ----------------------------------------------------------------------
def encode_trace_context(context: TraceContext) -> bytes:
    """Encode one trace context as a u16-length-prefixed JSON blob."""
    raw = json.dumps(context.to_dict(), separators=(",", ":"), sort_keys=True).encode(
        "utf-8"
    )
    if len(raw) > 0xFFFF:
        raise ValidationError(f"trace context of {len(raw)} bytes exceeds 65535")
    return _U16.pack(len(raw)) + raw


def encode_traced_ingest(
    entries: Sequence[Tuple[Any, ...]], context: TraceContext
) -> bytes:
    """Encode an ``INGEST_TRACED`` payload: trace context, then the batch.

    The suffix is byte-identical to a plain :func:`encode_frames`
    payload, so the shard-side decode path is shared.
    """
    return encode_trace_context(context) + encode_frames(entries)


def split_traced_ingest(payload: bytes) -> Tuple[TraceContext, bytes]:
    """Split an ``INGEST_TRACED`` payload into context + raw batch suffix.

    The suffix is a plain INGEST payload; decode it with
    :func:`decode_frames_seq`.
    """
    if len(payload) < _U16.size:
        raise TraceFormatError("INGEST_TRACED payload shorter than its length prefix")
    (length,) = _U16.unpack_from(payload)
    end = _U16.size + length
    if len(payload) < end:
        raise TraceFormatError(
            f"trace context truncated: declared {length} bytes, "
            f"{len(payload) - _U16.size} available"
        )
    try:
        data = json.loads(payload[_U16.size : end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"undecodable trace context: {exc}") from exc
    if not isinstance(data, dict):
        raise TraceFormatError("trace context must be a JSON object")
    return TraceContext.from_dict(data), payload[end:]


# ----------------------------------------------------------------------
# JSON payloads (control plane)
# ----------------------------------------------------------------------
def encode_json(obj: Any) -> bytes:
    """Serialize a control-plane payload (compact separators)."""
    return json.dumps(obj, separators=(",", ":"), sort_keys=True).encode("utf-8")


def decode_json(payload: bytes) -> Any:
    """Parse a control-plane payload; bad JSON is a framing error."""
    try:
        return json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TraceFormatError(f"undecodable JSON payload: {exc}") from exc


@dataclass(frozen=True)
class WireFix:
    """A fix event flattened for the wire.

    Carries the outcome a client needs (position, success, AP count) and
    the shard that produced it — not the full
    :class:`~repro.core.pipeline.SpotFiFix`, whose per-AP reports and
    spectra stay shard-local (pull them via tracing on the shard).

    When the shard tracks, fixes also carry the ``track_id`` and a
    compact ``track`` checkpoint (see
    :meth:`repro.mobility.tracks.ManagedTrack.checkpoint`) so the
    router always holds a fresh copy it can hand to the ring successor
    on failover.  Both fields are optional on the wire — pre-tracking
    peers simply never set them.
    """

    source: str
    timestamp_s: float
    ok: bool
    x: float = float("nan")
    y: float = float("nan")
    num_aps: int = 0
    shard: str = ""
    estimator: str = ""
    downgraded: bool = False
    track_id: str = ""
    track: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data view (JSON-safe; NaN position encoded as null)."""
        data: Dict[str, Any] = {
            "source": self.source,
            "timestamp_s": self.timestamp_s,
            "ok": self.ok,
            "x": None if math.isnan(self.x) else self.x,
            "y": None if math.isnan(self.y) else self.y,
            "num_aps": self.num_aps,
            "shard": self.shard,
            "estimator": self.estimator,
            "downgraded": self.downgraded,
        }
        # Tracking fields ride only when set, keeping non-tracking
        # payloads byte-identical to the historical encoding.
        if self.track_id:
            data["track_id"] = self.track_id
        if self.track is not None:
            data["track"] = self.track
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "WireFix":
        """Rebuild a fix shipped by :meth:`to_dict`."""
        try:
            return cls(
                source=str(data["source"]),
                timestamp_s=float(data["timestamp_s"]),
                ok=bool(data["ok"]),
                x=float("nan") if data.get("x") is None else float(data["x"]),
                y=float("nan") if data.get("y") is None else float(data["y"]),
                num_aps=int(data.get("num_aps", 0)),
                shard=str(data.get("shard", "")),
                estimator=str(data.get("estimator", "")),
                downgraded=bool(data.get("downgraded", False)),
                track_id=str(data.get("track_id", "")),
                track=dict(data["track"])
                if isinstance(data.get("track"), dict)
                else None,
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"malformed wire fix {data!r}: {exc}") from exc


def encode_fixes(fixes: Sequence[WireFix]) -> bytes:
    """Encode a FIXES/BYE payload."""
    return encode_json({"fixes": [fix.to_dict() for fix in fixes]})


def decode_fixes(payload: bytes) -> List[WireFix]:
    """Decode a FIXES/BYE payload."""
    data = decode_json(payload)
    if not isinstance(data, dict) or not isinstance(data.get("fixes"), list):
        raise TraceFormatError("FIXES payload must be a JSON object with 'fixes'")
    return [WireFix.from_dict(entry) for entry in data["fixes"]]


def encode_resume(tracks: Dict[str, Dict[str, Any]]) -> bytes:
    """Encode a RESUME payload: track checkpoints keyed by source."""
    return encode_json({"tracks": tracks})


def decode_resume(payload: bytes) -> Dict[str, Dict[str, Any]]:
    """Decode a RESUME payload."""
    data = decode_json(payload)
    if not isinstance(data, dict) or not isinstance(data.get("tracks"), dict):
        raise TraceFormatError("RESUME payload must be a JSON object with 'tracks'")
    tracks: Dict[str, Dict[str, Any]] = {}
    for source, checkpoint in data["tracks"].items():
        if not isinstance(checkpoint, dict):
            raise TraceFormatError(
                f"RESUME checkpoint for {source!r} must be an object"
            )
        tracks[str(source)] = checkpoint
    return tracks


# ----------------------------------------------------------------------
# Bind addresses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BindAddress:
    """A parsed ``unix:/path`` or ``tcp:host:port`` endpoint."""

    kind: str
    path: str = ""
    host: str = ""
    port: int = 0

    def spec(self) -> str:
        """The canonical string form (inverse of :func:`parse_bind`)."""
        if self.kind == "unix":
            return f"unix:{self.path}"
        return f"tcp:{self.host}:{self.port}"

    def connect(self, timeout_s: float = 10.0) -> socket.socket:
        """Open a blocking client connection to this endpoint."""
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sock.settimeout(timeout_s)
        try:
            sock.connect(self.path if self.kind == "unix" else (self.host, self.port))
        except OSError:
            sock.close()
            raise
        return sock

    def listen(self, backlog: int = 16) -> socket.socket:
        """Bind and listen on this endpoint (shard side)."""
        if self.kind == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            sock.bind(self.path)
        else:
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((self.host, self.port))
        sock.listen(backlog)
        return sock


def parse_bind(spec: str) -> BindAddress:
    """Parse ``unix:/path/to.sock`` or ``tcp:HOST:PORT`` into an address."""
    if spec.startswith("unix:"):
        path = spec[len("unix:") :]
        if not path:
            raise TraceFormatError(f"bind spec {spec!r} has an empty socket path")
        return BindAddress(kind="unix", path=path)
    if spec.startswith("tcp:"):
        rest = spec[len("tcp:") :]
        host, sep, port_text = rest.rpartition(":")
        if not sep or not host:
            raise TraceFormatError(
                f"bind spec {spec!r} must look like tcp:HOST:PORT"
            )
        try:
            port = int(port_text)
        except ValueError:
            raise TraceFormatError(
                f"bind spec {spec!r} has a non-numeric port {port_text!r}"
            ) from None
        if not 0 < port < 65536:
            raise TraceFormatError(f"bind spec {spec!r} port out of range")
        return BindAddress(kind="tcp", host=host, port=port)
    raise TraceFormatError(
        f"bind spec {spec!r} must start with 'unix:' or 'tcp:'"
    )
