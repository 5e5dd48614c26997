"""Distributed serving: shard workers, consistent-hash routing, rollup.

``repro.dist`` scales the streaming :class:`~repro.server.SpotFiServer`
horizontally: shard subprocesses each host a full server behind a
length-prefixed binary wire protocol (:mod:`~repro.dist.protocol`), a
:class:`ShardRouter` consistent-hashes ``source`` keys onto them with
batching, pipelining and failover (:mod:`~repro.dist.router`), and the
rollup path merges every shard's metrics into one Prometheus exposition
(:mod:`~repro.dist.rollup`).  A :class:`ShardSupervisor`
(:mod:`~repro.dist.supervisor`) restarts crashed shards and re-admits
them to the ring after a passing health probe, closing the failover
loop.  See ``docs/DIST.md`` for the protocol layout, shard lifecycle,
and the at-least-once delivery / supervision model.
"""

from repro.dist.protocol import (
    MAGIC,
    MAX_PAYLOAD_BYTES,
    PROTOCOL_VERSION,
    BindAddress,
    MessageType,
    WireFix,
    decode_frames_seq,
    decode_message,
    encode_frames,
    encode_message,
    parse_bind,
    split_traced_ingest,
)
from repro.dist.replay import IngestSink, stream_dat_capture, stream_dataset
from repro.dist.rollup import merge_snapshots, pull_shard_metrics, rollup_exposition
from repro.dist.router import HashRing, ShardRouter
from repro.dist.shard import (
    SeqDeduper,
    ShardConfig,
    ShardProcess,
    ShardServer,
    build_server,
    run_shard,
    start_shards,
)
from repro.dist.supervisor import ShardSupervisor

__all__ = [
    "MAGIC",
    "MAX_PAYLOAD_BYTES",
    "PROTOCOL_VERSION",
    "BindAddress",
    "HashRing",
    "IngestSink",
    "MessageType",
    "SeqDeduper",
    "ShardConfig",
    "ShardProcess",
    "ShardRouter",
    "ShardServer",
    "ShardSupervisor",
    "WireFix",
    "build_server",
    "decode_frames_seq",
    "decode_message",
    "encode_frames",
    "encode_message",
    "merge_snapshots",
    "parse_bind",
    "pull_shard_metrics",
    "rollup_exposition",
    "run_shard",
    "split_traced_ingest",
    "start_shards",
    "stream_dat_capture",
    "stream_dataset",
]
