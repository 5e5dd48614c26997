"""HashRing placement properties and ShardRouter behaviour.

The router tests run against ``FakeShard`` — a tiny in-process thread
speaking the wire protocol over a Unix socket — so routing, batching,
pipelining and failover are exercised without paying for subprocesses
or MUSIC.
"""

from __future__ import annotations

import os
import socket
import threading
from collections import Counter

import numpy as np
import pytest

from repro.dist import protocol
from repro.dist.protocol import MessageType, WireFix, parse_bind
from repro.dist.router import HashRing, ShardRouter
from repro.errors import ShardUnavailableError
from repro.wifi.csi import CsiFrame


def make_frame(source: str, k: int = 0) -> CsiFrame:
    rng = np.random.default_rng(k)
    csi = rng.normal(size=(3, 30)) + 1j * rng.normal(size=(3, 30))
    return CsiFrame(csi=csi, rssi_dbm=-40.0, timestamp_s=float(k), source=source)


class TestHashRing:
    def test_owner_is_deterministic(self):
        ring = HashRing()
        for node in ("s0", "s1", "s2"):
            ring.add_node(node)
        owners = [ring.owner(f"target-{i}") for i in range(50)]
        assert owners == [ring.owner(f"target-{i}") for i in range(50)]

    def test_keys_spread_over_all_nodes(self):
        ring = HashRing()
        for node in ("s0", "s1", "s2"):
            ring.add_node(node)
        counts = Counter(ring.owner(f"target-{i}") for i in range(300))
        assert set(counts) == {"s0", "s1", "s2"}

    def test_removal_only_moves_the_dead_nodes_keys(self):
        ring = HashRing()
        for node in ("s0", "s1", "s2"):
            ring.add_node(node)
        keys = [f"target-{i}" for i in range(200)]
        before = {key: ring.owner(key) for key in keys}
        ring.remove_node("s1")
        after = {key: ring.owner(key) for key in keys}
        for key in keys:
            if before[key] != "s1":
                assert after[key] == before[key]
            else:
                assert after[key] in {"s0", "s2"}

    def test_empty_ring_raises(self):
        ring = HashRing()
        with pytest.raises(ShardUnavailableError):
            ring.owner("target-0")
        ring.add_node("s0")
        ring.remove_node("s0")
        with pytest.raises(ShardUnavailableError):
            ring.owner("target-0")

    def test_nodes_sorted_and_distinct(self):
        ring = HashRing()
        ring.add_node("b")
        ring.add_node("a")
        ring.add_node("a")
        assert ring.nodes() == ["a", "b"]


class FakeShard:
    """Protocol-speaking stand-in for a shard worker (thread, no MUSIC).

    Answers INGEST with one synthetic ok fix per batch, FLUSH with an
    empty fix list, HEALTH/METRICS/SHUTDOWN per the protocol contract.
    """

    def __init__(self, shard_id: str, directory: str) -> None:
        self.shard_id = shard_id
        self.spec = f"unix:{os.path.join(directory, shard_id + '.sock')}"
        self.frames_seen = []
        self._listener = parse_bind(self.spec).listen()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        self._listener.settimeout(0.2)
        conns = []
        try:
            while not self._stop.is_set():
                try:
                    conn, _ = self._listener.accept()
                except socket.timeout:
                    continue
                conns.append(conn)
                conn.settimeout(0.2)
                while not self._stop.is_set():
                    try:
                        message = protocol.recv_message(conn)
                    except socket.timeout:
                        continue
                    except OSError:
                        break
                    if message is None or not self._answer(conn, *message):
                        break
        finally:
            for conn in conns:
                conn.close()
            self._listener.close()

    def _answer(self, conn, msg_type, payload) -> bool:
        if msg_type == MessageType.INGEST:
            batch = [(ap, frame) for ap, frame, _ in protocol.decode_frames_seq(payload)]
            self.frames_seen.extend(batch)
            fix = WireFix(
                source=batch[0][1].source if batch else "?",
                timestamp_s=0.0,
                ok=True,
                x=1.0,
                y=2.0,
                num_aps=3,
                shard=self.shard_id,
            )
            protocol.send_message(
                conn, MessageType.FIXES, protocol.encode_fixes([fix])
            )
        elif msg_type == MessageType.FLUSH:
            protocol.send_message(conn, MessageType.FIXES, protocol.encode_fixes([]))
        elif msg_type == MessageType.HEALTH:
            protocol.send_message(conn, MessageType.HEALTH_OK)
        elif msg_type == MessageType.METRICS:
            reply = {"shard_id": self.shard_id, "snapshot": {}, "breakers": {}}
            protocol.send_message(
                conn, MessageType.METRICS_REPLY, protocol.encode_json(reply)
            )
        elif msg_type == MessageType.SHUTDOWN:
            protocol.send_message(conn, MessageType.BYE, protocol.encode_fixes([]))
            return False
        else:
            protocol.send_message(
                conn,
                MessageType.ERROR,
                protocol.encode_json({"kind": "Unsupported", "message": "?"}),
            )
        return True

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


@pytest.fixture()
def fake_cluster(tmp_path):
    shards = {f"s{i}": FakeShard(f"s{i}", str(tmp_path)) for i in range(3)}
    yield shards
    for shard in shards.values():
        shard.stop()


class TestShardRouter:
    def test_batching_and_fix_delivery(self, fake_cluster):
        with ShardRouter(
            {sid: s.spec for sid, s in fake_cluster.items()}, batch_max_frames=4
        ) as router:
            for k in range(4):
                router.ingest("ap0", make_frame("target-0", k))
            fixes = router.flush()
        assert sum(1 for fix in fixes if fix.ok) >= 1
        assert router.metrics.counter("dist.frames.sent") == 4
        assert router.metrics.counter("dist.batches.sent") == 1
        owner = router.owner_of("target-0")
        assert len(fake_cluster[owner].frames_seen) == 4

    def test_source_affinity(self, fake_cluster):
        with ShardRouter(
            {sid: s.spec for sid, s in fake_cluster.items()}, batch_max_frames=1
        ) as router:
            sources = [f"target-{j}" for j in range(8)]
            for k in range(3):
                for source in sources:
                    router.ingest("ap0", make_frame(source, k))
            router.flush()
            for source in sources:
                owner = fake_cluster[router.owner_of(source)]
                seen = [f.source for _, f in owner.frames_seen]
                assert seen.count(source) == 3

    def test_health_check(self, fake_cluster):
        with ShardRouter({sid: s.spec for sid, s in fake_cluster.items()}) as router:
            assert router.check_health() == {"s0": True, "s1": True, "s2": True}
            assert router.metrics.counter("dist.health.ok") == 3

    def test_failover_reroutes_to_survivors(self, fake_cluster):
        with ShardRouter(
            {sid: s.spec for sid, s in fake_cluster.items()}, batch_max_frames=1
        ) as router:
            sources = [f"target-{j}" for j in range(6)]
            for source in sources:
                router.ingest("ap0", make_frame(source))
            victim = router.owner_of(sources[0])
            fake_cluster[victim].stop()
            for k in range(1, 3):
                for source in sources:
                    router.ingest("ap0", make_frame(source, k))
            fixes = router.flush()
            assert victim in router.dead_shards()
            assert victim not in router.live_shards()
            assert router.metrics.counter("dist.failover.shard_down") == 1
            assert router.owner_of(sources[0]) != victim
            assert fixes  # survivors kept producing
            # every source remains routable after failover
            for source in sources:
                assert router.owner_of(source) in router.live_shards()

    def test_all_shards_dead_raises(self, fake_cluster):
        with ShardRouter(
            {sid: s.spec for sid, s in fake_cluster.items()}, batch_max_frames=1
        ) as router:
            for shard in fake_cluster.values():
                shard.stop()
            with pytest.raises(ShardUnavailableError):
                for k in range(20):
                    router.ingest("ap0", make_frame("target-0", k))
                    router.flush()

    def test_shutdown_collects_bye(self, fake_cluster):
        with ShardRouter({sid: s.spec for sid, s in fake_cluster.items()}) as router:
            router.ingest("ap0", make_frame("target-0"))
            router.shutdown()
            assert router.metrics.counter("dist.batches.sent") == 1

    def test_pull_metrics_shapes(self, fake_cluster):
        with ShardRouter({sid: s.spec for sid, s in fake_cluster.items()}) as router:
            replies = router.pull_metrics()
        assert sorted(reply["shard_id"] for reply in replies) == ["s0", "s1", "s2"]

    def test_router_needs_a_shard(self):
        with pytest.raises(ShardUnavailableError):
            ShardRouter({})
