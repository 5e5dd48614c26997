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
import time
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
    ``reply_delay_s`` holds each INGEST reply back; ``hang_up_on_ingest``
    closes the connection after that delay instead of answering the
    first INGEST, and sets ``hung_up``.
    """

    def __init__(
        self,
        shard_id: str,
        directory: str,
        reply_delay_s: float = 0.0,
        hang_up_on_ingest: bool = False,
    ) -> None:
        self.shard_id = shard_id
        self.spec = f"unix:{os.path.join(directory, shard_id + '.sock')}"
        self.reply_delay_s = reply_delay_s
        self.hang_up_on_ingest = hang_up_on_ingest
        self.hung_up = threading.Event()
        self.frames_seen = []
        self.seqs_seen = []
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
                        conn.close()
                        break
        finally:
            for conn in conns:
                conn.close()
            self._listener.close()

    def _answer(self, conn, msg_type, payload) -> bool:
        if msg_type == MessageType.INGEST:
            time.sleep(self.reply_delay_s)
            if self.hang_up_on_ingest:
                conn.close()
                self.hung_up.set()
                return False
            entries = protocol.decode_frames_seq(payload)
            batch = [(ap, frame) for ap, frame, _ in entries]
            self.frames_seen.extend(batch)
            self.seqs_seen.extend((frame.source, seq) for _, frame, seq in entries)
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


def source_owned_by(router, shard_id):
    """The first of ``target-0, target-1, ...`` that hashes to ``shard_id``."""
    return next(
        f"target-{j}" for j in range(1000) if router.owner_of(f"target-{j}") == shard_id
    )


class TestReplyPolling:
    """Replies are read from every shard that owes one, not only the last sent to."""

    def test_fix_surfaces_without_further_ingest_or_flush(self, tmp_path):
        shard = FakeShard("slow", str(tmp_path), reply_delay_s=0.1)
        try:
            with ShardRouter({"slow": shard.spec}, batch_max_frames=1) as router:
                router.ingest("ap0", make_frame("target-0"))
                # The post-send poll ran before the delayed reply existed.
                assert router.health_view()["inflight"] == {"slow": 1}
                fixes = []
                deadline = time.monotonic() + 5.0
                while not fixes and time.monotonic() < deadline:
                    time.sleep(0.005)
                    fixes = router.take_fixes()
                assert [fix.source for fix in fixes] == ["target-0"]
                assert router.health_view()["inflight"] == {}
                assert router.metrics.counter("dist.batches.sent") == 1
        finally:
            shard.stop()

    @pytest.mark.parametrize("trigger", ["take_fixes", "ingest"])
    def test_hang_up_with_reply_owed_fails_over(self, tmp_path, trigger):
        shards = {
            "s0": FakeShard(
                "s0", str(tmp_path), reply_delay_s=0.1, hang_up_on_ingest=True
            ),
            "s1": FakeShard("s1", str(tmp_path)),
        }
        try:
            with ShardRouter(
                {sid: s.spec for sid, s in shards.items()}, batch_max_frames=1
            ) as router:
                victim_source = source_owned_by(router, "s0")
                other_source = source_owned_by(router, "s1")
                router.ingest("ap0", make_frame(victim_source))
                # The post-send poll ran before the hang-up.
                assert router.health_view()["inflight"] == {"s0": 1}
                assert shards["s0"].hung_up.wait(5.0)
                if trigger == "take_fixes":
                    router.take_fixes()
                else:
                    router.ingest("ap0", make_frame(other_source))
                assert router.dead_shards() == {"s0": "connection closed"}
                counters = router.stats()["counters"]
                failover = {
                    name: value
                    for name, value in counters.items()
                    if name.startswith("dist.failover.")
                }
                assert failover == {
                    "dist.failover.shard_down": 1,
                    "dist.failover.replayed": 1,
                }
                router.flush()
                # The journaled frame reached the survivor with its seq.
                assert (victim_source, 1) in shards["s1"].seqs_seen
                assert router.health_view()["journal_frames"] == 0
        finally:
            for shard in shards.values():
                shard.stop()
