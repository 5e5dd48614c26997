"""Consistent-hash routing of CSI packet streams onto shard workers.

The :class:`ShardRouter` is the client-facing front of :mod:`repro.dist`.
It owns one connection per shard and decides, per packet, which shard
assembles that packet's burst:

* **Placement** is a consistent-hash ring (:class:`HashRing`) keyed on
  ``frame.source``.  Every burst for one target therefore lands on one
  shard — burst assembly needs no cross-shard coordination — and adding
  or removing a shard only remaps the key ranges adjacent to its ring
  points instead of reshuffling every target.
* **Batching**: packets destined for the same shard are buffered and
  shipped as one ``INGEST`` message once :attr:`batch_max_frames`
  accumulate (or at a flush/sync point), amortizing framing and syscall
  cost over the batch.
* **Pipelining**: sends do not wait for the matching ``FIXES`` reply; a
  per-shard in-flight counter tracks what is owed.  After each send and
  at each :meth:`ShardRouter.take_fixes`, one non-blocking poll reads
  every reply that has arrived from any shard; sync points wait for all
  of them.  This is what lets N shards compute concurrently behind one
  single-threaded router.
* **Failover**: any send/receive failure (or failed health probe) marks
  the shard dead, removes it from the ring, and re-routes both the
  unsent batch and the key range onto survivors, counting
  ``dist.failover.shard_down`` / ``rerouted``.  Delivery is
  **at-least-once**: every frame carries a per-source sequence number,
  sent-but-unacked batches are journaled (bounded per source by
  ``journal_max_frames``), and when a shard dies its journaled frames
  are replayed to the new ring owner (``dist.failover.replayed``) —
  shard-side ``(source, seq)`` dedup makes the redelivery idempotent.
  Frames beyond the journal bound are the remaining at-most-once
  residue, counted ``dist.failover.inflight_lost``.  A supervisor that
  has health-probed a recovered shard can return it to the ring with
  :meth:`ShardRouter.readmit_shard`.  When no shard remains,
  :class:`~repro.errors.ShardUnavailableError` is raised.
"""

from __future__ import annotations

import bisect
import hashlib
import select
import socket
import time
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    cast,
)

from repro.dist import protocol
from repro.dist.protocol import BindAddress, MessageType, WireFix, parse_bind
from repro.errors import ShardUnavailableError, TraceFormatError
from repro.obs.trace import NOOP_TRACER, Tracer
from repro.runtime import RuntimeMetrics
from repro.wifi.csi import CsiFrame

#: Journal record for one sent-but-unacked ingest batch: the entries
#: retained for replay, plus the count that overflowed the journal cap
#: (those stay at-most-once).
_BatchRecord = Tuple[List[Tuple[str, CsiFrame, int]], int]


class HashRing:
    """Consistent-hash ring with virtual nodes.

    Each node is hashed onto the ring at ``replicas`` points
    (``sha1("{node}#{i}")``); a key is owned by the first node point at
    or after ``sha1(key)``, wrapping around.  More replicas smooth the
    key-range split across nodes at the cost of a longer sorted array;
    64 keeps the imbalance under ~30% for small clusters.
    """

    def __init__(self, replicas: int = 64) -> None:
        self.replicas = replicas
        self._points: List[int] = []
        self._owners: Dict[int, str] = {}

    @staticmethod
    def _hash(text: str) -> int:
        return int.from_bytes(hashlib.sha1(text.encode("utf-8")).digest()[:8], "big")

    def add_node(self, node: str) -> None:
        """Place a node's virtual points on the ring."""
        for i in range(self.replicas):
            point = self._hash(f"{node}#{i}")
            if point in self._owners:
                continue
            bisect.insort(self._points, point)
            self._owners[point] = node

    def remove_node(self, node: str) -> None:
        """Remove a node's points; its key ranges fall to the successors."""
        dead = [p for p, owner in self._owners.items() if owner == node]
        for point in dead:
            del self._owners[point]
            index = bisect.bisect_left(self._points, point)
            del self._points[index]

    def nodes(self) -> List[str]:
        """Distinct nodes currently on the ring, sorted."""
        return sorted(set(self._owners.values()))

    def owner(self, key: str) -> str:
        """The node owning ``key``; raises when the ring is empty."""
        if not self._points:
            raise ShardUnavailableError(
                f"no live shard to route key {key!r}: the ring is empty"
            )
        index = bisect.bisect_right(self._points, self._hash(key))
        if index == len(self._points):
            index = 0
        return self._owners[self._points[index]]


class ShardRouter:
    """Routes ingest across shard workers with batching and failover.

    Parameters
    ----------
    shards:
        ``{shard_id: bind spec}`` (``unix:/path`` or ``tcp:host:port``).
        Connections are opened lazily on first use.
    replicas:
        Virtual nodes per shard on the hash ring.
    batch_max_frames:
        Frames buffered per shard before an ``INGEST`` ships.  1 sends
        every packet immediately; larger batches amortize framing cost.
    health_interval_s:
        Probe period for the passive health check woven into ``ingest``
        (0 disables; ``check_health()`` can always be called directly).
    socket_timeout_s:
        Per-operation socket timeout; a shard that blocks longer is
        treated as dead.
    connect_timeout_s:
        Timeout for the initial connect only; defaults to
        ``socket_timeout_s``.  Keeping it short lets the router fail a
        black-holed shard fast without also shrinking the reply budget
        of busy-but-healthy shards.
    journal_max_frames:
        Per-source cap on sent-but-unacked frames retained for replay
        (the at-least-once journal).  Frames shipped beyond the cap are
        counted ``dist.journal.overflow`` at ship time and fall back to
        at-most-once (``inflight_lost`` if their shard dies).  0
        disables journaling entirely.
    socket_wrapper:
        Optional ``(sock, shard_id) -> sock`` hook applied to every
        freshly-connected shard socket — the injection point for
        :meth:`repro.faults.network.NetworkFaultInjector.wrap`.
    metrics:
        Counter sink; ``dist.*`` counters land here.  A fresh instance
        is created when omitted.
    tracer:
        Span sink for the router-side control plane.  Defaults to
        :data:`~repro.obs.NOOP_TRACER`.  With a recording tracer, every
        shipped batch opens a ``batch`` span and every flush opens a
        ``flush`` span with one ``shard.flush`` child per shard
        request; the active trace context rides the wire
        (``INGEST_TRACED`` payloads / the FLUSH JSON ``"trace"`` key)
        so shard-side spans join the same trace.  Sampling is decided
        here at the root — unsampled requests ship as plain ``INGEST``
        and untraced flushes, so shards do no tracing work for them.

    Fix events arrive asynchronously relative to ``ingest`` calls (a
    reply may carry fixes from packets sent several batches ago).  Every
    shipped batch and every :meth:`take_fixes` call polls all shards that
    owe replies without blocking, so a fix is handed out at the caller's
    first ``take_fixes`` after its reply lands, whichever shard sent it.
    """

    def __init__(
        self,
        shards: Mapping[str, str],
        replicas: int = 64,
        batch_max_frames: int = 16,
        health_interval_s: float = 0.0,
        socket_timeout_s: float = 60.0,
        connect_timeout_s: Optional[float] = None,
        journal_max_frames: int = 512,
        socket_wrapper: Optional[
            Callable[[socket.socket, str], socket.socket]
        ] = None,
        metrics: Optional[RuntimeMetrics] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        if not shards:
            raise ShardUnavailableError("a router needs at least one shard")
        self.metrics = metrics if metrics is not None else RuntimeMetrics()
        self.tracer = tracer or NOOP_TRACER
        self.batch_max_frames = max(1, int(batch_max_frames))
        self.health_interval_s = float(health_interval_s)
        self.socket_timeout_s = float(socket_timeout_s)
        self.connect_timeout_s = (
            float(connect_timeout_s)
            if connect_timeout_s is not None
            else self.socket_timeout_s
        )
        self.journal_max_frames = max(0, int(journal_max_frames))
        self.socket_wrapper = socket_wrapper
        self._addresses: Dict[str, BindAddress] = {
            shard_id: parse_bind(spec) for shard_id, spec in shards.items()
        }
        self._ring = HashRing(replicas=replicas)
        for shard_id in self._addresses:
            self._ring.add_node(shard_id)
        self._sockets: Dict[str, socket.socket] = {}
        self._pending: Dict[str, List[Tuple[str, CsiFrame, int]]] = {}
        # Per shard, one FIFO record per outstanding request, aligned
        # with its reply stream: ``(journaled_entries, unjournaled)``
        # for ingest batches, ``None`` for control requests.
        self._unacked: Dict[str, Deque[Optional[_BatchRecord]]] = {}
        self._journal_depth: Dict[str, int] = {}
        self._seqs: Dict[str, int] = {}
        self._dead: Dict[str, str] = {}
        # Frames that had nowhere to go because the ring emptied while a
        # failover was re-routing them; parked until a readmit.
        self._stranded: List[Tuple[str, CsiFrame, int]] = []
        # Freshest track checkpoint per source, as piggybacked on FIXES
        # replies: source -> (owning shard, checkpoint).  Handed to the
        # ring successor (RESUME) when the owner dies.
        self._track_checkpoints: Dict[str, Tuple[str, Dict[str, Any]]] = {}
        self._fixes: List[WireFix] = []
        self._last_health_s = time.monotonic()

    # ------------------------------------------------------------------
    # Connections
    # ------------------------------------------------------------------
    def _socket_for(self, shard_id: str) -> socket.socket:
        sock = self._sockets.get(shard_id)
        if sock is None:
            sock = self._addresses[shard_id].connect(
                timeout_s=self.connect_timeout_s
            )
            sock.settimeout(self.socket_timeout_s)
            if self.socket_wrapper is not None:
                sock = cast(socket.socket, self.socket_wrapper(sock, shard_id))
            self._sockets[shard_id] = sock
        return sock

    def live_shards(self) -> List[str]:
        """Shards still on the ring."""
        return self._ring.nodes()

    def owner_of(self, key: str) -> str:
        """The shard currently owning ``key`` (chaos/debug introspection)."""
        return self._ring.owner(key)

    def dead_shards(self) -> Dict[str, str]:
        """``{shard_id: reason}`` for every shard marked dead."""
        return dict(self._dead)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _journal_release(self, entries: List[Tuple[str, CsiFrame, int]]) -> None:
        """Drop journal-depth accounting for acked or replayed entries."""
        for _ap_id, frame, _seq in entries:
            depth = self._journal_depth.get(frame.source, 0) - 1
            if depth > 0:
                self._journal_depth[frame.source] = depth
            else:
                self._journal_depth.pop(frame.source, None)

    def _journal_record(self, batch: List[Tuple[str, CsiFrame, int]]) -> _BatchRecord:
        """Reserve journal space for a batch about to ship.

        Entries beyond the per-source cap are not retained; they are
        counted ``dist.journal.overflow`` and ride at-most-once.
        """
        if self.journal_max_frames <= 0:
            return ([], len(batch))
        journaled: List[Tuple[str, CsiFrame, int]] = []
        overflowed = 0
        for entry in batch:
            source = entry[1].source
            depth = self._journal_depth.get(source, 0)
            if depth >= self.journal_max_frames:
                overflowed += 1
                continue
            self._journal_depth[source] = depth + 1
            journaled.append(entry)
        if overflowed:
            self.metrics.increment("dist.journal.overflow", overflowed)
        return (journaled, overflowed)

    def _fail_shard(self, shard_id: str, reason: str) -> None:
        """Mark a shard dead, replay its journal, re-route its batch.

        Sent-but-unacked frames retained in the journal are re-hashed
        onto the survivors with their sequence numbers intact
        (``dist.failover.replayed`` — shard-side dedup absorbs any that
        were actually processed before the crash); frames that
        overflowed the journal are lost (``inflight_lost``).  The
        unsent pending batch is re-routed too, which may recursively
        fail more shards if they are also down.
        """
        if shard_id in self._dead:
            return
        self._dead[shard_id] = reason
        self._ring.remove_node(shard_id)
        sock = self._sockets.pop(shard_id, None)
        if sock is not None:
            try:
                sock.close()
            except OSError:
                pass
        unsent = self._pending.pop(shard_id, [])
        owed = self._unacked.pop(shard_id, None) or deque()
        self.metrics.increment("dist.failover.shard_down")
        # Hand the dead shard's track state to its ring successors
        # *before* replaying journaled traffic: the replies stream in
        # order per socket, so the restore is in place by the time the
        # replayed packets trigger fixes — tracks resume, never restart.
        self._resume_tracks(shard_id)
        replay: List[Tuple[str, CsiFrame, int]] = []
        lost = 0
        for record in owed:
            if record is None:
                continue
            journaled, overflowed = record
            lost += overflowed
            self._journal_release(journaled)
            replay.extend(journaled)
        if lost:
            self.metrics.increment("dist.failover.inflight_lost", lost)
        if replay:
            self.metrics.increment("dist.failover.replayed", len(replay))
            for ap_id, frame, seq in replay:
                self._route_or_strand(ap_id, frame, seq)
        if unsent:
            self.metrics.increment("dist.failover.rerouted", len(unsent))
            for ap_id, frame, seq in unsent:
                self._route_or_strand(ap_id, frame, seq)

    def _resume_tracks(self, failed_shard: str) -> None:
        """Ship the failed shard's cached track checkpoints to successors.

        Checkpoints are grouped by the source's *new* ring owner and
        sent as one ``RESUME`` per successor.  Successors skip sources
        they already track, so a stale cache entry is harmless.  When
        the ring is empty the checkpoints stay cached — a readmitted
        shard's traffic will rebuild them from scratch.
        """
        owned = [
            (source, checkpoint)
            for source, (owner, checkpoint) in self._track_checkpoints.items()
            if owner == failed_shard
        ]
        if not owned:
            return
        by_successor: Dict[str, Dict[str, Dict[str, Any]]] = {}
        for source, checkpoint in owned:
            try:
                successor = self._ring.owner(source)
            except ShardUnavailableError:
                continue
            by_successor.setdefault(successor, {})[source] = checkpoint
        for successor, tracks in by_successor.items():
            sent = self._send_request(
                successor, MessageType.RESUME, protocol.encode_resume(tracks)
            )
            if sent:
                self.metrics.increment("dist.tracks.resumed", len(tracks))
                for source in tracks:
                    self._track_checkpoints[source] = (successor, tracks[source])

    def _route_or_strand(self, ap_id: str, frame: CsiFrame, seq: int) -> None:
        """Re-route a failover frame, parking it if the ring is empty.

        A fault storm can fail every shard while one failover is still
        re-routing; raising from that depth would silently drop the
        frames not yet re-routed.  Parking them keeps at-least-once
        intact: :meth:`readmit_shard` re-routes the stash as soon as
        any shard comes back.
        """
        try:
            self._route(ap_id, frame, seq)
        except ShardUnavailableError:
            self._stranded.append((ap_id, frame, seq))
            self.metrics.increment("dist.failover.stranded")

    def readmit_shard(self, shard_id: str) -> None:
        """Return a previously-failed shard to the ring.

        Meant for a supervisor that has already health-probed the
        recovered shard on a fresh socket — the router itself never
        un-fails a shard.  The dead connection was closed at failover,
        so the next request opens a new one.  Frames stranded while the
        ring was empty are re-routed now, sequence numbers intact.
        """
        if shard_id not in self._addresses:
            raise ShardUnavailableError(
                f"unknown shard {shard_id!r} cannot be readmitted"
            )
        self._dead.pop(shard_id, None)
        if shard_id not in self._ring.nodes():
            self._ring.add_node(shard_id)
        self.metrics.increment("dist.failover.readmitted")
        if self._stranded:
            stranded, self._stranded = self._stranded, []
            for ap_id, frame, seq in stranded:
                self._route_or_strand(ap_id, frame, seq)

    # ------------------------------------------------------------------
    # Reply draining (the pipelined half)
    # ------------------------------------------------------------------
    def _absorb_reply(
        self, shard_id: str, msg_type: MessageType, payload: bytes
    ) -> None:
        try:
            if msg_type in (MessageType.FIXES, MessageType.BYE):
                fixes = protocol.decode_fixes(payload)
                self._fixes.extend(fixes)
                self.metrics.increment("dist.fixes.received", len(fixes))
                for fix in fixes:
                    if fix.track is not None:
                        self._track_checkpoints[fix.source] = (
                            fix.shard or shard_id,
                            fix.track,
                        )
            elif msg_type == MessageType.RESUME_OK:
                reply = protocol.decode_json(payload)
                resumed = (
                    int(reply.get("resumed", 0))
                    if isinstance(reply, dict)
                    else 0
                )
                if resumed:
                    self.metrics.increment("dist.tracks.restored", resumed)
            elif msg_type == MessageType.ERROR:
                error = protocol.decode_json(payload)
                kind = "unknown"
                if isinstance(error, dict):
                    kind = str(error.get("kind", "unknown"))
                self.metrics.record_error("dist.request", kind=kind)
            else:
                # A late HEALTH_OK / METRICS_REPLY from a probe whose recv
                # timed out earlier; counting it keeps the stream in sync.
                self.metrics.increment("dist.replies.stray")
        except TraceFormatError as exc:
            # Well-framed but undecodable (e.g. bytes corrupted on the
            # wire): the reply was already acked — its frames were
            # delivered, only their fixes are unrecoverable — but the
            # stream can no longer be trusted.
            self._fail_shard(shard_id, f"malformed reply: {exc}")

    def _note_reply(self, shard_id: str) -> None:
        """Ack the oldest outstanding request (replies arrive in order)."""
        owed = self._unacked.get(shard_id)
        if not owed:
            return
        record = owed.popleft()
        if record is not None:
            self._journal_release(record[0])

    def _drain_replies(self, shard_id: str, block: bool) -> None:
        """Collect replies the shard owes us.

        Non-blocking mode peeks with ``select`` and stops as soon as no
        reply has started to arrive (see :meth:`_poll_replies`).  Once a
        reply is readable, the message is read to completion with the
        normal timeout, so the stream can never be torn mid-message.
        Blocking mode waits for every owed reply — the sync point used by
        flush, metrics and shutdown.
        """
        while self._unacked.get(shard_id):
            sock = self._sockets.get(shard_id)
            if sock is None:
                return
            if not block:
                try:
                    readable, _, _ = select.select([sock], [], [], 0.0)
                except (OSError, ValueError):
                    self._fail_shard(shard_id, "connection unusable")
                    return
                if not readable:
                    return
            try:
                message = protocol.recv_message(sock)
            except socket.timeout:
                self._fail_shard(shard_id, "reply timeout")
                return
            except (OSError, TraceFormatError) as exc:
                self._fail_shard(shard_id, f"recv failed: {exc}")
                return
            if message is None:
                self._fail_shard(shard_id, "connection closed")
                return
            self._note_reply(shard_id)
            self._absorb_reply(shard_id, *message)

    def _poll_replies(self) -> None:
        """Read every reply already waiting, from every shard owing one.

        One zero-timeout ``select`` picks the readable shards; each is
        then drained without blocking, so its own socket answers for any
        failure (if the joint ``select`` fails, each shard tries alone).
        """
        owing = [
            (shard_id, self._sockets[shard_id])
            for shard_id, owed in self._unacked.items()
            if owed and shard_id in self._sockets
        ]
        if not owing:
            return
        try:
            readable = select.select([sock for _, sock in owing], [], [], 0.0)[0]
        except (OSError, ValueError):
            readable = [sock for _, sock in owing]
        for shard_id, sock in owing:
            if sock in readable:
                self._drain_replies(shard_id, block=False)

    def _send_request(
        self,
        shard_id: str,
        msg_type: MessageType,
        payload: bytes,
        record: Optional[_BatchRecord] = None,
    ) -> bool:
        """Ship one request; returns False (after failover) on failure.

        ``record`` is the journal record for ingest batches (``None``
        for control requests); it is enqueued as owed only once the
        send succeeds, so a failed send never strands journal state.
        """
        try:
            sock = self._socket_for(shard_id)
        except socket.timeout:
            self._fail_shard(
                shard_id, f"connect timeout after {self.connect_timeout_s}s"
            )
            return False
        except OSError as exc:
            self._fail_shard(shard_id, f"connect failed: {exc}")
            return False
        try:
            protocol.send_message(sock, msg_type, payload)
        except socket.timeout:
            self._fail_shard(
                shard_id, f"send timeout after {self.socket_timeout_s}s"
            )
            return False
        except OSError as exc:
            self._fail_shard(shard_id, f"send failed: {exc}")
            return False
        self._unacked.setdefault(shard_id, deque()).append(record)
        return True

    def _ship_batch(self, shard_id: str) -> None:
        batch = self._pending.pop(shard_id, [])
        if not batch:
            return
        with self.tracer.span("batch", shard=shard_id, frames=len(batch)):
            context = self.tracer.current_context()
            if context is not None and context.sampled:
                msg_type = MessageType.INGEST_TRACED
                payload = protocol.encode_traced_ingest(batch, context)
            else:
                msg_type = MessageType.INGEST
                payload = protocol.encode_frames(batch)
            record = self._journal_record(batch)
            if self._send_request(shard_id, msg_type, payload, record=record):
                self.metrics.increment("dist.frames.sent", len(batch))
                self.metrics.increment("dist.batches.sent")
                self._poll_replies()
            else:
                # The shard never accepted the batch; undo its journal
                # reservation and re-route every frame (the failover in
                # _send_request only saw the already-owed requests).
                self._journal_release(record[0])
                self.metrics.increment("dist.failover.rerouted", len(batch))
                for ap_id, frame, seq in batch:
                    self._route_or_strand(ap_id, frame, seq)

    # ------------------------------------------------------------------
    # Public ingest / flush
    # ------------------------------------------------------------------
    def _route(self, ap_id: str, frame: CsiFrame, seq: int) -> None:
        """Buffer one sequenced frame on its ring owner; ship when full."""
        shard_id = self._ring.owner(frame.source)
        self._pending.setdefault(shard_id, []).append((ap_id, frame, seq))
        if len(self._pending[shard_id]) >= self.batch_max_frames:
            self._ship_batch(shard_id)

    def ingest(self, ap_id: str, frame: CsiFrame) -> None:
        """Route one packet to its owning shard (batched, pipelined).

        Assigns the frame its per-source delivery sequence number (the
        at-least-once dedup key).  Raises
        :class:`~repro.errors.ShardUnavailableError` when every shard
        is dead.  Fix events produced by completed bursts arrive
        asynchronously — collect them with :meth:`take_fixes`.  A shipped
        batch also reads the replies any shard has ready.
        """
        self._maybe_health_check()
        seq = (self._seqs.get(frame.source, 0) % 0xFFFFFFFF) + 1
        self._seqs[frame.source] = seq
        self._route(ap_id, frame, seq)

    def _ship_all_batches(self) -> None:
        """Ship every pending batch, including failover re-routes.

        A failed ship re-hashes its frames into *other* shards' pending
        batches, so one pass is not enough; loop until nothing is
        pending (guaranteed to terminate: each round either empties the
        map or removes a shard from the ring).
        """
        while any(self._pending.values()):
            for shard_id in list(self._pending):
                self._ship_batch(shard_id)

    def flush_source(
        self, source: str, timestamp_s: float, estimator: str = ""
    ) -> List[WireFix]:
        """Force a fix attempt for one target on its owning shard.

        Ships any buffered batches first (the owner may change if that
        surfaces a dead shard), then a ``FLUSH`` request, then blocks
        for every owed reply; returns the fixes that arrived during the
        sync (for this source and any that were in flight).
        ``estimator`` (a registry name or QoS tier) rides the control
        plane and overrides the shard's default for this fix.
        """
        with self.tracer.span("flush", source=source):
            self._ship_all_batches()
            shard_id = self._ring.owner(source)
            request: Dict[str, object] = {
                "sources": [source],
                "timestamp_s": timestamp_s,
            }
            if estimator:
                request["estimator"] = estimator
            with self.tracer.span("shard.flush", shard=shard_id):
                context = self.tracer.current_context()
                if context is not None and context.sampled:
                    request["trace"] = context.to_dict()
                payload = protocol.encode_json(request)
                if self._send_request(shard_id, MessageType.FLUSH, payload):
                    self._drain_replies(shard_id, block=True)
        return self.take_fixes()

    def flush(self, estimator: str = "") -> List[WireFix]:
        """Global sync point: ship every batch, flush every shard, drain.

        Returns every fix event collected, including those that were
        still in flight from earlier batches.  ``estimator`` overrides
        every shard's default for the flushed fixes.
        """
        with self.tracer.span("flush", scope="all"):
            self._ship_all_batches()
            base: Dict[str, object] = {"sources": None}
            if estimator:
                base["estimator"] = estimator
            for shard_id in self.live_shards():
                with self.tracer.span("shard.flush", shard=shard_id):
                    request = dict(base)
                    context = self.tracer.current_context()
                    if context is not None and context.sampled:
                        request["trace"] = context.to_dict()
                    payload = protocol.encode_json(request)
                    if self._send_request(shard_id, MessageType.FLUSH, payload):
                        self._drain_replies(shard_id, block=True)
        return self.take_fixes()

    def take_fixes(self) -> List[WireFix]:
        """Hand over (and clear) the fix events that have arrived.

        First reads, without blocking, every reply any shard has ready,
        so a fix computed since the last call is included even if no
        batch has been shipped to its shard since.  A shard found dead
        during that poll fails over as it would during :meth:`ingest`
        (journal replay, stranding, track resume); this never raises.
        """
        self._poll_replies()
        fixes = self._fixes
        self._fixes = []
        return fixes

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def _maybe_health_check(self) -> None:
        if self.health_interval_s <= 0.0:
            return
        now = time.monotonic()
        if now - self._last_health_s >= self.health_interval_s:
            self._last_health_s = now
            self.check_health()

    def check_health(self) -> Dict[str, bool]:
        """Probe every live shard; failed probes trigger failover.

        Returns ``{shard_id: alive}`` over the shards that were live
        when the probe started.
        """
        results: Dict[str, bool] = {}
        for shard_id in self.live_shards():
            self._drain_replies(shard_id, block=True)
            if shard_id in self._dead:
                results[shard_id] = False
                continue
            alive = self._send_request(shard_id, MessageType.HEALTH, b"")
            if alive:
                sock = self._sockets[shard_id]
                try:
                    message = protocol.recv_message(sock)
                except (OSError, TraceFormatError) as exc:
                    self._fail_shard(shard_id, f"health probe failed: {exc}")
                    alive = False
                else:
                    self._note_reply(shard_id)
                    alive = (
                        message is not None and message[0] == MessageType.HEALTH_OK
                    )
                    if not alive:
                        self._fail_shard(shard_id, "health probe rejected")
            results[shard_id] = alive
            self.metrics.increment(
                "dist.health.ok" if alive else "dist.health.failed"
            )
        return results

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def pull_metrics(self) -> List[Dict[str, Any]]:
        """Fetch every live shard's metrics snapshot + breaker states.

        Each entry is the shard's ``METRICS_REPLY`` payload:
        ``{"shard_id": ..., "snapshot": ..., "breakers": ...}``.  Shards
        that fail mid-pull are failed over and skipped.
        """
        replies: List[Dict[str, Any]] = []
        for shard_id in self.live_shards():
            self._drain_replies(shard_id, block=True)
            if shard_id in self._dead:
                continue
            if not self._send_request(shard_id, MessageType.METRICS, b""):
                continue
            sock = self._sockets[shard_id]
            try:
                message = protocol.recv_message(sock)
            except (OSError, TraceFormatError) as exc:
                self._fail_shard(shard_id, f"metrics pull failed: {exc}")
                continue
            self._note_reply(shard_id)
            if message is None:
                self._fail_shard(shard_id, "connection closed")
                continue
            msg_type, payload = message
            if msg_type != MessageType.METRICS_REPLY:
                self._absorb_reply(shard_id, msg_type, payload)
                continue
            try:
                reply = protocol.decode_json(payload)
            except TraceFormatError as exc:
                self._fail_shard(shard_id, f"malformed reply: {exc}")
                continue
            if isinstance(reply, dict):
                replies.append(reply)
        return replies

    def stats(self) -> Dict[str, Any]:
        """Router-side view: ring membership, failover and flow counters."""
        snapshot = self.metrics.snapshot()
        return {
            "live_shards": self.live_shards(),
            "dead_shards": self.dead_shards(),
            "counters": snapshot["counters"],
        }

    def health_view(self) -> Dict[str, Any]:
        """Liveness payload for ``/healthz``-style checks.

        ``ok`` is true while at least one shard remains on the ring.
        Must be called from the thread driving the router — the router
        is single-threaded; HTTP exporters that need an independent
        view should probe the shard bind specs on fresh sockets instead
        (see :func:`repro.dist.rollup.cluster_health`).
        """
        pending = {
            shard_id: len(batch)
            for shard_id, batch in self._pending.items()
            if batch
        }
        return {
            "ok": bool(self.live_shards()),
            "live_shards": self.live_shards(),
            "dead_shards": self.dead_shards(),
            "pending_frames": pending,
            "inflight": {
                shard_id: len(owed)
                for shard_id, owed in self._unacked.items()
                if owed
            },
            "journal_frames": sum(self._journal_depth.values()),
        }

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def shutdown(self) -> List[WireFix]:
        """Gracefully stop every live shard, collecting drained fixes.

        Sends ``SHUTDOWN`` to each shard; the shard drains its buffered
        bursts through ``flush()`` and answers ``BYE`` with the final
        fixes.  Returns everything collected (in-flight + drained).
        """
        self._ship_all_batches()
        for shard_id in self.live_shards():
            self._drain_replies(shard_id, block=True)
            if shard_id in self._dead:
                continue
            if not self._send_request(shard_id, MessageType.SHUTDOWN, b""):
                continue
            sock = self._sockets[shard_id]
            try:
                message = protocol.recv_message(sock)
            except (OSError, TraceFormatError):
                message = None
            self._note_reply(shard_id)
            if message is not None and message[0] in (
                MessageType.BYE,
                MessageType.FIXES,
            ):
                self._absorb_reply(shard_id, MessageType.FIXES, message[1])
        return self.take_fixes()

    def close(self) -> None:
        """Close every connection without shutting the shards down."""
        for sock in self._sockets.values():
            try:
                sock.close()
            except OSError:
                pass
        self._sockets.clear()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
