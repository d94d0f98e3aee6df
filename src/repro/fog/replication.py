"""Store-and-forward context replication, fog → cloud.

Every update applied to the fog context broker is appended to a bounded
outbound log.  A sync process ships batches over the WAN with sequence
numbers; the cloud endpoint applies them idempotently (per-source
monotone sequence check) and acks.  Unacked batches are retransmitted, so
an Internet partition simply grows the backlog and the healed link drains
it.  When the backlog overflows, the *oldest* updates are dropped and
counted — that count is experiment E9's "data loss after resync" metric.
"""

from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.context.broker import ContextBroker
from repro.context.entities import ContextEntity
from repro.network.node import NetworkNode
from repro.network.packet import Packet
from repro.network.topology import Network
from repro.simkernel.process import GridTimer
from repro.simkernel.simulator import Simulator


class SyncBatch:
    """A numbered batch of entity updates in flight to the cloud."""

    __slots__ = ("seq", "updates", "source")

    def __init__(self, seq: int, updates: List[dict], source: str) -> None:
        self.seq = seq
        self.updates = updates
        self.source = source

    def wire_size(self) -> int:
        # Rough NGSI-batch JSON size: per update ~40 bytes of framing plus
        # the attribute payload.
        size = 64
        for update in self.updates:
            size += 40 + sum(len(str(k)) + len(str(v)) for k, v in update["attrs"].items())
        return size


class _SyncAck:
    __slots__ = ("seq", "source")

    def __init__(self, seq: int, source: str) -> None:
        self.seq = seq
        self.source = source


class _ReplicatorEndpoint(NetworkNode):
    """Network endpoint delegating inbound packets to its owner."""

    def __init__(self, address: str, owner) -> None:
        super().__init__(address)
        self._owner = owner

    def on_packet(self, packet: Packet) -> None:
        self._owner._on_packet(packet)


class CloudSyncTarget:
    """Cloud-side endpoint: applies batches idempotently and acks."""

    def __init__(
        self, sim: Simulator, network: Network, address: str, context: ContextBroker
    ) -> None:
        self.sim = sim
        self.context = context
        self.node = _ReplicatorEndpoint(address, self)
        network.add_node(self.node)
        # Highest sequence applied per source replicator.
        self._applied_seq: Dict[str, int] = {}
        self.batches_applied = 0
        self.batches_duplicate = 0

    @property
    def address(self) -> str:
        return self.node.address

    def _on_packet(self, packet: Packet) -> None:
        batch = packet.payload
        if not isinstance(batch, SyncBatch):
            return
        last = self._applied_seq.get(batch.source, 0)
        if batch.seq == last + 1:
            for update in batch.updates:
                self.context.ensure_entity(update["entity_id"], update["entity_type"])
                self.context.update_attributes(update["entity_id"], update["attrs"])
            self._applied_seq[batch.source] = batch.seq
            self.batches_applied += 1
        elif batch.seq <= last:
            self.batches_duplicate += 1
        else:
            # Gap: an earlier batch was lost to overflow on the fog side.
            # Accept and advance — the overflow already counted the loss.
            for update in batch.updates:
                self.context.ensure_entity(update["entity_id"], update["entity_type"])
                self.context.update_attributes(update["entity_id"], update["attrs"])
            self._applied_seq[batch.source] = batch.seq
            self.batches_applied += 1
        self.node.send(packet.src, _SyncAck(batch.seq, batch.source), 32, flow="ngsi-sync")


class Replicator:
    """Fog-side replication daemon."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        address: str,
        source_context: ContextBroker,
        target_address: str,
        sync_interval_s: float = 30.0,
        batch_size: int = 50,
        max_backlog: int = 10_000,
        retry_timeout_s: float = 15.0,
    ) -> None:
        self.sim = sim
        self.source_context = source_context
        self.target_address = target_address
        self.sync_interval_s = sync_interval_s
        self.batch_size = batch_size
        self.max_backlog = max_backlog
        self.retry_timeout_s = retry_timeout_s
        self.node = _ReplicatorEndpoint(address, self)
        network.add_node(self.node)
        self._backlog: Deque[dict] = deque()
        self._next_seq = 1
        self._in_flight: Optional[SyncBatch] = None
        self._in_flight_since = 0.0
        # Optional half-open circuit breaker on the uplink (installed by
        # the resilience stage; duck-typed — see repro.resilience.breaker).
        # When OPEN, the pump stops transmitting: the backlog keeps
        # absorbing captures under its own overflow policy instead of the
        # retry loop hammering a dead WAN.
        self.breaker = None
        self.updates_captured = 0
        self.updates_synced = 0
        self.updates_dropped_overflow = 0
        self.batches_sent = 0
        self.batches_acked = 0
        labels = {"replicator": address}
        registry = sim.metrics
        registry.register_counter("fog.updates_captured", lambda: self.updates_captured, labels)
        registry.register_counter("fog.updates_synced", lambda: self.updates_synced, labels)
        registry.register_counter(
            "fog.updates_dropped_overflow", lambda: self.updates_dropped_overflow, labels)
        registry.register_counter("fog.sync_batches_sent", lambda: self.batches_sent, labels)
        registry.register_counter("fog.sync_batches_acked", lambda: self.batches_acked, labels)
        # Sim-time seconds from capture on the fog tier to cloud ack; a WAN
        # partition shows up as the tail of this distribution.
        self._m_lag = registry.histogram(
            "fog.sync_lag_s", labels,
            buckets=(1.0, 10.0, 30.0, 60.0, 120.0, 300.0, 900.0, 3600.0),
        )
        registry.register_callback(
            "fog.backlog_depth", lambda: float(self.backlog_depth), labels
        )
        source_context.update_hooks.append(self._capture)
        # The pump ticks on a grid from its start (or last restart).  It
        # sleeps, with no tick queued, while the backlog is empty and
        # nothing is in flight; a capture wakes it.
        self.running = True
        self._timer = GridTimer(sim, sync_interval_s, self._tick, f"proc:replicator:{address}")

    @property
    def backlog_depth(self) -> int:
        return len(self._backlog) + (len(self._in_flight.updates) if self._in_flight else 0)

    # -- capture -----------------------------------------------------------

    def _capture(self, entity: ContextEntity, changed: List[str]) -> None:
        update = {
            "entity_id": entity.entity_id,
            "entity_type": entity.entity_type,
            "attrs": {name: entity.get(name) for name in changed},
            "captured_at": self.sim.clock.now,
        }
        if self.sim.tracer.enabled:
            # Capture runs inside the context broker's update hooks, so the
            # active span is the originating context.update; the key is
            # added only when tracing is on to keep untraced update dicts
            # bit-identical.
            update["trace_ctx"] = self.sim.tracer.current()
        self.updates_captured += 1
        if len(self._backlog) >= self.max_backlog:
            self._backlog.popleft()
            self.updates_dropped_overflow += 1
        self._backlog.append(update)
        if self.running:
            # A capture at exactly a grid point wakes the pump at that
            # point: a pump that never slept queued its tick there one
            # interval earlier, so the tick ran after any event at that
            # instant queued before then (the daily 06:00 cycle is queued
            # a day ahead), and its batch carried the capture.
            self._timer.arm(self.sim.clock.now)

    # -- sync loop -----------------------------------------------------------

    def _tick(self) -> None:
        self._pump()
        if self._backlog or self._in_flight is not None:
            self._timer.arm(self.sim.clock.now)

    def _pump(self) -> None:
        now = self.sim.clock.now
        if self._in_flight is not None:
            # "<=" not "<": an ACK processed at *exactly* retry_timeout_s
            # (the ack handler runs in the same sim instant as a pump
            # tick) must win over the retransmission, or the batch is
            # double-sent and counted twice.
            if now - self._in_flight_since <= self.retry_timeout_s:
                return
            if self.breaker is not None:
                self.breaker.record_failure(now)
                if not self.breaker.allow(now):
                    return
            self._transmit(self._in_flight)  # retransmit
            return
        if not self._backlog:
            return
        if self.breaker is not None and not self.breaker.allow(now):
            return
        updates = [self._backlog.popleft() for _ in range(min(self.batch_size, len(self._backlog)))]
        batch = SyncBatch(self._next_seq, updates, self.node.address)
        self._next_seq += 1
        self._in_flight = batch
        self._transmit(batch)

    def _transmit(self, batch: SyncBatch) -> None:
        self._in_flight_since = self.sim.clock.now
        self.batches_sent += 1
        self.node.send(self.target_address, batch, batch.wire_size(), flow="ngsi-sync")

    def _on_packet(self, packet: Packet) -> None:
        ack = packet.payload
        if not isinstance(ack, _SyncAck) or not self.running:
            # A dead daemon hears no ack: its in-flight batch waits for
            # the restart and goes out again through the retry path.
            return
        if self._in_flight is not None and ack.seq == self._in_flight.seq:
            self.updates_synced += len(self._in_flight.updates)
            self.batches_acked += 1
            if self.sim.metrics.enabled:
                now = self.sim.clock.now
                for update in self._in_flight.updates:
                    self._m_lag.observe(now - update.get("captured_at", now))
            if self.sim.tracer.enabled:
                now = self.sim.clock.now
                for update in self._in_flight.updates:
                    ctx = update.get("trace_ctx")
                    if ctx is not None:
                        self.sim.tracer.record_span(
                            "fog.synced",
                            "fog",
                            parent=ctx,
                            entity=update["entity_id"],
                            lag_s=now - update.get("captured_at", now),
                        )
            self._in_flight = None
            if self.breaker is not None:
                self.breaker.record_success(self.sim.clock.now)
            # Keep draining immediately while there's backlog (fast resync
            # after a healed partition instead of one batch per interval).
            self._pump()

    def flush_now(self) -> None:
        """Kick the pump outside the periodic schedule (tests, shutdown);
        a crashed daemon sends nothing."""
        if self.running:
            self._pump()

    # -- fault injection -----------------------------------------------------------

    def crash(self) -> None:
        """Kill the sync loop, keeping durable state.

        The backlog, sequence counter and in-flight batch survive — they
        model the on-disk store-and-forward log, which is the whole point
        of the fog tier's disconnection tolerance (E9).  Only the daemon
        process dies; captures keep accumulating via the context hook,
        and nothing is sent or acked until :meth:`restart`.
        """
        self.running = False
        self._timer.cancel()
        self.sim.trace.emit(
            self.sim.now, "fog", "replicator crashed",
            replicator=self.node.address, backlog=self.backlog_depth,
        )

    def restart(self) -> None:
        """Re-arm the sync loop after :meth:`crash`.

        The grid re-anchors at the restart instant.  The retained
        in-flight batch (if any) retransmits through the normal
        ``retry_timeout_s`` path, and the backlog drains batch by batch
        exactly as after a healed partition.
        """
        if self.running:
            return
        self.running = True
        self._timer.reanchor()
        if self._backlog or self._in_flight is not None:
            self._timer.arm(self.sim.clock.now)
        self.sim.trace.emit(
            self.sim.now, "fog", "replicator restarted",
            replicator=self.node.address, backlog=self.backlog_depth,
        )
