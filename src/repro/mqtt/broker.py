"""The MQTT broker.

One broker instance serves one deployment tier: the paper's cloud
configuration runs a single cloud broker; the fog configuration adds a local
broker on the farm that keeps operating during Internet disconnection (E9).

Security hooks:

* ``authenticator(connect) -> ConnectReturnCode`` — wired to the OAuth2
  identity manager in :mod:`repro.security.auth` (E10);
* ``authorizer(session, action, topic) -> bool`` — per-farm topic ACLs;
* every authorization failure is counted and traced, feeding the audit log.
"""

import heapq
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from repro.mqtt.packets import (
    ConnAck,
    Connect,
    ConnectReturnCode,
    Disconnect,
    MqttPacket,
    PingReq,
    PingResp,
    PubAck,
    PubComp,
    Publish,
    PubRec,
    PubRel,
    SubAck,
    Subscribe,
    UnsubAck,
    Unsubscribe,
)
from repro.mqtt.qos import Inbox, Outbox
from repro.mqtt.topics import TopicError, TopicTrie, topic_matches, validate_filter, validate_topic
from repro.network.node import NetworkNode
from repro.network.packet import Packet
from repro.resilience.backpressure import BoundedQueue, DropPolicy, RateLimiter
from repro.simkernel.errors import ReproError
from repro.simkernel.process import GridTimer
from repro.simkernel.simulator import Simulator

# PINGRESP is stateless; every keepalive answer shares one instance.
_PINGRESP = PingResp()
_PINGRESP_SIZE = _PINGRESP.wire_size()

SUBACK_FAILURE = 0x80

#: Seconds between the points of the session sweep's grid.
SWEEP_INTERVAL_S = 10.0


class RoutingMismatchError(ReproError):
    """Indexed routing diverged from the linear-scan reference.

    Only raised when ``MqttBroker.verify_routing`` is enabled (property
    tests and the CI routing smoke); production paths trust the index.
    """


class BrokerSession:
    """Server-side state for one client."""

    def __init__(self, broker: "MqttBroker", client_id: str, address: str, connect: Connect) -> None:
        self.client_id = client_id
        self.address = address
        self.clean_session = connect.clean_session
        self.username = connect.username
        self.keepalive_s = connect.keepalive_s
        self.connected = True
        self.last_seen = broker.sim.now
        # Deadline of this session's live entry in the broker's deadline
        # heap, or None when it has none.
        self.queued_deadline: Optional[float] = None
        self.subscriptions: Dict[str, int] = {}
        self.will: Optional[Tuple[str, bytes, int, bool]] = None
        if connect.will_topic:
            self.will = (connect.will_topic, connect.will_payload, connect.will_qos, connect.will_retain)
        self.outbox = Outbox(broker.sim, lambda pkt: broker._send_to(self, pkt))
        self.inbox = Inbox(lambda pkt: broker._send_to(self, pkt), sim=broker.sim)
        # Messages queued while a persistent session is offline.  Bounded:
        # a long partition must not grow broker memory without limit, and
        # when the cap bites the *freshest* telemetry survives
        # (oldest-first eviction, counted by ``mqtt.offline_dropped``).
        self.offline_queue = BoundedQueue(
            broker.max_offline_queue,
            DropPolicy.DROP_OLDEST,
            on_evict=broker._on_offline_evict,
        )

    def granted_qos(self, topic: str) -> Optional[int]:
        """Highest subscription QoS matching ``topic``, or None."""
        best: Optional[int] = None
        for topic_filter, qos in self.subscriptions.items():
            if topic_matches(topic_filter, topic):
                if best is None or qos > best:
                    best = qos
        return best


class BrokerStats:
    __slots__ = (
        "connects",
        "rejected_connects",
        "publishes_in",
        "publishes_out",
        "denied_publish",
        "denied_subscribe",
        "dropped_overload",
        "offline_dropped",
        "shed_backpressure",
        "session_expirations",
        "wills_published",
        "restarts",
    )

    def __init__(self) -> None:
        self.connects = 0
        self.rejected_connects = 0
        self.publishes_in = 0
        self.publishes_out = 0
        self.denied_publish = 0
        self.denied_subscribe = 0
        self.dropped_overload = 0
        self.offline_dropped = 0
        self.shed_backpressure = 0
        self.session_expirations = 0
        self.wills_published = 0
        self.restarts = 0


class MqttBroker(NetworkNode):
    """MQTT 3.1.1-style broker running on a network node."""

    def __init__(
        self,
        sim: Simulator,
        address: str,
        authenticator: Optional[Callable[[Connect], ConnectReturnCode]] = None,
        authorizer: Optional[Callable[[BrokerSession, str, str], bool]] = None,
        max_offline_queue: int = 1000,
        max_inflight_per_session: int = 64,
    ) -> None:
        super().__init__(address)
        self.sim = sim
        self.authenticator = authenticator
        self.authorizer = authorizer
        self.max_offline_queue = max_offline_queue
        self.max_inflight_per_session = max_inflight_per_session
        self.sessions: Dict[str, BrokerSession] = {}
        self._address_index: Dict[str, str] = {}  # network address -> client_id
        # Routing index: filter-trie entries are client_id -> granted qos.
        # Mirrors the union of every session's ``subscriptions`` dict (for
        # connected *and* offline persistent sessions — the latter still
        # route into their offline queues).
        self._routes = TopicTrie()
        # When True every publish cross-checks the trie against the linear
        # scan and raises RoutingMismatchError on divergence (tests/CI).
        self.verify_routing = False
        self.retained: Dict[str, Publish] = {}
        self.stats = BrokerStats()
        # Candidate (filter, client) pairs the index yielded per publish;
        # with linear scan this would grow with total subscription count.
        self.route_candidates = 0
        labels = {"broker": address}
        registry = sim.metrics
        stats = self.stats
        registry.register_counter("mqtt.connects", lambda: stats.connects, labels)
        registry.register_counter("mqtt.rejected_connects", lambda: stats.rejected_connects, labels)
        registry.register_counter("mqtt.publishes_in", lambda: stats.publishes_in, labels)
        registry.register_counter("mqtt.publishes_out", lambda: stats.publishes_out, labels)
        registry.register_counter(
            "mqtt.denied", lambda: stats.denied_publish + stats.denied_subscribe, labels)
        registry.register_counter("mqtt.dropped_overload", lambda: stats.dropped_overload, labels)
        registry.register_counter("mqtt.offline_dropped", lambda: stats.offline_dropped, labels)
        registry.register_counter("mqtt.backpressure_shed", lambda: stats.shed_backpressure, labels)
        registry.register_counter(
            "mqtt.session_expirations", lambda: stats.session_expirations, labels)
        registry.register_counter("mqtt.route_candidates", lambda: self.route_candidates, labels)
        registry.register_callback(
            "mqtt.connected_clients",
            lambda: float(sum(1 for s in self.sessions.values() if s.connected)),
            labels,
        )
        # Optional inbound admission gate (assign a RateLimiter): a closed
        # window sheds PUBLISHes before any routing work.
        self.inbound_limit: Optional[RateLimiter] = None
        # Session expiry runs on a grid from the broker's start time.  A
        # tick is armed only at the first grid point at or after the
        # earliest keepalive deadline, so every expiry lands on the tick a
        # sweep running every interval would give it.
        self._sweep_timer = GridTimer(sim, SWEEP_INTERVAL_S, self._sweep, f"{address}:sweep")
        # Min-heap of (last_seen + 1.5*keepalive, tie, session) with lazy
        # invalidation: an entry is live while it matches the session's
        # ``queued_deadline``.  ``last_seen`` refreshes only push a real
        # deadline later, so a live entry is a lower bound; the tick that
        # reaches it re-queues a refreshed session at its real deadline.
        self._deadlines: List[Tuple[float, int, BrokerSession]] = []
        self._deadline_tie = count()

    # -- plumbing -----------------------------------------------------------

    def _on_offline_evict(self, publish: Publish) -> None:
        self.stats.offline_dropped += 1

    def _note_session_deadline(self, session: "BrokerSession") -> None:
        if not session.keepalive_s:
            return
        deadline = session.last_seen + 1.5 * session.keepalive_s
        if session.queued_deadline is None or deadline < session.queued_deadline:
            session.queued_deadline = deadline
            heapq.heappush(self._deadlines, (deadline, next(self._deadline_tie), session))

    def arm_sweep(self) -> None:
        """Arm the sweep at the first grid point the earliest deadline needs.

        The ``- 1e-6`` slack absorbs float rounding between ``now -
        last_seen > 1.5*ka`` (the canonical expiry test) and the queued
        ``last_seen + 1.5*ka``.
        """
        heap = self._deadlines
        while heap and heap[0][2].queued_deadline != heap[0][0]:
            heapq.heappop(heap)
        if heap:
            self._sweep_timer.arm(heap[0][0] - 1e-6)
        else:
            self._sweep_timer.cancel()

    def sweep_armed(self) -> bool:
        """Health probe: a sweep is queued whenever a session can lapse."""
        return self._sweep_timer.armed or not any(
            session.connected and session.keepalive_s for session in self.sessions.values()
        )

    def _sweep(self) -> None:
        """Expire sessions whose keepalive lapsed (publishes their will).

        Only sessions whose queued deadline is due are tested; several
        expiring on one tick go in ``sessions`` order, so their wills are
        published in the order a scan of every session gives.
        """
        now = self.sim.clock.now
        heap = self._deadlines
        due = []
        while heap and now >= heap[0][0] - 1e-6:
            deadline, _, session = heapq.heappop(heap)
            if session.queued_deadline != deadline:
                continue
            session.queued_deadline = None
            if session.connected and session.keepalive_s:
                due.append(session)
        expired = set()
        for session in due:
            if now - session.last_seen > 1.5 * session.keepalive_s:
                expired.add(session)
            else:
                self._note_session_deadline(session)
        if expired:
            for session in [s for s in self.sessions.values() if s in expired]:
                self._expire_session(session)
        self.arm_sweep()

    def _expire_session(self, session: BrokerSession) -> None:
        self.stats.session_expirations += 1
        self.sim.trace.emit(
            self.sim.now, "mqtt", "session expired", broker=self.address, client=session.client_id
        )
        self._publish_will(session)
        self._disconnect_session(session, drop_will=True)

    def _publish_will(self, session: BrokerSession) -> None:
        if session.will is None:
            return
        topic, payload, qos, retain = session.will
        self.stats.wills_published += 1
        self._route_publish(Publish(topic=topic, payload=payload, qos=qos, retain=retain), origin=None)

    def _disconnect_session(self, session: BrokerSession, drop_will: bool) -> None:
        session.connected = False
        session.queued_deadline = None
        if drop_will:
            session.will = None
        session.outbox.clear()
        self._address_index.pop(session.address, None)
        if session.clean_session:
            self.sessions.pop(session.client_id, None)
            self._drop_session_routes(session)

    def _drop_session_routes(self, session: BrokerSession) -> None:
        for topic_filter in session.subscriptions:
            self._routes.discard(topic_filter, session.client_id)

    def _send_to(self, session: BrokerSession, packet: MqttPacket) -> None:
        self.send(session.address, packet, packet.wire_size(), flow="mqtt")

    # -- packet dispatch -----------------------------------------------------------

    def on_packet(self, packet: Packet) -> None:
        mqtt_packet = packet.payload
        # Dispatch on exact class identity, ordered by wire frequency
        # (PUBLISH and PINGREQ dominate every workload).  Packet classes
        # are never subclassed, so ``is`` is equivalent to isinstance and
        # skips the mro walk on every inbound packet.
        kind = mqtt_packet.__class__
        if kind is Connect:
            self._on_connect(packet.src, mqtt_packet)
            return
        client_id = self._address_index.get(packet.src)
        session = self.sessions.get(client_id) if client_id else None
        if session is None or not session.connected:
            # Unknown peer: per spec the server closes the connection.  We
            # model the close as a DISCONNECT back to the sender (the "TCP
            # RST" a real client would observe after a broker restart), so
            # clients learn their session is gone without waiting out two
            # keepalive periods.  Still counted for DoS experiments.
            self.stats.dropped_overload += 1
            if kind is not Disconnect:
                self.send(packet.src, Disconnect(), Disconnect().wire_size(), flow="mqtt")
            return
        session.last_seen = self.sim.clock.now
        if kind is Publish:
            self._on_publish(session, mqtt_packet)
        elif kind is PingReq:
            self.send(session.address, _PINGRESP, _PINGRESP_SIZE, flow="mqtt")
        elif kind is PubAck:
            session.outbox.on_puback(mqtt_packet)
        elif kind is PubRec:
            session.outbox.on_pubrec(mqtt_packet)
        elif kind is PubRel:
            session.inbox.on_pubrel(mqtt_packet)
            release = getattr(session, "_qos2_release", {}).pop(mqtt_packet.packet_id, None)
            if release is not None:
                self._route_publish(release, origin=session)
        elif kind is PubComp:
            session.outbox.on_pubcomp(mqtt_packet)
        elif kind is Subscribe:
            self._on_subscribe(session, mqtt_packet)
        elif kind is Unsubscribe:
            self._on_unsubscribe(session, mqtt_packet)
        elif kind is Disconnect:
            self._disconnect_session(session, drop_will=True)

    # -- CONNECT -----------------------------------------------------------

    def _on_connect(self, src_address: str, connect: Connect) -> None:
        code = ConnectReturnCode.ACCEPTED
        if not connect.client_id:
            code = ConnectReturnCode.IDENTIFIER_REJECTED
        elif self.authenticator is not None:
            code = self.authenticator(connect)
        if code is not ConnectReturnCode.ACCEPTED:
            self.stats.rejected_connects += 1
            self.sim.trace.emit(
                self.sim.now, "mqtt", "connect rejected",
                broker=self.address, client=connect.client_id, code=int(code),
            )
            self.send(src_address, ConnAck(return_code=code), ConnAck().wire_size(), flow="mqtt")
            return

        existing = self.sessions.get(connect.client_id)
        session_present = False
        if existing is not None and existing.connected:
            # Session takeover: the old connection is dropped.
            self._disconnect_session(existing, drop_will=False)
            existing = self.sessions.get(connect.client_id)

        if connect.clean_session or existing is None:
            if existing is not None:
                # A clean connect discards the persistent session it replaces.
                self._drop_session_routes(existing)
            session = BrokerSession(self, connect.client_id, src_address, connect)
            self.sessions[connect.client_id] = session
        else:
            session = existing
            session_present = True
            session.address = src_address
            session.connected = True
            session.keepalive_s = connect.keepalive_s
            session.last_seen = self.sim.clock.now
            session.username = connect.username
            if connect.will_topic:
                session.will = (
                    connect.will_topic, connect.will_payload, connect.will_qos, connect.will_retain
                )
        self._address_index[src_address] = connect.client_id
        self._note_session_deadline(session)
        self.arm_sweep()
        self.stats.connects += 1
        self.send(
            src_address,
            ConnAck(return_code=code, session_present=session_present),
            ConnAck().wire_size(),
            flow="mqtt",
        )
        if session_present:
            self._flush_offline_queue(session)

    def _flush_offline_queue(self, session: BrokerSession) -> None:
        for publish in session.offline_queue.drain():
            self._deliver_to(session, publish, publish.qos)

    # -- PUBLISH in -----------------------------------------------------------

    def _on_publish(self, session: BrokerSession, publish: Publish) -> None:
        try:
            validate_topic(publish.topic)
        except TopicError:
            return
        if self.inbound_limit is not None and not self.inbound_limit.admit(self.sim.now):
            # Backpressure: shed before authorization and routing so a
            # flood (E4) costs the broker O(1) per excess packet.  REJECT
            # still completes the QoS handshake — a well-behaved client
            # must not amplify the flood with retransmissions — while
            # DROP_NEWEST models a truly saturated listener (flights
            # dangle, the sender retries into the same closed window).
            self.stats.shed_backpressure += 1
            if self.inbound_limit.policy is DropPolicy.REJECT:
                if publish.qos == 1:
                    self._send_to(session, PubAck(packet_id=publish.packet_id))
                elif publish.qos == 2:
                    session.inbox.on_publish_qos2(publish)
            return
        if self.authorizer is not None and not self.authorizer(session, "publish", publish.topic):
            self.stats.denied_publish += 1
            self.sim.trace.emit(
                self.sim.now, "mqtt", "publish denied",
                broker=self.address, client=session.client_id, topic=publish.topic,
            )
            # 3.1.1 has no puback error; broker silently drops (but still
            # completes QoS handshakes so the client doesn't retransmit).
            if publish.qos == 1:
                self._send_to(session, PubAck(packet_id=publish.packet_id))
            elif publish.qos == 2:
                session.inbox.on_publish_qos2(publish)
            return
        self.stats.publishes_in += 1
        if publish.qos == 0:
            self._route_publish(publish, origin=session)
        elif publish.qos == 1:
            self._send_to(session, PubAck(packet_id=publish.packet_id))
            self._route_publish(publish, origin=session)
        else:  # QoS 2: route on PUBREL (exactly once)
            first = session.inbox.on_publish_qos2(publish)
            if first:
                if not hasattr(session, "_qos2_release"):
                    session._qos2_release = {}
                session._qos2_release[publish.packet_id] = publish

    # -- routing -----------------------------------------------------------

    def _route_publish(self, publish: Publish, origin: Optional[BrokerSession]) -> None:
        tracer = self.sim.tracer
        route_span = None
        route_ctx = publish.trace_ctx
        if tracer.enabled and publish.trace_ctx is not None:
            # Never mutate the inbound publish: in the simulated network it
            # is the *same object* the sender's outbox holds for QoS
            # retransmission.  The route span's context travels only on the
            # fresh outbound copies built below.
            route_span = tracer.start_span(
                "broker.route",
                "mqtt",
                parent=publish.trace_ctx,
                broker=self.address,
                topic=publish.topic,
            )
            if route_span is not None:
                route_ctx = route_span.ctx
        if publish.retain:
            if publish.payload:
                self.retained[publish.topic] = Publish(
                    topic=publish.topic, payload=publish.payload, qos=publish.qos, retain=True
                )
            else:
                # Zero-byte retained payload clears the retained message.
                self.retained.pop(publish.topic, None)
        # Indexed hot path: the trie yields only the (client, filter) pairs
        # whose filter matches, in O(topic depth); the old code scanned
        # every filter of every session.  Delivery order is unchanged —
        # the matched client set is sorted by client_id exactly as the
        # full sorted-session scan produced it.
        matched = self._routes.match(publish.topic)
        self.route_candidates += len(matched)
        granted: Dict[str, int] = {}
        for client_id, qos in matched:
            best = granted.get(client_id)
            if best is None or qos > best:
                granted[client_id] = qos
        if self.verify_routing:
            self._check_routing_equivalence(publish.topic, granted)
        for client_id in sorted(granted):
            session = self.sessions.get(client_id)
            if session is None:
                continue
            effective_qos = min(granted[client_id], publish.qos)
            if not session.connected:
                if not session.clean_session and effective_qos > 0:
                    session.offline_queue.push(
                        Publish(
                            topic=publish.topic,
                            payload=publish.payload,
                            qos=effective_qos,
                            trace_ctx=route_ctx,
                        )
                    )
                continue
            self._deliver_to(session, publish, effective_qos, ctx=route_ctx)
        if route_span is not None:
            tracer.end_span(route_span)

    def _check_routing_equivalence(self, topic: str, granted: Dict[str, int]) -> None:
        """Compare the trie's routing decision with the linear reference."""
        reference = {
            client_id: session.granted_qos(topic)
            for client_id, session in self.sessions.items()
            if session.granted_qos(topic) is not None
        }
        if reference != granted:
            raise RoutingMismatchError(
                f"indexed routing diverged for topic {topic!r}: "
                f"trie={dict(sorted(granted.items()))} scan={dict(sorted(reference.items()))}"
            )

    def _deliver_to(
        self, session: BrokerSession, publish: Publish, qos: int, ctx: Optional[object] = None
    ) -> None:
        outbound = Publish(
            topic=publish.topic,
            payload=publish.payload,
            qos=qos,
            retain=False,
            trace_ctx=ctx if ctx is not None else publish.trace_ctx,
        )
        self.stats.publishes_out += 1
        if qos == 0:
            self._send_to(session, outbound)
        else:
            if session.outbox.send_publish(outbound) is None:
                self.stats.dropped_overload += 1

    # -- SUBSCRIBE / UNSUBSCRIBE --------------------------------------------------

    def _on_subscribe(self, session: BrokerSession, subscribe: Subscribe) -> None:
        return_codes = []
        granted = []
        for topic_filter, qos in subscribe.subscriptions:
            try:
                validate_filter(topic_filter)
            except TopicError:
                return_codes.append(SUBACK_FAILURE)
                continue
            if self.authorizer is not None and not self.authorizer(session, "subscribe", topic_filter):
                self.stats.denied_subscribe += 1
                self.sim.trace.emit(
                    self.sim.now, "mqtt", "subscribe denied",
                    broker=self.address, client=session.client_id, filter=topic_filter,
                )
                return_codes.append(SUBACK_FAILURE)
                continue
            qos = min(qos, 2)
            session.subscriptions[topic_filter] = qos
            self._routes.insert(topic_filter, session.client_id, qos)
            return_codes.append(qos)
            granted.append((topic_filter, qos))
        self._send_to(session, SubAck(packet_id=subscribe.packet_id, return_codes=tuple(return_codes)))
        # Retained message delivery for each newly granted filter.
        for topic_filter, qos in granted:
            for topic in sorted(self.retained):
                if topic_matches(topic_filter, topic):
                    retained = self.retained[topic]
                    outbound = Publish(
                        topic=retained.topic,
                        payload=retained.payload,
                        qos=min(qos, retained.qos),
                        retain=True,
                    )
                    self.stats.publishes_out += 1
                    if outbound.qos == 0:
                        self._send_to(session, outbound)
                    else:
                        session.outbox.send_publish(outbound)

    def _on_unsubscribe(self, session: BrokerSession, unsubscribe: Unsubscribe) -> None:
        for topic_filter in unsubscribe.filters:
            if session.subscriptions.pop(topic_filter, None) is not None:
                self._routes.discard(topic_filter, session.client_id)
        self._send_to(session, UnsubAck(packet_id=unsubscribe.packet_id))

    # -- fault injection -----------------------------------------------------------

    def restart(self) -> None:
        """Simulate a broker process restart.

        All session state is volatile in this model: connected and
        persistent sessions alike are lost, every QoS flight in progress is
        abandoned (counted by ``Outbox.clear``) and offline queues are
        dropped.  Retained messages survive — brokers persist them to disk.
        Clients discover the restart either through the DISCONNECT answered
        to their next packet or through missed keepalive PINGRESPs, and
        re-establish sessions via their reconnect backoff.
        """
        self.stats.restarts += 1
        self.sim.trace.emit(
            self.sim.now, "mqtt", "broker restarted",
            broker=self.address, sessions_lost=len(self.sessions),
        )
        for session in list(self.sessions.values()):
            session.connected = False
            session.will = None
            session.outbox.clear()
            session.inbox.clear()
            session.offline_queue.clear()
        self.sessions.clear()
        self._address_index.clear()
        self._routes.clear()
        self._deadlines.clear()
        self.arm_sweep()

    # -- inspection -----------------------------------------------------------

    def connected_clients(self) -> List[str]:
        return sorted(cid for cid, s in self.sessions.items() if s.connected)
