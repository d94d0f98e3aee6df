"""Policy Enforcement Point (Wilma equivalent) + audit log.

The PEP fronts every protected API: it introspects the bearer token with
the OAuth server, asks the PDP, records an audit entry and returns the
verdict.  A caller that has introspected the token itself (the north-facing
service, which needs the principal first) passes the :class:`Token` to
:meth:`PepProxy.authorize` instead, so each request introspects once.  It
also provides the MQTT broker ``authenticator``/``authorizer`` hooks
(device CONNECT with token-as-password, per-farm topic ACLs).
"""

from collections import deque
from dataclasses import dataclass
from typing import Deque, List, Optional

from repro.mqtt.broker import BrokerSession
from repro.mqtt.packets import Connect, ConnectReturnCode
from repro.security.auth.oauth import OAuthServer, Token
from repro.security.auth.pdp import PolicyDecisionPoint
from repro.simkernel.simulator import Simulator


@dataclass
class AuditRecord:
    time: float
    principal: Optional[str]
    action: str
    resource: str
    allowed: bool
    reason: str


class PepProxy:
    def __init__(
        self,
        sim: Simulator,
        oauth: OAuthServer,
        pdp: PolicyDecisionPoint,
        max_audit_records: int = 100_000,
    ) -> None:
        self.sim = sim
        self.oauth = oauth
        self.pdp = pdp
        # The newest ``max_audit_records`` records; older ones are counted
        # in ``audit_dropped`` as they fall off the front.
        self.audit_log: Deque[AuditRecord] = deque(maxlen=max_audit_records)
        self.audit_dropped = 0
        self.allowed_count = 0
        self.denied_count = 0
        sim.metrics.register_counter("security.auth_checks", lambda: self.allowed_count,
                                     {"verdict": "allowed"})
        sim.metrics.register_counter("security.auth_checks", lambda: self.denied_count,
                                     {"verdict": "denied"})

    def _audit(self, principal: Optional[str], action: str, resource: str,
               allowed: bool, reason: str) -> None:
        if len(self.audit_log) == self.audit_log.maxlen:
            self.audit_dropped += 1
        self.audit_log.append(
            AuditRecord(self.sim.now, principal, action, resource, allowed, reason)
        )
        if allowed:
            self.allowed_count += 1
        else:
            self.denied_count += 1

    # -- generic enforcement -----------------------------------------------------

    def check(self, access_token: str, action: str, resource: str) -> bool:
        token = self.oauth.introspect(access_token)
        if token is None:
            self._audit(None, action, resource, False, "invalid-token")
            return False
        return self.authorize(token, action, resource)

    def authorize(self, token: Token, action: str, resource: str) -> bool:
        """The PDP verdict for a token the caller has just introspected."""
        principal = self.oauth.identity.get(token.principal_id)
        allowed = self.pdp.decide(principal, action, resource)
        self._audit(
            principal.principal_id, action, resource, allowed,
            "pdp-permit" if allowed else "pdp-deny",
        )
        return allowed

    # -- MQTT adapters -----------------------------------------------------------

    def mqtt_authenticator(self, connect: Connect) -> ConnectReturnCode:
        """Broker CONNECT hook: the password field carries a bearer token."""
        token = self.oauth.introspect(connect.password or "")
        if token is None:
            self._audit(connect.client_id, "connect", "mqtt", False, "invalid-token")
            return ConnectReturnCode.BAD_CREDENTIALS
        principal = self.oauth.identity.get(token.principal_id)
        if principal is None:
            self._audit(connect.client_id, "connect", "mqtt", False, "unknown-principal")
            return ConnectReturnCode.NOT_AUTHORIZED
        self._audit(principal.principal_id, "connect", "mqtt", True, "token-ok")
        return ConnectReturnCode.ACCEPTED

    def mqtt_authorizer(self, session: BrokerSession, action: str, topic: str) -> bool:
        """Broker publish/subscribe hook, backed by the PDP."""
        principal = self.oauth.identity.get(session.client_id) or (
            self.oauth.identity.get(session.username) if session.username else None
        )
        if principal is None:
            self._audit(session.client_id, action, topic, False, "unknown-principal")
            return False
        allowed = self.pdp.decide(principal, action, topic)
        self._audit(
            principal.principal_id, action, topic, allowed,
            "pdp-permit" if allowed else "pdp-deny",
        )
        return allowed

    # -- reporting -----------------------------------------------------------

    def denied_records(self) -> List[AuditRecord]:
        return [r for r in self.audit_log if not r.allowed]
