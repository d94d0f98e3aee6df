"""Policy Decision Point (AuthZForce equivalent, XACML-style).

Policies match on subject attributes (role, farm), a resource pattern and
an action set, and carry an effect.  The combining algorithm is
**deny-overrides, deny-unless-permit**: an explicit matching deny wins; no
matching permit means deny.  The farm-isolation rule the paper requires is
expressed with the ``same_farm`` flag: the resource must embed the
subject's own farm (``swamp/<farm>/...`` or ``urn:...:<farm>:...``).
"""

import re
from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.security.auth.identity import Principal


@dataclass
class Policy:
    name: str
    effect: str  # "permit" | "deny"
    actions: Set[str]
    resource_pattern: str  # regex over the resource string
    roles: Optional[Set[str]] = None  # None = any role
    farms: Optional[Set[str]] = None  # None = any farm
    same_farm: bool = False
    _regex: re.Pattern = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.effect not in ("permit", "deny"):
            raise ValueError(f"effect must be permit/deny, got {self.effect!r}")
        self._regex = re.compile(self.resource_pattern)

    def matches(self, principal: Principal, action: str, resource: str) -> bool:
        if action not in self.actions:
            return False
        if not self._regex.search(resource):
            return False
        if self.roles is not None and not (self.roles & principal.roles):
            return False
        if self.farms is not None and principal.farm not in self.farms:
            return False
        if self.same_farm:
            if principal.farm is None or principal.farm not in resource:
                return False
        return True


#: Most verdicts one :class:`PolicyDecisionPoint` memoises.  The next miss
#: on a full memo empties it and counts the entries in ``memo_dropped``.
MEMO_MAX = 4096


class PolicyDecisionPoint:
    """Deny-overrides over ``policies``, with each verdict memoised.

    The memo keys on the inputs :meth:`walk` reads from a request: the
    action, the resource, and the principal's farm and roles (a frozen
    copy, since ``grant_role``/``revoke_role`` change the set in place).
    The walk's other input, ``policies``, is a tuple that only
    :meth:`add_policy` replaces, and it empties the memo; a policy is not
    changed once added.  Token state (revocation, a disabled principal)
    is checked before the PDP, by introspection, so it needs no key.
    """

    def __init__(self) -> None:
        self.policies: Tuple[Policy, ...] = ()
        self.decisions = 0
        self.permits = 0
        self.denies = 0
        self.memo_dropped = 0
        self._memo: Dict[tuple, bool] = {}

    def add_policy(self, policy: Policy) -> None:
        self.policies += (policy,)
        self._memo.clear()

    def walk(self, principal: Principal, action: str, resource: str) -> bool:
        """The verdict from every policy, without the memo or the counts
        (the reference :meth:`decide` must agree with)."""
        permitted = False
        for policy in self.policies:
            if not policy.matches(principal, action, resource):
                continue
            if policy.effect == "deny":
                return False
            permitted = True
        return permitted

    def decide(self, principal: Principal, action: str, resource: str) -> bool:
        """True = permit.  Deny-overrides, deny-unless-permit."""
        self.decisions += 1
        memo = self._memo
        key = (action, resource, principal.farm, frozenset(principal.roles))
        permitted = memo.get(key)
        if permitted is None:
            permitted = self.walk(principal, action, resource)
            if len(memo) >= MEMO_MAX:
                self.memo_dropped += len(memo)
                memo.clear()
            memo[key] = permitted
        if permitted:
            self.permits += 1
        else:
            self.denies += 1
        return permitted
