"""Tests for identity, OAuth2, PDP policies and the PEP proxy."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mqtt import Connect, ConnectReturnCode
from repro.security.auth import (
    IdentityManager,
    OAuthError,
    OAuthServer,
    PepProxy,
    Policy,
    PolicyDecisionPoint,
)
from repro.security.auth.identity import Principal
from repro.security.auth.pdp import MEMO_MAX
from repro.simkernel import Simulator


def make_stack(seed=0, ttl=3600.0):
    sim = Simulator(seed=seed)
    identity = IdentityManager(sim.rng.stream("idm"))
    oauth = OAuthServer(sim, identity, sim.rng.stream("oauth"), access_token_ttl_s=ttl)
    pdp = PolicyDecisionPoint()
    pep = PepProxy(sim, oauth, pdp)
    return sim, identity, oauth, pdp, pep


class TestIdentity:
    def test_register_and_verify(self):
        _, identity, *_ = make_stack()
        identity.register("alice", "s3cret", farm="farmA", roles={"farmer"})
        principal = identity.verify("alice", "s3cret")
        assert principal is not None
        assert principal.farm == "farmA"
        assert "farmer" in principal.roles

    def test_wrong_password(self):
        _, identity, *_ = make_stack()
        identity.register("alice", "s3cret")
        assert identity.verify("alice", "wrong") is None

    def test_unknown_principal(self):
        _, identity, *_ = make_stack()
        assert identity.verify("ghost", "x") is None

    def test_duplicate_registration_rejected(self):
        _, identity, *_ = make_stack()
        identity.register("alice", "x")
        with pytest.raises(ValueError):
            identity.register("alice", "y")

    def test_invalid_kind_rejected(self):
        _, identity, *_ = make_stack()
        with pytest.raises(ValueError):
            identity.register("x", "y", kind="alien")

    def test_disable_blocks_verify(self):
        _, identity, *_ = make_stack()
        identity.register("alice", "x")
        identity.disable("alice")
        assert identity.verify("alice", "x") is None
        identity.enable("alice")
        assert identity.verify("alice", "x") is not None

    def test_role_management(self):
        _, identity, *_ = make_stack()
        identity.register("alice", "x")
        identity.grant_role("alice", "admin")
        assert "admin" in identity.get("alice").roles
        identity.revoke_role("alice", "admin")
        assert "admin" not in identity.get("alice").roles

    def test_farm_listing(self):
        _, identity, *_ = make_stack()
        identity.register("a", "x", farm="farmA")
        identity.register("b", "x", farm="farmB")
        identity.register("c", "x", farm="farmA")
        assert [p.principal_id for p in identity.principals_of_farm("farmA")] == ["a", "c"]

    def test_password_not_stored_plaintext(self):
        _, identity, *_ = make_stack()
        principal = identity.register("alice", "hunter2")
        assert b"hunter2" not in principal.credential_hash
        assert principal.credential_hash != b""


class TestOAuth:
    def test_password_grant(self):
        sim, identity, oauth, *_ = make_stack()
        identity.register("alice", "pw", farm="farmA")
        token = oauth.password_grant("alice", "pw")
        assert oauth.introspect(token.access_token) is token
        assert token.refresh_token is not None

    def test_bad_credentials_raise(self):
        _, identity, oauth, *_ = make_stack()
        identity.register("alice", "pw")
        with pytest.raises(OAuthError):
            oauth.password_grant("alice", "wrong")
        assert oauth.rejected_count == 1

    def test_token_expiry_on_sim_clock(self):
        sim, identity, oauth, *_ = make_stack(ttl=100.0)
        identity.register("alice", "pw")
        token = oauth.password_grant("alice", "pw")
        sim.schedule(50.0, lambda: None)
        sim.run()
        assert oauth.introspect(token.access_token) is not None
        sim.schedule(60.0, lambda: None)
        sim.run()
        assert oauth.introspect(token.access_token) is None

    def test_client_credentials_only_for_services(self):
        _, identity, oauth, *_ = make_stack()
        identity.register("sched", "key", kind="service")
        identity.register("alice", "pw", kind="user")
        assert oauth.client_credentials_grant("sched", "key") is not None
        with pytest.raises(OAuthError):
            oauth.client_credentials_grant("alice", "pw")

    def test_device_grant_only_for_devices(self):
        _, identity, oauth, *_ = make_stack()
        identity.register("probe1", "devkey", kind="device", farm="farmA")
        token = oauth.device_grant("probe1", "devkey")
        assert token.scope == "telemetry"
        with pytest.raises(OAuthError):
            oauth.device_grant("probe1", "wrong")

    def test_password_grant_rejects_devices(self):
        _, identity, oauth, *_ = make_stack()
        identity.register("probe1", "devkey", kind="device")
        with pytest.raises(OAuthError):
            oauth.password_grant("probe1", "devkey")

    def test_refresh_rotation(self):
        _, identity, oauth, *_ = make_stack()
        identity.register("alice", "pw")
        token1 = oauth.password_grant("alice", "pw")
        token2 = oauth.refresh_grant(token1.refresh_token)
        assert token2.access_token != token1.access_token
        # Old refresh token is single-use.
        with pytest.raises(OAuthError):
            oauth.refresh_grant(token1.refresh_token)
        # Old access token is revoked by rotation.
        assert oauth.introspect(token1.access_token) is None

    def test_refresh_of_disabled_principal_fails(self):
        _, identity, oauth, *_ = make_stack()
        identity.register("alice", "pw")
        token = oauth.password_grant("alice", "pw")
        identity.disable("alice")
        with pytest.raises(OAuthError):
            oauth.refresh_grant(token.refresh_token)

    def test_revocation(self):
        _, identity, oauth, *_ = make_stack()
        identity.register("alice", "pw")
        token = oauth.password_grant("alice", "pw")
        oauth.revoke(token.access_token)
        assert oauth.introspect(token.access_token) is None

    def test_revoke_principal_kills_all_tokens(self):
        _, identity, oauth, *_ = make_stack()
        identity.register("alice", "pw")
        tokens = [oauth.password_grant("alice", "pw") for _ in range(3)]
        assert oauth.revoke_principal("alice") == 3
        assert all(oauth.introspect(t.access_token) is None for t in tokens)

    def test_disabled_principal_token_inactive(self):
        _, identity, oauth, *_ = make_stack()
        identity.register("alice", "pw")
        token = oauth.password_grant("alice", "pw")
        identity.disable("alice")
        assert oauth.introspect(token.access_token) is None


class TestPdp:
    def make_principal(self, identity, name="alice", farm="farmA", roles=("farmer",)):
        return identity.register(name, "pw", farm=farm, roles=set(roles))

    def test_deny_unless_permit(self):
        _, identity, _, pdp, _ = make_stack()
        principal = self.make_principal(identity)
        assert not pdp.decide(principal, "read", "anything")

    def test_permit_policy(self):
        _, identity, _, pdp, _ = make_stack()
        principal = self.make_principal(identity)
        pdp.add_policy(Policy("farmers-read", "permit", {"read"}, r"^swamp/", roles={"farmer"}))
        assert pdp.decide(principal, "read", "swamp/farmA/attrs/p1")
        assert not pdp.decide(principal, "write", "swamp/farmA/attrs/p1")

    def test_deny_overrides(self):
        _, identity, _, pdp, _ = make_stack()
        principal = self.make_principal(identity)
        pdp.add_policy(Policy("allow-all", "permit", {"read"}, r".*"))
        pdp.add_policy(Policy("block-secrets", "deny", {"read"}, r"secret"))
        assert pdp.decide(principal, "read", "normal/topic")
        assert not pdp.decide(principal, "read", "very/secret/topic")

    def test_same_farm_isolation(self):
        _, identity, _, pdp, _ = make_stack()
        alice = self.make_principal(identity, "alice", farm="farmA")
        bob = self.make_principal(identity, "bob", farm="farmB")
        pdp.add_policy(
            Policy("own-farm", "permit", {"read", "publish", "subscribe"},
                   r"^swamp/", same_farm=True)
        )
        assert pdp.decide(alice, "read", "swamp/farmA/attrs/p1")
        assert not pdp.decide(alice, "read", "swamp/farmB/attrs/p1")
        assert pdp.decide(bob, "read", "swamp/farmB/attrs/p1")

    def test_role_scoping(self):
        _, identity, _, pdp, _ = make_stack()
        admin = self.make_principal(identity, "root", roles=("admin",))
        viewer = self.make_principal(identity, "view", roles=("viewer",))
        pdp.add_policy(Policy("admin-write", "permit", {"write"}, r".*", roles={"admin"}))
        assert pdp.decide(admin, "write", "x")
        assert not pdp.decide(viewer, "write", "x")

    def test_invalid_effect_rejected(self):
        with pytest.raises(ValueError):
            Policy("bad", "maybe", {"read"}, r".*")

    def test_counters(self):
        _, identity, _, pdp, _ = make_stack()
        principal = self.make_principal(identity)
        pdp.add_policy(Policy("p", "permit", {"read"}, r".*"))
        pdp.decide(principal, "read", "x")
        pdp.decide(principal, "write", "x")
        assert pdp.decisions == 2 and pdp.permits == 1 and pdp.denies == 1


#: Policies the memo property test adds, in any order, repeats allowed.
_MEMO_POLICIES = (
    Policy("own-farm", "permit", {"read", "publish"}, r"^swamp/", same_farm=True),
    Policy("farmers-read", "permit", {"read"}, r"^urn:", roles={"farmer"}),
    Policy("admin-all", "permit", {"read", "write", "publish"}, r".*", roles={"admin"}),
    Policy("farm-b-write", "permit", {"write"}, r"^swamp/", farms={"farmB"}),
    Policy("no-secrets", "deny", {"read", "write"}, r"secret"),
    Policy("viewers-no-write", "deny", {"write"}, r".*", roles={"viewer"}),
)
_ROLES = ("farmer", "admin", "viewer")
_FARMS = ("farmA", "farmB", None)
_who = st.integers(0, 2)
_memo_ops = st.lists(st.one_of(
    st.tuples(st.just("decide"), _who, st.sampled_from(("read", "write", "publish")),
              st.sampled_from(("swamp/farmA/x", "swamp/farmB/x", "urn:e:1",
                               "swamp/farmA/secret", "other"))),
    st.tuples(st.just("add"), st.integers(0, len(_MEMO_POLICIES) - 1)),
    st.tuples(st.just("grant"), _who, st.sampled_from(_ROLES)),
    st.tuples(st.just("revoke"), _who, st.sampled_from(_ROLES)),
    st.tuples(st.just("farm"), _who, st.sampled_from(_FARMS)),
), max_size=80)


class TestPdpMemo:
    @settings(max_examples=300, deadline=None)
    @given(_memo_ops)
    def test_memo_equals_reference_walk(self, ops):
        """Random interleavings of decisions with every change the walk
        reads: each memoised verdict equals the un-memoised walk, and the
        counts tally every call."""
        _, identity, _, pdp, _ = make_stack()
        principals = [
            identity.register("alice", "pw", farm="farmA", roles={"farmer"}),
            identity.register("bob", "pw", farm="farmB"),
            # A distinct object with alice's id: the memo must not key on it.
            Principal("alice", "user", "farmB", {"viewer"}),
        ]
        decisions = permits = 0
        for op, *args in ops:
            if op == "decide":
                principal = principals[args[0]]
                expected = pdp.walk(principal, args[1], args[2])
                assert pdp.decide(principal, args[1], args[2]) == expected
                decisions += 1
                permits += expected
            elif op == "add":
                pdp.add_policy(_MEMO_POLICIES[args[0]])
            elif op in ("grant", "revoke"):
                who, role = args
                if who < 2:
                    change = identity.grant_role if op == "grant" else identity.revoke_role
                    change(principals[who].principal_id, role)
                elif op == "grant":
                    principals[who].roles.add(role)
                else:
                    principals[who].roles.discard(role)
            else:
                principals[args[0]].farm = args[1]
        assert pdp.decisions == decisions
        assert pdp.permits == permits
        assert pdp.denies == decisions - permits

    def test_add_policy_invalidates_memo(self):
        _, identity, _, pdp, _ = make_stack()
        alice = identity.register("alice", "pw", farm="farmA", roles={"farmer"})
        pdp.add_policy(Policy("p", "permit", {"read"}, r".*"))
        assert pdp.decide(alice, "read", "swamp/farmA/x")
        pdp.add_policy(Policy("d", "deny", {"read"}, r"farmA"))
        assert not pdp.decide(alice, "read", "swamp/farmA/x")
        assert isinstance(pdp.policies, tuple) and len(pdp.policies) == 2

    def test_bound_counts_dropped_entries(self):
        _, identity, _, pdp, _ = make_stack()
        alice = identity.register("alice", "pw", farm="farmA", roles={"farmer"})
        pdp.add_policy(Policy("own", "permit", {"read"}, r"^swamp/farmA/", roles={"farmer"}))
        resources = [f"swamp/farm{'AB'[i % 2]}/r{i}" for i in range(MEMO_MAX + 100)]
        for _round in range(2):
            for resource in resources:
                assert pdp.decide(alice, "read", resource) == pdp.walk(alice, "read", resource)
        calls = 2 * len(resources)
        assert pdp.decisions == calls
        assert pdp.permits == calls // 2 and pdp.denies == calls // 2
        # The resources cycle through more than the bound, so every call
        # missed: each verdict stored is either still held or counted.
        assert 0 < len(pdp._memo) <= MEMO_MAX
        assert pdp.memo_dropped + len(pdp._memo) == calls


class TestPepProxy:
    def test_check_happy_path(self):
        sim, identity, oauth, pdp, pep = make_stack()
        identity.register("alice", "pw", farm="farmA", roles={"farmer"})
        pdp.add_policy(Policy("p", "permit", {"read"}, r"^swamp/", same_farm=True))
        token = oauth.password_grant("alice", "pw")
        assert pep.check(token.access_token, "read", "swamp/farmA/x")
        assert not pep.check(token.access_token, "read", "swamp/farmB/x")
        assert pep.allowed_count == 1 and pep.denied_count == 1

    def test_invalid_token_denied_and_audited(self):
        sim, identity, oauth, pdp, pep = make_stack()
        assert not pep.check("bogus-token", "read", "swamp/farmA/x")
        assert pep.denied_records()[-1].reason == "invalid-token"

    def test_expired_token_denied(self):
        sim, identity, oauth, pdp, pep = make_stack(ttl=10.0)
        identity.register("alice", "pw")
        pdp.add_policy(Policy("p", "permit", {"read"}, r".*"))
        token = oauth.password_grant("alice", "pw")
        sim.schedule(20.0, lambda: None)
        sim.run()
        assert not pep.check(token.access_token, "read", "x")

    def test_mqtt_authenticator_with_token_password(self):
        sim, identity, oauth, pdp, pep = make_stack()
        identity.register("probe1", "devkey", kind="device", farm="farmA")
        token = oauth.device_grant("probe1", "devkey")
        ok = pep.mqtt_authenticator(Connect(client_id="probe1", password=token.access_token))
        assert ok is ConnectReturnCode.ACCEPTED
        bad = pep.mqtt_authenticator(Connect(client_id="probe1", password="stolen"))
        assert bad is ConnectReturnCode.BAD_CREDENTIALS

    def test_mqtt_authorizer_farm_acl(self):
        sim, identity, oauth, pdp, pep = make_stack()
        identity.register("probe1", "devkey", kind="device", farm="farmA")
        pdp.add_policy(
            Policy("dev-pub", "permit", {"publish"}, r"^swamp/", same_farm=True)
        )

        class FakeSession:
            client_id = "probe1"
            username = None

        assert pep.mqtt_authorizer(FakeSession(), "publish", "swamp/farmA/attrs/probe1")
        assert not pep.mqtt_authorizer(FakeSession(), "publish", "swamp/farmB/attrs/x")

    def test_audit_log_bounded(self):
        sim, identity, oauth, pdp, _ = make_stack()
        pep = PepProxy(sim, oauth, pdp, max_audit_records=10)
        for i in range(25):
            pep.check("bogus", "read", f"x{i}")
        assert [r.resource for r in pep.audit_log] == [f"x{i}" for i in range(15, 25)]
        assert pep.audit_dropped == 15
        assert pep.denied_count == 25
