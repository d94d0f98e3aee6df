"""Tests for identity, OAuth2, PDP policies and the PEP proxy."""

import pytest

from repro.mqtt import Connect, ConnectReturnCode
from repro.security.auth import (
    IdentityManager,
    OAuthError,
    OAuthServer,
    PepProxy,
    Policy,
    PolicyDecisionPoint,
)
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
