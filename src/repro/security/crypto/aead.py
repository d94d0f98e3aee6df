"""Authenticated encryption (encrypt-then-MAC, HMAC-SHA256 throughout).

The keystream is HMAC-SHA256 used as a PRF in counter mode over the nonce
(a standard construction); the tag is HMAC-SHA256 over
``nonce || associated_data || ciphertext`` with an independent key.  Wire
format::

    nonce (12B) || ciphertext || tag (16B, truncated HMAC)

Simulation-grade (see package docstring) but structurally faithful: wrong
key, flipped bit, truncation and nonce reuse across different plaintexts
all behave as the real thing would.
"""

import hashlib
import hmac

NONCE_LEN = 12
TAG_LEN = 16
_BLOCK = 32  # keystream bytes per PRF call (the SHA-256 digest size)
_HASH_BLOCK = 64  # SHA-256 input block size, RFC 2104's B
_IPAD = bytes(x ^ 0x36 for x in range(256))
_OPAD = bytes(x ^ 0x5C for x in range(256))


class AeadError(Exception):
    """Authentication failure on open."""


class HmacKey:
    """HMAC-SHA256 under one key, with the key absorbed once.

    RFC 2104: ``HMAC(K, m) = H((K ^ opad) || H((K ^ ipad) || m))``.  The
    two SHA-256 states left after absorbing ``K ^ ipad`` and ``K ^ opad``
    are kept, so each MAC is a ``copy()`` and an ``update()`` on each.
    """

    __slots__ = ("_inner", "_outer")

    def __init__(self, key: bytes) -> None:
        if len(key) > _HASH_BLOCK:
            key = hashlib.sha256(key).digest()
        key = key.ljust(_HASH_BLOCK, b"\x00")
        self._inner = hashlib.sha256(key.translate(_IPAD))
        self._outer = hashlib.sha256(key.translate(_OPAD))

    def digest(self, message: bytes) -> bytes:
        inner = self._inner.copy()
        inner.update(message)
        outer = self._outer.copy()
        outer.update(inner.digest())
        return outer.digest()


class AeadKey:
    """One direction's encryption and MAC keys, each keyed once."""

    __slots__ = ("_enc", "_mac")

    def __init__(self, enc_key: bytes, mac_key: bytes) -> None:
        self._enc = HmacKey(enc_key)
        self._mac = HmacKey(mac_key)

    def _xor_keystream(self, nonce: bytes, data: bytes) -> bytes:
        length = len(data)
        prf = self._enc.digest
        keystream = b"".join(
            [prf(nonce + counter.to_bytes(4, "big")) for counter in range(-(-length // _BLOCK))]
        )
        mixed = int.from_bytes(data, "big") ^ int.from_bytes(keystream[:length], "big")
        return mixed.to_bytes(length, "big")

    def seal(self, nonce: bytes, plaintext: bytes, associated_data: bytes = b"") -> bytes:
        if len(nonce) != NONCE_LEN:
            raise ValueError(f"nonce must be {NONCE_LEN} bytes")
        ciphertext = self._xor_keystream(nonce, plaintext)
        tag = self._mac.digest(nonce + associated_data + ciphertext)[:TAG_LEN]
        return nonce + ciphertext + tag

    def open(self, sealed: bytes, associated_data: bytes = b"") -> bytes:
        if len(sealed) < NONCE_LEN + TAG_LEN:
            raise AeadError("sealed payload too short")
        nonce = sealed[:NONCE_LEN]
        ciphertext = sealed[NONCE_LEN:-TAG_LEN]
        expected = self._mac.digest(nonce + associated_data + ciphertext)[:TAG_LEN]
        if not hmac.compare_digest(sealed[-TAG_LEN:], expected):
            raise AeadError("authentication failed")
        return self._xor_keystream(nonce, ciphertext)


def seal_payload(
    enc_key: bytes, mac_key: bytes, nonce: bytes, plaintext: bytes, associated_data: bytes = b""
) -> bytes:
    return AeadKey(enc_key, mac_key).seal(nonce, plaintext, associated_data)


def open_payload(
    enc_key: bytes, mac_key: bytes, sealed: bytes, associated_data: bytes = b""
) -> bytes:
    return AeadKey(enc_key, mac_key).open(sealed, associated_data)
