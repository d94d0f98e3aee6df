"""Finite-field Diffie-Hellman over the RFC 3526 2048-bit MODP group.

Private keys come from the deterministic experiment RNG (so runs are
reproducible); in the real platform they would come from the OS CSPRNG.
"""

import functools
from typing import Tuple

from repro.simkernel.rng import SeededStream

# RFC 3526 group 14 (2048-bit MODP), generator 2.
MODP_PRIME = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD1"
    "29024E088A67CC74020BBEA63B139B22514A08798E3404DD"
    "EF9519B3CD3A431B302B0A6DF25F14374FE1356D6D51C245"
    "E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3D"
    "C2007CB8A163BF0598DA48361C55D39A69163FA8FD24CF5F"
    "83655D23DCA3AD961C62F356208552BB9ED529077096966D"
    "670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9"
    "DE2BCBF6955817183995497CEA956AE515D2261898FA0510"
    "15728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)
GENERATOR = 2

# The generator's fixed-base comb reads a 256-bit exponent as 8 rows of
# 32 bits, so one 256-entry table serves every private key.
_COMB_ROWS = 8
_COMB_WIDTH = 32


@functools.lru_cache(maxsize=1)
def _comb_table() -> Tuple[int, ...]:
    """Entry ``i`` is the product of ``GENERATOR ** 2**(32*r)`` over the set bits ``r`` of ``i``.

    Built on first use, once per process, from 255 products and 256 squarings.
    """
    table = [1]
    base = GENERATOR
    for _ in range(_COMB_ROWS):
        table += [entry * base % MODP_PRIME for entry in table]
        for _ in range(_COMB_WIDTH):
            base = base * base % MODP_PRIME
    return tuple(table)


def generator_power(exponent: int) -> int:
    """``pow(GENERATOR, exponent, MODP_PRIME)``, by a Lim-Lee fixed-base comb.

    Column ``c`` of the exponent's rows (bit ``c`` of each 32-bit row)
    indexes one table entry, so a power costs 32 squarings and at most 32
    products where ``pow`` spends about 384 operations.  Exponents outside
    ``[0, 2**256)`` go to ``pow``.
    """
    if not 0 <= exponent < 1 << (_COMB_ROWS * _COMB_WIDTH):
        return pow(GENERATOR, exponent, MODP_PRIME)
    table = _comb_table()
    rows = [exponent >> (_COMB_WIDTH * row) for row in range(_COMB_ROWS)]
    result = 1
    for column in range(_COMB_WIDTH - 1, -1, -1):
        result = result * result % MODP_PRIME
        index = 0
        for row, bits in enumerate(rows):
            index |= (bits >> column & 1) << row
        if index:
            result = result * table[index] % MODP_PRIME
    return result


class DhKeyPair:
    """One party's ephemeral key pair."""

    def __init__(self, rng: SeededStream) -> None:
        # 256 bits of private exponent is ample for the group.
        self.private = int.from_bytes(rng.token_bytes(32), "big") | 1
        self.public = generator_power(self.private)

    def shared_with(self, peer_public: int) -> bytes:
        return shared_secret(self.private, peer_public)


def shared_secret(private: int, peer_public: int) -> bytes:
    """The DH shared secret as fixed-width bytes."""
    if not 1 < peer_public < MODP_PRIME - 1:
        raise ValueError("invalid peer public key")
    value = pow(peer_public, private, MODP_PRIME)
    return value.to_bytes(256, "big")
