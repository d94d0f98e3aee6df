"""Named, seeded random streams.

Every stochastic component (weather, radio loss, sensor noise, attacker
timing...) draws from its *own* stream, derived deterministically from the
experiment's master seed and the stream name.  Adding a new component or
changing how often one component draws therefore never perturbs any other
component's sequence — the property that makes ablation experiments
comparable across code revisions.
"""

import hashlib
import random
from typing import Dict, Sequence, TypeVar

T = TypeVar("T")


def derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit child seed from ``master_seed`` and a stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class SeededStream:
    """A thin wrapper over :class:`random.Random` with convenience draws."""

    def __init__(self, seed: int, name: str = "") -> None:
        self.name = name
        self.seed = seed
        self._rng = random.Random(seed)

    def random(self) -> float:
        return self._rng.random()

    def uniform(self, low: float, high: float) -> float:
        return self._rng.uniform(low, high)

    def randint(self, low: int, high: int) -> int:
        return self._rng.randint(low, high)

    def gauss(self, mu: float = 0.0, sigma: float = 1.0) -> float:
        return self._rng.gauss(mu, sigma)

    def expovariate(self, rate: float) -> float:
        return self._rng.expovariate(rate)

    def choice(self, seq: Sequence[T]) -> T:
        return self._rng.choice(seq)

    def sample(self, seq: Sequence[T], k: int) -> list:
        return self._rng.sample(list(seq), k)

    def shuffle(self, items: list) -> None:
        self._rng.shuffle(items)

    def bernoulli(self, p: float) -> bool:
        """True with probability ``p``."""
        return self._rng.random() < p

    def bounded_gauss(self, mu: float, sigma: float, low: float, high: float) -> float:
        """Gaussian draw clamped to ``[low, high]``."""
        return max(low, min(high, self._rng.gauss(mu, sigma)))

    def token_bytes(self, n: int) -> bytes:
        """Deterministic pseudo-random bytes (for simulated keys/nonces)."""
        return bytes(self._rng.getrandbits(8) for _ in range(n))

    def getstate(self) -> tuple:
        """The underlying :meth:`random.Random.getstate` tuple (picklable)."""
        return self._rng.getstate()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SeededStream(name={self.name!r}, seed={self.seed})"


class RngRegistry:
    """Factory and cache of named :class:`SeededStream` objects."""

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, SeededStream] = {}

    def stream(self, name: str) -> SeededStream:
        """Return the stream for ``name``, creating it deterministically."""
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        stream = SeededStream(derive_seed(self.master_seed, name), name)
        self._streams[name] = stream
        return stream

    def fork(self, name: str) -> "RngRegistry":
        """A child registry whose master seed is derived from ``name``.

        Useful for parameter sweeps: each sweep point forks the registry so
        points are independent yet reproducible.
        """
        return RngRegistry(derive_seed(self.master_seed, f"fork:{name}"))

    def stream_names(self) -> list:
        return sorted(self._streams)

    def stream_states(self) -> Dict[str, tuple]:
        """Every created stream's :meth:`random.Random.getstate` tuple, by name.

        Streams not yet created are absent: derivation is a pure function
        of master seed and name, so one created later starts from the
        same state in every run.
        """
        return {
            name: stream.getstate()
            for name, stream in sorted(self._streams.items())
        }
