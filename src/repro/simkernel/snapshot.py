"""Versioned, picklable kernel snapshots: the replay fingerprint plus wall time.

A :class:`KernelSnapshot` is what checkpoint restore checks a replay
against (:mod:`repro.core.checkpoint`): the virtual clock, the run's
event count, the pending schedule's signature (``(time, priority, seq,
label)`` per live event, so the tie-break counter is covered), every
named RNG stream's ``random.Random.getstate`` tuple and the trace log's
per-category counts.  It carries no callbacks, processes or trace
records: those are code, or can be re-derived, and a live pilot's
callbacks and generators cannot be pickled anyway.  A restore rebuilds
the kernel by replaying the pilot from time zero and compares
fingerprints; the snapshot's ``wall_time_s`` is then laid over the
replayed run so throughput accounting spans the whole logical run.

``version`` gates compatibility: :func:`compare_fingerprints` reports a
snapshot written by a different format version as a divergence.  Bump
:data:`SNAPSHOT_VERSION` whenever the fingerprint's keys or values
change.
"""

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

#: Format version stamped into every fingerprint.
SNAPSHOT_VERSION = 1

#: The keys of a kernel fingerprint, in comparison order.
_FINGERPRINT_KEYS = (
    "version",
    "time",
    "events_executed",
    "queue_signature",
    "rng",
    "trace_counts",
)


@dataclass
class KernelSnapshot:
    """One kernel's fingerprint at a single simulation instant, plus wall time."""

    version: int
    time: float
    events_executed: int
    wall_time_s: float
    #: ``EventQueue.signature()``.
    queue_signature: Tuple[Tuple[float, int, int, str], ...]
    #: Stream name → ``random.Random.getstate()`` for every created stream.
    rng: Dict[str, Any]
    #: Per-category trace emission totals.
    trace_counts: Dict[str, int]

    def fingerprint(self) -> Dict[str, Any]:
        """The deterministic-state digest used to verify a replay."""
        return {key: getattr(self, key) for key in _FINGERPRINT_KEYS}


def compare_fingerprints(
    expected: Dict[str, Any], actual: Dict[str, Any]
) -> List[str]:
    """Describe every way two kernel fingerprints differ.

    Returns an empty list when they match.  Messages are written for the
    checkpoint-restore failure mode: the snapshot said the kernel should
    look like X at the barrier, the rebuilt replay produced Y — usually
    meaning the code changed between snapshot and restore.
    """
    problems: List[str] = []
    for key in _FINGERPRINT_KEYS:
        if key not in expected or key not in actual:
            if (key in expected) != (key in actual):
                problems.append(f"fingerprint key {key!r} present on one side only")
            continue
        exp, act = expected[key], actual[key]
        if exp == act:
            continue
        if key == "queue_signature":
            problems.append(_describe_queue_divergence(exp, act))
        elif key == "rng":
            problems.append(_describe_rng_divergence(exp, act))
        elif key == "trace_counts":
            drifted = sorted(
                cat
                for cat in set(exp) | set(act)
                if exp.get(cat, 0) != act.get(cat, 0)
            )
            problems.append(f"trace counts differ for categories {drifted}")
        else:
            problems.append(f"{key} differs: expected {exp!r}, got {act!r}")
    return problems


def _describe_queue_divergence(expected: tuple, actual: tuple) -> str:
    if len(expected) != len(actual):
        return (
            f"pending event count differs: expected {len(expected)}, "
            f"got {len(actual)}"
        )
    for i, (exp, act) in enumerate(zip(expected, actual)):
        if exp != act:
            return f"pending event #{i} differs: expected {exp!r}, got {act!r}"
    return "queue signatures differ"


def _describe_rng_divergence(expected: dict, actual: dict) -> str:
    missing = sorted(set(expected) - set(actual))
    extra = sorted(set(actual) - set(expected))
    if missing or extra:
        return f"rng stream sets differ: missing {missing}, unexpected {extra}"
    drifted = sorted(name for name in expected if expected[name] != actual[name])
    return f"rng stream states differ: {drifted}"
