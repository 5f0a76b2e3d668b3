"""Output checks of the benchmark.

Every function takes plain data and returns a list of problems (empty =
pass), so ``bench/tests`` can feed the failure paths without building a
world.  ``bench/run.py`` runs them for each run and ``bench/suite.py``
adds the cross-repeat determinism check.

No golden digests are committed: later changes cannot edit ``bench/``, so
a legitimate behaviour change must not need to.  Determinism is checked
by comparing runs of one commit with each other.
"""

from __future__ import annotations

import hashlib
from typing import Any, Iterable, Mapping, Sequence

__all__ = [
    "FAILED_SHARE_CEILING",
    "GOSSIP_FAILED_SHARE_CEILING",
    "MEMBER_FLOOR",
    "body_digest",
    "closure_problems",
    "delivery_problems",
    "determinism_problems",
    "failed_share_problems",
    "membership_problems",
    "message_body",
]

MEMBER_FLOOR = 0.9  # share of invited members that must have joined
FAILED_SHARE_CEILING = 0.02  # message workloads: (failed + lost) / attempted
# Gossip workloads: about 1% of PSS exchanges end in the protocol's own
# time-outs under 70% NAT; several times that means NAT traversal broke.
GOSSIP_FAILED_SHARE_CEILING = 0.05
CLOSURE_TOLERANCE = 0.01


def message_body(seed: int, stream: int, seq: int, size: int = 512) -> str:
    """The body of message ``seq`` on ``stream``: a pure function of the
    seed, so the checker can regenerate what the generator sent."""
    block = hashlib.blake2b(
        f"{seed}/{stream}/{seq}".encode(), digest_size=32
    ).hexdigest()
    return (block * (size // len(block) + 1))[:size]


def body_digest(body: str) -> bytes:
    return hashlib.blake2b(body.encode(), digest_size=8).digest()


def delivery_problems(
    seed: int,
    offered: Sequence[int],
    delivered: Iterable[tuple[int, int, bytes]],
    size: int = 512,
) -> list[str]:
    """Every delivered body hashes to what was sent, nothing arrives twice,
    nothing arrives that was not offered (so delivered <= offered).

    ``offered[stream]`` is how many messages the stream offered (sequence
    numbers ``0 .. n-1``); ``delivered`` lists ``(stream, seq, digest of
    the received body)``.
    """
    seen = [bytearray(count) for count in offered]
    duplicates = corrupted = unknown = 0
    first_duplicate = None
    for stream, seq, digest in delivered:
        if not (0 <= stream < len(seen) and 0 <= seq < len(seen[stream])):
            unknown += 1
            continue
        if seen[stream][seq]:
            duplicates += 1
            if first_duplicate is None:
                first_duplicate = (stream, seq)
        seen[stream][seq] = 1
        if digest != body_digest(message_body(seed, stream, seq, size)):
            corrupted += 1
    problems: list[str] = []
    if duplicates:
        problems.append(
            f"{duplicates} duplicate deliveries (first: stream/seq {first_duplicate})"
        )
    if corrupted:
        problems.append(f"{corrupted} delivered bodies do not hash to what was sent")
    if unknown:
        problems.append(f"{unknown} deliveries of messages that were never offered")
    return problems


def membership_problems(joined: int, invited: int, floor: float = MEMBER_FLOOR) -> list[str]:
    if invited and joined / invited < floor:
        return [f"only {joined}/{invited} invited members reached MEMBER (floor {floor:.0%})"]
    return []


def failed_share_problems(
    attempted: int, failed: int, ceiling: float = FAILED_SHARE_CEILING
) -> list[str]:
    """``failed`` is every operation that did not complete, failed or lost."""
    if attempted < 1:
        return ["no operation was attempted"]
    if failed / attempted > ceiling:
        return [f"failed_share {failed}/{attempted} exceeds {ceiling}"]
    return []


def closure_problems(
    parts: Mapping[str, float], whole: float, what: str,
    tolerance: float = CLOSURE_TOLERANCE,
) -> list[str]:
    """The named parts must add up to ``whole`` within ``tolerance``."""
    total = sum(parts.values())
    if whole <= 0 or abs(total - whole) > tolerance * whole:
        return [f"{what}: parts sum to {total:.6f} s, whole is {whole:.6f} s"]
    return []


def determinism_problems(halves: Sequence[Mapping[str, Any]]) -> list[str]:
    """Compare the deterministic halves of same-seed runs of one commit.

    Each half holds ``setup`` (one digest per set-up of the run) and
    ``checkpoints`` (one digest per measured slice: event count, fabric
    counters, delivered set, simulated latencies, bytes charged and, for
    the sharded world, its ``trace_sha``).  A run measures for a fixed
    wall time, so runs cover different numbers of slices; the slices they
    share must agree byte for byte.
    """
    problems: list[str] = []
    setups = {digest for half in halves for digest in half.get("setup", ())}
    if len(setups) > 1:
        problems.append(f"set-up is not deterministic: {len(setups)} distinct digests")
    if len(halves) > 1:
        chains = [half.get("checkpoints", ()) for half in halves]
        shared = min(len(chain) for chain in chains)
        for index in range(shared):
            if len({chain[index] for chain in chains}) > 1:
                problems.append(
                    f"measured phase diverges at slice {index} of {shared} shared slices"
                )
                break
    return problems
