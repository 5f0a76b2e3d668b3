"""Deterministic process-pool execution of experiment sweeps.

Every multi-point experiment in this repository (``fig5`` over Π,
``fig6`` over Π × NAT-fraction, ``fig8`` over group memberships,
``table1`` over churn rates, ``resilience`` over fault scenarios, the
ablation sweeps) is embarrassingly parallel: each sweep point builds its
own seeded :class:`~repro.harness.world.World`, runs it to completion and
reduces it to a small picklable result.  This module dispatches those
points over ``multiprocessing`` workers while keeping the output
**byte-identical regardless of worker count**:

- each point's seed comes from :func:`derive_seed`, a stable hash of
  ``(seed, point-key)`` — never from shared RNG state, never from
  worker identity or scheduling order;
- workers receive one point each (``chunksize=1``) and the results are
  merged back **in point order**, so the reduction the caller performs is
  the same list it would have built sequentially;
- a :class:`SweepSpec`'s worker must be a module-level function taking
  the point as its only argument (the ``spawn`` start method pickles it
  by qualified name).

``workers <= 1`` bypasses ``multiprocessing`` entirely and runs the
points in-process — the default everywhere, preserving single-process
behavior for tests and small runs.  The determinism contract
(``workers=1`` output == ``workers=N`` output) is enforced by
``tests/test_parallel.py`` and the CI ``parallel-smoke`` job.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["SweepSpec", "derive_seed", "default_workers", "run_sweep"]

# 63 bits keeps derived seeds inside the non-negative int range every
# stdlib RNG consumer here accepts.
_SEED_MASK = (1 << 63) - 1


def derive_seed(seed: int, *parts: object) -> int:
    """A stable per-point seed from a base seed and the point's key.

    The additive offsets the sweeps used before PR 5 (``seed + pi +
    round(nf * 100)`` and friends) collide between distinct points —
    e.g. Π=7/nf=0.05 and Π=2/nf=0.10 both land on ``seed + 12`` — which
    silently reuses RNG streams across supposedly independent worlds.
    Hashing the full ``(seed, parts)`` key makes collisions vanishingly
    unlikely while staying reproducible across processes, platforms and
    Python versions (``repr`` of ints/floats/strs/bools is stable, and
    blake2b is part of the format contract).

    ``parts`` should be the point's identity: experiment name plus the
    swept parameter values, as plain scalars.
    """
    material = repr((int(seed), parts)).encode("utf-8")
    digest = hashlib.blake2b(material, digest_size=8).digest()
    return int.from_bytes(digest, "big") & _SEED_MASK


def default_workers() -> int:
    """Worker count that saturates the machine: one per available core."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


@dataclass(frozen=True)
class SweepSpec:
    """One parallelizable sweep: an ordered point list and its worker.

    ``worker`` must be a **module-level** function of one argument (the
    point) returning a picklable result; closures and lambdas break the
    ``spawn`` start method.  Points must themselves be picklable — plain
    tuples of scalars are the norm.
    """

    name: str
    points: tuple[Any, ...]
    worker: Callable[[Any], Any]


def run_sweep(
    spec: SweepSpec,
    workers: int = 1,
    *,
    start_method: str | None = None,
) -> list[Any]:
    """Run every point of ``spec`` and return results in point order.

    ``workers <= 1`` (the default) runs sequentially in-process; higher
    counts dispatch over a ``multiprocessing`` pool, capped at the number
    of points.  Results are position-stable: ``run_sweep(spec, 1) ==
    run_sweep(spec, n)`` for any deterministic worker.

    ``start_method`` overrides the pool's start method (``"fork"`` where
    the OS offers it, else the platform default) — tests use it to pin
    ``spawn`` and prove workers survive re-import.
    """
    points = list(spec.points)
    effective = min(int(workers), len(points))
    if effective <= 1:
        return [spec.worker(point) for point in points]
    if start_method is None:
        start_method = (
            "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        )
    ctx = multiprocessing.get_context(start_method)
    with ctx.Pool(processes=effective) as pool:
        # chunksize=1: points are coarse (whole simulated worlds), so
        # per-task dispatch overhead is noise and scheduling stays even.
        return pool.map(spec.worker, points, chunksize=1)
