"""``load`` — heavy-traffic workloads over the deployed stack.

Drives the :mod:`repro.workload` scenario catalogue — CBR group streams,
Zipf T-Chord lookups, a flash crowd of joins, hundreds of concurrent
groups — plus a fault variant (``cbr+loss``) that injects a 25% loss burst
mid-stream and asserts the streams actually recover
(:func:`~repro.harness.invariants.check_stream_recovery`).

Each scenario is one sweep point: its own seeded world, reduced to a
per-stream ledger plus a SHA-256 of the full telemetry trace.  The hash
lands in the rendered report, so "same seed ⇒ byte-identical run" is
directly diffable across reruns and worker counts — the open-loop
determinism contract, made visible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

from ..faults.injector import FaultInjector
from ..faults.plan import FaultPlan, LossBurst
from ..harness.invariants import (
    RecoveryViolation,
    check_invariants,
    check_stream_recovery,
)
from ..harness.report import CdfSummary, Report, Table
from ..harness.world import World, WorldConfig
from ..parallel import SweepSpec, derive_seed, run_sweep
from ..workload import build_scenario, world_size
from ..workload.attach import AttachedWorkload

__all__ = ["run", "run_scenario", "LoadResult"]

DEFAULT_SCENARIOS = ("cbr", "zipf", "flash", "multigroup", "cbr+loss")

_WARMUP = 120.0  # PSS/overlay bootstrap before groups form
_CONVERGE = 240.0  # group membership + ring gossip before traffic arms
_DRAIN = 60.0  # post-horizon window for in-flight completions
_LOSS_RATE = 0.25
_RECOVERY_GRACE = 15.0
_LOSS_MIN_DURATION = 120.0  # keep the after-window meaningful at small scales


@dataclass
class LoadResult:
    """One scenario world reduced to its picklable ledger."""

    name: str
    nodes: int
    groups: int
    streams: list[dict[str, object]] = field(default_factory=list)
    latency: dict[str, float] = field(default_factory=dict)  # pooled p50/p95/p99
    offered: int = 0
    completed: int = 0
    failed: int = 0
    lag: int = 0
    goodput_bps: float = 0.0
    trace_sha: str = ""
    # cbr+loss only: window name -> delivery ratio, plus the verdict.
    windows: dict[str, float] = field(default_factory=dict)
    recovered: bool | None = None

    @property
    def delivery_ratio(self) -> float:
        return self.completed / self.offered if self.offered else 0.0


def _point(point) -> LoadResult:
    scenario, point_seed, scale = point
    return run_scenario(scenario, point_seed, scale)


def run(
    scale: float = 1.0,
    seed: int = 7,
    scenarios: tuple[str, ...] | None = None,
    workers: int = 1,
) -> Report:
    report = Report(title="Load — heavy-traffic workloads over PPSS/T-Chord")
    names = scenarios if scenarios is not None else DEFAULT_SCENARIOS
    spec = SweepSpec(
        name="load",
        points=tuple(
            (name, derive_seed(seed, "load", name), scale) for name in names
        ),
        worker=_point,
    )
    results = run_sweep(spec, workers=workers)

    table = Table(
        title=f"scenarios at scale {scale:g} (seed {seed})",
        headers=[
            "Scenario", "Nodes", "Groups", "Streams", "Offered",
            "Delivered", "P95 lat (s)", "Goodput (B/s)", "Lag", "Trace",
        ],
    )
    for result in results:
        table.add_row(
            result.name,
            result.nodes,
            result.groups,
            len(result.streams),
            result.offered,
            f"{result.delivery_ratio:.1%}",
            _fmt_latency(result.latency.get("p95")),
            f"{result.goodput_bps:.1f}",
            result.lag,
            result.trace_sha[:12],
        )
    report.add(table)

    for result in results:
        if result.recovered is None:
            continue
        fault_table = Table(
            title=(
                f"{result.name}: delivery through a {_LOSS_RATE:.0%} "
                "loss burst"
            ),
            headers=["Window", "Delivery", "Verdict"],
        )
        for window in ("before", "during", "after"):
            fault_table.add_row(
                window,
                f"{result.windows.get(window, 0.0):.1%}",
                "recovered" if window == "after" and result.recovered else "",
            )
        report.add(fault_table)
        if not result.recovered:
            report.note(
                f"{result.name}: streams did NOT recover to the pre-fault "
                "delivery level"
            )

    cbr = next((r for r in results if r.name == "cbr"), None)
    if cbr is not None:
        samples = [
            float(row["p50"]) for row in cbr.streams if "p50" in row
        ]
        if samples:
            report.add(
                CdfSummary(
                    title="cbr per-stream median delivery latency",
                    samples=samples,
                    unit="s",
                )
            )
    report.note(
        "Trace = SHA-256 prefix of the full telemetry export: same seed "
        "must print the same hash at any --workers count."
    )
    report.note(
        "Lag counts offered-but-unresolved operations; open-loop arrivals "
        "never slow down, so sustained growth means offered load exceeds "
        "capacity."
    )
    return report


def _fmt_latency(value: object) -> str:
    return f"{value:.3f}" if isinstance(value, float) else "-"


def run_scenario(name: str, seed: int, scale: float = 1.0) -> LoadResult:
    """Run one load scenario in its own world; ``<base>+loss`` variants
    overlay a mid-stream loss burst and window the delivery accounting."""
    with_loss = name.endswith("+loss")
    base = name[: -len("+loss")] if with_loss else name
    spec = build_scenario(base, scale)
    if with_loss:
        # The before/during/after windows each need enough arrivals to
        # make their delivery ratios statistically meaningful, so the
        # fault variant floors every stream's duration.
        spec = replace(
            spec,
            models=tuple(
                replace(m, duration=max(m.duration, _LOSS_MIN_DURATION))
                if hasattr(m, "duration")
                else m
                for m in spec.models
            ),
        )
    world = World(WorldConfig(seed=seed, telemetry_enabled=True))
    world.populate(world_size(spec, scale))
    world.start_all()
    world.run(_WARMUP)
    attached = AttachedWorkload(world, spec, seed=seed)
    world.run(_CONVERGE)
    attached.arm()

    horizon = spec.horizon()
    result = LoadResult(
        name=name, nodes=len(world.nodes), groups=spec.groups
    )
    if with_loss:
        _run_loss_windows(world, attached, horizon, result)
    else:
        world.run(horizon + _DRAIN)
    attached.finish()

    check_invariants(world)
    driver = attached.driver
    result.streams = attached.summary()
    result.offered = driver.offered
    result.completed = driver.completed
    result.failed = driver.failed
    result.lag = driver.lag
    now = world.sim.now
    result.goodput_bps = round(
        sum(a.goodput(now) for a in driver.accounts.values()), 3
    )
    result.latency = _pooled_latency(world)
    result.trace_sha = hashlib.sha256(
        world.telemetry.export_jsonl().encode("utf-8")
    ).hexdigest()
    return result


def _pooled_latency(world: World) -> dict[str, float]:
    """p50/p95/p99 over every stream's latency samples, rounded stably."""
    aggregate = world.telemetry.aggregate(
        "workload.latency", percentiles=(50.0, 95.0, 99.0)
    )
    return {
        key: round(float(value), 4)
        for key, value in aggregate.items()
        if key.startswith("p")
    }


def _run_loss_windows(
    world: World,
    attached: AttachedWorkload,
    horizon: float,
    result: LoadResult,
) -> None:
    """Walk before/during/after windows around a mid-stream loss burst."""
    fault_start = horizon / 3.0
    fault_end = 2.0 * horizon / 3.0
    FaultInjector(
        world,
        FaultPlan.of(
            LossBurst(start=fault_start, end=fault_end, rate=_LOSS_RATE)
        ),
    )
    driver = attached.driver

    def snapshot() -> tuple[int, int]:
        return driver.offered, driver.completed

    def ratio(before: tuple[int, int], after: tuple[int, int]) -> float:
        offered = after[0] - before[0]
        completed = after[1] - before[1]
        return completed / offered if offered else 0.0

    mark = snapshot()
    world.run(fault_start)
    before_mark = snapshot()
    result.windows["before"] = round(ratio(mark, before_mark), 4)
    world.run(fault_end - fault_start)
    during_mark = snapshot()
    result.windows["during"] = round(ratio(before_mark, during_mark), 4)
    world.run(_RECOVERY_GRACE)
    grace_mark = snapshot()
    world.run(horizon - fault_end - _RECOVERY_GRACE + _DRAIN)
    result.windows["after"] = round(min(ratio(grace_mark, snapshot()), 1.0), 4)
    try:
        check_stream_recovery(
            result.windows["before"],
            result.windows["during"],
            result.windows["after"],
        )
        result.recovered = True
    except RecoveryViolation:
        result.recovered = False
