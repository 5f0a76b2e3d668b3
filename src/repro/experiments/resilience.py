"""Resilience — recovery from injected partial failures.

Beyond the paper's Table I (full node churn), this suite measures how the
stack behaves under the *partial* failures real deployments see: network
partitions that heal, nodes that stall without departing, NAT reboots that
wipe association state, and loss bursts.  Faults are injected below the
protocols (the fabric counts them as ordinary loss), so every point of
recovery comes from the stack itself — keepalive eviction, exchange
retries with backoff, and the WCL's degraded mix pool.

For each scenario the PPSS exchange outcome stream is split into three
windows — before the fault, while it is active, and after it heals — and
the post-heal window must return to within 5 points of the pre-fault
success rate.  Private views must also re-converge onto live members
(:func:`~repro.harness.invariants.check_private_view_recovery`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..churn.script import ChurnDriver, parse_script
from ..core.ppss import PpssConfig
from ..harness.invariants import (
    RecoveryViolation,
    check_exchange_recovery,
    check_invariants,
    check_private_view_recovery,
)
from ..harness.report import Report, Table
from ..harness.world import World, WorldConfig
from ..parallel import SweepSpec, derive_seed, run_sweep
from .common import GroupPlan, scaled, tally_exchanges

__all__ = ["run", "SCENARIOS", "run_scenario", "ScenarioResult"]

# Timeline (seconds): groups form by 300; the fault spans [600, 900); the
# recovery window starts 60 s after healing to give gossip a full cycle.
_FAULT_START = 600.0
_FAULT_END = 900.0
_RECOVERY_GRACE = 60.0
_WINDOWS = (
    ("before", 300.0, _FAULT_START),
    ("during", _FAULT_START, _FAULT_END),
    ("after", _FAULT_END + _RECOVERY_GRACE, 1320.0),
)

SCENARIOS: dict[str, list[str]] = {
    "none": [],
    "partition": [
        f"from {_FAULT_START:g}s to {_FAULT_END:g}s partition groups a|b",
    ],
    "stall": [
        f"at {_FAULT_START:g}s stall 10% for {_FAULT_END - _FAULT_START:g}s",
    ],
    "nat+loss": [
        f"at {_FAULT_START:g}s reset nat 50%",
        f"from {_FAULT_START:g}s to {_FAULT_END:g}s loss 15%",
    ],
}


@dataclass
class ScenarioResult:
    """Per-window exchange outcomes for one fault scenario."""

    name: str
    # window -> [successes, total classified exchanges]
    windows: dict[str, list[int]] = field(
        default_factory=lambda: {name: [0, 0] for name, _, _ in _WINDOWS}
    )
    recovered: bool = False
    view_recovery_ok: bool = False

    def rate(self, window: str) -> float | None:
        success, total = self.windows[window]
        return success / total if total else None


def _point(point) -> ScenarioResult:
    """One fault-scenario world reduced to its window outcomes."""
    name, point_seed, n_nodes, group_count = point
    return run_scenario(name, point_seed, n_nodes, group_count)


def run(
    scale: float = 1.0,
    seed: int = 2001,
    scenarios: tuple[str, ...] | None = None,
    group_count: int = 8,
    workers: int = 1,
) -> Report:
    report = Report(title="Resilience — recovery from injected faults")
    n_nodes = scaled(400, scale, minimum=100)
    table = Table(
        title=(
            f"{n_nodes} nodes, {group_count} groups; fault "
            f"{_FAULT_START:g}-{_FAULT_END:g} s, recovery window after "
            f"+{_RECOVERY_GRACE:g} s grace"
        ),
        headers=[
            "Scenario", "Before", "During", "After", "Recovered", "Views",
        ],
    )
    names = scenarios if scenarios is not None else tuple(SCENARIOS)
    spec = SweepSpec(
        name="resilience",
        points=tuple(
            (name, derive_seed(seed, "resilience", name), n_nodes, group_count)
            for name in names
        ),
        worker=_point,
    )
    for name, result in zip(names, run_sweep(spec, workers=workers)):
        table.add_row(
            name,
            _fmt(result.rate("before")),
            _fmt(result.rate("during")),
            _fmt(result.rate("after")),
            "yes" if result.recovered else "NO",
            "ok" if result.view_recovery_ok else "DEGRADED",
        )
    report.add(table)
    report.note(
        "Recovered = post-heal exchange success within 5 points of the "
        "pre-fault window; Views = private views re-converged onto live "
        "members.  Faults are injected below the protocols, so recovery "
        "is entirely the stack's doing."
    )
    return report


def _fmt(rate: float | None) -> str:
    return f"{rate:.1%}" if rate is not None else "-"


def run_scenario(
    scenario: str,
    seed: int,
    n_nodes: int,
    group_count: int,
    tolerance: float = 0.05,
) -> ScenarioResult:
    """Run one fault scenario; returns per-window outcome counts."""
    fault_lines = SCENARIOS[scenario]
    world = World(WorldConfig(seed=seed))
    result = ScenarioResult(name=scenario)
    # Heartbeat-driven leader election is disabled: a partition genuinely
    # split-brains leadership (each side elects, each rolls the group key),
    # which is a key-management question, not the route-recovery question
    # this suite measures.  With elections off, the keyring stays linear
    # and check_invariants isolates transport-level recovery.
    ppss_config = PpssConfig(heartbeat_enabled=False)

    # Leaders are protected from nothing here — no churn is scripted — but
    # group formation still needs enough P-nodes up front.
    world.populate(max(round(n_nodes * 0.2), group_count * 4))
    world.start_all()
    world.run(40.0)
    plan = GroupPlan(world, group_count, ppss_config=ppss_config)

    window = None

    def record(outcome: str) -> None:
        if window is None:
            return
        counts = result.windows[window]
        counts[1] += 1
        if outcome == "success":
            counts[0] += 1

    wire_node = tally_exchanges(world, plan, record)
    script_lines = [f"from 0s to 30s join {n_nodes - len(world.nodes)}"]
    script_lines += fault_lines
    script_lines.append("at 1350s stop")
    driver = ChurnDriver(
        world,
        parse_script("\n".join(script_lines)),
        on_join=wire_node,
        protected=plan.leader_ids(),
    )

    # Walk the timeline, opening and closing measurement windows.
    now = 0.0
    for name, start, end in _WINDOWS:
        world.run(start - now)
        window = name
        world.run(end - start)
        window = None
        now = end

    before = result.rate("before")
    after = result.rate("after")
    result.recovered = (
        before is not None
        and after is not None
        and after >= before - tolerance
    )
    if before is not None and after is not None:
        try:
            check_exchange_recovery(before, after, tolerance=tolerance)
        except RecoveryViolation:
            pass  # already reflected in result.recovered
    check_invariants(world)
    result.view_recovery_ok = True
    for name in plan.names:
        try:
            check_private_view_recovery(world, name)
        except RecoveryViolation:
            result.view_recovery_ok = False
    del driver
    return result
