"""Table I — Availability of anonymizing routes under churn.

1,000 nodes (on average), each subscribed to one of 20 private groups,
Π = 3.  Churn follows the paper's SPLAY script: X% of the network leaves
per minute and is replaced by fresh joins (100% replacement) between
t=300 s and t=1200 s.  For every PPSS view exchange in that window we
classify the WCL route construction outcome:

- **Success** — the first onion path delivered and the response returned;
- **Alt.**    — the first path failed but an alternative (different mix
  pair) was available;
- **No alt.** — the first path failed and no alternative pair remained.

Exchanges whose partner had actually left the network are excluded, per
the paper's footnote 3 (a dead destination is not a route failure).
"""

from __future__ import annotations

from ..churn.script import ChurnDriver, parse_script
from ..core.ppss import PpssConfig
from ..harness.report import Report, Table
from ..harness.world import World, WorldConfig
from ..parallel import SweepSpec, derive_seed, run_sweep
from .common import GroupPlan, scaled, tally_exchanges

__all__ = ["run", "CHURN_RATES"]

# X%/minute rates of Table I (0 = no churn).
CHURN_RATES = (0.0, 0.2, 1.0, 5.0, 10.0)


def _point(point) -> dict[str, int]:
    """One churn-rate world reduced to its outcome counts."""
    rate, point_seed, n_nodes, group_count = point
    return _run_one(rate, point_seed, n_nodes, group_count)


def run(
    scale: float = 1.0,
    seed: int = 1001,
    rates: tuple[float, ...] = CHURN_RATES,
    group_count: int = 20,
    workers: int = 1,
) -> Report:
    report = Report(title="Table I — WCL route availability under churn")
    n_nodes = scaled(1000, scale, minimum=120)
    table = Table(
        title=f"{n_nodes} nodes avg, {group_count} groups, Pi=3, churn 300-1200 s",
        headers=["Churn X%/min", "Success", "Alt.", "No alt.", "exchanges"],
    )
    spec = SweepSpec(
        name="table1",
        points=tuple(
            (rate, derive_seed(seed, "table1", rate), n_nodes, group_count)
            for rate in rates
        ),
        worker=_point,
    )
    for rate, counts in zip(rates, run_sweep(spec, workers=workers)):
        total = sum(counts.values())
        if total == 0:
            table.add_row(f"{rate:g}", "-", "-", "-", 0)
            continue
        table.add_row(
            f"{rate:g}",
            f"{counts['success'] / total:.1%}",
            f"{counts['alt'] / total:.1%}",
            f"{counts['no_alt'] / total:.1%}",
            total,
        )
    report.add(table)
    report.note(
        "Paper: success stays >= ~91% even at 10%/min; alternatives cover "
        "most failures; 'No alt.' stays around ~1%."
    )
    return report


def _run_one(
    rate: float, seed: int, n_nodes: int, group_count: int
) -> dict[str, int]:
    world = World(WorldConfig(seed=seed))
    counts = {"success": 0, "alt": 0, "no_alt": 0}
    window_open = False

    def record(outcome: str) -> None:
        if window_open:
            counts[outcome] += 1

    # Leaders first: they are protected from churn so groups outlive it
    # (the paper measures route availability, not group bootstrap).
    # Enough initial nodes to yield group_count P-node leaders.
    world.populate(max(round(n_nodes * 0.1), group_count * 4))
    world.start_all()
    world.run(40.0)
    # PPSS timing as in the paper: 1-minute cycles, Pi=3 retries.
    plan = GroupPlan(world, group_count, ppss_config=PpssConfig())
    wire_node = tally_exchanges(world, plan, record)

    script_lines = [f"from 0s to 30s join {n_nodes - len(world.nodes)}"]
    if rate > 0:
        script_lines += [
            "at 300s set replacement ratio to 100%",
            f"from 300s to 1200s const churn {rate}% each 60s",
        ]
    script_lines.append("at 1200s stop")
    driver = ChurnDriver(
        world,
        parse_script("\n".join(script_lines)),
        on_join=wire_node,
        protected=plan.leader_ids(),
    )
    world.run(300.0)  # bootstrap + group formation
    window_open = True
    world.run(900.0)  # the churn measurement window
    window_open = False
    del driver
    return counts
