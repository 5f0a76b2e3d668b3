"""Fig. 8 — Bandwidth vs. number of private groups per node.

400 nodes on PlanetLab operating 120 private groups (every P-node creates
and leads one).  The number of groups each node subscribes to sweeps 1, 2,
4, ..., 32; the result is the distribution (stacked percentiles
5/25/50/75/90) of upload and download bandwidth for P-nodes and N-nodes.

Per-node bytes come from the fabric's bandwidth accountant; the
measurement window is the difference of two lifetime readings
(:func:`~repro.experiments.common.traffic_window`).

Expected shape: bandwidth grows linearly with the number of subscribed
groups; P-nodes pay more than N-nodes (mix/gateway duty) but stay within
reasonable bounds.
"""

from __future__ import annotations

from ..core.ppss import PpssConfig
from ..harness.report import Report, Table
from ..harness.world import World, WorldConfig
from ..metrics.stats import stacked_percentiles
from ..net.address import NodeKind
from ..parallel import SweepSpec, derive_seed, run_sweep
from .common import GroupPlan, scaled, subscribe_groups, traffic_window

__all__ = ["run", "GROUPS_PER_NODE"]

GROUPS_PER_NODE = (1, 2, 4, 8, 16, 32)


def run(
    scale: float = 1.0,
    seed: int = 1008,
    memberships: tuple[int, ...] = GROUPS_PER_NODE,
    window_cycles: int = 5,
    workers: int = 1,
) -> Report:
    report = Report(
        title="Fig. 8 — Bandwidth vs. groups per node (KB/s, PlanetLab)"
    )
    n_nodes = scaled(400, scale, minimum=60)
    for direction in ("up", "down"):
        for kind, kind_label in (
            (NodeKind.PUBLIC, "P-nodes"), (NodeKind.NATTED, "N-nodes"),
        ):
            table = Table(
                title=f"{kind_label} {direction}load ({n_nodes} nodes)",
                headers=["groups/node", "p5", "p25", "p50", "p75", "p90"],
            )
            report.add(table)
    tables = report.sections  # [P-up, N-up, P-down, N-down]
    spec = SweepSpec(
        name="fig8",
        points=tuple(
            (per_node, derive_seed(seed, "fig8", per_node), n_nodes,
             window_cycles)
            for per_node in memberships
        ),
        worker=_point,
    )
    for per_node, rows in zip(memberships, run_sweep(spec, workers=workers)):
        for table, stacked in zip(tables, rows):
            table.add_row(
                per_node,
                *(stacked[level] for level in (5.0, 25.0, 50.0, 75.0, 90.0)),
            )
    report.note(
        "Counted traffic: all categories (PPSS exchanges over WCL, mixes, "
        "relays, PSS, key management)."
    )
    report.note(
        "Paper shape: linear growth in subscribed groups; P-nodes > N-nodes."
    )
    return report


def _point(point):
    """One membership-count world reduced to its four percentile rows."""
    per_node, point_seed, n_nodes, window_cycles = point
    return _run_one(per_node, point_seed, n_nodes, window_cycles)


def _run_one(per_node: int, seed: int, n_nodes: int, window_cycles: int):
    world = World(WorldConfig(seed=seed, latency="planetlab"))
    world.populate(n_nodes)
    world.start_all()
    world.run(120.0)
    # Every P-node creates and leads one group (120 groups at full scale).
    group_count = len(world.public_nodes())
    ppss_config = PpssConfig()
    plan = GroupPlan(world, group_count, ppss_config=ppss_config)
    subscribe_groups(world, plan, per_node=per_node)
    # Joins are retried every 15 s; give larger memberships longer to settle.
    world.run(180.0 + 10.0 * per_node)
    window_seconds = window_cycles * 60.0
    window = traffic_window(world, window_seconds)

    rows = []
    for direction in ("up_bytes", "down_bytes"):
        for kind in (NodeKind.PUBLIC, NodeKind.NATTED):
            samples = []
            for node in world.alive_nodes():
                if node.cm.kind is not kind:
                    continue
                totals = window.get(node.node_id)
                byte_count = getattr(totals, direction) if totals else 0
                samples.append(byte_count / window_seconds / 1024.0)
            rows.append(stacked_percentiles(samples))
    return rows
