"""Scale — population headroom beyond the paper's 1,000 nodes.

``run`` pushes the full stack to 5,000 nodes (at ``scale=1.0``) on one
``World``.  The workload is two-phase: the biased PSS gossips until views
converge, then a sample of natted pairs exchanges WCL messages through 2
mixes, exercising the NAT traversal, backlog and onion layers at
population scale.  Reported: view health (fill levels, P-node presence),
WCL delivery for the sampled pairs, and fabric totals.

``run_100k`` gossips 100,000 nodes on the sharded core
(:mod:`repro.harness.sharded`).  Its report holds only seed-pure rows, so
two runs — at any lane count — can be ``diff``ed.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.node import WhisperConfig
from ..harness.report import Report, Table
from ..harness.sharded import ShardedWorld
from ..harness.world import World, WorldConfig
from .common import scaled

__all__ = ["run", "run_100k"]


def run(
    scale: float = 1.0,
    seed: int = 1010,
    cycles: int = 30,
    messages: int = 40,
    mixes: int = 2,
) -> Report:
    n_nodes = scaled(5000, scale, minimum=200)
    report = Report(title=f"Scale — {n_nodes}-node PSS+WCL headroom")
    world = World(
        WorldConfig(seed=seed, whisper=replace(WhisperConfig(), pi=2))
    )
    world.populate(n_nodes)
    world.start_all()
    world.run(cycles * 10.0)

    alive = world.alive_nodes()
    view_sizes = [len(node.pss.view) for node in alive]
    public_counts = [
        sum(1 for e in node.pss.view.entries() if e.descriptor.is_public)
        for node in alive
    ]
    health = Table(
        title=f"View health after {cycles} cycles of 10 s",
        headers=["nodes", "view min", "view mean", "pub min", "pub mean"],
    )
    health.add_row(
        len(alive),
        min(view_sizes),
        round(sum(view_sizes) / len(view_sizes), 2),
        min(public_counts),
        round(sum(public_counts) / len(public_counts), 2),
    )
    report.add(health)

    delivered: list[int] = []
    sent = 0
    natted = world.natted_nodes()
    rng = world.registry.stream("scale-experiment")
    for _ in range(messages):
        src, dst = rng.sample(natted, 2)
        dst.wcl.set_receive_upcall(
            lambda content, d=dst: delivered.append(d.node_id)
        )
        if src.wcl.send_to(dst.wcl.self_contact(), "scale probe", 512, mixes=mixes):
            sent += 1
        world.run(2.0)
    world.run(30.0)

    stats = world.network.stats
    wcl = Table(
        title=f"WCL sample: {messages} messages through {mixes} mixes",
        headers=["sent", "delivered", "rate", "net sent", "net delivered", "net lost"],
    )
    wcl.add_row(
        sent,
        len(delivered),
        f"{len(delivered) / max(sent, 1):.1%}",
        stats.sent,
        stats.delivered,
        stats.lost,
    )
    report.add(wcl)
    report.note(
        "Headroom run: same stack as the paper's 1,000-node deployments at "
        "5x population; expect full views, a healthy P-node floor and "
        "majority WCL delivery."
    )
    return report


def run_100k(scale: float = 1.0, seed: int = 1013, workers: int = 1) -> Report:
    """100,000 nodes gossiping for six 10 s barrier windows in 8 partitions.

    ``workers`` is the execution-lane count of
    :meth:`ShardedWorld.run_windows`: it regroups which partitions run
    back to back and nothing else, so the report is the same at any value.
    Telemetry stays off (per-link counters at this size would dominate the
    run); the merged trace SHA still pins every partition's event count,
    clock and fabric totals through the shard headers.
    """
    n_nodes = scaled(100_000, scale, minimum=1_000)
    sharded = ShardedWorld(WorldConfig(seed=seed), partitions=8)
    sharded.populate(n_nodes)
    sharded.start_all()
    sharded.run_windows(10.0, 6, shards=workers)

    report = Report(
        title=f"Scale100k — {n_nodes} nodes in {sharded.partitions} partitions"
    )
    table = Table(
        title=f"After 6 windows of 10 s (seed {seed})", headers=["quantity", "value"]
    )
    table.add_row("nodes", sharded.node_count)
    table.add_row(
        "partition nodes", " ".join(str(len(w.nodes)) for w in sharded.worlds)
    )
    table.add_row("events", sharded.events_processed)
    for name, value in sharded.net_totals().items():
        table.add_row(name, value)
    table.add_row("cross-shard msgs", sharded.cross_shard_msgs)
    table.add_row("trace_sha", sharded.trace_sha())
    report.add(table)
    return report
