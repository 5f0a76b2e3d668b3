"""Ablations over WHISPER's design choices (beyond the paper's figures).

Four studies, each isolating one design knob the paper fixes:

- **path length** (footnote 2): f mixes tolerate f-1 colluding attackers —
  at what cost in latency and CPU?
- **Π sweep under churn**: the availability/imbalance compromise of
  Section III-B-1, measured as route success vs P-node in-degree.
- **session leases**: TCP-friendly NATs (24 h associations, the paper's
  emulation) vs UDP-only leases (5 min) — how much of WHISPER's route
  availability rests on association persistence?
- **truncation policy**: the paper's biased healer vs the aggressive
  variant that evicts every surplus P-node.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.node import WhisperConfig
from ..churn.script import ChurnDriver, parse_script
from ..harness.report import Report, Table
from ..harness.world import World, WorldConfig
from ..metrics.graph import in_degree_distribution
from ..metrics.stats import percentile
from ..nat.traversal import TraversalPolicy
from ..net.address import Protocol
from ..parallel import SweepSpec, derive_seed, run_sweep
from .common import GroupPlan, scaled, tally_exchanges

__all__ = [
    "run_observation_sweep",
    "run_path_length",
    "run_pi_sweep",
    "run_session_leases",
    "run_truncation_policy",
]


# ----------------------------------------------------------------------
def run_path_length(
    scale: float = 1.0, seed: int = 2001, messages: int = 200,
    mix_counts: tuple[int, ...] = (2, 3, 4, 5),
) -> Report:
    """Latency and CPU cost of longer onion paths (colluder tolerance)."""
    report = Report(title="Ablation — onion path length (f mixes)")
    n_nodes = scaled(300, scale, minimum=60)
    world = World(WorldConfig(seed=seed))
    world.populate(n_nodes)
    world.start_all()
    world.run(150.0)
    natted = world.natted_nodes()
    rng = world.registry.stream("ablation")
    table = Table(
        title=f"{messages} messages between random N-node pairs, {n_nodes} nodes",
        headers=[
            "mixes", "colluders tolerated", "delivered", "latency p50 (s)",
            "latency p90 (s)", "crypto ms/message",
        ],
    )
    for mixes in mix_counts:
        latencies: list[float] = []
        acct = world.provider.accountant
        charged_before = sum(acct.node_total_ms(n.node_id) for n in world.alive_nodes())
        sent = 0
        for _ in range(messages):
            src, dst = rng.sample(natted, 2)
            sent_at = world.sim.now
            dst.wcl.set_receive_upcall(
                lambda content, s=sent_at: latencies.append(world.sim.now - s)
            )
            if src.wcl.send_to(dst.wcl.self_contact(), "probe", 512, mixes=mixes):
                sent += 1
            world.run(3.0)
        world.run(20.0)
        charged_after = sum(acct.node_total_ms(n.node_id) for n in world.alive_nodes())
        crypto_per_msg = (charged_after - charged_before) / max(sent, 1)
        table.add_row(
            mixes, mixes - 1, f"{len(latencies)}/{sent}",
            percentile(latencies, 50) if latencies else "-",
            percentile(latencies, 90) if latencies else "-",
            f"{crypto_per_msg:.1f}",
        )
    report.add(table)
    report.note(
        "Each extra mix adds one P-node hop: ~1 RSA decrypt (~45 ms) plus "
        "one network traversal of latency."
    )
    return report


# ----------------------------------------------------------------------
def _pi_point(point):
    """One Π world under churn, reduced to (counts, p_p90, n_p90)."""
    pi, point_seed, n_nodes, churn_rate, group_count = point
    world = World(
        WorldConfig(seed=point_seed, whisper=replace(WhisperConfig(), pi=pi))
    )
    # Enough initial nodes to yield group_count P-node leaders.
    world.populate(max(round(n_nodes * 0.15), group_count * 4))
    world.start_all()
    world.run(40.0)
    plan = GroupPlan(world, group_count)
    counts = {"success": 0, "alt": 0, "no_alt": 0}

    def record(outcome: str) -> None:
        counts[outcome] += 1

    wire = tally_exchanges(world, plan, record)
    script = (
        f"from 0s to 30s join {n_nodes - len(world.nodes)}\n"
        "at 240s set replacement ratio to 100%\n"
        f"from 240s to 840s const churn {churn_rate}% each 60s\n"
        "at 840s stop"
    )
    ChurnDriver(
        world, parse_script(script), on_join=wire, protected=plan.leader_ids(),
    )
    world.run(900.0)
    graph = world.view_graph()
    p_ids = [n.node_id for n in world.public_nodes()]
    n_ids = [n.node_id for n in world.natted_nodes()]
    p_p90 = percentile(
        [float(d) for d in in_degree_distribution(graph, p_ids)], 90
    )
    n_p90 = percentile(
        [float(d) for d in in_degree_distribution(graph, n_ids)], 90
    )
    return counts, p_p90, n_p90


def run_pi_sweep(
    scale: float = 1.0, seed: int = 2002,
    pi_values: tuple[int, ...] = (1, 2, 3, 5),
    churn_rate: float = 5.0, group_count: int = 8,
    workers: int = 1,
) -> Report:
    """Route availability under churn vs P-node load, as Π grows."""
    report = Report(title="Ablation — Pi: route availability vs P-node load")
    n_nodes = scaled(400, scale, minimum=100)
    table = Table(
        title=(
            f"{n_nodes} nodes, {churn_rate:g}%/min churn, {group_count} groups"
        ),
        headers=[
            "Pi", "success", "alt", "no alt", "P in-degree p90 / N p90",
        ],
    )
    spec = SweepSpec(
        name="ablation-pi",
        points=tuple(
            (pi, derive_seed(seed, "ablation-pi", pi), n_nodes, churn_rate,
             group_count)
            for pi in pi_values
        ),
        worker=_pi_point,
    )
    for pi, (counts, p_p90, n_p90) in zip(
        pi_values, run_sweep(spec, workers=workers)
    ):
        total = sum(counts.values()) or 1
        table.add_row(
            pi,
            f"{counts['success'] / total:.1%}",
            f"{counts['alt'] / total:.1%}",
            f"{counts['no_alt'] / total:.1%}",
            f"{p_p90:.0f} / {n_p90:.0f}",
        )
    report.add(table)
    report.note(
        "The paper's compromise: higher Pi buys churn resilience at the "
        "price of P-node in-degree imbalance."
    )
    return report


# ----------------------------------------------------------------------
def _lease_point(point):
    """One lease-policy world reduced to (delivered, sent).

    Both policies deliberately share the same seed (a controlled
    comparison).  The policy travels as a flag, not a ``TraversalPolicy``
    object, to keep points plain picklable scalars.
    """
    udp, point_seed, n_nodes, messages = point
    # No keepalive prober under either policy: it pings every session idle
    # for 60 s, which re-uses each association well inside a 5-minute lease
    # and would leave nothing for the quiet gap to expire.
    policy = (
        TraversalPolicy(
            session_lifetime=300.0, protocol=Protocol.UDP, keepalive_interval=0
        )
        if udp else TraversalPolicy(keepalive_interval=0)
    )
    world = World(
        WorldConfig(
            seed=point_seed,
            whisper=replace(WhisperConfig(), traversal=policy),
        )
    )
    world.populate(n_nodes)
    world.start_all()
    world.run(150.0)
    # Capture gateway advertisements now, then let them go stale.
    natted = world.natted_nodes()
    rng = world.registry.stream("ablation")
    pairs = [tuple(rng.sample(natted, 2)) for _ in range(messages)]
    contacts = {dst.node_id: dst.wcl.self_contact() for _, dst in pairs}
    world.run(600.0)  # the quiet gap: UDP leases expire, TCP survive
    delivered = []
    sent = 0
    for src, dst in pairs:
        dst.wcl.set_receive_upcall(
            lambda content, d=dst: delivered.append(d.node_id)
        )
        if src.wcl.send_to(contacts[dst.node_id], "stale probe", 256):
            sent += 1
        world.run(1.0)
    world.run(30.0)
    return len(delivered), sent


def run_session_leases(
    scale: float = 1.0, seed: int = 2003, messages: int = 300,
    workers: int = 1,
) -> Report:
    """TCP-friendly (24 h) vs UDP-only (5 min) NAT association leases."""
    report = Report(title="Ablation — NAT association leases (TCP vs UDP)")
    n_nodes = scaled(300, scale, minimum=60)
    table = Table(
        title=f"{messages} confidential messages after a 10-minute quiet gap",
        headers=["lease policy", "delivered", "first-attempt rate"],
    )
    policies = (("TCP 24h (paper)", False), ("UDP 5min", True))
    spec = SweepSpec(
        name="ablation-leases",
        points=tuple(
            (udp, seed, n_nodes, messages) for _label, udp in policies
        ),
        worker=_lease_point,
    )
    for (label, _udp), (delivered, sent) in zip(
        policies, run_sweep(spec, workers=workers)
    ):
        table.add_row(
            label, f"{delivered}/{messages}",
            f"{delivered / max(sent, 1):.1%}",
        )
    report.add(table)
    report.note(
        "WHISPER's route availability rests on associations outliving view "
        "residency; with 5-minute UDP leases, stale gateway info fails."
    )
    return report


# ----------------------------------------------------------------------
def _truncation_point(point):
    """One truncation-policy world reduced to its summary row values.

    Both policies deliberately share the same seed (a controlled
    comparison), so the point seed is the caller's seed untouched.
    """
    aggressive, point_seed, n_nodes = point
    world = World(WorldConfig(seed=point_seed))
    world.populate(n_nodes)
    if aggressive:
        for node in world.nodes.values():
            node.pss.cap_public = True
    world.start_all()
    world.run(600.0)
    graph = world.view_graph()
    p_ids = [n.node_id for n in world.public_nodes()]
    degrees = [float(d) for d in in_degree_distribution(graph, p_ids)]
    p_counts = [n.pss.view.count_public() for n in world.alive_nodes()]
    meeting = sum(1 for c in p_counts if c >= 3)
    return (
        sum(p_counts) / len(p_counts),
        percentile(degrees, 50),
        percentile(degrees, 90),
        f"{meeting}/{len(p_counts)}",
    )


def run_truncation_policy(
    scale: float = 1.0, seed: int = 2004, workers: int = 1,
) -> Report:
    """Paper's biased healer vs the aggressive surplus-P eviction variant."""
    report = Report(title="Ablation — view truncation policy (Pi=3)")
    n_nodes = scaled(500, scale, minimum=100)
    table = Table(
        title=f"{n_nodes} nodes, 60 cycles",
        headers=[
            "policy", "P per view (mean)", "P in-degree p50", "P in-degree p90",
            "views meeting Pi",
        ],
    )
    policies = (("biased healer (paper)", False), ("aggressive eviction", True))
    spec = SweepSpec(
        name="ablation-policy",
        points=tuple(
            (aggressive, seed, n_nodes) for _label, aggressive in policies
        ),
        worker=_truncation_point,
    )
    for (label, _aggressive), row in zip(
        policies, run_sweep(spec, workers=workers)
    ):
        table.add_row(label, *row)
    report.add(table)
    report.note(
        "Aggressive eviction caps P-node presence near Pi, trading view "
        "diversity for flatter P-node load."
    )
    return report


# ----------------------------------------------------------------------
def _observation_point(point):
    """One path-length world reduced to (flow count, sweep dict).

    Both path lengths deliberately share the same seed (a controlled
    comparison).
    """
    from ..adversary.exposure import adversary_sweep, extract_flows
    from ..net.observer import LinkObserver

    path_mixes, point_seed, n_nodes, messages = point
    world = World(WorldConfig(seed=point_seed))
    tap = LinkObserver()
    tap.watch_all()
    world.network.add_observer(tap)
    world.populate(n_nodes)
    world.start_all()
    world.run(150.0)
    tap.packets.clear()  # only analyse the confidential phase
    natted = world.natted_nodes()
    rng = world.registry.stream("observe")
    for i in range(messages):
        src, dst = rng.sample(natted, 2)
        src.wcl.send_to(dst.wcl.self_contact(), f"m{i}", 256, mixes=path_mixes)
        world.run(2.0)
    world.run(20.0)
    flows = extract_flows(tap.packets)
    sweep = adversary_sweep(
        flows, link_fractions=(0.1, 0.25, 0.5, 0.75, 0.9),
        trials=15, rng=world.registry.stream("adversary"),
    )
    return len(flows), sweep


def run_observation_sweep(
    scale: float = 1.0, seed: int = 2005, messages: int = 200,
    mixes: int = 2, workers: int = 1,
) -> Report:
    """Relationship anonymity vs adversary link coverage.

    The paper's threat model excludes multi-point traffic analysis; this
    study quantifies the boundary: an adversary observing a fraction p of
    the links that ever carried onions fully traces ~p^h of the messages
    (h = wire hops).  Longer paths (footnote 2) push the curve down.
    """
    report = Report(title="Ablation — anonymity vs adversary link coverage")
    n_nodes = scaled(300, scale, minimum=60)
    path_lengths = (mixes, mixes + 1)
    spec = SweepSpec(
        name="ablation-anonymity",
        points=tuple(
            (path_mixes, seed, n_nodes, messages) for path_mixes in path_lengths
        ),
        worker=_observation_point,
    )
    for path_mixes, (flow_count, sweep) in zip(
        path_lengths, run_sweep(spec, workers=workers)
    ):
        table = Table(
            title=(
                f"{path_mixes} mixes, {flow_count} traced onions, "
                f"{n_nodes} nodes"
            ),
            headers=["links observed", "flows fully traced"],
        )
        for fraction, value in sweep.items():
            table.add_row(f"{fraction:.0%}", f"{value:.1%}")
        report.add(table)
    report.note(
        "A single-link observer (the paper's adversary) traces 0%; full "
        "linkage needs every hop of a path — ~p^h for coverage p."
    )
    return report
