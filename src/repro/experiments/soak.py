"""Soak — live loopback nodes through a scripted fault schedule.

The whole-system robustness gate: N supervised WHISPER stacks on *real*
UDP sockets inside one process, carrying an open-loop CBR workload while
a :class:`~repro.faults.LiveFaultFabric` executes a scripted fault
schedule against their datagrams — a loss burst, a stall window, abrupt
node kills (healed by the :class:`~repro.runtime.supervisor.NodeSupervisor`),
and NAT rebinds that re-home sockets mid-run.

Every number in the report is telemetry-verified: the fabric's fault
counters, the supervisor's restart counters and the workload ledgers are
cross-checked against the ``fault.*`` / ``supervisor.*`` /
``workload.*`` instruments, so a fault that was injected but not counted
(or counted but not injected) fails loudly rather than skewing the ratio.

Route success is measured per *send window*: each emitted application
packet is tagged with the window it left in (before / during / after the
fault schedule), and delivery is credited to that window no matter when
the packet lands.  The headline gate is the post-heal window:
``check_post_heal_success`` asserts it clears an absolute floor
(``--route-floor``, the CI soak-smoke gate).

Reproducibility: plan-level fault decisions (stall victims, rebind
victims) come from a seeded stream over the sorted population, so the
same seed + plan reproduces the identical decision digest run-to-run —
the report prints it.

Wall-clock warning: unlike every other experiment this one runs on a real
clock; the default timeline is ~20 s plus convergence.  Scale the
population down (``--nodes``) for smoke runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from ..churn.script import ChurnScriptError, parse_script
from ..core.node import WhisperConfig, WhisperNode
from ..core.ppss import MemberState, PpssConfig
from ..faults.live import LiveFaultFabric
from ..faults.plan import FaultPlan, is_fault_directive
from ..harness.invariants import RecoveryViolation, check_post_heal_success
from ..harness.report import Report, Table
from ..nat.traversal import TraversalPolicy
from ..net.address import NodeId
from ..pss.gossip import PssConfig
from ..runtime.live import LiveRuntime
from ..runtime.supervisor import SupervisorConfig
from ..telemetry.export import export_jsonl
from ..workload.driver import WorkloadDriver
from .common import scaled

__all__ = ["run", "run_soak", "SoakResult", "DEFAULT_PLAN", "default_plan"]

_PAYLOAD = 160  # bytes per CBR packet (Table I's VoIP-like rate)
_CBR_INTERVAL = 0.25

# Timeline (seconds, relative to workload start).  The fault schedule
# lives inside the "during" window; "after" starts past a heal grace so
# keepalive eviction and supervisor restarts have had time to bite.
_BEFORE = (0.0, 3.0)
_DURING = (3.0, 8.0)
_AFTER = (9.5, 13.5)
_KILL_AT = 5.0
_TAIL = 1.0  # run past the last window so trailing deliveries land


def _parse_plan(text: str) -> FaultPlan:
    """A fault schedule from churn-script lines; churn directives are errors."""
    directives = []
    for line in text.splitlines():
        for directive in parse_script(line):
            if not is_fault_directive(directive):
                raise ChurnScriptError(f"not a fault directive: {line!r}")
            directives.append(directive)
    return FaultPlan(tuple(directives))


DEFAULT_PLAN = _parse_plan(
    """
    from 3s to 6s loss 25%
    at 4s stall 5% for 2s
    at 6.5s rebind nat 10%
    """
)


def default_plan() -> FaultPlan:
    """The scripted schedule the soak runs when none is supplied."""
    return DEFAULT_PLAN


@dataclass
class SoakResult:
    """Everything the soak measured (the report is rendered from this)."""

    nodes: int = 0
    groups: int = 0
    formation_time: float = 0.0
    # window -> [delivered, sent] for packets *sent* in that window.
    windows: dict[str, list[int]] = field(
        default_factory=lambda: {"before": [0, 0], "during": [0, 0], "after": [0, 0]}
    )
    killed: tuple[NodeId, ...] = ()
    restarts: int = 0
    rejoined: int = 0
    reconvergence_time: float | None = None
    fault_counts: dict[str, int] = field(default_factory=dict)
    decision_digest: str = ""
    telemetry_consistent: bool = True
    telemetry_notes: list[str] = field(default_factory=list)

    def rate(self, window: str) -> float | None:
        delivered, sent = self.windows[window]
        return delivered / sent if sent else None


def _digest(decisions) -> str:
    blob = repr(decisions).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _fast_config() -> WhisperConfig:
    # The paper's timers compressed onto the soak's ~20 s wall-clock
    # timeline: without second-scale keepalives, sessions to crashed or
    # rebound peers would outlive the whole run and poison WCL path
    # selection far past the heal.
    return WhisperConfig(
        pss=PssConfig(exchange_keys=True, cycle_time=0.5, response_timeout=2.0),
        ppss=PpssConfig(
            cycle_time=1.0, join_retry_every=1.0, response_timeout=3.0,
            heartbeat_enabled=False,
        ),
        traversal=TraversalPolicy(keepalive_interval=1.0, keepalive_misses=2),
    )


def run_soak(
    n_nodes: int,
    seed: int = 2026,
    plan: FaultPlan | None = None,
    trace_out: str | None = None,
) -> SoakResult:
    """Host ``n_nodes`` live loopback stacks through the fault schedule."""
    plan = plan if plan is not None else default_plan()
    result = SoakResult(nodes=n_nodes)
    rt = LiveRuntime(
        provider="sim",
        seed=seed,
        whisper=_fast_config(),
        telemetry_enabled=True,
    )
    try:
        _run_soak(rt, n_nodes, seed, plan, result)
        if trace_out is not None:
            export_jsonl(rt.telemetry, trace_out)
    finally:
        rt.close()
    return result


def _run_soak(
    rt: LiveRuntime,
    n_nodes: int,
    seed: int,
    plan: FaultPlan,
    result: SoakResult,
) -> None:
    scheduler = rt.scheduler
    for nid in range(n_nodes):
        rt.add_node(nid)
    introducer_ids = list(range(min(5, n_nodes)))
    rt.start([rt.descriptor(nid) for nid in introducer_ids])

    # ---- groups: ~12 members each, the leader doubles as the CBR sink ----
    group_size = 12
    n_groups = max(1, n_nodes // group_size)
    result.groups = n_groups
    leaders: dict[str, WhisperNode] = {}
    membership: dict[NodeId, str] = {}
    for g in range(n_groups):
        members = list(range(g * group_size, min((g + 1) * group_size, n_nodes)))
        gname = f"room-{g}"
        leader = rt.nodes[members[0]]
        ppss = leader.create_group(gname)
        leaders[gname] = leader
        membership[members[0]] = gname
        for nid in members[1:]:
            rt.nodes[nid].join_group(ppss.invite())
            membership[nid] = gname

    def formed() -> bool:
        return all(
            rt.nodes[nid].groups[gname].state is MemberState.MEMBER
            for nid, gname in membership.items()
        )

    t0 = scheduler.now
    rt.run_until(formed, timeout=60.0 + n_nodes)
    result.formation_time = scheduler.now - t0

    # ---- supervision + fault fabric -------------------------------------
    supervisor = rt.supervise(
        SupervisorConfig(
            probe_interval=0.5, backoff_base=0.25,
            backoff_max=2.0, healthy_after=5.0,
        )
    )
    rejoined_at: dict[NodeId, float] = {}

    def reinvite(node: WhisperNode) -> None:
        # A restarted incarnation comes back with no group state; hand it
        # a fresh invitation so it can rejoin its room.
        gname = membership.get(node.node_id)
        if gname is None or gname in node.groups:
            return
        node.join_group(leaders[gname].group(gname).invite())

    supervisor.on_restart = reinvite
    fabric = LiveFaultFabric(rt.network, seed=seed, telemetry=rt.telemetry)
    fabric.arm(plan)

    # ---- workload: per group, two member->leader CBR streams -------------
    driver = WorkloadDriver(scheduler, rt.telemetry, seed=seed)
    window = {"name": None}
    in_flight: dict[tuple[str, int], str] = {}
    horizon = _AFTER[1] + _TAIL

    def make_sink(gname: str):
        def sink(payload, _reply_to) -> None:
            if not isinstance(payload, dict) or payload.get("app") != "soak":
                return
            key = (payload["sid"], payload["seq"])
            sent_in = in_flight.pop(key, None)
            if sent_in is None:
                return  # duplicate delivery, or sent outside a window
            result.windows[sent_in][0] += 1
            driver.note_completion(
                payload["sid"],
                latency=scheduler.now - payload["t"],
                nbytes=payload["size"],
            )
        return sink

    def make_action(sender_id: NodeId, gname: str, sid: str):
        def action(seq: int, now: float) -> bool:
            node = rt.nodes.get(sender_id)
            if node is None or not node.alive:
                return False
            ppss = node.groups.get(gname)
            if ppss is None or ppss.state is not MemberState.MEMBER:
                return False
            leader_ppss = leaders[gname].group(gname)
            payload = {
                "app": "soak", "sid": sid, "seq": seq,
                "t": now, "size": _PAYLOAD,
            }
            if not ppss.send_app(
                leader_ppss.self_contact(), payload, _PAYLOAD,
                include_self_contact=False,
            ):
                return False
            name = window["name"]
            if name is not None:
                result.windows[name][1] += 1
                in_flight[(sid, seq)] = name
            driver.note_offered_bytes(sid, _PAYLOAD)
            return True
        return action

    senders: list[NodeId] = []
    for gname, leader in leaders.items():
        leader.group(gname).set_app_handler(make_sink(gname))
        members = [n for n, g in membership.items() if g == gname and n != leader.node_id]
        for i, sender_id in enumerate(members[:2]):
            sid = f"{gname}-s{i}"
            senders.append(sender_id)
            driver.add_stream(
                sid, "cbr", make_action(sender_id, gname, sid),
                interval=_CBR_INTERVAL, start=0.0, until=horizon,
            )
    driver.arm()

    # ---- node kills (healed by the supervisor) ---------------------------
    protected = set(introducer_ids) | {l.node_id for l in leaders.values()}
    kill_rng = rt.registry.stream("soak-kills")
    candidates = sorted(set(rt.nodes) - protected - set(senders))
    kill_count = min(len(candidates), max(2, round(0.05 * n_nodes)))
    victims = sorted(kill_rng.sample(candidates, kill_count)) if kill_count else []
    result.killed = tuple(victims)
    kill_time = {"at": None}

    def kill() -> None:
        kill_time["at"] = scheduler.now
        for nid in victims:
            rt.crash_node(nid)

    scheduler.schedule(_KILL_AT, kill)

    def poll_rejoin() -> None:
        if kill_time["at"] is None:
            scheduler.schedule(0.25, poll_rejoin)
            return
        for nid in victims:
            if nid in rejoined_at:
                continue
            node = rt.nodes.get(nid)
            gname = membership.get(nid)
            if (
                node is not None and node.alive and gname is not None
                and gname in node.groups
                and node.groups[gname].state is MemberState.MEMBER
            ):
                rejoined_at[nid] = scheduler.now
        if len(rejoined_at) < len(victims) and scheduler.now < horizon + 6.0:
            scheduler.schedule(0.25, poll_rejoin)

    scheduler.schedule(_KILL_AT + 0.5, poll_rejoin)

    # ---- walk the measurement timeline ----------------------------------
    base = scheduler.now
    for name, (start, end) in (
        ("before", _BEFORE), ("during", _DURING), ("after", _AFTER),
    ):
        rt.run_for(max(0.0, base + start - scheduler.now))
        window["name"] = name
        rt.run_for(base + end - scheduler.now)
        window["name"] = None
    rt.run_for(_TAIL)
    # Give late rejoins a chance to land before the final reckoning.
    rt.run_until(lambda: len(rejoined_at) >= len(victims), timeout=6.0)
    rt.drain(timeout=1.0)

    # ---- reduce ----------------------------------------------------------
    result.restarts = supervisor.stats.restarts
    result.rejoined = len(rejoined_at)
    if victims and kill_time["at"] is not None and rejoined_at:
        result.reconvergence_time = (
            max(rejoined_at.values()) - kill_time["at"]
            if len(rejoined_at) == len(victims)
            else None
        )
    stats = fabric.stats
    result.fault_counts = {
        name: value for name, value in vars(stats).items() if name != "decisions"
    }
    result.decision_digest = _digest(fabric.decision_digest())
    _cross_check_telemetry(rt, supervisor, stats, result)


def _cross_check_telemetry(rt, supervisor, fault_stats, result: SoakResult) -> None:
    """Every injected fault and restart must be visible in telemetry."""
    metrics = rt.telemetry.metrics

    def total(name: str) -> int:
        agg = metrics.aggregate(name)
        return int(agg.get("sum", 0)) if agg else 0

    drops = (
        fault_stats.blackhole_drops + fault_stats.stall_drops
        + fault_stats.partition_drops + fault_stats.loss_drops
    )
    shaped = (
        fault_stats.delays_injected + fault_stats.duplicates_injected
        + fault_stats.reorders_injected
    )
    checks = [
        ("fault.injected", fault_stats.faults_activated),
        ("fault.healed", fault_stats.faults_healed),
        ("fault.drops", drops),
        ("fault.shaped", shaped),
        ("fault.stalled_nodes", fault_stats.nodes_stalled),
        ("fault.nat_resets", fault_stats.nat_resets),
        ("fault.nat_rebinds", fault_stats.nat_rebinds),
        ("supervisor.restarts", supervisor.stats.restarts),
        ("net.rebinds", rt.network.stats.rebinds),
    ]
    for name, expected in checks:
        got = total(name)
        if got != expected:
            result.telemetry_consistent = False
            result.telemetry_notes.append(
                f"{name}: telemetry says {got}, in-memory stats say {expected}"
            )


def run(
    scale: float = 1.0,
    seed: int = 2026,
    nodes: int | None = None,
    fault_plan: str | None = None,
    trace_out: str | None = None,
    route_floor: float | None = None,
) -> Report:
    """Soak report; raises :class:`RecoveryViolation` below ``route_floor``."""
    n_nodes = nodes if nodes is not None else scaled(100, scale, minimum=24)
    if fault_plan is not None:
        try:
            with open(fault_plan, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ChurnScriptError(f"cannot read fault plan: {exc}") from exc
        plan = _parse_plan(text)
    else:
        plan = default_plan()
    result = run_soak(n_nodes, seed=seed, plan=plan, trace_out=trace_out)

    report = Report(title="Soak — live nodes under a scripted fault schedule")
    table = Table(
        title=(
            f"{result.nodes} live loopback nodes, {result.groups} groups; "
            f"formation {result.formation_time:.1f} s"
        ),
        headers=["Window", "Sent", "Delivered", "Route success"],
    )
    for name in ("before", "during", "after"):
        delivered, sent = result.windows[name]
        table.add_row(name, sent, delivered, _fmt(result.rate(name)))
    report.add(table)

    sup = Table(
        title="Supervision",
        headers=["Killed", "Restarts", "Rejoined", "Re-convergence"],
    )
    reconv = (
        f"{result.reconvergence_time:.1f} s"
        if result.reconvergence_time is not None
        else "-"
    )
    sup.add_row(
        len(result.killed), result.restarts,
        f"{result.rejoined}/{len(result.killed)}", reconv,
    )
    report.add(sup)

    faults = Table(
        title=f"Injected faults (decision digest {result.decision_digest})",
        headers=["Fault", "Count"],
    )
    for key, value in result.fault_counts.items():
        faults.add_row(key, value)
    report.add(faults)

    if result.telemetry_consistent:
        report.note(
            "All fault and restart counts are telemetry-verified "
            "(fault.*, supervisor.*, net.* counters match in-memory "
            "stats).  Same seed + plan reproduces the decision digest."
        )
    else:
        report.note(
            "TELEMETRY MISMATCH: " + "; ".join(result.telemetry_notes)
        )
    after_rate = result.rate("after")
    if route_floor is not None:
        if after_rate is None:
            raise RecoveryViolation("no packets sent in the post-heal window")
        check_post_heal_success(after_rate, route_floor)
        report.note(
            f"Post-heal route success {after_rate:.1%} clears the "
            f"{route_floor:.0%} floor."
        )
    if not result.telemetry_consistent:
        raise RecoveryViolation(
            "telemetry does not account for every injected fault: "
            + "; ".join(result.telemetry_notes)
        )
    return report


def _fmt(rate: float | None) -> str:
    return f"{rate:.1%}" if rate is not None else "-"
