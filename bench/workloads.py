"""The five benchmark workloads and their load generators.

Each workload drives the stack through its public API only (``World`` /
``ShardedWorld`` / ``LiveRuntime``, the group API of ``WhisperNode``,
``ppss.send_app`` / ``set_app_handler`` / ``self_contact``, the public
``stats`` objects and the bandwidth / CPU accountants) and owns its load
generator: nothing here imports ``repro.perf``, ``repro.workload`` or
``repro.experiments``.

A workload object lives for one set-up and at most one measured phase:

- ``setup()`` builds the deployment up to the point where the first
  operation can be offered, and leaves ``setup_digest`` (sim workloads);
- ``warm_up()`` brings it to a steady state, off every clock;
- ``measure(seconds)`` offers load for ``seconds`` of wall time in short
  slices and returns a :class:`Measurement`;
- ``teardown()`` releases sockets and drops the world.

The *operation* — what ``msgs_per_s``, ``latency_*`` and
``wire_bytes_per_msg`` count — is one PSS exchange in the gossip workloads
and one confidential application message in the message workloads (see
README.md).  An operation that does not complete is either *failed* (the
program did not take it: ``send_app`` refused the message, a node's gossip
cycle found its view empty) or *lost* (the program took it and the
network it runs over — simulated NATs, loopback UDP — dropped it on the
way: a PSS exchange the protocol closed with its own time-out, a
fire-and-forget message that met a closed NAT session).  No operation
fails on these workloads; some are lost, by design of the protocols.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from array import array
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro import WhisperConfig, World, WorldConfig
from repro.core.ppss import MemberState, PpssConfig
from repro.harness.invariants import InvariantViolation, check_invariants
from repro.harness.sharded import ShardedWorld
from repro.pss.gossip import PssConfig
from repro.runtime import LiveRuntime

from . import check, hostspeed

__all__ = ["WORKLOADS", "Measurement", "WorkloadError", "make"]

BODY_BYTES = 512
LIVE_LOSS_TIMEOUT_S = 2.0
LIVE_FORMATION_TIMEOUT_S = 90.0


class WorkloadError(RuntimeError):
    """The workload could not be brought to its measured phase."""


@dataclass
class Measurement:
    """What one measured phase observed (times in host seconds)."""

    slices: list[tuple[float, int, int]] = field(default_factory=list)
    """Per slice: wall seconds, engine events, completed operations."""
    latencies_ms: list[list[float]] = field(default_factory=list)
    """Operation latencies; one pooled list (simulated time) or one list
    per slice (wall clock, ``live_udp``)."""
    attempted: int = 0
    failed: int = 0  # not taken by the program
    lost: int = 0  # taken, then dropped by the network underneath
    completed: int = 0
    wire_bytes: int = 0
    cpu_s: float = 0.0
    reference_s: list[float] = field(default_factory=list)
    """Passes of the host-speed reference, taken between the slices."""
    checkpoints: list[str] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    notes: dict[str, Any] = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(s[0] for s in self.slices)


# ----------------------------------------------------------------------
# layer counters (public stats objects, summed over the deployment)
# ----------------------------------------------------------------------
def _layer_counters(nodes, networks, accountants) -> dict[str, float]:
    c: dict[str, float] = {}

    def add(key: str, value: float) -> None:
        c[key] = c.get(key, 0) + value

    for network in networks:
        stats = network.stats
        add("net.sends", stats.sent)
        add("net.delivered", stats.delivered)
        add("net.filtered", stats.filtered)
        add("net.lost", getattr(stats, "lost", 0))
        add("wire.rejected", getattr(stats, "rejected", 0))
        add("runtime.queued", getattr(stats, "queued", 0))
        add("runtime.queue_dropped", getattr(stats, "queue_dropped", 0))
        cache_stats = getattr(network, "cache_stats", None)
        if cache_stats is not None:
            hints = cache_stats()["net.owner_hint"]
            add("net.owner_hint_hits", hints["hits"])
            add("net.owner_hint_misses", hints["misses"])
    for node in nodes:
        cm = node.cm
        add("nat.relayed", cm.stats_relayed)
        add("nat.punches", cm.stats_punches)
        add("nat.sessions_evicted", cm.stats_sessions_evicted)
        pss = node.pss.stats
        add("pss.cycles", pss.cycles)
        add("pss.rebootstraps", pss.rebootstraps)
        add("pss.initiated", pss.initiated)
        add("pss.completed", pss.completed)
        add("pss.response_timeouts", pss.response_timeouts)
        add("pss.contact_failures", pss.contact_failures)
        wcl = node.wcl.stats
        for name in (
            "sent", "forwarded", "delivered", "no_path", "misrouted",
            "forward_failures", "circuit_setups", "circuit_sent",
            "circuit_forwarded",
        ):
            add(f"wcl.{name}", getattr(wcl, name))
        for ppss in node.groups.values():
            stats = ppss.stats
            add("ppss.app_sent", stats.app_sent)
            add("ppss.app_received", stats.app_received)
            add("ppss.exchanges_completed", stats.exchanges_completed)
            add("ppss.first_attempt_success", stats.first_attempt_success)
            add("ppss.alt_success", stats.alt_success)
            add("ppss.no_alt", stats.no_alt)
    for accountant in accountants:
        for node_id in accountant.nodes():
            for op, record in accountant.op_breakdown(node_id).items():
                add("crypto.charged_ms", record.total_ms)
                if op == "rsa_encrypt":
                    add("crypto.rsa_encrypts", record.count)
                elif op == "rsa_decrypt":
                    add("crypto.rsa_decrypts", record.count)
                elif op == "aes":
                    add("crypto.sym_ops", record.count)
    return c


def _delta(after: dict[str, float], before: dict[str, float]) -> dict[str, float]:
    return {key: value - before.get(key, 0) for key, value in after.items()}


def _category_up_bytes(accountant, category: str) -> int:
    """Bytes put on the wire under ``category``, over all nodes."""
    return sum(
        totals.up_by_category.get(category, 0)
        for totals in accountant.all_totals().values()
    )


def _sha(*parts: Any) -> str:
    return hashlib.sha256(
        json.dumps(parts, sort_keys=True, default=str).encode()
    ).hexdigest()


def _net_totals(worlds) -> list[int]:
    totals = [0, 0, 0, 0, 0]
    for world in worlds:
        s = world.network.stats
        for i, name in enumerate(("sent", "delivered", "lost", "filtered", "no_handler")):
            totals[i] += getattr(s, name)
    return totals


def _invariant_problems(worlds, notes: dict[str, Any]) -> list[str]:
    """``check_invariants`` over every world; violations are problems.

    One exception: the PSS keeps its Pi P-node floor only as far as the
    entries at hand allow (``_enforce_public_floor`` draws on the view and
    the received buffer, nothing else), so at any instant about one full
    view in 30,000 is below it.  That would fail one ``shard10k`` run in
    three for a property the program does not promise; it is counted in the
    notes instead.  The sweep of a world stops at its first violation.
    """
    problems = []
    for world in worlds:
        try:
            check_invariants(world)
        except InvariantViolation as violation:
            if "P-node floor" in str(violation):
                notes["pi_floor_violations"] = notes.get("pi_floor_violations", 0) + 1
            else:
                problems.append(f"invariant violated: {violation}")
    return problems


class _Base:
    name = ""
    live = False

    def __init__(self, seed: int, smoke: bool, tracer=None) -> None:
        self.seed = seed
        self.smoke = smoke
        self.tracer = tracer
        self.rng = random.Random(seed)
        self.setup_digest: str | None = None

    def _trace_networks(self, worlds) -> None:
        if self.tracer is not None:
            for world in worlds:
                self.tracer.wrap_network(world.network)

    def _bench_span(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        """The benchmark's own callbacks count as the ``bench`` layer."""
        if self.tracer is None:
            return fn
        return self.tracer.wrap(fn, "bench", f"bench:{name}")

    def warm_up(self) -> None:
        """Work between set-up and the measured phase that neither counts."""

    def teardown(self) -> None:
        pass


# ----------------------------------------------------------------------
# gossip1k / shard10k: PSS exchanges over World / ShardedWorld
# ----------------------------------------------------------------------
class Gossip(_Base):
    """The whole population gossips; the load is the protocol's own cycle."""

    def __init__(self, name: str, seed: int, smoke: bool, tracer=None) -> None:
        super().__init__(seed, smoke, tracer)
        self.name = name
        self.sharded = name == "shard10k"
        if self.sharded:
            self.nodes_n = 1_000 if smoke else 10_000
            # Windows of one PSS cycle (10 sim-s) make cross-shard replies
            # miss the 5 s response timeout (72% of exchanges time out);
            # 1 sim-s windows keep every exchange inside it.
            self.slice_sim_s = 1.0
            self.warmup_sim_s = 15.0
        else:
            self.nodes_n = 100 if smoke else 1_000
            self.slice_sim_s = 2.0
            self.warmup_sim_s = 100.0
        self._latencies: list[float] = []
        self._completed = 0
        self._served_at: dict[tuple[int, int], float] = {}

    def setup(self) -> None:
        config = WorldConfig(seed=self.seed, whisper=replace(WhisperConfig(), pi=2))
        if self.sharded:
            self.deployment = ShardedWorld(config, partitions=8)
            self.worlds = self.deployment.worlds
        else:
            self.deployment = World(config)
            self.worlds = [self.deployment]
        self._trace_networks(self.worlds)
        self.deployment.populate(self.nodes_n)
        self.deployment.start_all()
        for world in self.worlds:
            for node in world.nodes.values():
                node.pss.add_exchange_listener(self._listener(node.node_id, world.sim))
        self.setup_digest = _sha(
            self._events(), _net_totals(self.worlds),
            [
                (node_id, node.nat_type.name)
                for world in self.worlds
                for node_id, node in sorted(world.nodes.items())
            ],
            [world.sim.pending() for world in self.worlds],
        )

    def _listener(self, me: int, sim) -> Callable[..., None]:
        """Latency of the response leg of an exchange, in simulated time.

        The responder's listener fires when the request arrives (it then
        sends the response), the initiator's when the response arrives.
        In the sharded world only pairs homed in one partition are timed:
        the barrier delivers every cross-shard response exactly one window
        later, a constant that says nothing about the run."""
        served_at = self._served_at
        latencies = self._latencies
        partition_of = self.deployment.partition_of if self.sharded else None
        home = partition_of(me) if partition_of else None

        def on_exchange(peer, key, initiated: bool) -> None:
            if initiated:
                self._completed += 1
                sent = served_at.pop((me, peer.node_id), None)
                if sent is not None:
                    latencies.append(sim.now - sent)
            elif partition_of is None or partition_of(peer.node_id) == home:
                served_at[(peer.node_id, me)] = sim.now

        return self._bench_span(on_exchange, "exchange_listener")

    def _events(self) -> int:
        return sum(world.sim.events_processed for world in self.worlds)

    def _nodes(self):
        return [node for world in self.worlds for node in world.nodes.values()]

    def _counters(self) -> dict[str, float]:
        return _layer_counters(
            self._nodes(),
            [world.network for world in self.worlds],
            [world.accountant for world in self.worlds],
        )

    def _pss_bytes(self) -> int:
        return sum(_category_up_bytes(w.network.accountant, "pss") for w in self.worlds)

    def _advance(self) -> None:
        if self.sharded:
            self.deployment.run_windows(self.slice_sim_s, 1, shards=1)
        else:
            self.deployment.run(self.slice_sim_s)

    def warm_up(self) -> None:
        """Gossip through the bootstrap, off the clock.

        The bootstrap (every node contacting the introducers, views
        filling) has an event mix of its own and lasts a fixed simulated
        time, so how much of it a run of fixed wall time would cover
        depends on the host.  It is not part of ``setup_s`` either: it is
        the program's ordinary event processing, not set-up work."""
        for _ in range(round(self.warmup_sim_s / self.slice_sim_s)):
            self._advance()

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        deployment = self.deployment
        advance = self._advance
        self._latencies.clear()
        before = self._counters()
        bytes_before = self._pss_bytes()
        completed_before = self._completed
        if self.sharded:
            harness_before = (
                list(deployment.compute_s), deployment.barrier_s,
                deployment.cross_shard_msgs,
            )
        rolling = ""
        cpu0 = time.process_time()
        deadline = time.perf_counter() + seconds
        while True:
            events0, done0, lat0 = self._events(), self._completed, len(self._latencies)
            t0 = time.perf_counter()
            advance()
            t1 = time.perf_counter()
            m.slices.append((t1 - t0, self._events() - events0, self._completed - done0))
            rolling = _sha(
                rolling, self._events(), _net_totals(self.worlds), self._completed,
                self._latencies[lat0:],
                deployment.trace_sha() if self.sharded else None,
            )
            m.checkpoints.append(rolling)
            hostspeed.sample(m.reference_s, t1 - t0)
            if time.perf_counter() >= deadline:
                break
        m.cpu_s = time.process_time() - cpu0
        m.counters = _delta(self._counters(), before)
        m.wire_bytes = self._pss_bytes() - bytes_before
        m.latencies_ms = [[value * 1000.0 for value in self._latencies]]
        # Offered: one gossip cycle per node and period.  A cycle fails when
        # the node has nobody to gossip with (its view ran empty and it had
        # to start over from the introducers, or could not).  An exchange
        # the protocol itself gives up on (the partner's NAT did not open,
        # the relay's session was gone) is lost, not failed: the node drops
        # the partner and gossips on.
        c = m.counters
        m.attempted = int(c["pss.cycles"])
        m.failed = int(c["pss.cycles"] - c["pss.initiated"] + c["pss.rebootstraps"])
        m.lost = int(c["pss.contact_failures"] + c["pss.response_timeouts"])
        m.completed = self._completed - completed_before
        if not self.smoke:  # a tenth of the population loses up to 5%
            m.problems += check.failed_share_problems(
                m.attempted, m.failed + m.lost, check.GOSSIP_FAILED_SHARE_CEILING
            )
        m.counters["sim.pending_final"] = sum(w.sim.pending() for w in self.worlds)
        if self.sharded:
            compute = [
                now - then for now, then in zip(deployment.compute_s, harness_before[0])
            ]
            m.counters["harness.compute_s"] = sum(compute)
            m.counters["harness.barrier_s"] = deployment.barrier_s - harness_before[1]
            m.counters["harness.cross_shard_msgs"] = (
                deployment.cross_shard_msgs - harness_before[2]
            )
            m.counters["harness.compute_skew"] = max(compute) / max(min(compute), 1e-9)
        m.problems += _invariant_problems(self.worlds, m.notes)
        return m


# ----------------------------------------------------------------------
# message bookkeeping shared by the simulated and the live message workloads
# ----------------------------------------------------------------------
class Ledger:
    """What was offered and what arrived, in a few bytes per message.

    The ledger is the benchmark's own memory inside ``peak_rss_mb``, and a
    run of fixed wall time delivers more messages on a faster host, so it
    stores send times and deliveries in arrays, not objects.  Bodies are
    never kept: the sink stores an 8-byte digest and the checker
    regenerates what was sent from (seed, stream, seq).
    """

    def __init__(self, seed: int, streams: int) -> None:
        self.seed = seed
        self.sent_at = [array("d") for _ in range(streams)]  # index = seq
        self.first = [0] * streams  # first measured seq of each stream
        self.stream = array("H")
        self.seq = array("I")
        self.at = array("d")
        self.digests = bytearray()
        self.measured_deliveries = 0

    def offer(self, stream: int, now: float) -> tuple[int, str]:
        """Next message of ``stream``: its sequence number and body."""
        times = self.sent_at[stream]
        seq = len(times)
        times.append(now)
        return seq, check.message_body(self.seed, stream, seq, BODY_BYTES)

    def deliver(self, stream: int, seq: int, body: str, now: float) -> None:
        self.stream.append(stream)
        self.seq.append(seq)
        self.at.append(now)
        self.digests += check.body_digest(body)
        if seq >= self.first[stream]:
            self.measured_deliveries += 1

    def start_measuring(self) -> None:
        """Messages offered from now on are the measured ones."""
        self.first = [len(times) for times in self.sent_at]

    def attempted(self) -> int:
        return sum(len(t) - f for t, f in zip(self.sent_at, self.first))

    def summary(self) -> tuple[int, list[float], list[str]]:
        """(measured messages delivered, their latencies in ms, problems)."""
        delivered = set()
        latencies = []
        for stream, seq, at in zip(self.stream, self.seq, self.at):
            if seq >= self.first[stream] and (stream, seq) not in delivered:
                delivered.add((stream, seq))
                latencies.append((at - self.sent_at[stream][seq]) * 1000.0)
        digests = self.digests
        problems = check.delivery_problems(
            self.seed, [len(times) for times in self.sent_at],
            (
                (stream, seq, bytes(digests[8 * i:8 * i + 8]))
                for i, (stream, seq) in enumerate(zip(self.stream, self.seq))
            ),
            BODY_BYTES,
        )
        return len(delivered), latencies, problems


# ----------------------------------------------------------------------
# msg_onion / msg_circuit: member-to-member streams inside private groups
# ----------------------------------------------------------------------
class Messages(_Base):
    """Open loop in simulated time: every stream offers at a fixed rate."""

    def __init__(self, name: str, seed: int, smoke: bool, tracer=None) -> None:
        super().__init__(seed, smoke, tracer)
        self.name = name
        self.circuit = name == "msg_circuit"
        self.nodes_n = 40 if smoke else 150
        self.groups_n = 2 if smoke else 4
        self.members_n = 5 if smoke else 8
        self.streams_per_group = 2 if smoke else 4
        self.rate = 20.0 if self.circuit else 10.0  # msg per sim-s per stream
        self.gossip_sim_s = 120.0
        self.convergence_sim_s = 240.0
        self.warmup_sim_s = 3.0
        self.drain_sim_s = 5.0
        self.refused = 0
        self.dropped_streams = 0
        self._stopped = False

    def setup(self) -> None:
        self.world = world = World(
            WorldConfig(
                seed=self.seed, provider="real", real_key_bits=512,
                real_use_aes=False,
                whisper=WhisperConfig(circuit_mode=self.circuit),
            )
        )
        self._trace_networks([world])
        world.populate(self.nodes_n)
        world.start_all()
        world.run(self.gossip_sim_s)
        leaders = world.public_nodes()[: self.groups_n]
        if len(leaders) < self.groups_n:
            raise WorkloadError("not enough public nodes to lead the groups")
        others = [n for n in world.alive_nodes() if n not in leaders]
        self.rng.shuffle(others)
        groups = []
        per_group = self.members_n - 1
        for index, leader in enumerate(leaders):
            founder = leader.create_group(f"bench-{index}")
            joiners = others[index * per_group:(index + 1) * per_group]
            groups.append(
                [founder] + [n.join_group(founder.invite(n.node_id)) for n in joiners]
            )
        world.run(self.convergence_sim_s)
        self.invited = sum(len(group) - 1 for group in groups)
        self.joined = sum(
            1 for group in groups for ppss in group[1:]
            if ppss.state is MemberState.MEMBER
        )
        self.streams = []
        for group in groups:
            members = [ppss for ppss in group if ppss.state is MemberState.MEMBER]
            # A source behind a symmetric NAT loses ~1% of its messages
            # (0-3% by seed: a stale relayed session to a first mix, which
            # fire-and-forget app messages never learn about); every other
            # source loses ~0.03%.  Sources are drawn from the others so
            # that the failed-share check flags regressions, not seed luck.
            sources = [
                ppss for ppss in members
                if not world.nodes[ppss.node_id].nat_type.is_symmetric
            ]
            for _ in range(self.streams_per_group):
                if not sources or len(members) < 2:
                    self.dropped_streams += 1
                    continue
                source = self.rng.choice(sources)
                destination = self.rng.choice([p for p in members if p is not source])
                self.streams.append((source, destination))
        sink = self._bench_span(self._sink, "sink")
        for group in groups:
            for ppss in group:
                ppss.set_app_handler(sink)
        self.setup_digest = _sha(
            world.sim.events_processed, world.sim.now, _net_totals([world]),
            self.joined, [(s.node_id, d.node_id) for s, d in self.streams],
        )
        if not self.streams:
            raise WorkloadError("no stream has both endpoints in its group")
        self.ledger = Ledger(self.seed, len(self.streams))
        for index in range(len(self.streams)):
            world.sim.schedule(
                self.rng.random() / self.rate, lambda i=index: self._fire(i)
            )

    def _fire(self, stream: int) -> None:
        if self._stopped:
            return
        if self.tracer is None:
            self._send(stream)
        else:
            self.tracer.message(self._send, "bench:send", stream)
        self.world.sim.schedule(1.0 / self.rate, lambda: self._fire(stream))

    def _send(self, stream: int) -> None:
        source, destination = self.streams[stream]
        seq, body = self.ledger.offer(stream, self.world.sim.now)
        accepted = source.send_app(
            destination.self_contact(), (stream, seq, body), BODY_BYTES,
            include_self_contact=False,
        )
        if not accepted:
            self.refused += 1

    def _sink(self, payload, reply_to) -> None:
        stream, seq, body = payload
        self.ledger.deliver(stream, seq, body, self.world.sim.now)

    def warm_up(self) -> None:
        """Offer the first seconds of traffic off the clock: in circuit
        mode each stream's first messages travel as onions while its
        circuit is set up, a phase with latencies of its own."""
        self.world.run(self.warmup_sim_s)

    def _counters(self) -> dict[str, float]:
        world = self.world
        return _layer_counters(
            world.nodes.values(), [world.network], [world.accountant]
        )

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        world = self.world
        ledger = self.ledger
        ledger.start_measuring()
        before = self._counters()
        refused_before = self.refused
        bytes_before = _category_up_bytes(world.network.accountant, "wcl")
        rolling = ""
        cpu0 = time.process_time()
        deadline = time.perf_counter() + seconds
        while True:
            events0, done0 = world.sim.events_processed, ledger.measured_deliveries
            mark = len(ledger.seq)
            t0 = time.perf_counter()
            world.run(1.0)
            t1 = time.perf_counter()
            m.slices.append(
                (t1 - t0, world.sim.events_processed - events0,
                 ledger.measured_deliveries - done0)
            )
            rolling = _sha(
                rolling, world.sim.events_processed, _net_totals([world]),
                list(ledger.stream[mark:]), list(ledger.seq[mark:]),
                list(ledger.at[mark:]), ledger.digests[8 * mark:].hex(),
                _category_up_bytes(world.network.accountant, "wcl"),
            )
            m.checkpoints.append(rolling)
            hostspeed.sample(m.reference_s, t1 - t0)
            if time.perf_counter() >= deadline:
                break
        self._stopped = True
        world.run(self.drain_sim_s)
        m.cpu_s = time.process_time() - cpu0
        m.counters = _delta(self._counters(), before)
        m.counters["sim.pending_final"] = world.sim.pending()
        m.wire_bytes = _category_up_bytes(world.network.accountant, "wcl") - bytes_before
        m.completed, latencies, problems = ledger.summary()
        m.latencies_ms = [latencies]
        m.attempted = ledger.attempted()
        m.failed = self.refused - refused_before
        m.lost = m.attempted - m.failed - m.completed  # undelivered after the drain
        m.notes = {
            "refused": m.failed, "streams": len(self.streams),
            "dropped_streams": self.dropped_streams,
            "members_joined": self.joined, "members_invited": self.invited,
        }
        m.problems += check.membership_problems(self.joined, self.invited)
        m.problems += problems
        m.problems += check.failed_share_problems(m.attempted, m.failed + m.lost)
        m.problems += _invariant_problems([world], m.notes)
        return m


# ----------------------------------------------------------------------
# live_udp: closed-loop flows over real loopback sockets
# ----------------------------------------------------------------------
def _live_config() -> WhisperConfig:
    """Circuit mode plus the fast timers of tests/test_live_runtime.py."""
    return WhisperConfig(
        pss=PssConfig(exchange_keys=True, cycle_time=0.5, response_timeout=2.0),
        ppss=PpssConfig(cycle_time=1.0, join_retry_every=1.0, response_timeout=3.0),
        circuit_mode=True,
    )


class Live(_Base):
    """Closed loop: each flow keeps one message in flight and sends the
    next on delivery (or after the loss timeout)."""

    name = "live_udp"
    live = True

    def __init__(self, name: str, seed: int, smoke: bool, tracer=None) -> None:
        super().__init__(seed, smoke, tracer)
        self.nodes_n = 8 if smoke else 16
        self.group_sizes = [6] if smoke else [8, 8]
        self.flows_n = 2 if smoke else 6
        self.window_s = 0.25 if smoke else 0.5
        self.settle_s = 1.0
        self.warmup_s = 0.5 if smoke else 1.0
        self.window_latencies: list[float] = []
        self.in_flight: dict[int, int] = {}  # flow -> seq awaited
        self.on_time = 0  # measured messages delivered within the loss timeout
        self.timed_out = 0
        self.refused = 0
        self._stopped = False
        self.runtime: LiveRuntime | None = None

    def setup(self) -> None:
        # Sim crypto: the real provider's pure-Python AES costs ~0.9 s of CPU
        # per message here and would hide the wire/socket/scheduler layers
        # this workload exists for.
        self.runtime = rt = LiveRuntime(
            seed=self.seed, provider="sim", whisper=_live_config()
        )
        ids = list(range(1, self.nodes_n + 1))
        for node_id in ids:
            rt.add_node(node_id)
        rt.start([rt.descriptor(node_id) for node_id in ids[:3]])
        if not rt.run_until(
            lambda: all(len(n.backlog.entries()) >= 2 for n in rt.nodes.values()),
            timeout=LIVE_FORMATION_TIMEOUT_S,
        ):
            raise WorkloadError("connection backlogs never filled over loopback")
        groups = []
        first = 0
        for index, size in enumerate(self.group_sizes):
            member_ids = ids[first:first + size]
            first += size
            founder = rt.nodes[member_ids[0]].create_group(f"bench-{index}")
            groups.append(
                [founder]
                + [rt.nodes[i].join_group(founder.invite(i)) for i in member_ids[1:]]
            )
        everyone = [ppss for group in groups for ppss in group]
        if not rt.run_until(
            lambda: all(p.state is MemberState.MEMBER for p in everyone),
            timeout=LIVE_FORMATION_TIMEOUT_S,
        ):
            joined = sum(p.state is MemberState.MEMBER for p in everyone)
            raise WorkloadError(
                f"groups did not form within {LIVE_FORMATION_TIMEOUT_S:.0f} s: "
                f"{joined}/{len(everyone)} members"
            )
        rt.run_for(self.settle_s)
        self.flows = []
        for index in range(self.flows_n):
            group = groups[index % len(groups)]
            self.flows.append(tuple(self.rng.sample(group, 2)))
        sink = self._bench_span(self._sink, "sink")
        for ppss in everyone:
            ppss.set_app_handler(sink)
        self.ledger = Ledger(self.seed, len(self.flows))

    def _offer(self, flow: int) -> None:
        if self._stopped:
            self.in_flight.pop(flow, None)
            return
        if self.tracer is None:
            self._send(flow)
        else:
            self.tracer.message(self._send, "bench:send", flow)

    def _send(self, flow: int) -> None:
        source, destination = self.flows[flow]
        seq, body = self.ledger.offer(flow, time.perf_counter())
        self.in_flight[flow] = seq
        if not source.send_app(
            destination.self_contact(), (flow, seq, body), BODY_BYTES,
            include_self_contact=False,
        ):
            self.refused += 1

    def _sink(self, payload, reply_to) -> None:
        now = time.perf_counter()
        flow, seq, body = payload
        self.ledger.deliver(flow, seq, body, now)
        if self.in_flight.get(flow) == seq:  # else: arrived after its loss timeout
            if seq >= self.ledger.first[flow]:
                self.on_time += 1
            self.window_latencies.append(
                (now - self.ledger.sent_at[flow][seq]) * 1000.0
            )
            self._offer(flow)

    def _expire(self) -> None:
        """Give up on messages older than the loss timeout; keep the flow going."""
        now = time.perf_counter()
        for flow, seq in list(self.in_flight.items()):
            if now - self.ledger.sent_at[flow][seq] > LIVE_LOSS_TIMEOUT_S:
                self.timed_out += 1
                self._offer(flow)

    def warm_up(self) -> None:
        """Start the flows and let circuits form before the clock starts."""
        for flow in range(len(self.flows)):
            self._offer(flow)
        self.runtime.run_for(self.warmup_s)

    def _counters(self) -> dict[str, float]:
        rt = self.runtime
        return _layer_counters(rt.nodes.values(), [rt.network], [rt.cpu])

    def _bytes(self) -> tuple[int, int]:
        totals = self.runtime.accountant.all_totals().values()
        return (
            sum(t.up_by_category.get("wcl", 0) for t in totals),
            sum(t.up_bytes for t in totals),
        )

    def measure(self, seconds: float) -> Measurement:
        m = Measurement()
        rt = self.runtime
        ledger = self.ledger
        stats = rt.network.stats
        # The flows keep running across this boundary: the message each has
        # in flight was offered during the warm-up and is not a measured one.
        ledger.start_measuring()
        self.on_time = self.timed_out = self.refused = 0
        before = self._counters()
        wcl_before, all_before = self._bytes()
        cpu0 = time.process_time()
        deadline = time.perf_counter() + seconds
        while True:
            events0, done0 = stats.delivered, self.on_time
            self.window_latencies = []
            t0 = time.perf_counter()
            rt.run_for(self.window_s)
            t1 = time.perf_counter()
            m.slices.append((t1 - t0, stats.delivered - events0, self.on_time - done0))
            m.latencies_ms.append(self.window_latencies)
            self._expire()
            hostspeed.sample(m.reference_s, t1 - t0)
            if time.perf_counter() >= deadline:
                break
        m.cpu_s = time.process_time() - cpu0
        self._stopped = True
        rt.run_until(lambda: not self.in_flight, timeout=LIVE_LOSS_TIMEOUT_S)
        self.timed_out += len(self.in_flight)
        m.counters = _delta(self._counters(), before)
        wcl_after, all_after = self._bytes()
        m.wire_bytes = wcl_after - wcl_before
        m.counters["wire.bytes"] = all_after - all_before
        m.counters["wire.frames"] = m.counters["net.sends"]
        _delivered, _latencies, problems = ledger.summary()
        m.attempted = ledger.attempted()
        m.completed = self.on_time  # delivered within the loss timeout
        m.failed = self.refused
        m.lost = m.attempted - m.failed - m.completed  # dropped or late
        m.notes = {"refused": self.refused, "timed_out": self.timed_out, "flows": len(self.flows)}
        m.problems += problems
        m.problems += check.failed_share_problems(m.attempted, m.failed + m.lost)
        return m

    def teardown(self) -> None:
        if self.runtime is not None:
            self.runtime.close()
            self.runtime = None


WORKLOADS: dict[str, type] = {
    "gossip1k": Gossip,
    "shard10k": Gossip,
    "msg_onion": Messages,
    "msg_circuit": Messages,
    "live_udp": Live,
}
"""Name -> implementation; BENCHMARK.json records why each one exists."""


def make(name: str, seed: int, smoke: bool = False, tracer=None):
    """A fresh workload object (one set-up, one measured phase)."""
    return WORKLOADS[name](name, seed, smoke, tracer)
