"""PPSS: the private peer sampling service (Section IV).

Per-group gossip peer sampling executed entirely over WCL confidential
routes.  A node runs one PPSS instance per private group it belongs to;
instances share the node's WCL/CB/PSS stack but keep membership state
strictly separate, so a node never discloses one group's membership to
another group's members.

The instance moves through three states:

- ``LEADER`` — created the group (holds the group private key);
- ``JOINING`` — redeeming an invitation: periodically sends the signed
  accreditation to the entry-point leader over a WCL path until the
  welcome (passport + group key + seed view) arrives;
- ``MEMBER`` — gossiping private views every cycle (1 minute in the paper).

Every message carries the sender's passport; messages with invalid
passports are ignored silently.  View exchanges implement the retry scheme
of Table I: end-to-end response timeouts trigger alternative onion paths
(different mix pairs); after ``MAX_ATTEMPTS`` the partner is declared
failed and evicted from the private view.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable

from ..crypto.provider import CryptoProvider
from ..net.address import NodeId
from ..net.message import sizes
from ..sim.clock import Clock
from ..sim.process import ExponentialBackoff, PeriodicTask, Timer
from ..telemetry import NULL_TELEMETRY, Span, Telemetry
from .contact import PrivateContact
from .election import Heartbeat, LeaderElection
from .group import (
    GroupKeyring,
    Invitation,
    Passport,
    issue_accreditation,
    issue_passport,
)
from .wcl import AttemptInfo, WhisperCommunicationLayer

__all__ = [
    "MemberState",
    "PpssConfig",
    "PpssStats",
    "PrivateViewEntry",
    "PrivatePeerSamplingService",
]


class MemberState(Enum):
    """Lifecycle of one node's membership in one group."""

    JOINING = "joining"
    MEMBER = "member"
    LEFT = "left"


# Small views keep gateway information fresh: with 5-entry views fully
# shuffled every minute, the Π P-nodes attached to an entry are rarely more
# than a couple of cycles old — which is what makes first-attempt route
# construction succeed at the paper's Table I rates.
VIEW_SIZE = 5
SHUFFLE_SIZE = 5  # entries per exchange, including our own
MAX_ATTEMPTS = 4  # first try + Π = 3 retries
# Retries back off exponentially (with jitter from the node's seeded RNG)
# instead of firing back-to-back: during a partition every member times out
# together, and un-jittered retries would re-synchronize into waves that
# hammer the surviving mixes the moment the network heals.
RETRY_BACKOFF_BASE = 1.0
RETRY_BACKOFF_CAP = 30.0
JOIN_RETRY_CAP = 60.0
PCP_REFRESH_EVERY = 120.0


@dataclass(frozen=True)
class PpssConfig:
    """What deployments vary: 1-minute cycles in the paper, shorter on a
    live clock; the fixed protocol figures are the module constants."""

    cycle_time: float = 60.0
    response_timeout: float = 8.0
    join_retry_every: float = 15.0  # base of the join backoff
    heartbeat_enabled: bool = True
    election_timeout: float = 300.0  # 5 cycles without a heartbeat
    election_settle_cycles: int = 3


@dataclass
class PpssStats:
    """Counters for one PPSS instance (drives Table I classification)."""

    cycles: int = 0
    exchanges_started: int = 0
    exchanges_completed: int = 0
    first_attempt_success: int = 0
    alt_success: int = 0  # completed after >= 1 retry
    alt_failed: int = 0  # alternatives existed but all timed out
    no_alt: int = 0  # no alternative mix pair available
    partners_evicted: int = 0
    responses_served: int = 0
    passport_rejections: int = 0
    xid_mismatches: int = 0  # response xid matched, sender did not
    last_resort_exchanges: int = 0  # view empty, retried an evicted partner
    join_attempts: int = 0
    app_sent: int = 0
    app_received: int = 0
    cover_sent: int = 0  # decoy onions emitted (anonymity countermeasure)
    cover_received: int = 0  # decoys counted and discarded


@dataclass(frozen=True, slots=True)
class PrivateViewEntry:
    """One private-view slot: a member contact and its gossip age."""

    contact: PrivateContact
    age: int

    @property
    def node_id(self) -> NodeId:
        return self.contact.node_id

    def aged(self) -> "PrivateViewEntry":
        return PrivateViewEntry(contact=self.contact, age=self.age + 1)


@dataclass
class _PendingExchange:
    xid: int
    partner: PrivateContact
    tried: set[tuple[NodeId, NodeId]] = field(default_factory=set)
    attempts: int = 0
    timer: Timer | None = None
    started_at: float = 0.0
    span: Span | None = None


class PrivatePeerSamplingService:
    """One node's membership in one private group (Fig. 1's PPSS layer)."""

    def __init__(
        self,
        group: str,
        node_id: NodeId,
        wcl: WhisperCommunicationLayer,
        provider: CryptoProvider,
        sim: Clock,
        rng: random.Random,
        config: PpssConfig | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.group = group
        self.node_id = node_id
        self.wcl = wcl
        self.provider = provider
        self._sim = sim
        self._rng = rng
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self.config = config if config is not None else PpssConfig()
        self.state = MemberState.JOINING
        self.keyring = GroupKeyring(group=group)
        self.passport: Passport | None = None
        self.stats = PpssStats()
        # private view: node id -> entry, insertion-ordered (deterministic)
        self._view: dict[NodeId, PrivateViewEntry] = {}
        # Contacts of partners evicted after exhausted retries, freshest
        # last.  A member whose view empties during an outage (it evicted
        # everyone, everyone evicted it) would otherwise be isolated
        # forever — it can no longer initiate exchanges and nobody gossips
        # towards it.  These stashed contacts are its way back in once the
        # network heals (see _cycle).
        self._evicted_cache: dict[NodeId, PrivateContact] = {}
        # Exchange ids are ours alone: an xid is only ever looked up in the
        # ``_pending`` table of the instance that issued it.
        self._xids = itertools.count(1)
        self._pending: dict[int, _PendingExchange] = {}
        self._task: PeriodicTask | None = None
        self._join_timer: Timer | None = None
        self._join_attempt_no = 0
        self._retry_backoff = ExponentialBackoff(
            base=RETRY_BACKOFF_BASE, cap=RETRY_BACKOFF_CAP, jitter=0.2, rng=rng
        )
        self._join_backoff = ExponentialBackoff(
            base=self.config.join_retry_every, cap=JOIN_RETRY_CAP,
            jitter=0.2, rng=rng,
        )
        self._invitation: Invitation | None = None
        self._authorized: set[NodeId] = set()
        self._heartbeat_seq = 0
        self.election = LeaderElection(
            group=group,
            node_id=node_id,
            election_timeout=self.config.election_timeout,
            settle_cycles=self.config.election_settle_cycles,
            on_elected=self._become_elected_leader,
        )
        self._new_key_announcement: dict[str, Any] | None = None
        # persistent connection pool (Section IV-C)
        self._pcp: dict[NodeId, PrivateContact] = {}
        self._pcp_task: PeriodicTask | None = None
        self._app_handler: Callable[[Any, PrivateContact | None], None] | None = None
        # Hook for experiments, called once per finished exchange with
        # (outcome, attempts, partner_id, duration_seconds); outcome is
        # one of "success" | "alt" | "alt_failed" | "no_alt".
        self.exchange_outcome_hook: (
            Callable[[str, int, NodeId, float], None] | None
        ) = None

    # ==================================================================
    # lifecycle: create / join / leave
    # ==================================================================
    def create(self) -> None:
        """Become the founding leader of the group."""
        keypair = self.provider.generate_keypair()
        self.keyring.become_leader(keypair)
        self.passport = issue_passport(
            self.provider, self.keyring, self.node_id, node=self.node_id
        )
        self._become_member()

    def invite(self, invitee: NodeId | None = None, ttl: float = 3600.0) -> Invitation:
        """Leader operation: mint an invitation with ourselves as entry point."""
        accreditation = issue_accreditation(
            self.provider, self.keyring, invitee,
            expires_at=self._sim.now + ttl, node=self.node_id,
        )
        return Invitation(
            group=self.group, accreditation=accreditation,
            entry_point=self.self_contact(),
        )

    def authorize_join(self, node_id: NodeId) -> None:
        """The Fig. 1 ``authorizeJoin`` API: pre-approve a joiner by id
        (an alternative to accreditation-based admission)."""
        self._authorized.add(node_id)

    def join(self, invitation: Invitation) -> None:
        """Redeem an invitation: contact the entry-point leader over WCL."""
        if invitation.group != self.group:
            raise ValueError(
                f"invitation is for {invitation.group!r}, not {self.group!r}"
            )
        self._invitation = invitation
        self.state = MemberState.JOINING
        self._join_attempt_no = 0
        self._join_timer = Timer(self._sim, self._send_join)
        self._join_timer.start(self._rng.uniform(0.5, 3.0))

    def leave(self) -> None:
        """Stop all activity (the node departs or abandons the group)."""
        self.state = MemberState.LEFT
        for task in (self._task, self._pcp_task):
            if task is not None:
                task.stop()
        if self._join_timer is not None:
            self._join_timer.cancel()
            self._join_timer = None
        for pending in self._pending.values():
            if pending.timer is not None:
                pending.timer.cancel()
        self._pending.clear()

    def _become_member(self) -> None:
        if self._join_timer is not None:
            self._join_timer.cancel()
            self._join_timer = None
        self.state = MemberState.MEMBER
        self.election.note_alive(self._sim.now)
        phase = self._rng.uniform(0, self.config.cycle_time)
        self._task = PeriodicTask(
            self._sim, self.config.cycle_time, self._cycle, initial_delay=phase
        )
        self._pcp_task = PeriodicTask(
            self._sim, PCP_REFRESH_EVERY, self._refresh_pcp,
            initial_delay=self._rng.uniform(0, PCP_REFRESH_EVERY),
        )

    # ==================================================================
    # public sampling API (Fig. 1)
    # ==================================================================
    def get_peer(self) -> PrivateContact | None:
        """A random live member from the private view."""
        if not self._view:
            return None
        entry = self._rng.choice(list(self._view.values()))
        return entry.contact

    def view_contacts(self) -> list[PrivateContact]:
        """All member contacts currently in the private view."""
        return [entry.contact for entry in self._view.values()]

    def view_size(self) -> int:
        """Number of members currently in the private view."""
        return len(self._view)

    def make_persistent(self, node_id: NodeId) -> bool:
        """Pin a member into the persistent connection pool (Section IV-C)."""
        entry = self._view.get(node_id)
        if entry is None and node_id not in self._pcp:
            return False
        if entry is not None:
            self._pcp[node_id] = entry.contact
        return True

    def pin_contact(self, contact: PrivateContact) -> None:
        """Like :meth:`make_persistent`, for a contact learned outside the
        private view (e.g. from a T-Man exchange)."""
        self._pcp[contact.node_id] = contact

    def persistent_contact(self, node_id: NodeId) -> PrivateContact | None:
        """The (refreshed) contact of a pinned member, if pinned."""
        return self._pcp.get(node_id)

    def persistent_ids(self) -> list[NodeId]:
        """Members currently pinned in the persistent connection pool."""
        return list(self._pcp.keys())

    def self_contact(self) -> PrivateContact:
        """Our own advertisement: identity, WCL key, Π gateway P-nodes."""
        return self.wcl.self_contact()

    # ==================================================================
    # app-layer transport for protocols inside the group
    # ==================================================================
    def set_app_handler(
        self, handler: Callable[[Any, PrivateContact | None], None]
    ) -> None:
        """Applications (e.g. T-Chord) receive their payloads here."""
        self._app_handler = handler

    def send_app(
        self,
        contact: PrivateContact,
        payload: Any,
        size: int,
        include_self_contact: bool = True,
    ) -> bool:
        """Send an application payload to a member over a WCL path.

        ``include_self_contact`` ships our own contact so the receiver can
        reply with a single WCL path (the T-Chord query pattern of
        Section V-G)."""
        if self.passport is None:
            return False
        reply_to = self.self_contact() if include_self_contact else None
        attempt = self._send(
            contact, "ppss.app", "ppss.app",
            size + sizes.passport + (reply_to.wire_size() if reply_to else 0),
            {
                "sender_id": self.node_id, "passport": self.passport,
                "payload": payload, "reply_to": reply_to,
            },
        )
        if attempt is not None:
            self.stats.app_sent += 1
            return True
        return False

    def send_cover(self, contact: PrivateContact, size: int) -> bool:
        """Emit a decoy onion to ``contact`` (cover-traffic countermeasure).

        On the wire a decoy is indistinguishable from an application
        payload of the same ``size`` — same onion construction, same
        framing — so a passive observer correlating "who originates
        onions" with delivery windows sees every covering member as
        persistently active.  The receiver counts it and discards it
        (passport-gated like any group message); it never reaches the app
        handler.
        """
        if self.passport is None:
            return False
        attempt = self._send(
            contact, "ppss.cover", "ppss.cover", size + sizes.passport,
            {"sender_id": self.node_id, "passport": self.passport, "pad": size},
        )
        if attempt is not None:
            self.stats.cover_sent += 1
            self._tick("ppss.cover_sent")
            return True
        return False

    # ==================================================================
    # active gossip thread
    # ==================================================================
    def _cycle(self) -> None:
        if self.state is not MemberState.MEMBER:
            return
        self.stats.cycles += 1
        tel = self.telemetry
        if tel.enabled:
            self._tick("ppss.cycles")
            tel.gauge(
                "ppss.view_size", node=self.node_id, layer="ppss",
                group=self.group,
            ).set(len(self._view))
        self._age_view()
        if self.config.heartbeat_enabled:
            self.election.on_cycle(self._sim.now, epoch=len(self.keyring.history))
        partner = self._oldest_entry()
        if partner is None:
            # View empty: every partner was evicted (e.g. we stalled, or a
            # partition cut us off).  Retry evicted partners round-robin —
            # one success re-seeds the view through the response merge.
            contact = self._last_resort_partner()
            if contact is None:
                return
            self.stats.last_resort_exchanges += 1
            self._tick("ppss.last_resort_exchange")
            self._start_exchange(contact)
            return
        self._start_exchange(partner.contact)

    def _tick(self, name: str) -> None:
        self.telemetry.counter(name, node=self.node_id, layer="ppss").inc()

    def _last_resort_partner(self) -> PrivateContact | None:
        if not self._evicted_cache:
            return None
        nid, contact = next(iter(self._evicted_cache.items()))
        # Rotate to the back so successive cycles try different candidates.
        del self._evicted_cache[nid]
        self._evicted_cache[nid] = contact
        return contact

    def _age_view(self) -> None:
        self._view = {nid: entry.aged() for nid, entry in self._view.items()}

    def _oldest_entry(self) -> PrivateViewEntry | None:
        if not self._view:
            return None
        return max(self._view.values(), key=lambda e: (e.age, e.node_id))

    def _start_exchange(self, partner: PrivateContact) -> None:
        self.stats.exchanges_started += 1
        pending = _PendingExchange(
            xid=next(self._xids), partner=partner, started_at=self._sim.now
        )
        if self.telemetry.enabled:
            pending.span = self.telemetry.span_start(
                "ppss.exchange", node=self.node_id, layer="ppss",
                partner=partner.node_id,
            )
        self._pending[pending.xid] = pending
        self._attempt_exchange(pending)

    def _attempt_exchange(self, pending: _PendingExchange) -> None:
        attempt = self._send_exchange(
            pending.partner, "ppss.request", pending.xid, exclude=pending.tried
        )
        if attempt is None:
            outcome = "no_alt" if pending.attempts <= 1 else "alt_failed"
            self._finish_exchange(pending, success=False, outcome=outcome)
            return
        pending.attempts += 1
        pending.tried.add((attempt.first_mix, attempt.second_mix))
        if pending.timer is None:
            xid = pending.xid  # closing over ``pending`` would cycle through its timer
            pending.timer = Timer(self._sim, lambda: self._exchange_timeout(xid))
        pending.timer.start(self.config.response_timeout)

    def _exchange_timeout(self, xid: int) -> None:
        pending = self._pending.get(xid)
        if pending is None:
            return
        if pending.attempts >= MAX_ATTEMPTS:
            self._finish_exchange(pending, success=False, outcome="alt_failed")
            return
        # Back off before retrying over an alternative path (RETRY_BACKOFF_*).
        delay = self._retry_backoff.delay(pending.attempts - 1)
        self._sim.schedule(delay, lambda: self._retry_exchange(xid))

    def _retry_exchange(self, xid: int) -> None:
        pending = self._pending.get(xid)
        if pending is None:
            return  # answered (or the instance left) while backing off
        self._attempt_exchange(pending)

    def _finish_exchange(
        self, pending: _PendingExchange, success: bool, outcome: str
    ) -> None:
        self._pending.pop(pending.xid, None)
        if pending.timer is not None:
            pending.timer.cancel()
        partner_id = pending.partner.node_id
        if success:
            self.stats.exchanges_completed += 1
            self._evicted_cache.pop(partner_id, None)
            if pending.attempts == 1:
                self.stats.first_attempt_success += 1
                outcome = "success"
            else:
                self.stats.alt_success += 1
                outcome = "alt"
        else:
            if outcome == "no_alt":
                self.stats.no_alt += 1
            else:
                self.stats.alt_failed += 1
            # The paper: failing after Π retries is treated as a failure of
            # the destination, which is evicted from the private view.
            self.stats.partners_evicted += 1
            self._view.pop(partner_id, None)
            self._pcp.pop(partner_id, None)
            # Remember it (freshest last, bounded) in case the whole view
            # empties: last-resort re-entry partners after an outage.
            self._evicted_cache.pop(partner_id, None)
            self._evicted_cache[partner_id] = pending.partner
            while len(self._evicted_cache) > VIEW_SIZE:
                oldest = next(iter(self._evicted_cache))
                del self._evicted_cache[oldest]
        tel = self.telemetry
        if tel.enabled:
            if pending.span is not None:
                tel.span_end(
                    pending.span, outcome=outcome, attempts=pending.attempts
                )
            tel.counter(
                "ppss.exchange_outcome", layer="ppss", outcome=outcome
            ).inc()
            tel.histogram("ppss.exchange_s", layer="ppss").observe(
                self._sim.now - pending.started_at
            )
        if self.exchange_outcome_hook is not None:
            self.exchange_outcome_hook(
                outcome, pending.attempts, pending.partner.node_id,
                self._sim.now - pending.started_at,
            )

    # ==================================================================
    # message construction
    # ==================================================================
    def _send(
        self, contact: PrivateContact, msg_type: str, context: str, size: int,
        fields: dict[str, Any], exclude: set[tuple[NodeId, NodeId]] | None = None,
    ) -> AttemptInfo | None:
        """Every group message leaves here: ``fields`` stamped with the
        ``type`` / ``group`` every body opens with, over one WCL path of
        modelled ``size`` bytes."""
        body = {"type": msg_type, "group": self.group, **fields}
        return self.wcl.send_to(contact, body, size, exclude, context)

    def _send_exchange(
        self, partner: PrivateContact, msg_type: str, xid: int,
        exclude: set[tuple[NodeId, NodeId]] | None = None,
    ) -> AttemptInfo | None:
        """One view-exchange message (request or response): our contact,
        the buffer it heads and the piggybacks."""
        own = self.self_contact()
        buffer = self._buffer(own, SHUFFLE_SIZE - 1)
        size = sizes.gossip_header + sizes.passport
        size += sum(entry.contact.wire_size() for entry in buffer)
        fields = {
            "xid": xid, "sender": own, "passport": self.passport,
            "buffer": buffer, **self._piggybacks(),
        }
        return self._send(partner, msg_type, msg_type, size, fields, exclude)

    def _buffer(self, own: PrivateContact, count: int) -> list[PrivateViewEntry]:
        """Our own fresh entry ahead of up to ``count`` random view entries."""
        entries = list(self._view.values())
        return [PrivateViewEntry(contact=own, age=0)] + self._rng.sample(
            entries, min(count, len(entries))
        )

    def _piggybacks(self) -> dict[str, Any]:
        """What rides on every member-to-member protocol message: the
        leader heartbeat, election state and a pending key announcement."""
        return {
            "hb": self._heartbeat_piggyback(),
            "election": self.election.piggyback(),
            "new_key": self._new_key_announcement,
        }

    def _heartbeat_piggyback(self) -> Heartbeat | None:
        if not self.config.heartbeat_enabled:
            return None
        if self.keyring.is_leader:
            self._heartbeat_seq += 1
            return Heartbeat(
                leader_id=self.node_id,
                epoch=len(self.keyring.history),
                seq=self._heartbeat_seq,
            )
        return self.election.last_heartbeat

    # ==================================================================
    # inbound dispatch (wired from the node's WCL upcall)
    # ==================================================================
    def handle_message(self, body: dict[str, Any], size: int) -> None:
        """Entry point for every WCL-delivered content of this group."""
        msg_type = body.get("type")
        if msg_type == "group.join":
            self._on_join_request(body)
            return
        if msg_type == "group.welcome":
            self._on_welcome(body)
            return
        # Everything else requires a valid passport.
        if not self._passport_ok(body):
            self.stats.passport_rejections += 1
            self._tick("ppss.passport_rejections")
            return
        self._absorb_piggybacks(body)
        if msg_type == "ppss.request":
            self._on_request(body)
        elif msg_type == "ppss.response":
            self._on_response(body)
        elif msg_type == "ppss.app":
            self._on_app(body)
        elif msg_type == "ppss.cover":
            self._on_cover(body)
        elif msg_type == "ppss.pcp_refresh":
            self._on_pcp_refresh(body)
        elif msg_type == "ppss.pcp_ack":
            self._on_pcp_ack(body)

    def _passport_ok(self, body: dict[str, Any]) -> bool:
        passport = body.get("passport")
        if passport is None or self.state is MemberState.JOINING:
            return False
        sender = body.get("sender")
        sender_id = sender.node_id if sender is not None else body.get("sender_id")
        if sender_id is None:
            return False
        return self.keyring.verify_passport(
            self.provider, passport, sender_id, node=self.node_id
        )

    def _absorb_piggybacks(self, body: dict[str, Any]) -> None:
        heartbeat = body.get("hb")
        if heartbeat is not None:
            self.election.observe_heartbeat(heartbeat, self._sim.now)
        self.election.absorb(
            body.get("election"), self._sim.now, epoch=len(self.keyring.history)
        )
        announcement = body.get("new_key")
        if announcement is not None:
            self._on_new_key(announcement)

    # -- view exchanges -------------------------------------------------
    def _on_request(self, body: dict[str, Any]) -> None:
        self.stats.responses_served += 1
        self._tick("ppss.responses_served")
        sender: PrivateContact = body["sender"]
        # Reply first: the response samples the view as it stood before the
        # received buffer is merged into it.
        self._send_exchange(sender, "ppss.response", body["xid"])
        self._merge(body["buffer"], sender)

    def _on_response(self, body: dict[str, Any]) -> None:
        pending = self._pending.get(body["xid"])
        sender: PrivateContact = body["sender"]
        self._merge(body["buffer"], sender)
        if pending is None:
            return
        if sender.node_id != pending.partner.node_id:
            # The xid matches an outstanding exchange but the responder is
            # not the partner we asked — a delayed duplicate from a reused
            # xid, or a member replaying someone else's response.  The
            # buffer (passport-verified) was merged above; the exchange
            # itself stays open until the real partner answers.
            self.stats.xid_mismatches += 1
            self._tick("ppss.xid_mismatch")
            return
        self._finish_exchange(pending, success=True, outcome="success")

    def _merge(self, buffer: list[PrivateViewEntry], sender: PrivateContact) -> None:
        candidates: dict[NodeId, PrivateViewEntry] = dict(self._view)

        def consider(entry: PrivateViewEntry) -> None:
            if entry.node_id == self.node_id:
                return
            current = candidates.get(entry.node_id)
            if current is None or entry.age < current.age:
                candidates[entry.node_id] = entry

        for entry in buffer:
            consider(entry)
        consider(PrivateViewEntry(contact=sender, age=0))
        kept = sorted(candidates.values(), key=lambda e: (e.age, e.node_id))
        self._view = {entry.node_id: entry for entry in kept[:VIEW_SIZE]}
        # Keep PCP contacts fresh with the newest gateway information.
        for node_id in list(self._pcp.keys()):
            entry = self._view.get(node_id)
            if entry is not None:
                self._pcp[node_id] = entry.contact

    # -- join protocol ----------------------------------------------------
    def _send_join(self) -> None:
        if self.state is not MemberState.JOINING or self._invitation is None:
            return
        # Re-arm first: the next retry (with backoff) happens unless the
        # welcome arrives and _become_member cancels the timer.
        self._join_attempt_no += 1
        if self._join_timer is not None:
            self._join_timer.start(
                self._join_backoff.delay(self._join_attempt_no - 1)
            )
        self.stats.join_attempts += 1
        own = self.self_contact()
        self._send(
            self._invitation.entry_point, "group.join", "group.join",
            sizes.passport + own.wire_size(),
            {"accreditation": self._invitation.accreditation, "joiner": own},
        )

    def _on_join_request(self, body: dict[str, Any]) -> None:
        if not self.keyring.is_leader:
            return  # only leaders admit members; others stay silent
        joiner: PrivateContact = body["joiner"]
        accreditation = body.get("accreditation")
        authorized = joiner.node_id in self._authorized
        if not authorized:
            if accreditation is None:
                return
            if not self.keyring.verify_accreditation(
                self.provider, accreditation, joiner.node_id, self._sim.now,
                node=self.node_id,
            ):
                return
        passport = issue_passport(
            self.provider, self.keyring, joiner.node_id, node=self.node_id
        )
        seed = self._buffer(self.self_contact(), SHUFFLE_SIZE)
        history = list(self.keyring.history)
        size = sizes.passport + sizes.public_key * len(history)
        size += sum(entry.contact.wire_size() for entry in seed)
        self._send(
            joiner, "group.welcome", "group.welcome", size,
            {"passport": passport, "key_history": history, "seed": seed},
        )
        # Welcome the joiner into our own view too.
        self._merge([PrivateViewEntry(contact=joiner, age=0)], joiner)

    def _on_welcome(self, body: dict[str, Any]) -> None:
        if self.state is not MemberState.JOINING:
            return
        for key in body["key_history"]:
            self.keyring.adopt_key(key)
        passport: Passport = body["passport"]
        if passport.member_id != self.node_id:
            return
        self.passport = passport
        self._merge(body["seed"], body["seed"][0].contact)
        self._become_member()

    # -- persistent path refresh (Section IV-C) ---------------------------
    def _refresh_pcp(self) -> None:
        if self.state is not MemberState.MEMBER or self.passport is None:
            return
        for contact in list(self._pcp.values()):
            self._send_pcp(contact, "ppss.pcp_refresh")

    def _send_pcp(self, contact: PrivateContact, msg_type: str) -> None:
        """A persistent-path refresh or its ack: our current contact."""
        own = self.self_contact()
        self._send(
            contact, msg_type, "ppss.pcp",
            sizes.gossip_header + sizes.passport + own.wire_size(),
            {"sender": own, "passport": self.passport, **self._piggybacks()},
        )

    def _on_pcp_refresh(self, body: dict[str, Any]) -> None:
        sender: PrivateContact = body["sender"]
        # Refresh whatever we hold about the sender.
        self._merge([PrivateViewEntry(contact=sender, age=0)], sender)
        self._send_pcp(sender, "ppss.pcp_ack")

    def _on_pcp_ack(self, body: dict[str, Any]) -> None:
        sender: PrivateContact = body["sender"]
        if sender.node_id in self._pcp:
            self._pcp[sender.node_id] = sender

    # -- app payloads -----------------------------------------------------
    def _on_app(self, body: dict[str, Any]) -> None:
        self.stats.app_received += 1
        if self._app_handler is not None:
            self._app_handler(body["payload"], body.get("reply_to"))

    def _on_cover(self, body: dict[str, Any]) -> None:
        # Decoy padding: count it and drop it.  Cover traffic must stay
        # invisible above PPSS, so it never reaches the app handler.
        self.stats.cover_received += 1
        self._tick("ppss.cover_received")

    # -- leader election fallout -----------------------------------------
    def _become_elected_leader(self, epoch: int) -> None:
        """We won the election: roll the group key and announce it.

        Our own passport stays the old-key one — peers have not adopted the
        new key yet, and old passports remain valid through the key history;
        replacing it here would get every announcement-carrying message
        rejected before the announcement could spread.
        """
        keypair = self.provider.generate_keypair()
        self.keyring.become_leader(keypair)
        if self.passport is None:
            self.passport = issue_passport(
                self.provider, self.keyring, self.node_id, node=self.node_id
            )
        announcement_body = (
            "new_key", self.group, keypair.public.fingerprint, self.node_id
        )
        signature = self.provider.sign(
            self.wcl.keypair, announcement_body, node=self.node_id
        )
        self._new_key_announcement = {
            "group": self.group,
            "leader_id": self.node_id,
            "leader_key": self.wcl.public_key,
            "key": keypair.public,
            "signature": signature,
        }

    def _on_new_key(self, announcement: dict[str, Any]) -> None:
        key = announcement["key"]
        if any(k.fingerprint == key.fingerprint for k in self.keyring.history):
            return
        body = (
            "new_key", announcement["group"], key.fingerprint,
            announcement["leader_id"],
        )
        if announcement["group"] != self.group:
            return
        if not self.provider.verify(
            announcement["leader_key"], body, announcement["signature"],
            node=self.node_id,
        ):
            return
        self.keyring.adopt_key(key)
        self.election.observe_heartbeat(
            Heartbeat(
                leader_id=announcement["leader_id"],
                epoch=len(self.keyring.history),
                seq=0,
            ),
            self._sim.now,
        )
        # Re-propagate so the announcement floods the group epidemically.
        self._new_key_announcement = announcement
