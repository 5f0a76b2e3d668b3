"""T-Man: gossip-based overlay topology construction [12].

T-Man turns a random overlay (here: the PPSS private view) into a structured
one: each node keeps an application view ranked by a problem-specific
proximity function and gossips it with neighbours, keeping the best entries
from the union.  Convergence to the target topology takes a few cycles.

The framework is deliberately oblivious to WHISPER: all communication goes
through the PPSS app channel, exactly as Section IV-C prescribes ("these
protocols are oblivious to the fact that the communication ... takes place
using a confidentiality-enforcing mechanism").
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

from ..core.contact import PrivateContact
from ..core.ppss import PrivatePeerSamplingService
from ..net.address import NodeId
from ..sim.clock import Clock
from ..sim.process import PeriodicTask

__all__ = ["TManEntry", "TManProtocol"]


@dataclass(frozen=True, slots=True)
class TManEntry:
    """A candidate neighbour: identity, application profile, reachability."""

    node_id: NodeId
    profile: Any
    contact: PrivateContact


# A selector receives (own profile, candidate entries) and returns the
# entries to keep, best first, at most its own size budget.
Selector = Callable[[Any, list[TManEntry]], list[TManEntry]]


@dataclass
class TManStats:
    """Counters for one T-Man instance."""

    rounds: int = 0
    pushes: int = 0
    pulls: int = 0


class TManProtocol:
    """One node's T-Man instance over one private group."""

    def __init__(
        self,
        name: str,
        ppss: PrivatePeerSamplingService,
        sim: Clock,
        rng: random.Random,
        profile: Any,
        selector: Selector,
        cycle_time: float = 20.0,
        exchange_size: int = 8,
        on_view_change: Callable[[list[TManEntry]], None] | None = None,
    ) -> None:
        self.name = name
        self.ppss = ppss
        self._sim = sim
        self._rng = rng
        self.profile = profile
        self._selector = selector
        self.exchange_size = exchange_size
        self._on_view_change = on_view_change
        self.view: dict[NodeId, TManEntry] = {}
        self.stats = TManStats()
        self._task = PeriodicTask(
            sim, cycle_time, self._cycle, initial_delay=rng.uniform(0, cycle_time)
        )

    def stop(self) -> None:
        """Stop the periodic T-Man cycle."""
        self._task.stop()

    def entries(self) -> list[TManEntry]:
        """Current application view, unordered."""
        return list(self.view.values())

    # ------------------------------------------------------------------
    def _self_entry(self) -> TManEntry:
        return TManEntry(
            node_id=self.ppss.node_id,
            profile=self.profile,
            contact=self.ppss.self_contact(),
        )

    def _cycle(self) -> None:
        self.stats.rounds += 1
        partner = self._pick_partner()
        if partner is None:
            return
        payload = {
            "app": "tman",
            "name": self.name,
            "op": "push",
            "entries": self._exchange_buffer(),
        }
        self.ppss.send_app(partner, payload, self._buffer_size())
        self.stats.pushes += 1

    def _pick_partner(self) -> PrivateContact | None:
        """Alternate between structured neighbours (refinement) and random
        PPSS peers (exploration) — the classic T-Man peer selection."""
        entries = self.entries()
        if entries and self._rng.random() < 0.5:
            return self._rng.choice(entries).contact
        return self.ppss.get_peer()

    def _exchange_buffer(self) -> list[TManEntry]:
        entries = self.entries()
        k = min(self.exchange_size, len(entries))
        sample = self._rng.sample(entries, k) if k else []
        return [self._self_entry()] + sample

    def _buffer_size(self) -> int:
        # Profile assumed small; entries dominated by the contact material.
        return sum(64 + e.contact.wire_size() for e in self._exchange_buffer())

    # ------------------------------------------------------------------
    def handle_payload(self, payload: dict, reply_to: PrivateContact | None) -> bool:
        """PPSS app-channel hook; True when the payload was ours."""
        if payload.get("app") != "tman" or payload.get("name") != self.name:
            return False
        received: list[TManEntry] = payload["entries"]
        if payload["op"] == "push" and reply_to is not None:
            answer = {
                "app": "tman",
                "name": self.name,
                "op": "pull",
                "entries": self._exchange_buffer(),
            }
            self.ppss.send_app(
                reply_to, answer, self._buffer_size(), include_self_contact=False
            )
        else:
            self.stats.pulls += 1
        self._merge(received)
        return True

    def _merge(self, received: list[TManEntry]) -> None:
        candidates: dict[NodeId, TManEntry] = dict(self.view)
        for entry in received:
            if entry.node_id != self.ppss.node_id:
                candidates[entry.node_id] = entry
        kept = self._selector(self.profile, list(candidates.values()))
        self.view = {e.node_id: e for e in kept}
        if self._on_view_change is not None:
            self._on_view_change(self.entries())
