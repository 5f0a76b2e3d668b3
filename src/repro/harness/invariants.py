"""World-wide invariant checking.

``check_invariants(world)`` sweeps every live node and verifies the
structural properties the protocol stack must maintain at all times.  Tests
call it after integration scenarios; long-running experiments can call it
periodically to catch protocol-state corruption early.

Checked invariants:

- PSS views: within capacity, no self-entry, no dead entries older than the
  failure-detection horizon is *not* checked (liveness is eventual), but
  the Π P-node floor must hold whenever enough P-nodes exist.
- Connection backlog: within capacity, no self, every entry carries a key,
  the Π P-node floor (when the PSS view can supply P-nodes).
- Private views: only ever contain members of the same group (verified via
  passports having been required), never the node itself, within capacity.
- Group keyrings: members of the same group share a key-history prefix.

Recovery assertions (``check_private_view_recovery``,
``check_exchange_recovery``) close the fault-injection loop: after a
scripted partition/stall heals, they verify the stack actually *recovered*
— private views re-converged onto live members and end-to-end exchange
success returned to its pre-fault level — rather than merely not crashing.
"""

from __future__ import annotations

from ..core.ppss import VIEW_SIZE, MemberState
from ..net.address import NodeKind
from .world import World

__all__ = [
    "InvariantViolation",
    "RecoveryViolation",
    "check_invariants",
    "check_private_view_recovery",
    "check_exchange_recovery",
    "check_post_heal_success",
    "check_stream_recovery",
    "check_attack_mitigation",
]


class InvariantViolation(AssertionError):
    """A structural protocol invariant was broken."""


class RecoveryViolation(AssertionError):
    """The stack failed to recover after an injected fault healed."""


def _ensure(condition: bool, message: str) -> None:
    if not condition:
        raise InvariantViolation(message)


def _ensure_recovered(condition: bool, message: str) -> None:
    if not condition:
        raise RecoveryViolation(message)


def check_invariants(world: World) -> int:
    """Verify all invariants; returns the number of nodes checked."""
    checked = 0
    public_population = len(world.public_nodes())
    group_keys: dict[str, dict[str, int]] = {}
    for node in world.alive_nodes():
        checked += 1
        prefix = f"node {node.node_id}:"
        view = node.pss.view
        _ensure(len(view) <= view.capacity, f"{prefix} PSS view over capacity")
        _ensure(node.node_id not in view, f"{prefix} PSS view contains self")
        pi = node.config.pi
        if pi and public_population >= pi and len(view) >= view.capacity:
            _ensure(
                view.count_public() >= pi,
                f"{prefix} PSS view violates the Pi={pi} P-node floor "
                f"({view.count_public()} present)",
            )
        cb = node.backlog
        _ensure(len(cb) <= cb.capacity, f"{prefix} CB over capacity")
        _ensure(node.node_id not in cb, f"{prefix} CB contains self")
        for entry in cb.entries():
            _ensure(entry.key is not None, f"{prefix} CB entry without a key")
        for gateway in cb.gateways_for_self():
            _ensure(
                gateway.is_public,
                f"{prefix} advertises a non-public gateway",
            )
        for name, ppss in node.groups.items():
            gprefix = f"{prefix} group {name!r}:"
            _ensure(
                ppss.view_size() <= VIEW_SIZE,
                f"{gprefix} private view over capacity",
            )
            _ensure(
                all(c.node_id != node.node_id for c in ppss.view_contacts()),
                f"{gprefix} private view contains self",
            )
            for contact in ppss.view_contacts():
                if not contact.is_public:
                    _ensure(
                        all(g.is_public for g in contact.gateways),
                        f"{gprefix} member entry with non-public gateway",
                    )
            if ppss.keyring.history:
                fingerprints = tuple(k.fingerprint for k in ppss.keyring.history)
                seen = group_keys.setdefault(name, {})
                for depth, fp in enumerate(fingerprints):
                    previous = seen.setdefault(fp, depth)
                    _ensure(
                        previous == depth,
                        f"{gprefix} key history diverges at depth {depth}",
                    )
    return checked


def check_private_view_recovery(
    world: World,
    group: str,
    min_populated: float = 0.9,
    min_live_edges: float = 0.5,
) -> int:
    """Verify a group's private views re-converged after a healed fault.

    Two properties must hold once the gossip has had a few cycles to run
    post-heal:

    - at least ``min_populated`` of the group's live members hold a private
      view with at least one *live* member in it (a member with an empty or
      all-dead view cannot initiate exchanges — it would be isolated even
      though the network works again);
    - across all views, at least ``min_live_edges`` of the entries point at
      live members (views still dominated by departed/partitioned-away
      members mean the eviction-and-remerge loop is not making progress).

    Returns the number of members examined.  Raises
    :class:`RecoveryViolation` otherwise.
    """
    members = [
        node
        for node in world.alive_nodes()
        if group in node.groups
        and node.groups[group].state is MemberState.MEMBER
    ]
    if not members:
        raise RecoveryViolation(f"group {group!r} has no live members left")
    alive_ids = {node.node_id for node in members}
    populated = 0
    live_edges = 0
    total_edges = 0
    for node in members:
        contacts = node.groups[group].view_contacts()
        live = sum(1 for c in contacts if c.node_id in alive_ids)
        total_edges += len(contacts)
        live_edges += live
        if live > 0:
            populated += 1
    _ensure_recovered(
        populated >= min_populated * len(members),
        f"group {group!r}: only {populated}/{len(members)} members hold a "
        f"live private-view entry (need {min_populated:.0%})",
    )
    if total_edges:
        _ensure_recovered(
            live_edges >= min_live_edges * total_edges,
            f"group {group!r}: only {live_edges}/{total_edges} private-view "
            f"entries point at live members (need {min_live_edges:.0%})",
        )
    return len(members)


def check_stream_recovery(
    before_ratio: float,
    during_ratio: float,
    after_ratio: float,
    tolerance: float = 0.1,
) -> None:
    """Verify application streams recovered after an injected fault healed.

    The workload counterpart of :func:`check_exchange_recovery`, measured on
    *delivered application packets* rather than gossip exchanges: with the
    fault active the delivery ratio legitimately craters, but in the
    post-heal window it must climb back to within ``tolerance`` of the
    pre-fault level.  The ``during`` ratio is required not to *exceed* the
    recovered one — if delivery during the fault looks no worse than after
    it, the fault never actually bit and the recovery claim is vacuous.
    Raises :class:`RecoveryViolation` otherwise.
    """
    _ensure_recovered(
        after_ratio >= before_ratio - tolerance,
        f"stream delivery did not recover: {after_ratio:.1%} after healing "
        f"vs {before_ratio:.1%} baseline (tolerance {tolerance:.0%})",
    )
    _ensure_recovered(
        during_ratio <= after_ratio,
        f"fault window shows no impact: {during_ratio:.1%} during vs "
        f"{after_ratio:.1%} after — the injected fault did not bite",
    )


def check_post_heal_success(
    rate: float,
    floor: float,
    what: str = "route success",
) -> None:
    """Verify a post-heal success ratio clears an absolute floor.

    The gate the ``soak`` experiment (and its CI job) runs on: unlike
    :func:`check_exchange_recovery`, which compares against the run's own
    pre-fault baseline, this asserts an *absolute* service level — after
    the fault schedule heals, at least ``floor`` of attempted operations
    must succeed, no matter how good the baseline was.  Raises
    :class:`RecoveryViolation` otherwise.
    """
    _ensure_recovered(
        rate >= floor,
        f"post-heal {what} {rate:.1%} is below the {floor:.1%} floor",
    )


def check_attack_mitigation(
    baseline_rate: float,
    mitigated_rate: float,
    what: str = "attack success",
    margin: float = 0.0,
) -> None:
    """Verify a countermeasure actually reduced an attack's success rate.

    The gate the ``anonymity`` experiment (and its CI job) runs on: the
    attack's success under the countermeasure must come in below the
    baseline by at least ``margin``.  A baseline of zero fails too — if
    the attack never succeeded without the countermeasure, the mitigation
    claim is vacuous and the scenario needs rescaling, not a green check.
    Raises :class:`RecoveryViolation` otherwise.
    """
    _ensure_recovered(
        baseline_rate > 0.0,
        f"{what}: the baseline attack never succeeded — the mitigation "
        "claim is vacuous at this scale",
    )
    _ensure_recovered(
        mitigated_rate <= baseline_rate - margin,
        f"{what}: {mitigated_rate:.1%} under the countermeasure vs "
        f"{baseline_rate:.1%} baseline (required drop: {margin:.1%})",
    )


def check_exchange_recovery(
    baseline_rate: float,
    recovered_rate: float,
    tolerance: float = 0.05,
) -> None:
    """Verify end-to-end exchange success returned to its pre-fault level.

    ``baseline_rate`` is the success fraction measured before the fault,
    ``recovered_rate`` the fraction in a window after healing; recovery
    means the latter is within ``tolerance`` (5 points by default) of the
    former.  Raises :class:`RecoveryViolation` otherwise.
    """
    _ensure_recovered(
        recovered_rate >= baseline_rate - tolerance,
        f"exchange success did not recover: {recovered_rate:.1%} after "
        f"healing vs {baseline_rate:.1%} baseline "
        f"(tolerance {tolerance:.0%})",
    )
