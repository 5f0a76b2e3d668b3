#!/usr/bin/env python3
"""Quickstart: a private group and one confidential message.

Builds a 60-node NAT-heavy network, lets the peer sampling service
converge, creates a private group, invites a member, and sends one
confidential message over a WHISPER onion route — while a global wiretap
records every packet to show what an attacker would (not) see.

Run:  python examples/quickstart.py
"""

from repro import World, WorldConfig, wire
from repro.net.observer import LinkObserver


def main() -> None:
    # Real RSA + authenticated stream cipher so the wiretap demo is honest.
    world = World(WorldConfig(seed=7, provider="real", real_use_aes=False))
    wiretap = LinkObserver()
    wiretap.watch_all()
    world.network.add_observer(wiretap)

    print("populating 60 nodes (70% behind NATs) ...")
    world.populate(60)
    world.start_all()
    world.run(150.0)  # 15 PSS cycles: views and backlogs converge

    alice, bob = world.natted_nodes()[:2]
    print(f"alice = node {alice.node_id} ({alice.nat_type.value} NAT)")
    print(f"bob   = node {bob.node_id} ({bob.nat_type.value} NAT)")

    # --- private group -------------------------------------------------
    group = alice.create_group("friends")
    bob.join_group(group.invite(bob.node_id))
    world.run(120.0)
    print(f"bob's membership state: {bob.group('friends').state.value}")

    # --- one confidential message over an onion route -------------------
    secret = "meet me at the fountain at nine"
    received = []
    bob.wcl.set_receive_upcall(lambda content: received.append(content))
    # bob.wcl.self_contact() is bob's advertisement: id, key, Π gateways.
    attempt = alice.wcl.send_to(bob.wcl.self_contact(), secret, 512)
    world.run(30.0)

    print(f"\nbob received: {received[0]!r}")
    print(
        f"the onion travelled alice -> mix {attempt.first_mix} "
        f"-> mix {attempt.second_mix} (a P-node) -> bob"
    )

    # --- what the wiretap saw -------------------------------------------
    def carries_onion(payload) -> bool:
        """Does this packet carry our onion (measurement-only trace id)?"""
        from repro.core.onion import OnionPacket

        stack, seen = [payload], 0
        while stack and seen < 50:
            seen += 1
            item = stack.pop()
            if isinstance(item, OnionPacket) and item.trace_id == attempt.trace_id:
                return True
            if isinstance(item, dict):
                stack.extend(item.values())
        return False

    leaks = sum(
        1 for p in wiretap.packets
        if secret.encode() in wire.encode_message(p.kind, p.payload)
    )
    onion_hops = [
        (p.sender, p.receiver) for p in wiretap.packets if carries_onion(p.payload)
    ]
    direct = sum(
        1 for s, r in onion_hops if s == alice.node_id and r == bob.node_id
    )
    print(f"\nwiretap saw {len(wiretap.packets)} packets on the wire")
    print(f"packets containing the plaintext: {leaks}")
    print(f"onion hops observed: {onion_hops}")
    print(f"onion packets travelling alice -> bob directly: {direct}")
    print("content privacy and relationship anonymity hold.")


if __name__ == "__main__":
    main()
