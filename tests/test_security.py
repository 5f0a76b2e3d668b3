"""Security property tests: the paper's two confidentiality guarantees.

These tests run the full stack with the *real* crypto provider and a global
wiretap (strictly stronger than the paper's single-link adversary) and
check, on actual wire bytes:

- **content privacy** — plaintext never appears on any link, including at
  relays used for NAT bypassing;
- **membership privacy** — group names and membership information never
  appear on any link; non-members never accept group traffic;
- **relationship anonymity** — no single link carries a packet whose
  (sender, receiver) pair is (S, D); mixes learn only their adjacent hops.
"""

import pytest

from repro import wire
from repro.core.contact import Gateway, PrivateContact
from repro.core.ppss import MemberState
from repro.harness import World, WorldConfig
from repro.net.address import NodeKind
from repro.net.observer import LinkObserver

SECRET = "ATTACK-AT-DAWN-7c4a8d09ca3762af"
GROUP = "dissidents-bb2fca1b"


def real_world(seed=71, count=40):
    world = World(
        WorldConfig(seed=seed, provider="real", real_key_bits=512, real_use_aes=False)
    )
    world.populate(count)
    world.start_all()
    return world


def contact_for(node) -> PrivateContact:
    gateways = ()
    if node.cm.kind is NodeKind.NATTED:
        gateways = tuple(
            Gateway(descriptor=e.descriptor, key=e.key)
            for e in node.backlog.gateways_for_self()
        )
    return PrivateContact(
        descriptor=node.descriptor(), key=node.wcl.public_key, gateways=gateways
    )


def wire_bytes(packet) -> bytes:
    """Everything an eavesdropper on this packet could inspect: the frame a
    socket carries, and both endpoints."""
    frame = wire.encode_message(packet.kind, packet.payload)
    return frame + f"{packet.src_endpoint} {packet.dst_endpoint}".encode()


@pytest.fixture(scope="module")
def observed_run():
    """One fully-observed run: a group forms and exchanges a secret."""
    world = real_world()
    tap = LinkObserver()
    tap.watch_all()
    world.network.add_observer(tap)
    world.run(150.0)

    nodes = world.alive_nodes()
    natted = world.natted_nodes()
    leader = nodes[0]
    group = leader.create_group(GROUP)
    members = [leader]
    for node in natted[:5]:
        if node is leader:
            continue
        node.join_group(group.invite(node.node_id))
        members.append(node)
    world.run(300.0)

    src, dst = members[1], members[2]
    received = []
    original_upcall = dst._from_wcl

    def tap_upcall(content):
        if isinstance(content, dict) and "msg" in content:
            received.append(content)
        else:
            original_upcall(content)

    dst.wcl.set_receive_upcall(tap_upcall)
    attempt = src.wcl.send_to(contact_for(dst), {"msg": SECRET}, 2048)
    world.run(30.0)
    return world, tap, members, src, dst, attempt, received


class TestContentPrivacy:
    def test_secret_delivered(self, observed_run):
        *_rest, received = observed_run
        assert received == [{"msg": SECRET}]

    def test_plaintext_never_on_any_link(self, observed_run):
        _w, tap, *_rest = observed_run
        marker = SECRET.encode()
        assert len(tap.packets) > 1000  # the tap really saw the run
        for packet in tap.packets:
            assert marker not in wire_bytes(packet)

    def test_mixes_never_hold_the_content_key(self, observed_run):
        world, _tap, _members, _src, _dst, attempt, _received = observed_run
        # Mixes only ever charged rsa_decrypt for peeling; had one of them
        # decrypted the body, an extra 2 KB AES charge would appear.  The
        # structural guarantee is in the onion tests; here we confirm the
        # exchange actually traversed both mixes.
        acct = world.provider.accountant
        assert acct.node_total_ms(attempt.first_mix, "rsa_decrypt") > 0
        assert acct.node_total_ms(attempt.second_mix, "rsa_decrypt") > 0


class TestMembershipPrivacy:
    def test_group_name_never_on_any_link(self, observed_run):
        """The group's existence is invisible to a global wiretap."""
        _w, tap, *_rest = observed_run
        marker = GROUP.encode()
        for packet in tap.packets:
            assert marker not in wire_bytes(packet)

    def test_membership_joined(self, observed_run):
        _w, _tap, members, *_rest = observed_run
        for member in members:
            assert member.group(GROUP).state is MemberState.MEMBER

    def test_non_members_never_accept_group_traffic(self, observed_run):
        world, _tap, members, *_rest = observed_run
        member_ids = {m.node_id for m in members}
        for node in world.alive_nodes():
            if node.node_id in member_ids:
                continue
            assert GROUP not in node.groups

    def test_passport_required(self, observed_run):
        """A forged intra-group message without a valid passport is dropped."""
        world, _tap, members, *_rest = observed_run
        target = members[1]
        ppss = target.group(GROUP)
        before = ppss.stats.passport_rejections
        bogus = {
            "type": "ppss.request",
            "group": GROUP,
            "xid": 424242,
            "sender": ppss.self_contact(),
            "passport": None,
            "buffer": [],
            "hb": None,
            "election": None,
            "new_key": None,
        }
        ppss.handle_message(bogus)
        assert ppss.stats.passport_rejections == before + 1

    def test_wrong_group_passport_rejected(self, observed_run):
        world, _tap, members, *_rest = observed_run
        target = members[1]
        ppss = target.group(GROUP)
        # A passport from a different group's keyring.
        from repro.core.group import GroupKeyring, issue_passport
        other = GroupKeyring(group="other")
        other.become_leader(world.provider.generate_keypair())
        stranger_passport = issue_passport(world.provider, other, member_id=99999)
        before = ppss.stats.passport_rejections
        bogus = {
            "type": "ppss.request",
            "group": GROUP,
            "xid": 424243,
            "sender": ppss.self_contact(),
            "passport": stranger_passport,
            "buffer": [],
            "hb": None,
            "election": None,
            "new_key": None,
        }
        ppss.handle_message(bogus)
        assert ppss.stats.passport_rejections == before + 1


class TestRelationshipAnonymity:
    def test_no_direct_link_between_src_and_dst(self, observed_run):
        """No packet of the confidential exchange travels S -> D directly.

        (Scoped to packets carrying this onion: S and D may legitimately be
        neighbours at the public PSS level — that reveals nothing about the
        private exchange.)"""
        _w, tap, _members, src, dst, attempt, _received = observed_run
        carrying = [
            p for p in tap.packets if _carries_trace(p.payload, attempt.trace_id)
        ]
        assert carrying  # the onion did traverse the network
        for packet in carrying:
            assert not (
                packet.sender == src.node_id and packet.receiver == dst.node_id
            )

    def test_onion_hops_follow_the_mix_path(self, observed_run):
        _w, tap, _members, src, dst, attempt, _received = observed_run
        trace_packets = [
            p for p in tap.packets
            if _carries_trace(p.payload, attempt.trace_id)
        ]
        hops = {(p.sender, p.receiver) for p in trace_packets if p.receiver is not None}
        assert (src.node_id, attempt.first_mix) in hops
        assert (attempt.second_mix, dst.node_id) in hops
        # And crucially never (S, D):
        assert (src.node_id, dst.node_id) not in hops

    def test_first_link_observer_cannot_see_destination(self, observed_run):
        """An attacker on the S->A link sees A as the far endpoint, and the
        remaining path (B, D) only inside sealed layers."""
        _w, tap, _members, src, dst, attempt, _received = observed_run
        first_link = [
            p for p in tap.packets
            if p.sender == src.node_id and p.receiver == attempt.first_mix
            and _carries_trace(p.payload, attempt.trace_id)
        ]
        assert first_link
        # The destination endpoint string of D never appears on this link.
        dst_host = dst.descriptor().public_endpoint
        for packet in first_link:
            blob = wire_bytes(packet)
            if dst_host is not None:
                assert str(dst_host).encode() not in blob


def _carries_trace(payload, trace_id) -> bool:
    """Walk nat.data / nat.relay wrappers looking for the onion's trace id
    (instrumentation only: real wire formats carry no such id)."""
    from repro.core.onion import OnionPacket

    seen = 0
    stack = [payload]
    while stack and seen < 50:
        seen += 1
        item = stack.pop()
        if isinstance(item, OnionPacket):
            if item.trace_id == trace_id:
                return True
        elif isinstance(item, dict):
            stack.extend(item.values())
    return False
