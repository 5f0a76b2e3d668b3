#!/usr/bin/env python3
"""A private chat room: the paper's social-network motivation.

Eight members run a chat application inside a private group on a 120-node
network.  Messages fan out over the PPSS private view (epidemic flooding
with deduplication) — every hop is a WCL onion route, so neither message
contents nor the chat room's membership are visible to the other 112
nodes.  The script also demonstrates that a non-member who somehow obtains
a chat payload cannot inject messages: passports gate everything.

Run:  python examples/private_chat.py

Set ``REPRO_TRACE=trace.jsonl`` to run with telemetry enabled, export the
deterministic JSONL trace to that path, and print a span-tree summary
(``make trace`` does exactly this).
"""

from __future__ import annotations

import os

from repro import World, WorldConfig
from repro.core.ppss import MemberState, PpssConfig, PrivatePeerSamplingService

CHAT_GROUP = "late-night-channel"


class ChatRoom:
    """Epidemic group chat over the PPSS app channel."""

    def __init__(self, name: str, ppss: PrivatePeerSamplingService) -> None:
        self.name = name
        self.ppss = ppss
        self.transcript: list[tuple[str, str]] = []
        self._seen: set[int] = set()
        self._next_id = 0
        ppss.set_app_handler(self._on_payload)

    def say(self, text: str) -> None:
        self._next_id += 1
        message = {
            "app": "chat",
            "mid": (self.ppss.node_id, self._next_id),
            "author": self.name,
            "text": text,
        }
        self._accept(message)
        self._gossip(message)

    def _on_payload(self, payload, reply_to) -> None:
        if payload.get("app") != "chat":
            return
        if payload["mid"] in self._seen:
            return
        self._accept(payload)
        self._gossip(payload)  # keep the epidemic going

    def _accept(self, message) -> None:
        self._seen.add(message["mid"])
        self.transcript.append((message["author"], message["text"]))

    def _gossip(self, message) -> None:
        # Fan out to the whole private view; duplicates are filtered by
        # message id, and view rotation spreads the epidemic group-wide.
        for contact in self.ppss.view_contacts():
            self.ppss.send_app(contact, message, 256, include_self_contact=False)


def main() -> None:
    trace_path = os.environ.get("REPRO_TRACE")
    world = World(WorldConfig(seed=23, telemetry_enabled=bool(trace_path)))
    print("populating 120 nodes ...")
    world.populate(120)
    world.start_all()
    world.run(150.0)

    # Snappier cycles so the demo converges quickly.
    config = PpssConfig(cycle_time=20.0)
    nodes = world.alive_nodes()
    founder = nodes[0]
    group = founder.create_group(CHAT_GROUP, config=config)
    members = [founder]
    names = ["ada", "bob", "cleo", "dan", "eve", "fritz", "gus", "hana"]
    for node in nodes[1:8]:
        node.join_group(group.invite(node.node_id), config=config)
        members.append(node)
    world.run(200.0)
    states = [m.group(CHAT_GROUP).state for m in members]
    print(f"members joined: {sum(s is MemberState.MEMBER for s in states)}/8")

    rooms = [
        ChatRoom(name, member.group(CHAT_GROUP))
        for name, member in zip(names, members)
    ]
    world.run(120.0)  # private views mix

    rooms[0].say("anyone awake?")
    world.run(20.0)
    rooms[3].say("always.")
    rooms[5].say("what did the audit find?")
    world.run(20.0)
    rooms[0].say("nothing. the group stayed invisible.")
    world.run(240.0)  # let the epidemic deliver everywhere

    print("\ntranscript as seen by", names[7])
    for author, text in rooms[7].transcript:
        print(f"  <{author}> {text}")
    coverage = [len(r.transcript) for r in rooms]
    print(f"\nmessages delivered per member: {coverage}")

    # A non-member cannot inject chat: it has no passport for the group.
    outsider = nodes[20]
    assert CHAT_GROUP not in outsider.groups
    target = members[1].group(CHAT_GROUP)
    rejections_before = target.stats.passport_rejections
    forged = {
        "type": "ppss.app",
        "group": CHAT_GROUP,
        "sender_id": outsider.node_id,
        "passport": None,
        "payload": {"app": "chat", "mid": (0, 0), "author": "eve-l",
                    "text": "let me in"},
        "reply_to": None,
    }
    target.handle_message(forged)
    print(
        "\noutsider injection attempt rejected:",
        target.stats.passport_rejections == rejections_before + 1,
    )

    if trace_path:
        world.telemetry.export_jsonl(trace_path)
        print(f"\ntelemetry trace written to {trace_path}")
        print(world.telemetry.render_summary())


if __name__ == "__main__":
    main()
