"""Same-seed output digests, pinned by the golden file next to this one.

Every line is a pure function of the source tree, in any process and after
any other world (exchange ids and accreditation nonces count per instance,
telemetry exports renumber their ids): sharded trace SHAs at three lane
counts, three ``load`` scenario SHAs, telemetry JSONL SHA plus fabric
counters for a gossip-and-group world over latency model x wire mode, and
a real-crypto circuit-mode world for both bulk ciphers.

A change that moves a trace on purpose re-records the golden file in the
same commit, so the movement shows up in review::

    PYTHONPATH=src python tests/test_trace_identity.py > tests/trace_identity.txt
"""

from __future__ import annotations

import contextlib
import difflib
import hashlib
import io
import pathlib

from repro.core.node import WhisperConfig
from repro.experiments.load import run_scenario
from repro.harness import World, WorldConfig
from repro.harness.sharded import ShardedWorld

GOLDEN = pathlib.Path(__file__).with_name("trace_identity.txt")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _report(label: str, world: World) -> None:
    stats = world.network.stats
    counters = " ".join(f"{name}={getattr(stats, name)}" for name in stats.__slots__)
    print(
        f"{label} {_sha(world.telemetry.export_jsonl())}"
        f" events={world.sim.events_processed} {counters}"
    )


def sharded() -> None:
    for shards in (1, 2, 4):
        world = ShardedWorld(WorldConfig(seed=4242, telemetry_enabled=True), partitions=4)
        world.populate(150)
        world.start_all()
        world.run_windows(10.0, 4, shards=shards)
        print(f"sharded shards={shards} {world.trace_sha()}")


def load() -> None:
    for name in ("cbr", "cbr+loss", "flash"):
        print(f"load {name} {run_scenario(name, seed=77, scale=0.15).trace_sha}")


def _grouped_world(config: WorldConfig, nodes: int, members: int) -> World:
    """Gossip for 120 sim-s, with a private group formed after 30 s."""
    world = World(config)
    world.populate(nodes)
    world.start_all()
    world.run(30.0)
    group = world.public_nodes()[0].create_group("identity")
    invite = group.invite()
    for node in world.natted_nodes()[:members]:
        node.join_group(invite)
    world.run(90.0)
    return world


def fabric() -> None:
    for latency in ("cluster", "planetlab"):
        for mode in ("off", "verify", "measured"):
            config = WorldConfig(
                seed=5, telemetry_enabled=True, latency=latency, wire_mode=mode
            )
            _report(f"fabric {latency}/{mode}", _grouped_world(config, nodes=80, members=8))


def circuits() -> None:
    for use_aes in (True, False):
        config = WorldConfig(
            seed=9, telemetry_enabled=True, provider="real", real_key_bits=512,
            real_use_aes=use_aes, whisper=WhisperConfig(circuit_mode=True),
        )
        _report(f"circuits aes={use_aes}", _grouped_world(config, nodes=40, members=6))


def record() -> None:
    sharded()
    load()
    fabric()
    circuits()


def test_traces_match_the_golden_file():
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        record()
    got = printed.getvalue().splitlines()
    want = GOLDEN.read_text(encoding="utf-8").splitlines()
    moved = "\n".join(
        difflib.unified_diff(want, got, GOLDEN.name, "this tree", lineterm="", n=0)
    )
    assert got == want, (
        f"same-seed traces moved:\n{moved}\n"
        "if that is intended, re-record the golden file and commit it:\n"
        "  PYTHONPATH=src python tests/test_trace_identity.py > tests/trace_identity.txt"
    )


if __name__ == "__main__":
    record()
