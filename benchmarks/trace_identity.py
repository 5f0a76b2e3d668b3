"""Same-seed output digests for comparing two commits byte for byte.

Run it from the root of each checkout and diff the two outputs::

    PYTHONPATH=src python benchmarks/trace_identity.py > /tmp/a.txt

Every line is a pure function of the source tree: sharded trace SHAs at
three lane counts, three ``load`` scenario SHAs, telemetry JSONL SHA plus
fabric counters for a gossip-and-group world over latency model x wire
mode, and a real-crypto circuit-mode world for both bulk ciphers.
"""

from __future__ import annotations

import hashlib

from repro.core.node import WhisperConfig
from repro.experiments.load import run_scenario
from repro.harness import World, WorldConfig
from repro.harness.sharded import ShardedWorld


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


if __name__ == "__main__":
    sharded()
    load()
    fabric()
    circuits()
