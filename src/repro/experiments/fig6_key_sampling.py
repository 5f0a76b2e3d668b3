"""Fig. 6 — Public key sampling service: bandwidth costs.

Per-cycle upload/download bandwidth of N-nodes and P-nodes for five stack
configurations (unbiased PSS without and with key sampling, then Π=1..3
with key sampling) across three N:P population ratios (80/20, 70/30,
50/50).  The paper reports cumulative averages over 1,000 nodes.

Expected shape: balanced N/P bandwidth when unbiased; P-node load grows
with Π but stays within ~2.5 KB per 10 s cycle; the scarcer P-nodes are,
the more they carry.

The 15-point Π × ratio sweep runs through
:func:`repro.parallel.run_sweep`.  Per-point seeds come from
:func:`~repro.parallel.derive_seed` over the point key — the additive
``seed + pi + round(natted_fraction * 100)`` scheme used before PR 5
collides between distinct points (Π=7/nf=0.05 and Π=2/nf=0.10 both map
to ``seed + 12``), silently reusing RNG streams.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.node import WhisperConfig
from ..harness.report import Report, Table
from ..harness.world import World, WorldConfig
from ..net.address import NodeKind
from ..parallel import SweepSpec, derive_seed, run_sweep
from ..pss.gossip import PssConfig
from .common import scaled, traffic_window

__all__ = ["run", "CONFIGS"]

# (label, pi, exchange_keys)
CONFIGS = (
    ("unbiased", 0, False),
    ("unbiased+KS", 0, True),
    ("Pi=1+KS", 1, True),
    ("Pi=2+KS", 2, True),
    ("Pi=3+KS", 3, True),
)

RATIOS = (0.8, 0.7, 0.5)  # natted fractions: N:P of 80/20, 70/30, 50/50

# Traffic that belongs to the PSS + key management plane.
_CATEGORIES = ("pss", "wcl.cb")


def _point(point) -> tuple[float, float, float, float]:
    """One (ratio, config) world reduced to its per-cycle KB row."""
    (natted_fraction, pi, exchange_keys, point_seed, n_nodes,
     warmup_cycles, window_cycles, wire_mode) = point
    cycle = 10.0
    world = World(
        WorldConfig(
            seed=point_seed,
            natted_fraction=natted_fraction,
            whisper=replace(
                WhisperConfig(),
                pi=pi,
                pss=PssConfig(exchange_keys=exchange_keys),
            ),
            wire_mode=wire_mode,
        )
    )
    world.populate(n_nodes)
    world.start_all()
    world.run(warmup_cycles * cycle)
    window = traffic_window(world, window_cycles * cycle)
    return _per_cycle_kb(world, window, window_cycles)


def run(
    scale: float = 1.0,
    seed: int = 1006,
    warmup_cycles: int = 20,
    window_cycles: int = 20,
    wire_mode: str = "off",
    workers: int = 1,
) -> Report:
    """``wire_mode="measured"`` re-runs the figure with codec-true frame
    sizes instead of the paper's ``WireSizes`` estimates (see
    EXPERIMENTS.md, "Wire format")."""
    suffix = " [codec-measured sizes]" if wire_mode == "measured" else ""
    report = Report(
        title="Fig. 6 — Key sampling bandwidth (KB per 10 s cycle)" + suffix
    )
    n_nodes = scaled(1000, scale, minimum=100)
    points = []
    for natted_fraction in RATIOS:
        for label, pi, exchange_keys in CONFIGS:
            points.append((
                natted_fraction, pi, exchange_keys,
                derive_seed(seed, "fig6", natted_fraction, label),
                n_nodes, warmup_cycles, window_cycles, wire_mode,
            ))
    rows = iter(run_sweep(
        SweepSpec(name="fig6", points=tuple(points), worker=_point),
        workers=workers,
    ))
    for natted_fraction in RATIOS:
        table = Table(
            title=(
                f"N:{natted_fraction:.0%} P:{1 - natted_fraction:.0%} — "
                f"{n_nodes} nodes, averaged over {window_cycles} cycles"
            ),
            headers=["config", "N up", "N down", "P up", "P down"],
        )
        for label, _pi, _exchange_keys in CONFIGS:
            n_up, n_down, p_up, p_down = next(rows)
            table.add_row(label, n_up, n_down, p_up, p_down)
        report.add(table)
    report.note(
        "Counted traffic: gossip exchanges incl. piggybacked 1 KB keys and "
        "explicit CB key probes (categories: " + ", ".join(_CATEGORIES) + ")."
    )
    report.note(
        "Paper shape: balanced when unbiased; P-node cost grows with Pi and "
        "with P-node scarcity, remaining under ~2.5 KB/cycle."
    )
    return report


def _per_cycle_kb(world, window, window_cycles):
    n_up = n_down = p_up = p_down = 0.0
    n_count = p_count = 0
    for node in world.alive_nodes():
        totals = window.get(node.node_id)
        if totals is None:
            continue
        up = sum(totals.up_by_category.get(c, 0) for c in _CATEGORIES)
        down = sum(totals.down_by_category.get(c, 0) for c in _CATEGORIES)
        if node.cm.kind is NodeKind.PUBLIC:
            p_up += up
            p_down += down
            p_count += 1
        else:
            n_up += up
            n_down += down
            n_count += 1
    kb = 1024.0
    return (
        n_up / max(n_count, 1) / window_cycles / kb,
        n_down / max(n_count, 1) / window_cycles / kb,
        p_up / max(p_count, 1) / window_cycles / kb,
        p_down / max(p_count, 1) / window_cycles / kb,
    )
