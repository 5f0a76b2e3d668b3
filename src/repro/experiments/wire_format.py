"""Wire format — measured frame sizes vs the paper's ``WireSizes`` model.

The paper's bandwidth figures (Fig. 6, Fig. 8) are computed from size
*estimates*: 1 KB public keys, 40-byte view entries, 128-byte onion
layer overheads.  With the binary codec those numbers become measurable.
This experiment reports two things, both a pure function of the seed:

1. measured vs estimated frame sizes — a sim run with the codec in
   ``"verify"`` mode records, for every fabric message, the bytes the
   codec produced next to the bytes the protocol layer claimed;
2. figure deltas — Fig. 6's headline cell re-run with ``"measured"``
   sizes, quantifying how the codec-true bytes shift the per-cycle
   bandwidth the paper reports.

Codec speed is measured end to end by the repository benchmark
(``bench/``: ``live_udp``'s per-layer ``wire.*`` metrics), not here.

Note the sim-provider caveat: in sim-crypto worlds, a sealed envelope
charges its *modelled* size but encodes as its layer's bytes with an
empty wrapped key, so measured onion bytes under the sim provider are a
floor by the missing RSA wrap, not a claim about RSA output sizes.  Kind-level framing and gossip/control sizes are
provider-independent.
"""

from __future__ import annotations

from ..harness.report import Report, Table
from ..harness.world import World, WorldConfig
from .common import scaled
from .fig6_key_sampling import run as fig6_run

__all__ = ["run"]


def run(scale: float = 1.0, seed: int = 1010) -> Report:
    report = Report(title="Wire format — measured vs estimated frame sizes")
    report.add(_audit_table(scale, seed))
    _fig6_delta(report, scale, seed)
    report.note(
        "ratio = measured frame bytes / WireSizes estimate; >1 means the "
        "paper's constants undershoot what the codec actually emits."
    )
    report.note(
        "sim-provider caveat: sealed blobs carry no RSA-wrapped key, so "
        "onion-bearing kinds are measured floors, not RSA byte counts."
    )
    return report


def _audit_table(scale: float, seed: int) -> Table:
    """Run a small deployment with the codec verifying every send."""
    world = World(WorldConfig(seed=seed, wire_mode="verify"))
    world.populate(scaled(120, scale, minimum=24))
    world.start_all()
    leader = world.nodes[1].create_group("wire-audit")
    world.sim.run(until=60.0)
    world.nodes[4].join_group(leader.invite())
    world.nodes[7].join_group(leader.invite())
    world.sim.run(until=240.0)
    table = Table(
        title="Measured vs estimated bytes per fabric message (240 s sim run)",
        headers=["kind", "count", "est mean", "measured mean", "ratio"],
    )
    for row in world.network.wire_audit.table():
        table.add_row(
            row["kind"],
            row["count"],
            round(row["mean_estimated"]),
            round(row["mean_measured"]),
            row["ratio"],
        )
    return table


def _fig6_delta(report: Report, scale: float, seed: int) -> None:
    """Fig. 6 headline config under estimated vs codec-measured sizes."""
    small = min(scale, 0.2)  # the delta needs shape, not the full campaign
    kwargs = dict(scale=small, seed=seed, warmup_cycles=5, window_cycles=5)
    estimated = fig6_run(wire_mode="off", **kwargs)
    measured = fig6_run(wire_mode="measured", **kwargs)
    table = Table(
        title="Fig. 6 delta — 70/30 ratio, estimated vs measured sizes",
        headers=["config", "N up (est)", "N up (meas)", "P up (est)", "P up (meas)"],
    )
    est_table = estimated.sections[1]  # 70/30 is the second ratio table
    meas_table = measured.sections[1]
    for est_row, meas_row in zip(est_table.rows, meas_table.rows):
        table.add_row(
            est_row[0], est_row[1], meas_row[1], est_row[3], meas_row[3]
        )
    report.add(table)
