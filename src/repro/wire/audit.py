"""Measured-vs-estimated wire size bookkeeping.

The paper's bandwidth figures rest on the ``WireSizes`` constants in
:mod:`repro.net.message` — *estimates* of what each message would cost on
the wire.  Once the codec exists those estimates become testable: every
frame the sim network encodes is recorded here next to the size the
protocol layer claimed, and :meth:`WireAudit.table` reports the ratio per
message kind.  EXPERIMENTS.md's "Wire format" section is generated from
exactly this data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["KindSizes", "WireAudit"]


@dataclass
class KindSizes:
    """Accumulated sizes for one message kind."""

    count: int = 0
    estimated_bytes: int = 0
    measured_bytes: int = 0
    min_measured: int = 0
    max_measured: int = 0

    def record(self, estimated: int, measured: int) -> None:
        if self.count == 0:
            self.min_measured = self.max_measured = measured
        else:
            self.min_measured = min(self.min_measured, measured)
            self.max_measured = max(self.max_measured, measured)
        self.count += 1
        self.estimated_bytes += estimated
        self.measured_bytes += measured

    @property
    def ratio(self) -> float:
        """measured / estimated; >1 means the paper's constants undershoot."""
        if self.estimated_bytes <= 0:
            return float("inf") if self.measured_bytes else 1.0
        return self.measured_bytes / self.estimated_bytes


@dataclass
class WireAudit:
    """Per-kind measured vs estimated frame sizes."""

    kinds: dict[str, KindSizes] = field(default_factory=dict)

    def record(self, kind: str, estimated: int, measured: int) -> None:
        entry = self.kinds.get(kind)
        if entry is None:
            entry = self.kinds[kind] = KindSizes()
        entry.record(estimated, measured)

    def table(self) -> list[dict[str, object]]:
        """Rows sorted by kind: count, mean sizes, measured/estimated ratio."""
        rows: list[dict[str, object]] = []
        for kind in sorted(self.kinds):
            entry = self.kinds[kind]
            rows.append(
                {
                    "kind": kind,
                    "count": entry.count,
                    "mean_estimated": entry.estimated_bytes / entry.count,
                    "mean_measured": entry.measured_bytes / entry.count,
                    "min_measured": entry.min_measured,
                    "max_measured": entry.max_measured,
                    "ratio": entry.ratio,
                }
            )
        return rows
