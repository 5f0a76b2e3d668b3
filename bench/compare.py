#!/usr/bin/env python3
"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

``A`` is the base (usually the parent commit), ``B`` the change; both are
``result.json`` files written by ``bench/run.py``.  One row per (workload,
end-to-end metric) with both headline values (best of R), the ratio B/A —
its base is A — and a verdict from the metric's bound in BENCHMARK.json:

- ``worse``      B is worse than A by more than the bound;
- ``better``     B is better than A by more than the bound;
- ``within``     the two differ by less than the bound;
- ``unresolved`` the spread of either side's own repeats, (max - min) /
  median, exceeds the bound, so this pair cannot tell the two apart.

The share of operations that did not complete (failed or lost, see
README.md) gets a row of its own per workload and is ``worse`` when it rose
by more than 0.002 (absolute).  Exit code 1 on any
``worse``, 2 when the files cannot be compared.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FAILED_SHARE_SLACK = 0.002


def verdict(a: dict, b: dict, better: str, bound: float) -> str:
    """Verdict for one metric from two ``_summary`` blocks of the suite."""
    for side in (a, b):
        if side["median"] and (side["max"] - side["min"]) / abs(side["median"]) > bound:
            return "unresolved"
    base, new = a["best"], b["best"]
    worse_by = (base - new) / base if better == "higher" else (new - base) / base
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "within"


def failed_share(entry: dict) -> float:
    attempted = sum(entry["attempted"])
    undone = sum(entry["failed"]) + sum(entry.get("lost", ()))
    return undone / attempted if attempted else 1.0


def compare(a: dict, b: dict, spec: dict) -> tuple[list[tuple], bool]:
    """Rows ``(workload, metric, a, b, ratio, verdict)`` and whether any is worse."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    rows: list[tuple] = []
    for name in a["workloads"]:
        left, right = a["workloads"][name], b["workloads"].get(name)
        if right is None:
            continue
        if "end_to_end" not in left or "end_to_end" not in right:
            rows.append((name, "(run failed)", None, None, None, "worse"))
            continue
        for metric, (better, bound) in bounds.items():
            if metric not in left["end_to_end"] or metric not in right["end_to_end"]:
                continue
            sa, sb = left["end_to_end"][metric], right["end_to_end"][metric]
            rows.append((
                name, metric, sa["best"], sb["best"], sb["best"] / sa["best"],
                verdict(sa, sb, better, bound),
            ))
        fa, fb = failed_share(left), failed_share(right)
        rows.append((
            name, "failed_share", fa, fb, fb / fa if fa else None,
            "worse" if fb > fa + FAILED_SHARE_SLACK else "within",
        ))
    return rows, any(row[5] == "worse" for row in rows)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    try:
        with open(argv[0], encoding="utf-8") as handle:
            a = json.load(handle)
        with open(argv[1], encoding="utf-8") as handle:
            b = json.load(handle)
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as error:
        print(f"compare: {error}", file=sys.stderr)
        return 2
    for key in ("seed", "seconds", "smoke"):
        if a.get(key) != b.get(key):
            print(f"compare: results differ in {key!r}: {a.get(key)!r} vs {b.get(key)!r}",
                  file=sys.stderr)
            return 2
    rows, any_worse = compare(a, b, spec)
    print(f"{'workload':12s} {'metric':20s} {'A (base)':>14s} {'B':>14s} {'B/A':>8s}  verdict")
    for name, metric, va, vb, ratio, word in rows:
        fmt = lambda v: f"{v:14.4f}" if v is not None else f"{'-':>14s}"  # noqa: E731
        shown = f"{ratio:8.3f}" if ratio is not None else f"{'-':>8s}"
        print(f"{name:12s} {metric:20s} {fmt(va)} {fmt(vb)} {shown}  {word}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
