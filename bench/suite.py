"""The whole benchmark pass: repeats, traced runs, one result file.

Every run is a fresh ``bench/run.py --workload ... --trace ...``
subprocess, one at a time (the box has two cores; one process, one
thread, no pools).  The R untraced repeats are interleaved round-robin
across workloads, so a noisy interval does not hit all repeats of one
workload; then each workload gets one traced run.

Noise on a shared box is one-sided (a neighbour only ever slows a run
down), so the headline of every end-to-end metric is the **best of R** —
max for rates, min for durations and sizes — with median, min, max and
every per-repeat value recorded next to it.  End-to-end metrics are never
taken from the traced run.
"""

from __future__ import annotations

import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from . import check

BENCH_DIR = Path(__file__).resolve().parent
RUN_TIMEOUT_S = 900


def _one_run(workload: str, seed: int, seconds: float, trace: int, smoke: bool,
             out_dir: Path, record: Path) -> tuple[dict | None, str]:
    """Run once in a subprocess; returns (record, failure reason)."""
    command = [
        sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        "--record", str(record), "--out", str(out_dir),
    ]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(
            command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, f"timed out after {RUN_TIMEOUT_S} s"
    if done.returncode != 0:
        lines = done.stderr.strip().splitlines()
        return None, lines[-1] if lines else f"exit code {done.returncode}"
    with open(record, encoding="utf-8") as handle:
        return json.load(handle), ""


def _summary(values: list[float], better: str) -> dict:
    return {
        "best": max(values) if better == "higher" else min(values),
        "median": statistics.median(values),
        "min": min(values),
        "max": max(values),
        "values": values,
    }


def run(args, spec: dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    repeats = args.repeats if args.repeats else (1 if args.smoke else 3)
    out_dir = Path(args.out) if args.out else BENCH_DIR / "out"
    out_dir.mkdir(parents=True, exist_ok=True)

    untraced: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    failures: dict[str, list[str]] = {name: [] for name in names}
    for repeat in range(repeats):
        for name in names:
            print(f"[run] {name} repeat {repeat + 1}/{repeats}", flush=True)
            record, reason = _one_run(
                name, args.seed, args.seconds, 0, args.smoke, out_dir,
                out_dir / f"run_{name}_{repeat}.json",
            )
            if record is None:
                failures[name].append(f"repeat {repeat + 1} failed: {reason}")
            else:
                untraced[name].append(record)
    for name in names:
        print(f"[run] {name} traced", flush=True)
        record, reason = _one_run(
            name, args.seed, args.seconds, 1, args.smoke, out_dir,
            out_dir / f"run_{name}_traced.json",
        )
        if record is None:
            failures[name].append(f"traced run failed: {reason}")
        else:
            traced[name] = record

    result = {
        "schema": 1,
        "seed": args.seed,
        "repeats": repeats,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "environment": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
            "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        },
        "workloads": {},
    }
    for name in names:
        records = untraced[name]
        problems = list(failures[name])
        for index, record in enumerate(records):
            problems += [f"repeat {index + 1}: {p}" for p in record["problems"]]
        if name in traced:
            problems += [f"traced: {p}" for p in traced[name]["problems"]]
        problems += check.determinism_problems([r["deterministic"] for r in records])
        entry: dict = {"why": why[name], "ok": not problems, "problems": problems}
        # A failed run is reported with its reason, never as a row of numbers.
        if records and not failures[name]:
            entry["end_to_end"] = {
                m["name"]: {
                    "unit": m["unit"], "better": m["better"],
                    **_summary([r["metrics"][m["name"]] for r in records], m["better"]),
                }
                for m in spec["end_to_end"]
                if all(m["name"] in r["metrics"] for r in records)
            }
            entry["attempted"] = [r["attempted"] for r in records]
            entry["failed"] = [r["failed"] for r in records]
            entry["lost"] = [r["lost"] for r in records]
            entry["notes"] = records[0]["notes"]
            entry["deterministic"] = {
                "setup": records[0]["deterministic"]["setup"][:1],
                "shared_slices": min(
                    len(r["deterministic"]["checkpoints"]) for r in records
                ),
            }
            entry["per_layer"] = traced[name]["metrics"]
            entry["trace_file"] = traced[name]["trace_file"]
        result["workloads"][name] = entry

    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for name, entry in result["workloads"].items():
        print(f"\n== {name}: {'ok' if entry['ok'] else 'FAILED'} ==")
        for problem in entry["problems"]:
            print(f"  CHECK FAILED: {problem}")
        if "end_to_end" not in entry:
            continue
        for metric, s in entry["end_to_end"].items():
            print(
                f"  {metric:24s} best {s['best']:>14.4f} {s['unit']:6s}"
                f" median {s['median']:>14.4f}  [{s['min']:.4f} .. {s['max']:.4f}]"
            )
        print(
            f"  {'attempted / failed / lost':24s}"
            f" {entry['attempted']} / {entry['failed']} / {entry['lost']}"
        )
        for metric, value in entry["per_layer"].items():
            print(f"  {metric:32s} {value:>16.6f} {units.get(metric, '')}")
    path = out_dir / "result.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(f"\nwrote {path}")
    return 0 if all(e["ok"] for e in result["workloads"].values()) else 1
