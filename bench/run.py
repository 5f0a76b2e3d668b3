#!/usr/bin/env python3
"""One command for the repository benchmark.

Two ways to call it (both from the repository root, no PYTHONPATH needed):

``python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1``
    One run of one workload in this process — the form BENCHMARK.json
    names and the driver calls.  Prints every metric by name with its
    unit, then, as the last line of stdout, one JSON object with the keys
    ``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
    metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``).

``python3 bench/run.py [--seed N] [--repeats R] [--workload NAME] [--smoke]``
    The whole pass (see ``bench/suite.py``): R untraced repeats of every
    workload, interleaved, then one traced run each, every run a fresh
    subprocess of the first form; writes ``bench/out/result.json`` and
    exits non-zero if any check fails.

A workload that raises, or a live run whose groups do not form, is a
failed run: the reason goes to stderr, the exit code is non-zero and no
result line is printed.
"""

from __future__ import annotations

import sys
import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
from collections import defaultdict  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

# Run as a script, sys.path[0] is bench/ itself, where trace.py would
# shadow the standard library's module of that name: import this
# directory as the package ``bench`` from the repository root instead,
# next to the program under src/.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != BENCH_DIR]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

SETUPS = {"gossip1k": 7, "shard10k": 3, "msg_onion": 3, "msg_circuit": 3, "live_udp": 3}
"""Set-ups per untraced run; ``setup_s`` is their median."""

MIN_WINDOW_SAMPLES = 30  # a wall-clock window needs this many latencies to count
SETUP_REFERENCE_S = 2.0  # host-speed reference around each build: 20 passes, 50 ms


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def quantile(ordered: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted, non-empty list."""
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    measurement, setup_s: float, raw_setup_s: float, live: bool, problems: list[str]
) -> dict:
    """The end-to-end metrics of one untraced run.

    Rates are totals over the measured phase (the slices' counts over the
    slices' wall time, which leaves the benchmark's bookkeeping between
    slices out): a median over slices would be steadier against bursts of
    noise but blind to costs the program pays only now and then, like the
    collector runs the shard barrier's allocations trigger.

    What reads the host's clock is reported at the speed of the quiet
    host (see ``bench/hostspeed.py``); ``raw`` keeps what the clock said.
    """
    from bench import hostspeed

    slices = measurement.slices
    wall = measurement.wall_s
    speed = hostspeed.speed(measurement.reference_s)
    raw = {
        "setup_s": raw_setup_s,
        "events_per_s": sum(e for _w, e, _o in slices) / wall,
        "msgs_per_s": sum(o for _w, _e, o in slices) / wall,
    }
    metrics = {
        "setup_s": setup_s,
        "events_per_s": raw["events_per_s"] / speed,
        "msgs_per_s": raw["msgs_per_s"] / speed,
        "peak_rss_mb": peak_rss_mb(),
    }
    if live:
        # Wall-clock latencies: the median per window, median over windows.
        windows = [w for w in measurement.latencies_ms if len(w) >= MIN_WINDOW_SAMPLES]
        samples = sum(len(w) for w in windows)
        if windows:
            raw["latency_p50_ms"] = statistics.median(
                statistics.median(w) for w in windows
            )
            metrics["latency_p50_ms"] = raw["latency_p50_ms"] * speed
    else:
        # Simulated-time latencies repeat exactly: pool the whole phase.
        pooled = measurement.latencies_ms[0]
        samples = len(pooled)
        if pooled:
            metrics["latency_p50_ms"] = statistics.median(pooled)
    if "latency_p50_ms" not in metrics:
        problems.append("no latency samples")
    if measurement.completed:
        metrics["wire_bytes_per_msg"] = measurement.wire_bytes / measurement.completed
    else:
        problems.append("no operation completed")
    for name, value in metrics.items():
        if not value > 0:
            problems.append(f"{name} is {value!r}: end-to-end metrics must be positive")
    return {
        "metrics": metrics, "raw": raw, "host_speed": speed, "latency_samples": samples,
    }


def per_layer(measurement, phase: dict, setup_phase: dict, overhead: float, live: bool) -> dict:
    """The per-layer metrics of one traced run (see README.md for each).

    Times are what the clock read, not calibrated: shares of one run's
    wall are independent of the host's speed, and ``bench.host_speed``
    says what it was."""
    from bench import hostspeed

    c = defaultdict(float, measurement.counters)  # an idle layer counts 0
    self_s = phase["self_s"]
    wall = phase["root_s"]
    idle = max(0.0, wall - measurement.cpu_s) if live else 0.0
    runtime_self = max(0.0, self_s["runtime"] - idle)
    hints = c["net.owner_hint_hits"] + c["net.owner_hint_misses"]
    exchanges = c["ppss.exchanges_completed"]

    def span_total(name: str) -> float:
        return phase["spans"].get(name, {"total_s": 0.0})["total_s"]

    nat_calls = sum(
        span["calls"] for name, span in phase["spans"].items()
        if name.startswith("nat:ConnectionManager.")
    )
    latencies = sorted(v for w in measurement.latencies_ms for v in w)
    p99 = quantile(latencies, 0.99) if latencies else 0.0
    compute, barrier = c["harness.compute_s"], c["harness.barrier_s"]
    metrics = {
        "sim.events": sum(e for _w, e, _o in measurement.slices) if not live else 0,
        "sim.self_s": self_s["sim"],
        "sim.pending_final": c["sim.pending_final"],
        "net.sends": c["net.sends"],
        "net.send_self_s": self_s["net"],
        "net.delivered": c["net.delivered"],
        "net.filtered": c["net.filtered"],
        "net.lost": c["net.lost"],
        "net.owner_hint_hit_ratio": c["net.owner_hint_hits"] / hints if hints else 0.0,
        "nat.calls": nat_calls,
        "nat.self_s": self_s["nat"],
        "nat.relayed": c["nat.relayed"],
        "nat.punches": c["nat.punches"],
        "nat.sessions_evicted": c["nat.sessions_evicted"],
        "pss.self_s": self_s["pss"],
        "pss.initiated": c["pss.initiated"],
        "pss.completed": c["pss.completed"],
        "pss.response_timeouts": c["pss.response_timeouts"],
        "pss.contact_failures": c["pss.contact_failures"],
        "wcl.self_s": self_s["wcl"],
        **{
            f"wcl.{name}": c[f"wcl.{name}"]
            for name in (
                "sent", "forwarded", "delivered", "no_path", "misrouted",
                "forward_failures", "circuit_setups", "circuit_sent",
                "circuit_forwarded",
            )
        },
        "ppss.self_s": self_s["ppss"],
        "ppss.app_sent": c["ppss.app_sent"],
        "ppss.app_received": c["ppss.app_received"],
        "ppss.first_attempt_ratio": (
            c["ppss.first_attempt_success"] / exchanges if exchanges else 0.0
        ),
        "ppss.alt_success": c["ppss.alt_success"],
        "ppss.no_alt": c["ppss.no_alt"],
        "crypto.self_s": self_s["crypto"],
        "crypto.keygen_s": sum(
            span["total_s"] for name, span in setup_phase["spans"].items()
            if name.endswith(".generate_keypair")
        ),
        "crypto.rsa_encrypts": c["crypto.rsa_encrypts"],
        "crypto.rsa_decrypts": c["crypto.rsa_decrypts"],
        "crypto.sym_ops": c["crypto.sym_ops"],
        "crypto.charged_ms": c["crypto.charged_ms"],
        "wire.frames": c["wire.frames"],
        "wire.bytes": c["wire.bytes"],
        "wire.encode_s": span_total("wire:encode_message"),
        "wire.decode_s": span_total("wire:decode_message"),
        "wire.rejected": c["wire.rejected"],
        "runtime.self_s": runtime_self,
        "runtime.datagrams_sent": c["net.sends"] if live else 0,
        "runtime.datagrams_delivered": c["net.delivered"] if live else 0,
        "runtime.queued": c["runtime.queued"],
        "runtime.queue_dropped": c["runtime.queue_dropped"],
        "runtime.idle_share": idle / wall if live else 0.0,
        "runtime.latency_p99_ms": p99 if live else 0.0,
        "harness.compute_s": compute,
        "harness.barrier_s": barrier,
        "harness.unattributed_s": max(
            0.0, span_total("harness:ShardedWorld.run_windows") - compute - barrier
        ),
        "harness.cross_shard_msgs": c["harness.cross_shard_msgs"],
        "harness.cross_shard_share": (
            c["harness.cross_shard_msgs"] / c["net.sends"] if c["net.sends"] else 0.0
        ),
        "harness.compute_skew": c["harness.compute_skew"],
        "bench.generator_self_s": self_s["bench"],
        "bench.cpu_s": measurement.cpu_s,
        "bench.wall_s": wall,
        "bench.completed_ops": measurement.completed,
        "bench.lost_ops": measurement.lost,
        "bench.host_speed": hostspeed.speed(measurement.reference_s),
        "bench.latency_p99_ms": p99,
        "trace.overhead_ratio": overhead,
        "trace.residual_share": (runtime_self if live else self_s["sim"]) / wall,
        "trace.unmapped_self_s": self_s["unmapped"],
    }
    return {"metrics": metrics, "idle_s": idle}


def _setup(name: str, seed: int, smoke: bool, tracer=None):
    """Build one deployment; returns (workload, set-up seconds)."""
    from bench import workloads

    started = time.perf_counter()
    workload = workloads.make(name, seed, smoke, tracer)
    try:
        workload.setup()
    except BaseException:
        workload.teardown()
        raise
    return workload, time.perf_counter() - started


def run_untraced(name: str, seed: int, seconds: float, smoke: bool, import_s: float) -> dict:
    from bench import check, hostspeed

    setups = (1 if name == "live_udp" else 2) if smoke else SETUPS[name]
    build_s: list[float] = []
    digests: list[str] = []
    # Host-speed reference before the first build and after each one: a
    # build is reported at the speed of the passes on either side of it,
    # the imports at the speed of the passes right after them.
    reference: list[list[float]] = [[]]
    hostspeed.sample(reference[0], SETUP_REFERENCE_S)
    workload = None
    try:
        for _ in range(setups):
            if workload is not None:
                workload.teardown()
                workload = None
                gc.collect()
            workload, took = _setup(name, seed, smoke)
            build_s.append(took)
            reference.append([])
            hostspeed.sample(reference[-1], SETUP_REFERENCE_S)
            if workload.setup_digest is not None:
                digests.append(workload.setup_digest)
        workload.warm_up()
        measurement = workload.measure(seconds)
    finally:
        if workload is not None:
            workload.teardown()
    problems = list(measurement.problems)
    deterministic = {"setup": digests, "checkpoints": measurement.checkpoints}
    problems += check.determinism_problems([deterministic])
    # Set-up as a user pays it: interpreter start and imports (once per
    # process) plus the median of this run's builds.  The live set-up
    # waits on the protocols' timers, not on the processor: it is reported
    # as the clock read it.
    raw_setup_s = import_s + statistics.median(build_s)
    if workload.live:
        setup_s = raw_setup_s
    else:
        setup_s = import_s * hostspeed.speed(reference[0]) + statistics.median(
            took * hostspeed.speed(before + after)
            for took, before, after in zip(build_s, reference, reference[1:])
        )
    result = end_to_end(measurement, setup_s, raw_setup_s, workload.live, problems)
    return {
        **result,
        "setup_builds_s": build_s,
        "import_s": import_s,
        "measured_wall_s": measurement.wall_s,
        "slices": measurement.slices,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "lost": measurement.lost,
        "completed": measurement.completed,
        "counters": measurement.counters,
        "notes": measurement.notes,
        "deterministic": deterministic,
        "problems": problems,
    }


def run_traced(name: str, seed: int, seconds: float, smoke: bool, out_dir: Path) -> dict:
    from bench import check
    from bench.trace import Tracer

    # Reference for the tracing overhead: the same workload, untraced, for
    # a quarter of the time.  Its slices are the first slices of the
    # traced run (same seed), so the walls compare identical work.
    workload, _took = _setup(name, seed, smoke)
    try:
        workload.warm_up()
        reference = workload.measure(seconds / 4)
    finally:
        workload.teardown()
    del workload
    gc.collect()

    tracer = Tracer()
    tracer.install()
    workload = None
    try:
        tracer.start()
        workload, _took = _setup(name, seed, smoke, tracer)
        setup_phase = tracer.stop()
        workload.warm_up()
        tracer.start()
        root_started = time.perf_counter()
        measurement = tracer.run(workload.measure, "bench", "bench:measure", (seconds,))
        root_s = time.perf_counter() - root_started
        phase = tracer.stop()
        phase["root_s"] = root_s
    finally:
        if workload is not None:
            workload.teardown()
        tracer.uninstall()

    if workload.live:
        ref_rate = sum(o for _w, _e, o in reference.slices) / reference.wall_s
        traced_rate = sum(o for _w, _e, o in measurement.slices) / measurement.wall_s
        overhead = ref_rate / traced_rate
    else:
        shared = min(len(reference.slices), len(measurement.slices))
        overhead = (
            sum(s[0] for s in measurement.slices[:shared])
            / sum(s[0] for s in reference.slices[:shared])
        )
    layers = per_layer(measurement, phase, setup_phase, overhead, workload.live)
    problems = list(measurement.problems)
    problems += check.closure_problems(
        phase["self_s"], root_s, "layer self times vs traced wall"
    )
    m = layers["metrics"]
    if name == "shard10k":
        span = phase["spans"]["harness:ShardedWorld.run_windows"]["total_s"]
        problems += check.closure_problems(
            {k: m[f"harness.{k}"] for k in ("compute_s", "barrier_s", "unattributed_s")},
            span, "harness compute + barrier + unattributed vs run_windows wall",
        )
    out_dir.mkdir(parents=True, exist_ok=True)
    trace_path = out_dir / f"trace_{name}.json"
    tracer.dump(trace_path, {
        "workload": name, "seed": seed, "seconds": seconds, "smoke": smoke,
        "wall_s": root_s, "idle_s": layers["idle_s"], "self_s": phase["self_s"],
        "setup_self_s": setup_phase["self_s"], "aggregates": phase["spans"],
    })
    return {
        "metrics": m,
        "measured_wall_s": root_s,
        "slices": len(measurement.slices),
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "lost": measurement.lost,
        "completed": measurement.completed,
        "notes": measurement.notes,
        "trace_file": str(trace_path),
        "problems": problems,
    }


def run_once(args, spec: dict, import_s: float) -> int:
    name = args.workload
    if args.trace:
        record = run_traced(
            name, args.seed, args.seconds, args.smoke,
            Path(args.out) if args.out else OUT_DIR,
        )
        expected = [m["name"] for m in spec["per_layer"]]
    else:
        record = run_untraced(name, args.seed, args.seconds, args.smoke, import_s)
        expected = [m["name"] for m in spec["end_to_end"]]
    unit = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = record["metrics"]
    missing = [n for n in expected if n not in metrics]
    if missing:
        record["problems"].append(f"metrics not produced: {', '.join(missing)}")
    record.update(
        workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace,
        smoke=args.smoke, correct=not record["problems"],
    )
    print(f"# {name}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}"
          f"{'  smoke' if args.smoke else ''}")
    for metric in expected:
        if metric in metrics:
            print(f"{metric:32s} {metrics[metric]:>16.6f} {unit[metric]}")
    print(f"{'attempted':32s} {record['attempted']:>16d} count")
    print(f"{'failed':32s} {record['failed']:>16d} count")
    print(f"{'lost':32s} {record['lost']:>16d} count")
    if "host_speed" in record:
        print(f"{'host speed (1 = quiet host)':32s} {record['host_speed']:>16.6f} ratio")
        for metric, value in record["raw"].items():
            print(f"{'raw ' + metric:32s} {value:>16.6f} {unit[metric]}")
    if "latency_samples" in record:
        print(f"{'latency samples':32s} {record['latency_samples']:>16d} count")
    for key, value in sorted(record.get("notes", {}).items()):
        print(f"note {key} = {value}")
    for problem in record["problems"]:
        print(f"CHECK FAILED: {problem}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1)
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            n: {"value": metrics[n], "unit": unit[n]} for n in expected if n in metrics
        },
    }))
    return 0


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "repro").is_dir():
        print("bench: no program to measure (src/repro is missing)", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--seed", type=int, default=12)
    parser.add_argument("--seconds", type=float, default=None,
                        help=f"measured wall seconds per run (default {spec['run_seconds']})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="given: one run in this process; absent: the whole pass")
    parser.add_argument("--repeats", type=int, default=None,
                        help="untraced repeats per workload in the whole pass (default 3)")
    parser.add_argument("--smoke", action="store_true",
                        help="small populations, short runs (for bench/tests)")
    parser.add_argument("--record", help="also write this run's full record to a file")
    parser.add_argument("--out", help="directory for result and trace files (default bench/out)")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(spec["run_seconds"])
    if args.trace is None:
        from bench import suite

        return suite.run(args, spec)
    if args.workload is None:
        parser.error("--trace needs --workload")
    import repro  # noqa: F401  (timed: set-up includes the imports)
    from bench import workloads  # noqa: F401

    import_s = time.perf_counter() - _STARTED
    try:
        return run_once(args, spec, import_s)
    except Exception as error:  # a failed run is reported, never a row of numbers
        import traceback

        traceback.print_exc()
        print(f"bench: {args.workload} failed: {error}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
