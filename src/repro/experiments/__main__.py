"""Command-line runner for the evaluation experiments.

Usage::

    python -m repro.experiments list
    python -m repro.experiments fig5 --scale 0.5
    python -m repro.experiments table1 --scale 1.0 --seed 7
    python -m repro.experiments all --scale 0.2

Reports print to stdout in the paper's row/series format.
"""

from __future__ import annotations

import argparse
import inspect
import sys

from ..churn.script import ChurnScriptError
from ..harness.invariants import RecoveryViolation

from . import (
    ablations,
    anonymity,
    fig5_biased_pss,
    fig6_key_sampling,
    fig7_rtt,
    fig8_group_bandwidth,
    fig9_tchord,
    load,
    resilience,
    scale as scale_experiment,
    soak,
    table1_churn,
    table2_cpu,
    wire_format,
)

EXPERIMENTS = {
    "fig5": ("Fig. 5 — biased PSS quality", fig5_biased_pss.run),
    "fig6": ("Fig. 6 — key sampling bandwidth", fig6_key_sampling.run),
    "table1": ("Table I — routes under churn", table1_churn.run),
    "resilience": ("Resilience — recovery from injected faults",
                   resilience.run),
    "soak": ("Soak — live loopback nodes under a scripted fault schedule",
             soak.run),
    "load": ("Load — heavy-traffic workloads over PPSS/T-Chord", load.run),
    "anonymity": ("Anonymity — traffic-analysis attacks vs countermeasures",
                  anonymity.run),
    "fig7": ("Fig. 7 — RTT breakdown", fig7_rtt.run),
    "table2": ("Table II — CPU per PPSS cycle", table2_cpu.run),
    "fig8": ("Fig. 8 — bandwidth vs groups", fig8_group_bandwidth.run),
    "fig9": ("Fig. 9 — T-Chord routing delays", fig9_tchord.run),
    "wire": ("Wire format — measured vs estimated frame sizes",
             wire_format.run),
    "scale": ("Scale — 5,000-node PSS+WCL headroom", scale_experiment.run),
    "scale100k": ("Scale100k — 100,000-node sharded gossip window",
                  scale_experiment.run_100k),
    "ablation-path": ("Ablation — path length", ablations.run_path_length),
    "ablation-pi": ("Ablation — Pi sweep", ablations.run_pi_sweep),
    "ablation-leases": ("Ablation — NAT leases", ablations.run_session_leases),
    "ablation-policy": ("Ablation — truncation policy",
                        ablations.run_truncation_policy),
    "ablation-anonymity": ("Ablation — adversary coverage sweep",
                           ablations.run_observation_sweep),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the WHISPER paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "list", "all"],
        help="which experiment to run ('list' to enumerate, 'all' for every one)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.5,
        help="population scale; 1.0 = paper size (default 0.5)",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the seed")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker processes for multi-point sweeps, execution lanes "
             "for scale100k (default 1 = sequential; output is "
             "byte-identical either way; 0 = one per core)",
    )
    parser.add_argument(
        "--nodes", type=int, default=None,
        help="exact population size (experiments that accept it; "
             "overrides --scale)",
    )
    parser.add_argument(
        "--fault-plan", default=None, metavar="PATH",
        help="file of churn-script fault lines (e.g. 'from 3s to 6s loss "
             "25%%') to run instead of the built-in schedule (soak)",
    )
    parser.add_argument(
        "--trace-out", default=None, metavar="PATH",
        help="write the run's telemetry as JSONL to PATH (soak; anonymity "
             "writes one PATH.<variant>.jsonl per variant)",
    )
    parser.add_argument(
        "--route-floor", type=float, default=None, metavar="RATIO",
        help="fail (exit 1) if post-heal route success drops below RATIO "
             "(soak; e.g. 0.95)",
    )
    parser.add_argument(
        "--attack-gate", action="store_true", default=None,
        help="fail (exit 1) unless each countermeasure reduces its attack's "
             "success below the baseline (anonymity)",
    )
    parser.add_argument(
        "--circuits", action="store_true", default=None,
        help="also measure the circuit-mode (amortized RSA) variant "
             "(table2)",
    )
    args = parser.parse_args(argv)
    workers = args.workers
    if workers == 0:
        from ..parallel import default_workers

        workers = default_workers()

    if args.experiment == "list":
        for name, (title, _run) in EXPERIMENTS.items():
            print(f"{name:<16} {title}")
        return 0

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in names:
        _title, run = EXPERIMENTS[name]
        params = inspect.signature(run).parameters
        kwargs = {"scale": args.scale}
        if args.seed is not None:
            kwargs["seed"] = args.seed
        # Sweep-style experiments take a worker count; single-world ones
        # (fig7, fig9, table2, scale, wire, ablation-path) stay sequential.
        if workers > 1 and "workers" in params:
            kwargs["workers"] = workers
        # Soak-style flags travel only to experiments that declare them.
        for flag in (
            "nodes", "fault_plan", "trace_out", "route_floor", "attack_gate",
            "circuits",
        ):
            value = getattr(args, flag)
            if value is not None and flag in params:
                kwargs[flag] = value
        try:
            report = run(**kwargs)
        except RecoveryViolation as exc:
            print(f"{name}: FAILED — {exc}", file=sys.stderr)
            return 1
        except ChurnScriptError as exc:
            print(f"{name}: bad fault plan — {exc}", file=sys.stderr)
            return 1
        print(report.render())
    return 0


if __name__ == "__main__":
    sys.exit(main())
