#!/usr/bin/env python3
"""Confidential routes under churn: a miniature Table I.

Runs a 250-node deployment with 8 private groups while 5% of the network
leaves (and is replaced) every minute — driven by the same churn-script
language the paper uses with SPLAY — and reports how often WCL onion
routes succeed on the first attempt, need an alternative mix pair, or run
out of alternatives.

Run:  python examples/churn_resilience.py
"""

from __future__ import annotations

from repro import World, WorldConfig
from repro.churn import ChurnDriver, parse_script
from repro.core.ppss import PpssConfig
from repro.experiments.common import GroupPlan, tally_exchanges

SCRIPT = """
from 0s to 30s join 220
at 300s set replacement ratio to 100%
from 300s to 900s const churn 5% each 60s
at 900s stop
"""


def main() -> None:
    world = World(WorldConfig(seed=13))
    # Leaders (P-nodes) come up first so groups outlive the churn.
    world.populate(30)
    world.start_all()
    world.run(40.0)
    plan = GroupPlan(world, 8, ppss_config=PpssConfig())
    print("8 private groups created, led by P-nodes")

    outcomes = {"success": 0, "alt": 0, "no_alt": 0}
    window_open = False

    def record(outcome: str) -> None:
        if window_open:
            outcomes[outcome] += 1

    # Every member subscribes 60 s after it is wired; exchanges with a
    # departed partner are not route failures (footnote 3).
    wire = tally_exchanges(world, plan, record)

    print("running the churn script:")
    print(SCRIPT.strip())
    driver = ChurnDriver(
        world, parse_script(SCRIPT), on_join=wire, protected=plan.leader_ids()
    )
    world.run(300.0)
    window_open = True
    world.run(600.0)
    window_open = False

    total = sum(outcomes.values()) or 1
    print(f"\npopulation after churn: {len(world.alive_nodes())} nodes")
    print(f"churn events: {driver.stats.churn_events}, "
          f"killed: {driver.stats.killed}, joined: {driver.stats.joined}")
    print(f"\nWCL route construction over {total} private view exchanges:")
    print(f"  success on first attempt : {outcomes['success'] / total:6.1%}")
    print(f"  needed an alternative    : {outcomes['alt'] / total:6.1%}")
    print(f"  no alternative available : {outcomes['no_alt'] / total:6.1%}")


if __name__ == "__main__":
    main()
