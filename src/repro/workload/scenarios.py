"""Named workload scenarios for the ``load`` experiment.

Each builder returns a :class:`~repro.workload.spec.WorkloadSpec` scaled by
the usual population multiplier (1.0 = the reference shape, smaller values
give quick sanity runs).  The catalogue:

- ``cbr`` — steady VoIP-like streams inside a handful of groups, the
  baseline "does confidential delivery keep up" shape;
- ``zipf`` — a T-Chord ring answering Zipf-popular lookups (heavy head,
  long tail), the private-index query shape of Fig. 9 under open load;
- ``flash`` — a quiet deployment hit by a compressed burst of group joins;
- ``multigroup`` — hundreds of small concurrent groups each carrying one
  stream, the Fig. 8 many-groups shape under traffic.

``world_size`` gives the node population each scenario expects; the
experiment populates the world accordingly.
"""

from __future__ import annotations

from ..experiments.common import scaled
from .spec import CbrStreams, FlashCrowd, WorkloadSpec, ZipfLookups

__all__ = ["SCENARIOS", "build_scenario", "world_size"]


def _cbr(scale: float) -> WorkloadSpec:
    return WorkloadSpec(
        name="cbr",
        groups=scaled(4, scale, minimum=2),
        members_per_group=scaled(6, scale, minimum=4),
        models=(
            CbrStreams(
                streams=scaled(8, scale, minimum=4),
                interval=0.5,
                payload=160,
                duration=scaled(120, scale, minimum=60),
            ),
        ),
    )


def _zipf(scale: float) -> WorkloadSpec:
    return WorkloadSpec(
        name="zipf",
        groups=1,
        members_per_group=scaled(20, scale, minimum=12),
        models=(
            ZipfLookups(
                rate=2.0,
                keys=scaled(500, scale, minimum=100),
                exponent=1.1,
                start=60.0,  # give T-Man a head start on the ring
                duration=scaled(120, scale, minimum=60),
            ),
        ),
    )


def _flash(scale: float) -> WorkloadSpec:
    return WorkloadSpec(
        name="flash",
        groups=1,
        members_per_group=scaled(6, scale, minimum=4),
        models=(
            FlashCrowd(
                joiners=scaled(20, scale, minimum=8),
                at=10.0,
                spread=10.0,
                deadline=240.0,
            ),
        ),
    )


def _multigroup(scale: float) -> WorkloadSpec:
    # The Fig. 8 shape: one group per P-node, here each carrying traffic.
    # At scale 1.0 this is 120 concurrent PPSS groups with 120 live streams;
    # the paper's cluster runs 300 (Table I), reachable with scale 2.5.
    groups = scaled(120, scale, minimum=12)
    return WorkloadSpec(
        name="multigroup",
        groups=groups,
        members_per_group=3,
        models=(
            CbrStreams(
                streams=groups,  # round-robin lands exactly one per group
                interval=2.0,
                payload=160,
                duration=scaled(120, scale, minimum=60),
            ),
        ),
    )


SCENARIOS = {
    "cbr": _cbr,
    "zipf": _zipf,
    "flash": _flash,
    "multigroup": _multigroup,
}


def build_scenario(name: str, scale: float = 1.0) -> WorkloadSpec:
    try:
        builder = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r} (known: {known})") from None
    return builder(scale)


def world_size(spec: WorkloadSpec, scale: float = 1.0) -> int:
    """Node population a spec needs: members + leaders + free P-nodes.

    Groups need P-node leaders and only ~30% of the population is public,
    so the floor is leader-driven for many-group specs and member-driven
    for few-group ones.  The slack keeps introducers and WCL relays
    available beyond the subscribed membership.
    """
    members = spec.groups * spec.members_per_group
    leaders_need = int(spec.groups / 0.3) + 5
    return max(scaled(200, scale, minimum=60), members + spec.groups + 10, leaders_need)
