"""Fault injection: deterministic partial failures for robustness testing.

See :mod:`.plan` for the fault taxonomy, :mod:`.injector` for the one plan
executor (:class:`~repro.faults.injector.FaultExecutor`) and its simulator
port, and :mod:`.live` for its port onto real UDP datagrams
(:class:`~repro.faults.LiveFaultFabric`).  Fault directives are also
written in the churn script language (:mod:`repro.churn.script`)::

    from 300s to 600s partition groups a|b
    at 400s blackhole 5 -> 9
    at 500s stall 3% for 120s
    at 600s reset nat 10%
    at 620s rebind nat 10%
    from 700s to 760s loss 20%
    from 700s to 760s delay 50ms 20%
    from 700s to 760s duplicate 10%
    from 700s to 760s reorder 10% by 80ms

The soak's ``--fault-plan PATH`` reads a file of such lines.
"""

from .injector import FaultExecutor, FaultInjector, FaultStats
from .live import LiveFaultFabric
from .plan import (
    Blackhole,
    Delay,
    Duplicate,
    FaultDirective,
    FaultPlan,
    LossBurst,
    NatRebind,
    NatReset,
    Partition,
    Reorder,
    Stall,
    is_fault_directive,
)

__all__ = [
    "Blackhole",
    "Delay",
    "Duplicate",
    "FaultDirective",
    "FaultExecutor",
    "FaultInjector",
    "FaultPlan",
    "FaultStats",
    "LiveFaultFabric",
    "LossBurst",
    "NatRebind",
    "NatReset",
    "Partition",
    "Reorder",
    "Stall",
    "is_fault_directive",
]
