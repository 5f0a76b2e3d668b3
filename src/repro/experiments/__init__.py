"""The paper's evaluation (Section V): one module per table/figure.

Every module exposes ``run(scale=..., seed=...) -> Report``; rendering the
report prints the same rows/series the paper plots.  ``python -m
repro.experiments <name>`` runs one from the command line.
"""

from . import (
    fig5_biased_pss,
    fig6_key_sampling,
    fig7_rtt,
    fig8_group_bandwidth,
    fig9_tchord,
    table1_churn,
    table2_cpu,
    wire_format,
)

__all__ = [
    "fig5_biased_pss",
    "fig6_key_sampling",
    "fig7_rtt",
    "fig8_group_bandwidth",
    "fig9_tchord",
    "table1_churn",
    "table2_cpu",
    "wire_format",
]

from . import ablations  # noqa: E402  (ablation studies beyond the paper)

__all__.append("ablations")
