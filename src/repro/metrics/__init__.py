"""Measurement utilities for overlay quality and distribution summaries."""

from .graph import ViewGraph, in_degree_distribution, local_clustering_coefficient
from .stats import PAPER_PERCENTILES, percentile, stacked_percentiles

__all__ = [
    "PAPER_PERCENTILES",
    "ViewGraph",
    "in_degree_distribution",
    "local_clustering_coefficient",
    "percentile",
    "stacked_percentiles",
]
