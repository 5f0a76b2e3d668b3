"""Overlay-graph quality metrics: clustering coefficient and in-degrees.

Section II-B: "The quality of the overlay created by the PSS is measured by
its resemblance to a random graph with fixed out-degrees.  A balanced
distribution of the nodes' in-degrees ensures load-balancing.  A low
clustering factor indicates that the diversity of the peers in the views
will be maximized."  Fig. 5 plots exactly these two metrics; this module
computes them from a snapshot of all nodes' views.
"""

from __future__ import annotations

from collections import defaultdict

from ..net.address import NodeId

__all__ = [
    "ViewGraph",
    "local_clustering_coefficient",
    "in_degree_distribution",
]


class ViewGraph:
    """Directed graph snapshot built from per-node view membership."""

    def __init__(self, views: dict[NodeId, list[NodeId]]) -> None:
        """``views`` maps each node to the node ids currently in its view."""
        self.successors: dict[NodeId, set[NodeId]] = {
            node: set(targets) - {node} for node, targets in views.items()
        }
        self.nodes: list[NodeId] = sorted(self.successors.keys())
        self._in_degree: dict[NodeId, int] = defaultdict(int)
        for targets in self.successors.values():
            for target in targets:
                self._in_degree[target] += 1

    def in_degree(self, node: NodeId) -> int:
        return self._in_degree.get(node, 0)

    def undirected_neighbours(self, node: NodeId) -> set[NodeId]:
        """Neighbours ignoring direction (standard for clustering on digraphs
        built from views, matching how PeerSim-era studies report it)."""
        neighbours = set(self.successors.get(node, ()))
        for other, targets in self.successors.items():
            if node in targets:
                neighbours.add(other)
        neighbours.discard(node)
        return neighbours


def local_clustering_coefficient(graph: ViewGraph, node: NodeId) -> float:
    """Fraction of a node's (undirected) neighbour pairs that are linked."""
    neighbours = graph.undirected_neighbours(node)
    k = len(neighbours)
    if k < 2:
        return 0.0
    links = 0
    for a in neighbours:
        adjacency = graph.successors.get(a, set())
        for b in neighbours:
            if a < b and (b in adjacency or a in graph.successors.get(b, set())):
                links += 1
    return links / (k * (k - 1) / 2)


def in_degree_distribution(
    graph: ViewGraph, nodes: list[NodeId] | None = None
) -> list[int]:
    """In-degrees for the requested node subset (default: all), sorted."""
    if nodes is None:
        nodes = graph.nodes
    return sorted(graph.in_degree(node) for node in nodes)
