"""Peer sampling: views (healer merge, Π bias), NAT-resilient gossip (Nylon)."""

from .gossip import ExchangeListener, PeerSamplingService, PssConfig, PssStats
from .view import View, ViewEntry

__all__ = [
    "ExchangeListener",
    "PeerSamplingService",
    "PssConfig",
    "PssStats",
    "View",
    "ViewEntry",
]
