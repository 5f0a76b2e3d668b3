"""Applications and protocols layered on the PPSS: T-Man, T-Chord."""

from .chord import (
    ID_BITS,
    ID_SPACE,
    FingerTable,
    RingNeighbours,
    RingPeer,
    chord_id,
    distance_cw,
    in_interval,
    key_id,
)
from .tchord import LookupResult, TChordNode, TChordStats
from .tman import TManEntry, TManProtocol

__all__ = [
    "FingerTable",
    "ID_BITS",
    "ID_SPACE",
    "LookupResult",
    "RingNeighbours",
    "RingPeer",
    "TChordNode",
    "TChordStats",
    "TManEntry",
    "TManProtocol",
    "chord_id",
    "distance_cw",
    "in_interval",
    "key_id",
]
