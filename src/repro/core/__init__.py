"""WHISPER core: connection backlog, onion WCL, private groups, PPSS."""

from .backlog import ConnectionBacklog
from .contact import Gateway, PrivateContact
from .election import Heartbeat, LeaderElection, Proposal, proposal_value
from .group import (
    Accreditation,
    GroupKeyring,
    Invitation,
    Passport,
    issue_accreditation,
    issue_passport,
)
from .node import WhisperConfig, WhisperNode
from .onion import HopSpec, NextHop, OnionLayer, OnionPacket, build_onion, peel
from .ppss import (
    MemberState,
    PpssConfig,
    PpssStats,
    PrivatePeerSamplingService,
    PrivateViewEntry,
)
from .sampling import ZipfSampler
from .wcl import AttemptInfo, WclStats, WhisperCommunicationLayer

__all__ = [
    "Accreditation",
    "AttemptInfo",
    "ConnectionBacklog",
    "Gateway",
    "GroupKeyring",
    "Heartbeat",
    "HopSpec",
    "Invitation",
    "LeaderElection",
    "MemberState",
    "NextHop",
    "OnionLayer",
    "OnionPacket",
    "Passport",
    "PpssConfig",
    "PpssStats",
    "PrivateContact",
    "PrivatePeerSamplingService",
    "PrivateViewEntry",
    "Proposal",
    "WclStats",
    "WhisperCommunicationLayer",
    "WhisperConfig",
    "WhisperNode",
    "ZipfSampler",
    "build_onion",
    "issue_accreditation",
    "issue_passport",
    "peel",
    "proposal_value",
]
