"""Private group management: keys, accreditations, passports (Section IV-A).

A private group is associated with a public/private keypair.  All members
know the public key; leaders hold the private key and can

- sign *accreditations* — the invitation tokens new nodes present to join;
- issue *passports* — a member's identifier signed with the group key,
  shipped with every intra-group communication.  A message with an invalid
  passport is silently ignored, which prevents members from revealing group
  existence to non-members.

After a leader election the group key rolls over; passports are verified
against the *history* of group public keys so members credentialed under an
older key remain valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..crypto.provider import CryptoProvider, KeyPair, PublicKey
from ..net.address import NodeId
from .contact import PrivateContact

__all__ = [
    "Passport",
    "Accreditation",
    "Invitation",
    "GroupKeyring",
    "issue_passport",
    "issue_accreditation",
]


@dataclass(frozen=True, slots=True)
class Passport:
    """Proof of membership: the member id signed with a group private key."""

    group: str
    member_id: NodeId
    key_fingerprint: str  # which group key signed it (for history lookup)
    signature: Any

    def signed_object(self) -> tuple:
        return ("passport", self.group, self.member_id)


@dataclass(frozen=True, slots=True)
class Accreditation:
    """A temporary signed invitation token presented to a leader."""

    group: str
    invitee: NodeId | None  # None = bearer token, any node may redeem it
    nonce: int
    expires_at: float
    signature: Any

    def signed_object(self) -> tuple:
        return ("accreditation", self.group, self.invitee, self.nonce, self.expires_at)


@dataclass(frozen=True, slots=True)
class Invitation:
    """What an invited node receives out-of-band (web, IM, email, ...):
    the accreditation plus the identity of one entry point (a leader)."""

    group: str
    accreditation: Accreditation
    entry_point: PrivateContact


@dataclass
class GroupKeyring:
    """A member's view of the group key material.

    ``history`` is ordered oldest -> newest; the last entry is the current
    key.  Leaders additionally hold ``leader_keypair`` (the private half)
    and count the accreditations they minted: a nonce tells one leader's
    tokens apart, so it is numbered per keyring, not per process.
    """

    group: str
    history: list[PublicKey] = field(default_factory=list)
    leader_keypair: KeyPair | None = None
    accreditations_issued: int = field(default=0, init=False)

    @property
    def current(self) -> PublicKey:
        if not self.history:
            raise ValueError(f"group {self.group!r} has no key material yet")
        return self.history[-1]

    @property
    def is_leader(self) -> bool:
        return self.leader_keypair is not None

    def adopt_key(self, key: PublicKey) -> None:
        """Append a rolled-over group key (post-election)."""
        if all(k.fingerprint != key.fingerprint for k in self.history):
            self.history.append(key)

    def become_leader(self, keypair: KeyPair) -> None:
        self.leader_keypair = keypair
        self.adopt_key(keypair.public)

    def verify_passport(
        self, provider: CryptoProvider, passport: Passport, claimed_id: NodeId,
        *, node: NodeId = -1,
    ) -> bool:
        """Check a passport against the full key history.

        The claimed sender identity must match the passport's member id —
        a member cannot replay someone else's passport under its own name.
        """
        if passport.group != self.group or passport.member_id != claimed_id:
            return False
        for key in reversed(self.history):
            if key.fingerprint != passport.key_fingerprint:
                continue
            return provider.verify(
                key, passport.signed_object(), passport.signature, node=node
            )
        return False

    def verify_accreditation(
        self, provider: CryptoProvider, accreditation: Accreditation,
        presenter: NodeId, now: float, *, node: NodeId = -1,
    ) -> bool:
        if accreditation.group != self.group:
            return False
        if accreditation.invitee is not None and accreditation.invitee != presenter:
            return False
        if now > accreditation.expires_at:
            return False
        for key in reversed(self.history):
            if provider.verify(
                key, accreditation.signed_object(), accreditation.signature, node=node
            ):
                return True
        return False


def issue_passport(
    provider: CryptoProvider,
    keyring: GroupKeyring,
    member_id: NodeId,
    *,
    node: NodeId = -1,
) -> Passport:
    """Leader operation: sign ``member_id`` with the current group key."""
    if keyring.leader_keypair is None:
        raise PermissionError("only a leader can issue passports")
    passport = Passport(
        group=keyring.group,
        member_id=member_id,
        key_fingerprint=keyring.leader_keypair.public.fingerprint,
        signature=None,
    )
    signature = provider.sign(
        keyring.leader_keypair, passport.signed_object(), node=node
    )
    return replace(passport, signature=signature)


def issue_accreditation(
    provider: CryptoProvider,
    keyring: GroupKeyring,
    invitee: NodeId | None,
    expires_at: float,
    *,
    node: NodeId = -1,
) -> Accreditation:
    """Leader operation: mint an invitation token."""
    if keyring.leader_keypair is None:
        raise PermissionError("only a leader can issue accreditations")
    keyring.accreditations_issued += 1
    accreditation = Accreditation(
        group=keyring.group, invitee=invitee, nonce=keyring.accreditations_issued,
        expires_at=expires_at, signature=None,
    )
    signature = provider.sign(
        keyring.leader_keypair, accreditation.signed_object(), node=node
    )
    return replace(accreditation, signature=signature)
