"""Replica message comparison and majority voting.

RedMPI's headline safety feature: because every receiver gets the
"same" message from every replica of the sender, a corrupted copy
(Byzantine sender, bit-flipped buffer) is detectable by comparison and
— with three or more copies — correctable by majority vote.

Two operating modes, as in the paper:

* **All-to-all** (:data:`ALL_TO_ALL`): every sender replica ships the
  complete message to every receiver replica; the majority payload is
  delivered.
* **Msg-PlusHash** (:data:`MSG_PLUS_HASH`): one sender replica ships
  the complete message, the others ship a 64-bit digest.  Bandwidth
  drops from ``r`` full copies to one copy plus ``r - 1`` hashes; a
  mismatch between the message and the digests is detectable, and with
  ``r >= 3`` the faulty copy is identified by which digests agree.

When a digest is computed: never for a single full copy, nor when every
copy is full and equal to the first — the same object (the runtime
passes payloads by reference) or an ndarray with the same dtype, shape
and raw bytes.  Only when that check fails, or a digest-only copy must
be matched against the carrier, does :func:`vote` tally digests, and
each copy hashes its payload at most once.  A Msg-PlusHash receive
therefore hashes one payload, not ``r``.
"""

from __future__ import annotations

from collections import Counter as _TallyCounter
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import VotingError
from ..mpi.datatypes import payload_digest

#: Mode constants.
ALL_TO_ALL = "all-to-all"
MSG_PLUS_HASH = "msg-plus-hash"

MODES = (ALL_TO_ALL, MSG_PLUS_HASH)


class ReplicaCopy:
    """One copy received from one sender replica.

    ``payload`` is ``None`` for digest-only copies (Msg-PlusHash mode),
    which carry their digest from the sender; a full copy hashes its
    payload on first use of :attr:`digest`.
    """

    __slots__ = ("sender_physical", "payload", "has_payload", "_digest")

    def __init__(
        self,
        sender_physical: int,
        payload: Any = None,
        has_payload: bool = False,
        digest: Optional[int] = None,
    ) -> None:
        self.sender_physical = sender_physical
        self.payload = payload
        self.has_payload = has_payload
        self._digest = digest

    @property
    def digest(self) -> int:
        """The payload's digest, computed at most once."""
        if self._digest is None:
            self._digest = payload_digest(self.payload)
        return self._digest

    @staticmethod
    def full(sender_physical: int, payload: Any) -> "ReplicaCopy":
        """A complete-message copy."""
        return ReplicaCopy(sender_physical, payload, has_payload=True)

    @staticmethod
    def hash_only(sender_physical: int, digest: int) -> "ReplicaCopy":
        """A digest-only copy."""
        return ReplicaCopy(sender_physical, digest=digest)


def _same_payload(first: Any, other: Any) -> bool:
    """True when ``other`` provably digests like ``first`` — without hashing.

    ``False`` only means "not shown equal here": the caller falls back
    to comparing digests.
    """
    if other is first:
        return True
    return (
        isinstance(first, np.ndarray)
        and isinstance(other, np.ndarray)
        and first.shape == other.shape
        and str(first.dtype) == str(other.dtype)
        and first.tobytes() == other.tobytes()
    )


@dataclass(frozen=True)
class VoteResult:
    """Outcome of comparing the copies of one virtual message."""

    payload: Any
    #: True when every copy agreed.
    unanimous: bool
    #: Physical sender ranks whose copy disagreed with the majority.
    corrupt_senders: Tuple[int, ...]


def vote(copies: Sequence[ReplicaCopy]) -> VoteResult:
    """Compare replica copies; deliver the majority payload.

    Raises
    ------
    VotingError
        * no copies at all (sphere died before sending);
        * copies disagree with no strict majority (undetectable which
          is correct — RedMPI can detect with 2 copies but only
          correct with >= 3);
        * the majority digest has no full payload among its copies
          (can only happen in Msg-PlusHash mode when the payload
          carrier itself is the corrupt one *and* ``r == 2``).
    """
    if not copies:
        raise VotingError("no replica copies to vote on")
    first = copies[0]
    if first.has_payload and all(
        copy.has_payload and _same_payload(first.payload, copy.payload)
        for copy in copies[1:]
    ):
        return VoteResult(payload=first.payload, unanimous=True, corrupt_senders=())
    tally = _TallyCounter(copy.digest for copy in copies)
    majority_digest, majority_count = tally.most_common(1)[0]
    if len(tally) > 1 and majority_count <= len(copies) - majority_count:
        raise VotingError(
            f"replica copies disagree with no majority "
            f"({len(tally)} distinct digests over {len(copies)} copies)"
        )
    corrupt = tuple(
        copy.sender_physical for copy in copies if copy.digest != majority_digest
    )
    winner: Optional[ReplicaCopy] = None
    for copy in copies:
        if copy.digest == majority_digest and copy.has_payload:
            winner = copy
            break
    if winner is None:
        raise VotingError(
            "majority digest carried no full payload (corrupted message "
            "copy with r=2 in Msg-PlusHash mode is detectable but not "
            "correctable)"
        )
    return VoteResult(
        payload=winner.payload,
        unanimous=len(tally) == 1,
        corrupt_senders=corrupt,
    )


def plan_copies(
    sender_replicas: List[int],
    receiver_replicas: List[int],
    mode: str,
) -> dict:
    """Which sender replica ships what to which receiver replica.

    Returns a mapping ``(sender_physical, receiver_physical) ->
    "full" | "hash"``.  In All-to-all mode everything is full.  In
    Msg-PlusHash mode, receiver replica ``j`` gets the full message
    from sender replica ``j mod len(senders)`` and digests from the
    rest, so every receiver has exactly one payload carrier even under
    partial redundancy (unequal sphere sizes).
    """
    if mode not in MODES:
        raise VotingError(f"unknown voting mode {mode!r}")
    plan = {}
    sender_count = len(sender_replicas)
    if sender_count == 0:
        # Exhausted sender sphere: nothing will ever be shipped.  The
        # caller's request set stays empty and pending; job-level
        # failure handling tears the attempt down.
        return plan
    for j, receiver in enumerate(receiver_replicas):
        carrier = sender_replicas[j % sender_count]
        for sender in sender_replicas:
            if mode == ALL_TO_ALL or sender == carrier:
                plan[(sender, receiver)] = "full"
            else:
                plan[(sender, receiver)] = "hash"
    return plan
