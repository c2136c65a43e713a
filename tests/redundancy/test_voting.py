"""Tests for replica-copy voting and copy planning."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from repro.errors import VotingError
from repro.redundancy import ALL_TO_ALL, MSG_PLUS_HASH, vote
from repro.redundancy import voting
from repro.redundancy.voting import ReplicaCopy, plan_copies
from repro.mpi.datatypes import payload_digest


def full(sender, payload):
    return ReplicaCopy.full(sender, payload)


def hash_copy(sender, payload):
    return ReplicaCopy.hash_only(sender, payload_digest(payload))


class TestVote:
    def test_single_copy(self):
        result = vote([full(0, "data")])
        assert result.payload == "data"
        assert result.unanimous
        assert result.corrupt_senders == ()

    def test_unanimous_pair(self):
        result = vote([full(0, 42), full(3, 42)])
        assert result.payload == 42 and result.unanimous

    def test_majority_corrects_corrupt_copy(self):
        result = vote([full(0, "good"), full(1, "good"), full(2, "BAD")])
        assert result.payload == "good"
        assert not result.unanimous
        assert result.corrupt_senders == (2,)

    def test_two_way_disagreement_undecidable(self):
        with pytest.raises(VotingError):
            vote([full(0, "a"), full(1, "b")])

    def test_no_copies(self):
        with pytest.raises(VotingError):
            vote([])

    def test_hash_copies_count_toward_majority(self):
        copies = [full(0, "x"), hash_copy(1, "x"), hash_copy(2, "x")]
        result = vote(copies)
        assert result.payload == "x" and result.unanimous

    def test_hash_majority_without_payload_carrier(self):
        # Corrupt payload carrier + r=2: detectable, not correctable.
        copies = [full(0, "CORRUPT"), hash_copy(1, "good")]
        with pytest.raises(VotingError):
            vote(copies)

    def test_hash_majority_with_three_copies_corrects(self):
        # Carrier corrupt but a second full copy carries the majority value.
        copies = [full(0, "CORRUPT"), full(1, "good"), hash_copy(2, "good")]
        result = vote(copies)
        assert result.payload == "good"
        assert result.corrupt_senders == (0,)

    @given(st.integers(min_value=1, max_value=7))
    def test_identical_copies_always_unanimous(self, count):
        result = vote([full(i, b"same") for i in range(count)])
        assert result.unanimous and result.payload == b"same"

    def test_three_way_tie_rejected(self):
        with pytest.raises(VotingError):
            vote([full(0, "a"), full(1, "b"), full(2, "c")])


def reference_vote(copies):
    """The plain digest tally: hash every full copy, deliver the majority."""
    if not copies:
        raise VotingError("no replica copies to vote on")
    digests = [
        payload_digest(c.payload) if c.has_payload else c.digest for c in copies
    ]
    tally = Counter(digests)
    majority_digest, majority_count = tally.most_common(1)[0]
    if len(tally) > 1 and majority_count <= len(copies) - majority_count:
        raise VotingError(
            f"replica copies disagree with no majority "
            f"({len(tally)} distinct digests over {len(copies)} copies)"
        )
    corrupt = tuple(
        c.sender_physical for c, d in zip(copies, digests) if d != majority_digest
    )
    for c, d in zip(copies, digests):
        if d == majority_digest and c.has_payload:
            return voting.VoteResult(c.payload, len(tally) == 1, corrupt)
    raise VotingError(
        "majority digest carried no full payload (corrupted message "
        "copy with r=2 in Msg-PlusHash mode is detectable but not "
        "correctable)"
    )


def payload_pool(values):
    """Payloads that agree, disagree, or only look alike, built from ``values``."""
    base = np.array(values, dtype=np.float64)
    strided = np.empty(2 * base.size)
    strided[::2] = base
    flipped = base.copy()
    flipped.view(np.uint64)[0] ^= 1
    return [
        base,
        base.copy(),  # equal bytes, distinct object
        strided[::2],  # equal bytes, non-contiguous
        base.view(np.int64),  # same bytes under another dtype
        base.reshape(2, 2),  # (2, 2) vs (4,)
        flipped,  # one bit flipped
        np.array([np.nan, -0.0, 0.0, 1.0]),
        np.array([np.nan, 0.0, 0.0, 1.0]),  # differs only in the sign of zero
        np.array([np.nan, -0.0, 0.0, 1.0]),  # equal to the NaN/-0.0 array
        "x",
        b"x",
        42,
        None,  # a digest-only copy's payload is None too
    ]


VALUES = st.lists(
    st.sampled_from([0.0, -0.0, float("nan"), 1.5, -2.0, 1e300]),
    min_size=4,
    max_size=4,
)
COPY_SPECS = st.lists(
    st.tuples(st.sampled_from(["full", "hash"]), st.integers(0, 12)),
    min_size=1,
    max_size=5,
)


def build_copies(spec, pool):
    return [
        full(sender, pool[index]) if kind == "full" else hash_copy(sender, pool[index])
        for sender, (kind, index) in enumerate(spec)
    ]


def outcome(vote_fn, copies):
    try:
        result = vote_fn(copies)
    except VotingError as error:
        return "error", str(error)
    return "ok", id(result.payload), result.unanimous, result.corrupt_senders


class TestVoteEquivalence:
    @given(COPY_SPECS, VALUES)
    @example([("full", 0), ("full", 0), ("full", 0)], [1.5, 0.0, -0.0, 1.5])
    @example([("full", 0), ("full", 1), ("full", 2)], [float("nan")] * 4)
    @example([("full", 6), ("full", 8), ("full", 7)], [0.0] * 4)
    @example([("full", 0), ("full", 3)], [1.5] * 4)
    @example([("full", 0), ("full", 4)], [1.5] * 4)
    @example([("full", 0), ("hash", 0), ("hash", 1)], [1.5] * 4)
    @example([("full", 12), ("hash", 9)], [1.5] * 4)
    # r=2 Msg-PlusHash with a corrupt carrier: detectable, not correctable.
    @example([("full", 5), ("hash", 0)], [1.5] * 4)
    @example([("hash", 0), ("full", 5), ("hash", 1)], [1.5] * 4)
    def test_matches_digest_tally(self, spec, values):
        pool = payload_pool(values)
        copies = build_copies(spec, pool)
        assert outcome(vote, copies) == outcome(reference_vote, copies)


@pytest.fixture
def digest_calls(monkeypatch):
    calls = []

    def counting(payload):
        calls.append(payload)
        return payload_digest(payload)

    monkeypatch.setattr(voting, "payload_digest", counting)
    return calls


class TestLazyDigests:
    ARRAY = np.arange(20_480, dtype=np.float64)

    def test_single_copy_not_hashed(self, digest_calls):
        assert vote([full(0, self.ARRAY)]).payload is self.ARRAY
        assert digest_calls == []

    def test_identical_objects_not_hashed(self, digest_calls):
        result = vote([full(i, self.ARRAY) for i in range(3)])
        assert result.payload is self.ARRAY and result.unanimous
        assert digest_calls == []

    def test_equal_arrays_not_hashed(self, digest_calls):
        result = vote([full(0, self.ARRAY), full(1, self.ARRAY.copy())])
        assert result.payload is self.ARRAY and result.unanimous
        assert digest_calls == []

    def test_msg_plus_hash_hashes_the_carrier_once(self, digest_calls):
        digest = payload_digest(self.ARRAY)
        copies = [
            full(0, self.ARRAY),
            ReplicaCopy.hash_only(1, digest),
            ReplicaCopy.hash_only(2, digest),
        ]
        assert vote(copies).unanimous
        assert len(digest_calls) == 1

    def test_disagreement_hashes_each_copy_once(self, digest_calls):
        bad = self.ARRAY + 1.0
        copies = [full(0, self.ARRAY), full(1, bad), full(2, self.ARRAY.copy())]
        result = vote(copies)
        assert result.payload is self.ARRAY and result.corrupt_senders == (1,)
        assert len(digest_calls) == 3


class TestPlanCopies:
    def test_all_to_all_everything_full(self):
        plan = plan_copies([0, 4], [1, 5], ALL_TO_ALL)
        assert set(plan.values()) == {"full"}
        assert len(plan) == 4

    def test_msg_plus_hash_one_carrier_per_receiver(self):
        senders = [0, 4, 8]
        receivers = [1, 5, 9]
        plan = plan_copies(senders, receivers, MSG_PLUS_HASH)
        for receiver in receivers:
            kinds = [plan[(s, receiver)] for s in senders]
            assert kinds.count("full") == 1
            assert kinds.count("hash") == len(senders) - 1

    def test_msg_plus_hash_unequal_spheres(self):
        plan = plan_copies([0], [1, 5], MSG_PLUS_HASH)
        # A single sender carries the payload for both receivers.
        assert plan[(0, 1)] == "full" and plan[(0, 5)] == "full"

    def test_partial_spheres(self):
        plan = plan_copies([0, 4], [1], MSG_PLUS_HASH)
        kinds = [plan[(0, 1)], plan[(4, 1)]]
        assert kinds.count("full") == 1 and kinds.count("hash") == 1

    def test_empty_senders_empty_plan(self):
        assert plan_copies([], [1, 2], ALL_TO_ALL) == {}

    def test_unknown_mode(self):
        with pytest.raises(VotingError):
            plan_copies([0], [1], "telepathy")

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.sampled_from([ALL_TO_ALL, MSG_PLUS_HASH]),
    )
    def test_plan_covers_all_pairs(self, senders, receivers, mode):
        sender_list = list(range(senders))
        receiver_list = list(range(100, 100 + receivers))
        plan = plan_copies(sender_list, receiver_list, mode)
        assert set(plan) == {(s, r) for s in sender_list for r in receiver_list}
