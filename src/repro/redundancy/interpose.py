"""RedComm: the PMPI-style interposition layer (paper Section 3).

``RedComm`` exposes the same interface as
:class:`repro.mpi.Communicator` but speaks in *virtual* ranks.  Under
the hood every application call fans out to the physical replicas,
posted straight to the :class:`~repro.mpi.SimMPI` runtime:

* ``isend(payload, dest)`` → one world send per live replica of the
  destination sphere (Figure 1(a)); in Msg-PlusHash mode all but the
  designated carrier ship only a digest;
* ``irecv(source)`` → one world receive per live replica of the source
  sphere; the returned :class:`RedRequest` is the paper's *request
  set*: the application-level wait completes only when every member
  (a raw runtime event) has completed (Section 3's MPI_Wait semantics);
* routes (a peer sphere's live replicas, and which carries the full
  payload) are cached per liveness epoch: until the next rank death;
* arriving copies are compared/voted (:mod:`repro.redundancy.voting`);
* receives pending on a replica that dies are cancelled, so surviving
  copies still complete the application-level request — this is how a
  sphere keeps the job running after losing members (Figure 7).

Tag spaces: user tags ``[0, 2^20)``; collective tags ``[2^20, 2^24)``;
digest copies are shipped at ``tag + 2^24``; the wildcard-protocol
control messages use ``[2^28, ...)`` (see
:mod:`repro.redundancy.anysource`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..errors import RedundancyError
from ..mpi.comm import USER_TAG_LIMIT, CollectiveAPI
from ..mpi.datatypes import payload_digest, payload_nbytes
from ..mpi.status import ANY_SOURCE, ANY_TAG, Status
from ..simkit.events import Event
from .mapping import ReplicaMap
from .sphere import SphereTracker
from .voting import ALL_TO_ALL, MODES, ReplicaCopy, plan_copies, vote

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mpi.runtime import RankContext

#: Digest copies of a message tagged ``t`` travel at ``t + HASH_TAG_OFFSET``.
HASH_TAG_OFFSET = 1 << 24

#: A corruptor: maps (sender_physical, receiver_physical, payload) to the
#: payload actually shipped.  Used to inject Byzantine replicas in tests.
Corruptor = Callable[[int, int, Any], Any]


class RedRequest:
    """A request *set*: the application-level handle over replica operations.

    Members are raw runtime events (send completions, receive matches)
    mapped to ``(peer physical rank, is_full)``.  The set completes when
    every live member completes; members whose peer replica dies are
    dropped.  Receive copies are kept in member completion order; the
    vote then yields ``(payload, Status)`` with the *virtual* source.
    """

    __slots__ = ("comm", "kind", "virtual_peer", "tag", "event",
                 "_members", "_copies", "_consumed")

    def __init__(self, comm: "RedComm", kind: str, virtual_peer: int, tag: int) -> None:
        self.comm = comm
        self.kind = kind
        self.virtual_peer = virtual_peer
        self.tag = tag
        self.event = Event(comm.env)
        self._members: Dict[Event, Tuple[int, bool]] = {}
        self._copies: List[ReplicaCopy] = []
        self._consumed = False

    # -- construction (layer-internal) -----------------------------------

    def add_member(self, event: Event, peer_physical: int, is_full: bool) -> None:
        """Register one per-replica runtime event into the set."""
        self._members[event] = (peer_physical, is_full)
        event.add_callback(self._member_done)

    def arm(self) -> None:
        """All members registered; complete now if none are pending."""
        self._maybe_complete()

    # -- progress ----------------------------------------------------------

    def _member_done(self, event: Event) -> None:
        member = self._members.pop(event, None)
        if member is None:
            return  # dropped by a death notification before arrival
        if self.kind == "recv":
            sender, is_full = member
            copy = ReplicaCopy.full if is_full else ReplicaCopy.hash_only
            self._copies.append(copy(sender, event.value.payload))
        if not self._members:
            self._maybe_complete()

    def _maybe_complete(self) -> None:
        if self.event.triggered or self._members:
            return
        if self.kind == "recv" and not self._copies:
            # Every source replica died before sending: the request can
            # never be satisfied.  Leave it pending — the sphere tracker
            # has (or will) declare the job failed and force a rollback.
            return
        self.event.succeed(list(self._copies) if self.kind == "recv" else None)

    def drop_sender(self, dead_physical: int) -> None:
        """A peer replica died: withdraw its still-pending member receives."""
        if self.kind != "recv" or self.event.triggered:
            return
        # A receive that already matched still delivers its copy.
        doomed = [event for event, (sender, _) in self._members.items()
                  if sender == dead_physical and not event.triggered]
        for event in doomed:
            if self.comm.runtime.cancel_recv(self.comm.physical_rank, event):
                del self._members[event]
        self._maybe_complete()

    # -- application API -----------------------------------------------------

    @property
    def done(self) -> bool:
        """True once the whole set has completed."""
        return self.event.processed

    def wait(self):
        """Generator: block until the set completes; returns the value."""
        raw = yield self.event
        return self._finalize(raw)

    def test(self):
        """Non-blocking check: ``(False, None)`` or ``(True, value)``."""
        if not self.event.processed:
            return False, None
        return True, self._finalize(self.event.value)

    def _finalize(self, raw: Any) -> Any:
        if self._consumed:
            raise RedundancyError("request set waited on twice")
        self._consumed = True
        if self.kind == "send":
            return None
        outcome = vote(raw)
        if not outcome.unanimous:
            self.comm.runtime.counters.add("votes_not_unanimous")
            self.comm.runtime.counters.add(
                "corrupt_copies_voted_out", len(outcome.corrupt_senders)
            )
        status = Status(
            source=self.virtual_peer,
            tag=self.tag,
            nbytes=payload_nbytes(outcome.payload),
        )
        return outcome.payload, status


class RedComm(CollectiveAPI):
    """Virtual-rank communicator with transparent replication."""

    def __init__(
        self,
        ctx: "RankContext",
        replica_map: ReplicaMap,
        tracker: SphereTracker,
        mode: str = ALL_TO_ALL,
        corruptor: Optional[Corruptor] = None,
    ) -> None:
        if mode not in MODES:
            raise RedundancyError(f"unknown redundancy mode {mode!r}")
        self._world = ctx.comm
        self.runtime = ctx.runtime
        self.physical_rank = ctx.rank
        self.replica_map = replica_map
        self.tracker = tracker
        self.mode = mode
        self.corruptor = corruptor
        self._virtual_rank = replica_map.virtual_of(ctx.rank)
        self._cid = ctx.comm.cid
        self._coll_seq = 0
        # (peer virtual rank, sending) -> route, while _epoch ranks live.
        self._routes: Dict[Tuple[int, bool], Tuple[Tuple[int, bool], ...]] = {}
        self._epoch = self.runtime.live_count
        self._active_recvs: List[RedRequest] = []
        self.runtime.on_rank_death(self._on_rank_death)

    # -- identity (virtual view) ------------------------------------------

    @property
    def rank(self) -> int:
        """This process's *virtual* rank."""
        return self._virtual_rank

    @property
    def size(self) -> int:
        """Number of virtual processes."""
        return self.replica_map.virtual_processes

    @property
    def env(self):
        """The simulation environment."""
        return self.runtime.env

    @property
    def replica_index(self) -> int:
        """This process's position within its sphere (0 = primary)."""
        return self.replica_map.replica_index(self.physical_rank)

    def _alive_sphere(self, virtual: int) -> List[int]:
        """Live replicas of a sphere, primary first."""
        alive = self.runtime.is_alive
        return [rank for rank in self.replica_map.replicas_of(virtual) if alive(rank)]

    def _route(self, virtual: int, sending: bool) -> Tuple[Tuple[int, bool], ...]:
        """This rank's members toward sphere ``virtual``: ``(peer, is_full)``.

        Plans cover *live* replicas on both ends so sender and receiver
        agree on the Msg-PlusHash payload carrier even after deaths.  Only
        ``SimMPI.kill_rank`` changes liveness (the sphere tracker hears of
        deaths from it), so a route lives until the live-rank count moves.
        """
        if self.runtime.live_count != self._epoch:
            self._epoch = self.runtime.live_count
            self._routes = {}
        route = self._routes.get((virtual, sending))
        if route is None:
            peers = self._alive_sphere(virtual)
            mine = self._alive_sphere(self._virtual_rank)
            senders, receivers = (mine, peers) if sending else (peers, mine)
            plan = plan_copies(senders, receivers, self.mode)
            me = self.physical_rank
            route = tuple(
                (peer, plan[(me, peer) if sending else (peer, me)] == "full")
                for peer in peers
            )
            self._routes[(virtual, sending)] = route
        return route

    # -- death plumbing -----------------------------------------------------

    def _on_rank_death(self, dead_physical: int) -> None:
        self.tracker.notice_death(dead_physical)
        still_active = []
        for request in self._active_recvs:
            request.drop_sender(dead_physical)
            if not request.event.triggered:
                still_active.append(request)
        self._active_recvs = still_active

    # -- point to point --------------------------------------------------------

    def _check_tag(self, tag: int, internal: bool) -> None:
        if tag < 0:
            raise RedundancyError(f"tag must be >= 0, got {tag}")
        if not internal and tag >= USER_TAG_LIMIT:
            raise RedundancyError(f"user tags must be < {USER_TAG_LIMIT}, got {tag}")

    def isend(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False) -> RedRequest:
        """Fan-out send to every live replica of virtual rank ``dest``."""
        self._check_tag(tag, _internal)
        request_set = RedRequest(self, kind="send", virtual_peer=dest, tag=tag)
        self.runtime.counters.add("app_sends")
        me = self.physical_rank
        # id(shipped) -> (shipped, digest): one hash per distinct shipped
        # object; holding the object keeps its id from being reused.
        digests: Dict[int, Tuple[Any, int]] = {}
        for receiver, is_full in self._route(dest, True):
            shipped = payload
            if self.corruptor is not None:
                shipped = self.corruptor(me, receiver, payload)
            if not is_full:
                if id(shipped) not in digests:
                    digests[id(shipped)] = (shipped, payload_digest(shipped))
                shipped = digests[id(shipped)][1]
            member = self.runtime.post_send(
                me, receiver, tag if is_full else tag + HASH_TAG_OFFSET, shipped, self._cid
            )
            request_set.add_member(member, receiver, is_full)
        request_set.arm()
        return request_set

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG, _internal: bool = True) -> RedRequest:
        """Fan-in receive from every live replica of virtual ``source``.

        Wildcard sources are only supported through the blocking
        :meth:`recv` (the paper's envelope-forwarding protocol is
        inherently multi-step); wildcard tags are not interposable
        (a digest copy travels under a shifted tag) and are rejected.
        """
        if source == ANY_SOURCE:
            raise RedundancyError(
                "ANY_SOURCE is only supported via blocking recv() under "
                "redundancy (envelope-forwarding protocol)"
            )
        if tag == ANY_TAG:
            raise RedundancyError("ANY_TAG is not supported under redundancy")
        self._check_tag(tag, _internal)
        return self._post_specific_recv(source, tag)

    def _post_specific_recv(
        self,
        source: int,
        tag: int,
        already_have: Optional[ReplicaCopy] = None,
        skip_sender: Optional[int] = None,
    ) -> RedRequest:
        request_set = RedRequest(self, kind="recv", virtual_peer=source, tag=tag)
        if already_have is not None:
            request_set._copies.append(already_have)
        self.runtime.counters.add("app_recvs")
        me = self.physical_rank
        for sender, is_full in self._route(source, False):
            if sender == skip_sender:
                continue
            member = self.runtime.post_recv(
                me, sender, tag if is_full else tag + HASH_TAG_OFFSET, self._cid
            )
            request_set.add_member(member, sender, is_full)
        request_set.arm()
        if len(self._active_recvs) > 64:
            self._active_recvs = [
                pending
                for pending in self._active_recvs
                if not pending.event.triggered
            ]
        self._active_recvs.append(request_set)
        return request_set

    def send(self, payload: Any, dest: int, tag: int = 0, _internal: bool = False):
        """Blocking fan-out send (generator)."""
        request_set = self.isend(payload, dest, tag, _internal=_internal)
        yield from request_set.wait()

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG):
        """Blocking fan-in receive (generator) → ``(payload, Status)``.

        With ``source=ANY_SOURCE`` runs the Section 3 wildcard
        protocol so all replicas of this sphere receive from the same
        virtual sender.
        """
        if source == ANY_SOURCE:
            from .anysource import anysource_recv

            result = yield from anysource_recv(self, tag)
            return result
        if tag == ANY_TAG:
            raise RedundancyError("ANY_TAG is not supported under redundancy")
        request_set = self.irecv(source, tag)
        result = yield from request_set.wait()
        return result

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int = ANY_SOURCE,
        send_tag: int = 0,
        recv_tag: int = ANY_TAG,
    ):
        """Combined send+receive (generator); posts both before waiting."""
        if source == ANY_SOURCE or recv_tag == ANY_TAG:
            raise RedundancyError(
                "sendrecv wildcards are not supported under redundancy"
            )
        send_set = self.isend(payload, dest, send_tag)
        recv_set = self.irecv(source, recv_tag)
        results = yield from self.waitall([send_set, recv_set])
        return results[1]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RedComm virtual={self._virtual_rank}/{self.size} "
            f"physical={self.physical_rank} mode={self.mode}>"
        )
