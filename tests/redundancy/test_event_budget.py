"""Event budget of the p2p send path.

A message costs the simulation kernel three events: the sender's
completion, the arrival and the receive match.  Injection must not need
a process (or a timer) of its own.  The events are counted by an
:class:`Environment` subclass.
"""

import numpy as np

from repro.mpi import SimMPI
from repro.redundancy import RedComm, ReplicaMap, SphereTracker
from repro.simkit import Environment


class CountingEnvironment(Environment):
    """An environment that counts the events it processes."""

    def __init__(self) -> None:
        super().__init__()
        self.steps = 0

    def step(self) -> None:
        self.steps += 1
        super().step()


def test_message_stream_costs_three_events_per_message():
    env = CountingEnvironment()
    world = SimMPI(env, size=2)
    count = 50

    def program(ctx):
        if ctx.rank == 0:
            sends = [ctx.comm.isend(b"m" * 1_000, dest=1, tag=i) for i in range(count)]
            yield from ctx.comm.waitall(sends)
        else:
            receives = [ctx.comm.irecv(source=0, tag=i) for i in range(count)]
            yield from ctx.comm.waitall(receives)

    world.spawn(program)
    world.run()
    assert world.counters["p2p_messages"] == count
    # Per rank: process start, waitall and process exit; plus run()'s AllOf.
    assert env.steps == 3 * count + 2 * 3 + 1


def ring_job(virtual=4, degree=3.0, rounds=10, blocks=4):
    """RedMPI ring: each round every virtual rank posts ``blocks`` sends
    to its right neighbour and as many receives from its left, waits for
    all of them, then computes."""
    env = CountingEnvironment()
    rmap = ReplicaMap(virtual, degree)
    tracker = SphereTracker(rmap)
    world = SimMPI(env, size=rmap.total_physical)

    def program(ctx):
        red = RedComm(ctx, rmap, tracker)
        right = (red.rank + 1) % red.size
        left = (red.rank - 1) % red.size
        held = [np.full(64, float(red.rank)) for _ in range(blocks)]
        for _ in range(rounds):
            sends = [red.isend(block, right, tag=i) for i, block in enumerate(held)]
            receives = [red.irecv(left, tag=i) for i in range(blocks)]
            results = yield from red.waitall(sends + receives)
            held = [payload for payload, _status in results[blocks:]]
            yield ctx.compute(1e-4)
        return float(held[0][0])

    world.spawn(program)
    world.run()
    return env, world, rmap


def test_redundant_ring_spends_at_most_four_events_per_message():
    env, world, rmap = ring_job()
    # Ten hops round a ring of four bring every block two ranks on.
    assert [world.result_of(p) for p in range(rmap.total_physical)] == [
        float((rmap.virtual_of(p) - 10) % 4) for p in range(rmap.total_physical)
    ]
    messages = world.counters["p2p_messages"]
    assert messages == 10 * 4 * 4 * 3 * 3  # rounds x ranks x blocks x r senders x r receivers
    # Three per message; the request sets (one per r messages), waits,
    # computes and rank processes share the fourth.  A process per send
    # would add four more.
    assert env.steps <= 4 * messages, f"{env.steps} events for {messages} messages"
