"""Tests for the SimMPI runtime: lifecycle, liveness, accounting."""

import numpy as np
import pytest

from repro.errors import MPIError
from repro.mpi import SimMPI
from repro.mpi.datatypes import message_wire_size
from repro.simkit import Environment


class TestLifecycle:
    def test_result_of_requires_completion(self):
        env = Environment()
        world = SimMPI(env, size=1)

        def program(ctx):
            yield ctx.compute(1.0)
            return "ok"

        world.spawn(program)
        with pytest.raises(MPIError):
            world.result_of(0)
        world.run()
        assert world.result_of(0) == "ok"

    def test_run_before_spawn_rejected(self):
        world = SimMPI(Environment(), size=1)
        with pytest.raises(MPIError):
            world.run()

    def test_double_spawn_rejected(self):
        world = SimMPI(Environment(), size=1)

        def program(ctx):
            yield ctx.compute(0.0)

        world.spawn(program)
        with pytest.raises(MPIError):
            world.spawn(program)

    def test_run_until_horizon(self):
        env = Environment()
        world = SimMPI(env, size=1)

        def program(ctx):
            yield ctx.compute(10.0)

        world.spawn(program)
        world.run(until=1.0)
        assert env.now == 1.0
        assert not world.all_done()

    def test_all_done(self):
        world = SimMPI(Environment(), size=2)

        def program(ctx):
            yield ctx.compute(float(ctx.rank))

        world.spawn(program)
        world.run()
        assert world.all_done()

    def test_world_size_validation(self):
        with pytest.raises(MPIError):
            SimMPI(Environment(), size=0)

    def test_compute_scale(self):
        env = Environment()
        world = SimMPI(env, size=1, compute_scale=0.5)

        def program(ctx):
            yield ctx.compute(10.0)

        world.spawn(program)
        world.run()
        assert env.now == pytest.approx(5.0)


class TestLiveness:
    def test_kill_rank_updates_liveness(self):
        world = SimMPI(Environment(), size=3)

        def program(ctx):
            yield ctx.compute(100.0)

        world.spawn(program)
        world.kill_rank(1)
        assert not world.is_alive(1)
        assert world.alive_ranks == {0, 2}

    def test_kill_is_idempotent(self):
        world = SimMPI(Environment(), size=2)

        def program(ctx):
            yield ctx.compute(1.0)

        world.spawn(program)
        world.kill_rank(0)
        world.kill_rank(0)
        assert world.counters["ranks_killed"] == 1

    def test_death_watchers_called(self):
        world = SimMPI(Environment(), size=2)
        deaths = []
        world.on_rank_death(deaths.append)

        def program(ctx):
            yield ctx.compute(1.0)

        world.spawn(program)
        world.kill_rank(1)
        assert deaths == [1]

    def test_send_to_dead_rank_completes_but_drops(self):
        env = Environment()
        world = SimMPI(env, size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.compute(1.0)
                yield from ctx.comm.send(b"into-void", dest=1)
                return "sent"
            yield ctx.compute(100.0)

        world.spawn(program)
        world.kill_rank(1)
        world.run()
        assert world.result_of(0) == "sent"
        assert world.counters["p2p_dropped"] >= 1

    def test_dead_rank_cannot_send(self):
        world = SimMPI(Environment(), size=2)

        def program(ctx):
            yield ctx.compute(1.0)

        world.spawn(program)
        world.kill_rank(0)
        with pytest.raises(MPIError):
            world.post_send(src=0, dst=1, tag=0, payload=b"", cid=0)

    def test_message_in_flight_to_dying_rank_dropped(self):
        env = Environment()
        world = SimMPI(env, size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(b"x", dest=1)
                return "done"
            yield ctx.compute(100.0)

        world.spawn(program)

        def killer(env):
            # Kill after injection starts but likely before delivery.
            yield env.timeout(1e-9)
            world.kill_rank(1)

        env.process(killer(env))
        world.run()
        assert world.result_of(0) == "done"


class TestAccounting:
    def test_message_and_byte_counters(self):
        world = SimMPI(Environment(), size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(b"x" * 100, dest=1)
            else:
                yield from ctx.comm.recv(source=0)

        world.spawn(program)
        world.run()
        assert world.counters["p2p_messages"] == 1
        assert world.counters["p2p_bytes"] >= 100

    def test_channels_quiet_after_completion(self):
        world = SimMPI(Environment(), size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield from ctx.comm.send(b"q", dest=1)
            else:
                yield from ctx.comm.recv(source=0)

        world.spawn(program)
        world.run()
        assert world.channels_quiet()

    def test_channels_quiet_excludes_dead_destinations(self):
        env = Environment()
        world = SimMPI(env, size=2)

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.compute(1.0)
                yield from ctx.comm.send(b"void", dest=1)
            else:
                yield ctx.compute(100.0)

        world.spawn(program)
        world.kill_rank(1)
        world.run()
        assert world.channels_quiet()


class TestSubCommunicators:
    def test_create_comm_isolated_traffic(self):
        env = Environment()
        world = SimMPI(env, size=4)
        sub = world.create_comm([1, 3])
        out = {}

        def program(ctx):
            if ctx.rank in (1, 3):
                comm = sub[ctx.rank]
                from repro.mpi import ops

                total = yield from comm.allreduce(comm.rank, ops.SUM)
                out[ctx.rank] = (comm.rank, comm.size, total)
            else:
                yield ctx.compute(0.0)

        world.spawn(program)
        world.run()
        assert out[1] == (0, 2, 1)
        assert out[3] == (1, 2, 1)

    def test_duplicate_group_rejected(self):
        world = SimMPI(Environment(), size=3)
        from repro.errors import CommunicatorError

        with pytest.raises(CommunicatorError):
            world.create_comm([1, 1])

    def test_local_global_translation(self):
        world = SimMPI(Environment(), size=4)
        sub = world.create_comm([2, 0])
        comm = sub[2]
        assert comm.global_rank(0) == 2
        assert comm.local_rank_of(0) == 1


def _busy(world, src, dst, payload):
    """Sender-busy time the fabric charges for one message."""
    nbytes = message_wire_size(payload)
    return world.fabric.sender_busy_time(world.node_of(src), world.node_of(dst), nbytes)


def _wire(world, src, dst):
    return world.fabric.wire_latency(world.node_of(src), world.node_of(dst))


def _stamp(env, log, key):
    """Callback that records the clock when an event fires."""
    return lambda _event: log.__setitem__(key, env.now)


class TestInjection:
    """The sender's NIC pushes one message at a time, in post order."""

    PAYLOADS = [b"a" * 4_000, b"b" * 150_000, b"c" * 10, np.zeros(9_000)]

    def _burst(self, world, completions, arrivals, start=1.0, kill=None):
        """Rank 0 posts every payload to rank 1 at ``start``; rank 1
        pre-posts one receive per tag.  ``kill`` (rank, time) fail-stops
        a rank mid-burst."""
        env = world.env

        def program(ctx):
            if ctx.rank == 1:
                receives = [ctx.comm.irecv(source=0, tag=i) for i in range(len(self.PAYLOADS))]
                for i, request in enumerate(receives):
                    request.event.add_callback(_stamp(env, arrivals, i))
                for request in receives:
                    yield from request.wait()
                return "received"
            if ctx.rank == 0:
                yield ctx.compute(start)
                sends = [ctx.comm.isend(p, dest=1, tag=i) for i, p in enumerate(self.PAYLOADS)]
                for i, request in enumerate(sends):
                    request.event.add_callback(_stamp(env, completions, i))
                for request in sends:
                    yield from request.wait()
                return "sent"
            yield ctx.compute(0.0)

        world.spawn(program)
        if kill is not None:
            rank, when = kill

            def killer(env):
                yield env.timeout(when)
                world.kill_rank(rank)

            env.process(killer(env))

    def test_same_instant_sends_complete_back_to_back_in_post_order(self):
        env = Environment()
        world = SimMPI(env, size=2)
        completions, arrivals = {}, {}
        self._burst(world, completions, arrivals)
        world.run()
        expected, clock = [], 1.0
        for payload in self.PAYLOADS:
            clock = clock + _busy(world, 0, 1, payload)
            expected.append(clock)
        assert [completions[i] for i in range(len(self.PAYLOADS))] == expected

    def test_each_message_arrives_wire_latency_after_completion(self):
        env = Environment()
        world = SimMPI(env, size=2)
        completions, arrivals = {}, {}
        self._burst(world, completions, arrivals)
        world.run()
        wire = _wire(world, 0, 1)
        assert wire > 0
        for i in range(len(self.PAYLOADS)):
            assert arrivals[i] == completions[i] + wire
        assert world._in_flight == {}  # every message arrived

    def test_senders_on_different_ranks_do_not_serialise(self):
        env = Environment()
        world = SimMPI(env, size=3)
        payload = b"p" * 100_000
        completions = {}

        def program(ctx):
            if ctx.rank == 2:
                for _ in range(2):
                    yield from ctx.comm.recv()
                return
            yield ctx.compute(2.0)
            request = ctx.comm.isend(payload, dest=2)
            request.event.add_callback(_stamp(env, completions, ctx.rank))
            yield from request.wait()

        world.spawn(program)
        world.run()
        assert completions == {
            0: 2.0 + _busy(world, 0, 2, payload),
            1: 2.0 + _busy(world, 1, 2, payload),
        }
        assert completions[0] == completions[1]

    def test_destination_dying_while_queued_drops_once(self):
        env = Environment()
        world = SimMPI(env, size=3)
        first, second = b"f" * 200_000, b"s" * 10
        completions, arrivals = {}, {}

        def program(ctx):
            if ctx.rank == 0:
                yield ctx.compute(1.0)
                sends = [ctx.comm.isend(first, dest=2), ctx.comm.isend(second, dest=1)]
                for i, request in enumerate(sends):
                    request.event.add_callback(_stamp(env, completions, i))
                for request in sends:
                    yield from request.wait()
                return "sent"
            if ctx.rank == 2:
                request = ctx.comm.irecv(source=0)
                request.event.add_callback(_stamp(env, arrivals, 0))
                yield from request.wait()
                return
            yield ctx.compute(100.0)

        world.spawn(program)

        def killer(env):
            # Rank 1 dies while its message still waits behind ``first``.
            yield env.timeout(1.0 + 0.5 * _busy(world, 0, 2, first))
            world.kill_rank(1)

        env.process(killer(env))
        world.run()
        assert world.result_of(0) == "sent"
        done_first = 1.0 + _busy(world, 0, 2, first)
        assert completions == {0: done_first, 1: done_first + _busy(world, 0, 1, second)}
        assert arrivals == {0: done_first + _wire(world, 0, 2)}
        assert world.counters["p2p_dropped"] == 1
        assert world.counters["p2p_messages"] == 2
        assert world._in_flight == {(0, 1): 1}  # sent once, never arrived

    def test_dead_senders_queued_sends_still_inject(self):
        env = Environment()
        world = SimMPI(env, size=2)
        completions, arrivals = {}, {}
        self._burst(world, completions, arrivals, kill=(0, 1.0 + 1e-9))
        world.run()
        assert not world.is_alive(0)
        assert world.result_of(1) == "received"
        clock = 1.0
        for i, payload in enumerate(self.PAYLOADS):
            clock = clock + _busy(world, 0, 1, payload)
            assert completions[i] == clock
            assert arrivals[i] == clock + _wire(world, 0, 1)
        assert world._in_flight == {}  # every message arrived
        assert "p2p_dropped" not in world.counters.as_dict()

    def test_channels_quiet_once_queue_drains(self):
        env = Environment()
        world = SimMPI(env, size=2)
        completions, arrivals = {}, {}
        self._burst(world, completions, arrivals)
        world.run(until=1.0 + 0.5 * _busy(world, 0, 1, self.PAYLOADS[0]))
        assert world._in_flight == {(0, 1): len(self.PAYLOADS)}
        assert not world.channels_quiet()
        last = 1.0
        for payload in self.PAYLOADS:
            last = last + _busy(world, 0, 1, payload)
        world.run(until=last)
        assert len(completions) == len(self.PAYLOADS)
        assert len(arrivals) == len(self.PAYLOADS) - 1
        assert not world.channels_quiet()
        world.run()
        assert len(arrivals) == len(self.PAYLOADS)
        assert world.channels_quiet()

    def test_message_to_rank_dying_in_flight_leaves_channels_quiet(self):
        env = Environment()
        world = SimMPI(env, size=3)
        doomed, live = b"d" * 4_000, b"l" * 150_000

        def program(ctx):
            if ctx.rank == 0:
                sends = [ctx.comm.isend(doomed, dest=1), ctx.comm.isend(live, dest=2)]
                yield from ctx.comm.waitall(sends)
            elif ctx.rank == 2:
                yield from ctx.comm.recv(source=0)
            else:
                yield ctx.compute(100.0)

        world.spawn(program)
        on_wire = _busy(world, 0, 1, doomed) + 0.5 * _wire(world, 0, 1)
        world.run(until=on_wire)
        world.kill_rank(1)  # its message is on the wire, still to arrive
        assert not world.channels_quiet()  # (0, 2) is live and in flight
        world.run()
        assert world.counters["p2p_dropped"] == 1
        assert world.counters["p2p_messages"] == 2
        # (0, 1) was sent once and never arrived; (0, 2) arrived.
        assert world._in_flight == {(0, 1): 1}
        assert world.channels_quiet()
