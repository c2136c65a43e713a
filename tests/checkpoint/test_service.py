"""Tests for the coordinated checkpoint service and restart manager."""

import itertools
import math

import pytest

from repro.checkpoint import (
    CheckpointConfig,
    CheckpointService,
    RestartManager,
    StableStorage,
)
from repro.errors import ConfigurationError, NoCheckpointError
from repro.mpi import SimMPI
from repro.redundancy import RedComm, ReplicaMap, SphereTracker
from repro.simkit import Environment
from repro.workloads import SyntheticWorkload, WorkShell


def run_with_service(size, steps, config, compute_seconds=0.05):
    env = Environment()
    world = SimMPI(env, size=size)
    storage = StableStorage(env)
    manager = RestartManager(storage)
    service = CheckpointService(world, storage, manager, config)
    states = {}

    def program(ctx):
        workload = SyntheticWorkload(
            total_steps=steps, compute_seconds=compute_seconds, message_bytes=256
        )
        import numpy as np

        workload.configure(ctx.rank, ctx.size, np.random.default_rng(0))
        shell = WorkShell(ctx, ctx.comm)
        for step in range(steps):
            yield from workload.step(shell, step)
            yield from service.at_step_boundary(ctx.comm, workload, step)
        states[ctx.rank] = workload.state()

    world.spawn(program)
    world.run()
    return env, world, storage, manager, service, states


class TestConfig:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(interval=0.0)

    def test_rejects_negative_fixed_cost(self):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(interval=1.0, fixed_cost=-1.0)

    def test_forked_excludes_fixed_cost(self):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(interval=1.0, fixed_cost=1.0, forked=True)


class TestCheckpointPath:
    def test_checkpoints_taken_at_interval(self):
        config = CheckpointConfig(interval=0.2, fixed_cost=0.01)
        env, _, _, manager, service, _ = run_with_service(2, 20, config)
        assert manager.commits >= 3
        assert service.checkpoints_taken == manager.commits

    def test_fixed_cost_charged(self):
        cheap = CheckpointConfig(interval=0.2, fixed_cost=0.0)
        costly = CheckpointConfig(interval=0.2, fixed_cost=0.5)
        env_cheap, *_ = run_with_service(2, 20, cheap)
        env_costly, *_ = run_with_service(2, 20, costly)
        assert env_costly.now > env_cheap.now

    def test_emergent_cost_from_storage(self):
        config = CheckpointConfig(interval=0.2)
        env, _, storage, manager, _, _ = run_with_service(2, 10, config)
        assert manager.commits >= 1
        assert storage.bytes_written > 0

    def test_recovery_line_matches_states(self):
        config = CheckpointConfig(interval=0.2, fixed_cost=0.0)
        _, _, _, manager, _, final_states = run_with_service(2, 20, config)
        line = manager.line
        assert 0 < line.step <= 20
        images = manager.peek_states([0, 1])
        for rank in (0, 1):
            assert images[rank]["step"] == line.step

    def test_no_checkpoint_before_interval(self):
        config = CheckpointConfig(interval=1e9, fixed_cost=0.0)
        _, _, _, manager, _, _ = run_with_service(2, 5, config)
        assert manager.commits == 0
        assert not manager.has_checkpoint
        with pytest.raises(NoCheckpointError):
            manager.line

    def test_bookmark_exchange_adds_traffic(self):
        plain = CheckpointConfig(interval=0.2, fixed_cost=0.0)
        with_bookmarks = CheckpointConfig(
            interval=0.2, fixed_cost=0.0, bookmark_exchange=True
        )
        _, world_plain, *_ = run_with_service(3, 10, plain)
        _, world_marked, *_ = run_with_service(3, 10, with_bookmarks)
        assert (
            world_marked.counters["p2p_messages"]
            > world_plain.counters["p2p_messages"]
        )

    def test_forked_mode_commits_after_background_write(self):
        config = CheckpointConfig(interval=0.2, forked=True, fork_cost=0.01)
        _, _, _, manager, _, _ = run_with_service(2, 15, config)
        assert manager.commits >= 1

    def test_forked_cheaper_than_synchronous(self):
        synchronous = CheckpointConfig(interval=0.2)
        forked = CheckpointConfig(interval=0.2, forked=True, fork_cost=0.0)
        env_sync, *_ = run_with_service(2, 15, synchronous, compute_seconds=0.05)
        env_forked, *_ = run_with_service(2, 15, forked, compute_seconds=0.05)
        assert env_forked.now <= env_sync.now


class TestTimeInCheckpoints:
    WINDOWS = [0.1, 0.2, 0.3, 0.7, 1e-3]

    def test_sums_every_rank_window(self):
        config = CheckpointConfig(interval=0.2, fixed_cost=0.01)
        _, _, _, manager, service, _ = run_with_service(2, 20, config)
        assert len(service.checkpoint_windows) == 2 * manager.commits
        assert all(window >= 0.01 for window in service.checkpoint_windows)
        assert service.time_in_checkpoints == math.fsum(service.checkpoint_windows)

    def test_total_independent_of_rank_exit_order(self):
        service = CheckpointService(
            SimMPI(Environment(), size=1),
            StableStorage(Environment()),
            RestartManager(StableStorage(Environment())),
            CheckpointConfig(interval=1.0),
        )
        totals, naive = set(), set()
        for order in itertools.permutations(self.WINDOWS):
            service.checkpoint_windows[:] = order
            totals.add(service.time_in_checkpoints.hex())
            running = 0.0
            for window in order:
                running += window
            naive.add(running.hex())
        assert totals == {math.fsum(self.WINDOWS).hex()}
        assert len(naive) > 1  # a running sum would depend on the order


class TestSphereVerdict:
    """Replicas of one virtual rank share one "is the interval up?" verdict."""

    @staticmethod
    def run_straddling(arrivals):
        """Virtual ranks 0 and 1 at r=2; replica ``i`` of a sphere reaches
        its step boundary at ``arrivals[i]`` against an interval of 0.2."""
        env = Environment()
        rmap = ReplicaMap(2, 2.0)
        tracker = SphereTracker(rmap)
        world = SimMPI(env, size=rmap.total_physical)
        storage = StableStorage(env)
        service = CheckpointService(
            world,
            storage,
            RestartManager(storage),
            CheckpointConfig(interval=0.2, fixed_cost=0.0),
        )
        verdicts = {}

        def program(ctx):
            red = RedComm(ctx, rmap, tracker)
            yield env.timeout(arrivals[red.replica_index])
            taken = yield from service.at_step_boundary(red, _Stateless(), 0)
            verdicts[ctx.rank] = taken

        world.spawn(program)
        world.run()
        return verdicts, service, rmap

    @pytest.mark.parametrize(
        "arrivals, taken",
        [
            # Replica 0 arrives before the interval edge, replica 1 after
            # it: each reading its own clock would send 0 and 1 into the
            # LOR allreduce, and the vote would find no majority.
            ((0.1, 0.3), False),
            # The first to arrive decides, whatever its replica index.
            ((0.3, 0.1), False),
            ((0.3, 0.35), True),
        ],
    )
    def test_first_replica_to_arrive_decides(self, arrivals, taken):
        verdicts, service, rmap = self.run_straddling(arrivals)
        assert verdicts == {rank: taken for rank in range(rmap.total_physical)}
        assert service.checkpoints_taken == int(taken)
        assert service._sphere_verdicts == {}


class TestRestartManager:
    def test_read_state_roundtrip(self, env, run_process):
        storage = StableStorage(env)
        manager = RestartManager(storage)
        storage.stage_untimed("s1", manager.key_for(0), _image_bytes({"step": 2}))
        manager.note_commit("s1", 2, now=1.0)

        def body():
            state = yield from manager.read_state(0)
            return state

        assert run_process(env, body()) == {"step": 2}

    def test_rollback_counter(self, env):
        manager = RestartManager(StableStorage(env))
        manager.note_rollback()
        manager.note_rollback()
        assert manager.rollbacks == 2

    def test_peek_states_bulk(self, env):
        storage = StableStorage(env)
        manager = RestartManager(storage)
        for rank in range(3):
            storage.stage_untimed(
                "s", manager.key_for(rank), _image_bytes({"rank": rank})
            )
        manager.note_commit("s", 1, now=0.0)
        states = manager.peek_states(range(3))
        assert states[2] == {"rank": 2}


class _Stateless:
    def state(self):
        return {}


def _image_bytes(state):
    from repro.checkpoint import capture_image

    return capture_image(state).data
