"""Bit-identity pins for one small redundant job, kill included.

The job runs partial redundancy (r = 2.5 over four virtual ranks, so
spheres of three and two replicas), checkpoints, and loses the primary
replica of virtual rank 0 at a fixed simulated time.  No failure is
drawn from an RNG, so only the simulator itself can move these pins.
Times are compared through ``float.hex`` — exactly, not approximately.
"""

from functools import partial

import pytest

from repro.orchestration import JobConfig, ResilientJob
from repro.redundancy import ALL_TO_ALL, MSG_PLUS_HASH
from repro.workloads import SyntheticWorkload

#: When, in simulated seconds, physical rank 0 is killed.
KILL_AT = 0.1234
KILLED_RANK = 0


class KillOnceJob(ResilientJob):
    """A job whose first attempt loses ``KILLED_RANK`` at ``KILL_AT``."""

    def _run_attempt(self, env, *args):
        if env.now == 0.0:
            def killer():
                yield env.timeout(KILL_AT)
                self._kill(KILLED_RANK)

            env.process(killer())
        return super()._run_attempt(env, *args)


def run_job(mode):
    config = JobConfig(
        workload_factory=partial(
            SyntheticWorkload, total_steps=30, compute_seconds=0.01, message_bytes=4096
        ),
        virtual_processes=4,
        redundancy=2.5,
        mode=mode,
        checkpoint_interval=0.1,
        checkpoint_cost=0.005,
    )
    return KillOnceJob(config).run()


GOLDEN = {
    ALL_TO_ALL: dict(
        total_time="0x1.44102ff8ec11bp-2",
        time_in_checkpoints="0x1.254ea5299aaf8p-3",
        counters={
            "app_sends": 1291.0,
            "app_recvs": 1291.0,
            "p2p_messages": 3076.0,
            "p2p_bytes": 2852064.0,
            "ranks_killed": 1.0,
        },
    ),
    MSG_PLUS_HASH: dict(
        total_time="0x1.440334bdccd6bp-2",
        time_in_checkpoints="0x1.254edf3630ea6p-3",
        counters={
            "app_sends": 1291.0,
            "app_recvs": 1291.0,
            "p2p_messages": 3076.0,
            "p2p_bytes": 1369304.0,
            "ranks_killed": 1.0,
        },
    ),
}


@pytest.mark.parametrize("mode", [ALL_TO_ALL, MSG_PLUS_HASH])
def test_redundant_job_report_is_pinned(mode):
    report = run_job(mode)
    golden = GOLDEN[mode]
    assert report.completed
    assert (report.attempts, report.failures_injected, report.rollbacks) == (1, 1, 0)
    assert report.checkpoints_committed == 3
    assert report.result == {"iterations": 30, "token_sum": 1.6140901064495858e19}
    assert report.total_time.hex() == golden["total_time"]
    assert report.time_in_checkpoints.hex() == golden["time_in_checkpoints"]
    assert report.counters == golden["counters"]
