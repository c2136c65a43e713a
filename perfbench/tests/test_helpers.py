"""Unit tests for the benchmark's own helpers.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.spans import Patcher, Recorder, by_name, merge_parts, self_times, write_part
from perfbench.stats import Tally, percentile

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


# -- nearest-rank percentile -----------------------------------------------------


def test_percentile_is_nearest_rank():
    values = [15, 20, 35, 40, 50]
    assert percentile(values, 5) == 15
    assert percentile(values, 30) == 20
    assert percentile(values, 40) == 20
    assert percentile(values, 50) == 35
    assert percentile(values, 100) == 50


def test_percentile_returns_an_observed_sample_regardless_of_order():
    values = [9.0, 1.0, 5.0, 3.0]
    assert percentile(values, 50) == 3.0
    assert percentile(values, 99) == 9.0
    assert percentile([7.5], 99) == 7.5


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


# -- self time over nested spans ---------------------------------------------------


def _span(span_id, parent, name, total):
    return {"id": span_id, "parent": parent, "name": name, "group": "g",
            "count": 1, "total": total, "start": 0.0, "end": total, "units": 0}


def test_self_time_subtracts_direct_children_only():
    records = [
        _span("a", None, "bench.root", 10.0),
        _span("b", "a", "orchestration.job", 8.0),
        _span("c", "b", "simkit.step", 5.0),
        _span("d", "c", "mpi.payload_digest", 2.0),
        _span("e", "b", "checkpoint.take", 1.0),
    ]
    selfs = self_times(records)
    assert selfs == pytest.approx({"a": 2.0, "b": 2.0, "c": 3.0, "d": 2.0, "e": 1.0})
    # The self times of a tree add up to its root's duration.
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_time_ignores_parents_from_another_process():
    records = [_span("w.1", "parent-elsewhere", "orchestration.job", 4.0)]
    assert self_times(records) == {"w.1": 4.0}


def test_recorder_folds_repeated_calls_and_computes_self_time():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def leaf():
        clock.now += 1.0

    def middle():
        clock.now += 0.5
        wrapped_leaf()
        wrapped_leaf()

    wrapped_leaf = recorder.wrap(leaf, "mpi.payload_digest")
    wrapped_middle = recorder.wrap(middle, "simkit.step")
    with recorder.span("bench.root"):
        for _ in range(3):
            wrapped_middle()
        clock.now += 0.25

    names = by_name(recorder.records)
    assert len(recorder.records) == 3  # root, one folded step, one folded digest
    assert names["simkit.step"]["count"] == 3
    assert names["mpi.payload_digest"]["count"] == 6
    assert names["mpi.payload_digest"]["self"] == pytest.approx(6.0)
    assert names["simkit.step"]["self"] == pytest.approx(1.5)
    assert names["bench.root"]["self"] == pytest.approx(0.25)
    assert names["bench.root"]["total"] == pytest.approx(7.75)
    groups = {record["group"] for record in recorder.records}
    assert len(groups) == 1


def test_group_spans_get_one_record_and_id_per_call():
    clock = FakeClock()
    recorder = Recorder(clock=clock)
    step = recorder.wrap(lambda: None, "simkit.step")

    def job():
        clock.now += 2.0
        step()

    run_job = recorder.wrap(job, "orchestration.job", group=True)
    with recorder.span("bench.root"):
        run_job()
        run_job()
    jobs = [r for r in recorder.records if r["name"] == "orchestration.job"]
    steps = [r for r in recorder.records if r["name"] == "simkit.step"]
    assert [j["total"] for j in jobs] == [2.0, 2.0]
    assert len({j["group"] for j in jobs}) == 2
    # Each job's spans carry that job's id as their group.
    assert sorted(s["group"] for s in steps) == sorted(j["id"] for j in jobs)


def test_generator_spans_time_each_resumption_and_pass_values_through():
    clock = FakeClock()
    recorder = Recorder(clock=clock)

    def process():
        got = yield "first"
        clock.now += 1.0
        try:
            yield got * 2
        except KeyError:
            clock.now += 0.5
        return "done"

    wrapped = recorder.wrap(process, "checkpoint.take")
    gen = wrapped()
    assert next(gen) == "first"
    clock.now += 100.0  # suspended time is not the span's
    assert gen.send(21) == 42
    with pytest.raises(StopIteration) as stop:
        gen.throw(KeyError("x"))
    assert stop.value.value == "done"
    names = by_name(recorder.records)
    assert names["checkpoint.take"]["count"] == 3
    assert names["checkpoint.take"]["total"] == pytest.approx(1.5)


def test_units_are_counted_for_root_spans():
    recorder = Recorder()
    sized = recorder.wrap(lambda n: list(range(n)), "models.grid", units=len)
    sized(3)
    sized(4)
    assert by_name(recorder.records)["models.grid"]["units"] == 7


# -- merging spans from worker part files -------------------------------------------


def test_worker_part_files_merge_into_one_trace(tmp_path):
    recorder = Recorder()
    recorder.parts_dir = str(tmp_path)
    job = recorder.wrap(lambda: sum(range(1000)), "orchestration.job", group=True)
    pids = []
    for _ in range(2):
        pid = os.fork()
        if pid == 0:  # a pool worker: runs two cells, writes two parts
            try:
                job()
                job()
            finally:
                os._exit(0)
        pids.append(pid)
    for pid in pids:
        _, status = os.waitpid(pid, 0)
        assert status == 0
    with recorder.span("bench.root"):
        pass
    assert len(list(tmp_path.iterdir())) == 4
    merged = recorder.records + merge_parts(str(tmp_path))
    jobs = [r for r in merged if r["name"] == "orchestration.job"]
    assert len(jobs) == 4
    assert len({r["id"] for r in merged}) == len(merged)
    assert {j["id"].split(".")[0] for j in jobs} == {str(pid) for pid in pids}
    assert all(j["parent"] is None for j in jobs)


def test_merge_skips_incomplete_parts_and_is_ordered(tmp_path):
    write_part(str(tmp_path), [_span("1.0", None, "orchestration.job", 1.0)])
    write_part(str(tmp_path), [_span("1.1", None, "orchestration.job", 2.0)])
    (tmp_path / "part-9-9.json.tmp").write_text("[{\"torn\": ")
    merged = merge_parts(str(tmp_path))
    assert [r["id"] for r in merged] == ["1.0", "1.1"]
    assert merge_parts(str(tmp_path)) == merged


# -- patching where callers look names up ---------------------------------------------


def test_patcher_replaces_every_binding_and_restores(monkeypatch):
    import sys
    import types

    home = types.ModuleType("fakepkg.home")
    user = types.ModuleType("fakepkg.user")

    def digest(value):
        return value + 1

    class Env:
        def step(self):
            return "stepped"

    home.digest, user.digest, home.Env = digest, digest, Env
    monkeypatch.setitem(sys.modules, "fakepkg.home", home)
    monkeypatch.setitem(sys.modules, "fakepkg.user", user)
    recorder = Recorder()
    patcher = Patcher(recorder, package="fakepkg")
    assert patcher.patch("fakepkg.home", "digest", "mpi.payload_digest") == 2
    patcher.patch("fakepkg.home", "Env.step", "simkit.step")
    assert user.digest(1) == 2 and home.digest(2) == 3
    assert Env().step() == "stepped"
    assert by_name(recorder.records)["mpi.payload_digest"]["count"] == 2
    patcher.restore()
    assert user.digest is digest and home.digest is digest
    assert Env.__dict__["step"].__name__ == "step" and not hasattr(Env.step, "__wrapped__")


# -- error-rate accounting ---------------------------------------------------------------


def test_tally_counts_each_operation_once():
    tally = Tally()
    for ok in (True, True, False, True):
        tally.op(ok, "wrong answer")
    assert (tally.attempted, tally.failed) == (4, 1)
    assert tally.error_rate == 0.25
    assert not tally.correct
    assert tally.failures == ["wrong answer"]


def test_tally_problems_make_a_run_incorrect_without_changing_the_rate():
    tally = Tally()
    tally.op(True)
    assert tally.correct
    tally.check(False, "server did not drain")
    assert tally.error_rate == 0.0
    assert not tally.correct
    assert Tally().error_rate == 0.0 and not Tally().correct


# -- the benchmark definition -------------------------------------------------------------


def test_benchmark_json_matches_the_metric_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from perfbench.run import END_TO_END
    from perfbench.workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        name: unit for name, (unit, _meaning) in END_TO_END.items()}
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m.name, m.unit, m.better) for m in layers.PER_LAYER]
    for workload in spec["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
