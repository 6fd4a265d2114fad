"""The benchmark's own tests.

    python3 -m pytest perfbench -q

Unit tests cover the percentile rule, self-time arithmetic, the
correctness oracle, the throughput slicing and the full-length checks;
the smoke tests run every workload for one second through ``run.py`` and
require a correct result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
import run  # noqa: E402
from tracing import SpanRecorder, self_times  # noqa: E402
from workloads import GET, PUT, WORKLOADS, Checker, Stream, Values  # noqa: E402


class _Response:
    def __init__(self, status, value=b""):
        self.status = status
        self.value = value


# -- percentile rule ----------------------------------------------------------------


def test_nearest_rank_percentile():
    samples = list(range(1, 101))
    assert metrics.percentile(samples, 50) == 50
    assert metrics.percentile(samples, 99) == 99
    assert metrics.percentile(samples, 100) == 100
    assert metrics.percentile([7.0], 99) == 7.0


def test_highest_percentile_with_ten_samples_beyond():
    assert metrics.beyond(1000, 99) == 10
    assert metrics.highest_supported(1000) == 99.0
    assert metrics.highest_supported(999) == 95.0
    assert metrics.highest_supported(10_000) == 99.9
    assert metrics.highest_supported(9_999) == 99.0
    assert metrics.highest_supported(20) == 50.0
    assert metrics.highest_supported(19) == 0.0


# -- spans and self time ------------------------------------------------------------


def test_self_time_of_a_nested_trace():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 7];
    # a second root [20, 21] stands alone.
    names = ["root", "a", "c", "b", "root"]
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 20.0]
    ends = [10.0, 4.0, 3.0, 7.0, 21.0]
    out = self_times(names, parents, starts, ends)
    assert out["root"] == {"count": 2, "self_s": 6.0, "total_s": 11.0}
    assert out["a"]["self_s"] == 2.0
    assert out["c"]["self_s"] == 1.0
    assert out["b"]["self_s"] == 2.0
    assert sum(r["self_s"] for r in out.values()) == 11.0


def test_self_time_rename_keeps_time():
    names = ["hop", "session.seal"]
    out = self_times(names, [-1, 0], [0.0, 1.0], [4.0, 2.0],
                     rename=lambda i, n, p: "link" if p[i] >= 0 else n[i])
    assert out == {"hop": {"count": 1, "self_s": 3.0, "total_s": 4.0},
                   "link": {"count": 1, "self_s": 1.0, "total_s": 1.0}}


class _Layer:
    def outer(self, n):
        return self.inner(n) + self.opaque(n)

    def inner(self, n):
        return n

    def opaque(self, n):
        return self.inner(n)


def test_recorder_nesting_opaque_and_frames():
    recorder = SpanRecorder(frame_starts=("outer",))
    recorder.wrap(_Layer, "outer", "outer")
    recorder.wrap(_Layer, "inner", "inner")
    recorder.wrap(_Layer, "opaque", "opaque", opaque=True)
    try:
        layer = _Layer()
        assert layer.outer(2) == 4  # disabled: nothing recorded
        recorder.enabled = True
        layer.outer(1)
        layer.outer(1)
        recorder.enabled = False
    finally:
        recorder.unwrap_all()
    assert "__wrapped__" not in _Layer.__dict__["outer"].__dict__
    names, parents, frames, starts, ends = recorder.columns()
    # The inner call made under the opaque span is not recorded.
    assert names == ["outer", "inner", "opaque"] * 2
    assert parents == [-1, 0, 0, -1, 3, 3]
    assert frames == [1, 1, 1, 2, 2, 2]
    assert all(e >= s for s, e in zip(starts, ends))
    recorder.reset()
    assert recorder.columns()[0] == []


# -- correctness oracle ------------------------------------------------------------


def test_checker_catches_stale_reads_and_lost_writes():
    values = Values(WORKLOADS["hot-batch"], seed=3)
    checker = Checker(values)
    new = values.value(5, 1)
    frame = [(PUT, 5, new), (GET, 5, b""), (GET, 6, b"")]
    ok = [_Response("OK"), _Response("OK", new),
          _Response("OK", values.preload(6))]
    assert checker.check(frame, ok, "OK") == 0
    # A read that returns the preload after the put was acked is stale.
    assert checker.check([(GET, 5, b"")],
                         [_Response("OK", values.preload(5))], "OK") == 1
    # A refused put and a missing reply both count.
    assert checker.check([(PUT, 7, values.value(7, 1)), (GET, 7, b"")],
                         [_Response("UNAVAILABLE")], "OK") == 2
    assert checker.failed == 3 and "stale" in checker.first_error


def test_streams_are_seeded_and_connections_own_disjoint_keys():
    workload = WORKLOADS["uniform-single"]
    a = [Stream(workload, 9, 0).frame() for _ in range(50)]
    b = [Stream(workload, 9, 0).frame() for _ in range(50)]
    assert a == b
    other = Stream(workload, 9, 1)
    assert all(i % 2 == 0 for f in a for _, i, _ in f)
    assert all(other.frame()[0][1] % 2 == 1 for _ in range(50))


def test_etc_values_change_with_every_version():
    values = Values(WORKLOADS["durable-etc"], seed=1)
    sizes = {len(values.preload(i)) for i in range(0, 20_000, 97)}
    assert min(sizes) >= 1 and max(sizes) <= 1024
    assert values.value(3, 1, 13) != values.value(3, 2, 13)


def test_by_slice_groups_replies_by_time():
    frames = [(i + 0.5, 100, 0.001) for i in range(10)] + [(10.5, 100, 1.0)]
    frames[4] = (4.5, 10, 0.5)
    width, slices = run.by_slice(frames, 0.0, 10.0)
    assert width == 1.0
    assert [sum(ok for ok, _ in s) for s in slices] == [100] * 4 + [10] \
        + [100] * 5
    assert slices[4] == [(10, 0.5)]  # the reply after the window is out


def test_slice_p90_needs_ten_samples_beyond():
    frames = [(1, i / 1000) for i in range(1, 101)]
    assert run.slice_percentile(frames, 90) == 90.0
    assert run.slice_percentile(frames[:99], 90) is None


def test_full_length_run_needs_the_sim_window_and_a_sampled_p90():
    workload = WORKLOADS["durable-etc"]
    result = {"frames": 5000, "supported_percentile": 99.0,
              "report": {"sim_ops_s": 2.0e6, "window_frames": 5000}}
    assert run.full_length_problems(workload, result) == []
    result = {"frames": 99, "supported_percentile": 75.0,
              "report": {"sim_ops_s": None, "window_frames": 99}}
    problems = run.full_length_problems(workload, result)
    assert len(problems) == 2
    assert "sim_ops_s" in problems[0] and "p90" in problems[1]


# -- BENCHMARK.json agrees with the code ------------------------------------------


def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in bench["per_layer"]] == [
                row[:3] for row in metrics.PER_LAYER]
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


# -- smoke runs -----------------------------------------------------------------------


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct(workload):
    out = _run(workload, 0)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {n for n, *_ in metrics.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_reports_every_layer():
    out = _run("hot-batch", 1)
    assert out.returncode == 0, out.stdout + out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == {n for n, *_ in metrics.PER_LAYER}
    assert result["metrics"]["store.get_us"]["value"] > 0
    assert "tracing overhead" in out.stdout


def test_fails_without_the_program():
    bare = os.path.join(ROOT, ".perfbench_run", f"bare-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        out = _run("hot-batch", 0, cwd=bare)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
