"""Tests of the benchmark itself: generator determinism, failure
charging, and agreement of the printed metrics with BENCHMARK.json.

    python3 -m pytest perfbench/tests
"""

import json
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH_DIR = HERE.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import gen  # noqa: E402
import refclock  # noqa: E402
import run as bench  # noqa: E402
import tracer  # noqa: E402
from tracesynth.dsl import DslError  # noqa: E402
from tracesynth.parser import parse_program  # noqa: E402
from tracesynth.traces import parse_traces  # noqa: E402


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_sets(workload):
    a = json.dumps(gen.generate(workload, 11), sort_keys=True)
    b = json.dumps(gen.generate(workload, 11), sort_keys=True)
    assert a == b
    assert a != json.dumps(gen.generate(workload, 12), sort_keys=True)


def test_gen_command_prints_the_same_sets():
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "gen.py"), "--workload", "cond", "--seed", "4"],
        capture_output=True, text=True, check=True,
    ).stdout
    assert json.loads(out) == gen.generate("cond", 4)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_set_parses_and_has_a_parseable_ground_truth(workload):
    for s in gen.generate(workload, 3):
        parse_traces(json.dumps(s["traces"]))
        parse_program(s["golden"])


def _responses(traces, api):
    return [c["response"] for t in traces for c in t if c["api"] == api]


def test_sets_cover_every_state_poll_count_and_member_count():
    for s in gen.generate("cond", 1):
        states = {r["InstanceStatuses"][0]["InstanceState"]["Name"]
                  for r in _responses(s["traces"], "ec2.DescribeInstanceStatus")}
        assert states == set(gen.STATES)
        ids = Counter(t[0]["request"]["InstanceIds"][0] for t in s["traces"])
        assert len(ids) >= 2 and max(ids.values()) >= 2
    for s in gen.generate("loops", 1):
        traces = s["traces"]
        if s["name"].startswith("retry"):
            polls = {sum(c["api"] == "dynamodb.DescribeBackup" for c in t) for t in traces}
            assert polls == {1, 2, 3, 4}
        else:
            members = {len(t) - 1 for t in traces}
            assert members == {1, 2, 3, 4, 5, 6}
    widths = [len(s["traces"][0][1]["request"]["InstanceIds"]) for s in gen.generate("wide", 1)]
    assert widths == list(gen.WIDE_WIDTHS)


def _item(workload="cond", index=0):
    s = gen.generate(workload, 1)[index]
    return parse_traces(json.dumps(s["traces"])), s["golden"]


def _forced(monkeypatch, fn):
    """Make the forked child's run_search call fn instead."""
    monkeypatch.setattr(bench, "run_search", fn)
    ts, golden = _item()
    return bench.run_isolated(ts, golden, traced=False)


def _assert_charged_worst(result):
    c = bench.charged(result)
    assert not c["solved"] and not c["golden"]
    assert c["seconds"] == bench.DEADLINE_S
    assert c["rss_mb"] == bench.MEM_CAP_MB
    assert c["cost_ratio"] == 1.0


def test_a_crash_is_recorded_by_class_and_charged_the_worst_values(monkeypatch):
    def crash(ts, cfg):
        raise DslError("unbound variables: ['x1']")

    result = _forced(monkeypatch, crash)
    assert result["error"] == "DslError"
    _assert_charged_worst(result)


def test_memory_beyond_the_cap_is_a_memory_error(monkeypatch):
    def hog(ts, cfg):
        return bytearray(2 * bench.MEM_CAP_MB * 1024 * 1024)

    result = _forced(monkeypatch, hog)
    assert result["error"] == "MemoryError"
    _assert_charged_worst(result)


def test_a_child_past_its_deadline_is_killed(monkeypatch):
    monkeypatch.setattr(bench, "DEADLINE_S", 0.2)
    monkeypatch.setattr(bench, "GRACE_S", 0.2)
    started = time.perf_counter()
    result = _forced(monkeypatch, lambda ts, cfg: time.sleep(30))
    assert time.perf_counter() - started < 10
    assert result["error"] == "Timeout"
    _assert_charged_worst(result)


def test_failed_sets_are_charged_in_the_end_to_end_metrics():
    ts, golden = _item()
    items = [{"name": "a", "ts": ts, "golden": golden}, {"name": "b", "ts": ts, "golden": golden}]
    solved = {"error": None, "seconds": 0.5, "rss_mb": 30.0, "cost_ratio": 0.25, "golden": True}
    failed = {"error": "DslError", "message": "x"}
    m = bench.end_to_end(items, [[solved], [failed]], setup_s=0.1)
    assert m["synth_s.total"] == 0.5 + bench.DEADLINE_S
    assert m["peak_rss_mb"] == bench.MEM_CAP_MB
    assert m["cost_ratio"] == pytest.approx(0.5)  # geometric mean of 0.25 and 1.0
    assert m["solved_frac"] == m["golden_frac"] == 0.5
    assert m["traces_per_s"] == len(ts.traces) / m["synth_s.total"]


def test_attempted_and_failed_count_sets_not_runs():
    ok = {"error": None}
    crash = {"error": "DslError"}
    assert bench.outcome_counts([[ok] * 5, [crash], [ok, crash, ok]]) == (3, 2)
    assert bench.outcome_counts([[ok], [ok] * 40]) == (2, 0)


def test_a_solved_set_is_graded_against_its_ground_truth():
    ts, golden = _item()
    result = bench.run_isolated(ts, golden, traced=True)
    assert result["error"] is None and result["golden"] and result["output_ok"]
    assert 0 < result["cost_ratio"] < 1
    names = {name for name, *_ in result["spans"]}
    assert {"search.run", "search.verify_final", "rewrites.enumerate", "pbe.synthesize"} <= names


def test_times_are_scaled_by_the_reference_loop():
    ref = refclock.REF_S
    assert refclock.normalized(2.0, ref, ref) == pytest.approx(2.0)
    assert refclock.normalized(2.0, 2 * ref, 2 * ref) == pytest.approx(1.0)
    assert refclock.normalized(2.0, ref, 3 * ref) == pytest.approx(1.0)


def test_self_time_subtracts_direct_children():
    spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    assert tracer.self_times(spans) == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert tracer.inclusive_times(spans) == {"a": 10.0, "b": 4.0, "c": 1.0}


def _printed(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cond", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert any(re.fullmatch(r"fixture gate: (\d+)/\1 Optimal", line) for line in lines)
    return json.loads(lines[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metric_names_match_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = _printed(trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == len(gen.generate("cond", 1))
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec[section]}
