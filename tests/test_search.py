"""Strategy behavior: alternating vs rts vs bounded ksearch."""

import json
from pathlib import Path

import pytest

from tracesynth import dsl
from tracesynth.costs import make_cost_fn
from tracesynth.evaluator import default_retry_bound
from tracesynth.search import (
    SearchConfig,
    SearchError,
    build_initial,
    run_search,
    verify_final,
)
from tracesynth.traces import parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    return parse_traces((BENCH / name / "traces.json").read_text())


def config(strategy, **kw):
    kw.setdefault("cost_fn", make_cost_fn("syn"))
    return SearchConfig(strategy=strategy, **kw)


def loop_nodes(body):
    found = []
    stack = [body]
    while stack:
        for ins in stack.pop():
            if isinstance(ins, dsl.Ite):
                stack.extend([ins.then, ins.els])
            elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
                found.append(ins)
                stack.append(ins.body)
    return found


def test_alternating_discovers_retry_loop():
    ts = load("backup_then_delete_table")
    result = run_search(ts, config("alternating"))
    assert not result.timed_out
    assert result.cost == 41.0
    loops = loop_nodes(result.program.body)
    assert len(loops) == 1 and isinstance(loops[0], dsl.RetryUntil)
    assert verify_final(result.program, result.sigma, ts)


def test_rts_strands_the_selector_parameter():
    ts = load("backup_then_delete_table")
    alternating = run_search(ts, config("alternating"))
    rts = run_search(ts, config("rts"))
    assert verify_final(rts.program, rts.sigma, ts)
    # The single refinement pass runs before synthesis failures are
    # recorded, so the unlock for parameter introduction comes too late
    # and the branch selector survives as a dead parameter.
    assert rts.cost == 42.0
    assert alternating.cost == 41.0
    assert "br" in rts.program.params
    assert "br" not in alternating.program.params


def test_ksearch_two_steps_cannot_reach_the_loop():
    ts = load("backup_then_delete_table")
    alternating = run_search(ts, config("alternating"))
    k2 = run_search(ts, config("ksearch", k=2))
    assert verify_final(k2.program, k2.sigma, ts)
    assert k2.cost > alternating.cost
    assert k2.stats.states_seen > 1


def test_ksearch_zero_steps_returns_initial_program():
    ts = load("backup_then_delete_table")
    initial, _ = build_initial(ts)
    result = run_search(ts, config("ksearch", k=0))
    assert dsl.pretty_print(result.program) == dsl.pretty_print(initial)
    assert result.stats.states_seen == 1


def test_alternating_on_motivating_fixture_matches_golden():
    ts = load("stop_instances_cond")
    result = run_search(ts, config("alternating"))
    golden = (BENCH / "stop_instances_cond" / "golden.txt").read_text()
    assert dsl.pretty_print(result.program) == golden
    assert verify_final(result.program, result.sigma, ts)


def test_timeout_returns_best_effort_state():
    ts = load("backup_then_delete_table")
    result = run_search(ts, config("alternating", timeout=1e-9))
    assert result.timed_out
    # Correctness is never given up for the deadline.
    assert verify_final(result.program, result.sigma, ts)
    initial, _ = build_initial(ts)
    assert result.cost <= make_cost_fn("syn")(initial, result.sigma, ts)


def test_unknown_strategy_and_missing_cost_fn_are_rejected():
    ts = load("create_table")
    with pytest.raises(SearchError):
        run_search(ts, config("simulated-annealing"))
    with pytest.raises(SearchError):
        run_search(ts, SearchConfig(strategy="alternating", cost_fn=None))


def test_verify_final_rejects_open_holes():
    ts = load("create_table")
    result = run_search(ts, config("alternating"))
    assert verify_final(result.program, result.sigma, ts)
    opened = dsl.Program(
        params=result.program.params,
        body=result.program.body,
        hidden_defs=result.program.hidden_defs,
        holes=("f_x",),
    )
    assert not verify_final(opened, result.sigma, ts)


def test_search_is_deterministic_across_runs():
    for name in ("backup_then_delete_table", "retrieve_channel_members"):
        ts = load(name)
        a = run_search(ts, config("alternating"))
        b = run_search(ts, config("alternating"))
        assert dsl.pretty_print(a.program) == dsl.pretty_print(b.program)
        assert a.cost == b.cost
        assert a.stats.rewrites == b.stats.rewrites


def stop_instances_traces(n):
    """stop_instances_cond-shaped logs: trace t stops its own instance,
    reads its state (running, stopped, shutting-down in turn), and
    force-stops it unless it is stopped."""
    ok = {"ResponseMetadata": {"HTTPStatusCode": 200}}
    traces = []
    for t in range(n):
        ids = [f"i-{t:05d}"]
        state = ("running", "stopped", "shutting-down")[t % 3]
        trace = [
            {"api": "ec2.StopInstances", "request": {"InstanceIds": ids, "Force": False},
             "response": ok},
            {"api": "ec2.DescribeInstanceStatus", "request": {"InstanceIds": ids},
             "response": {"InstanceStatuses": [{"InstanceState": {"Name": state}}]}},
        ]
        if state != "stopped":
            trace.append(
                {"api": "ec2.StopInstances", "request": {"InstanceIds": ids, "Force": True},
                 "response": ok}
            )
        traces.append(trace)
    return parse_traces(json.dumps(traces))


@pytest.mark.parametrize("strategy", ["alternating", "rts"])
def test_ill_formed_rewrites_are_rejected_not_raised(strategy):
    # At six traces a guard rewrite reads a binder of a sibling branch;
    # the filled-in program fails validation and must only be skipped.
    ts = stop_instances_traces(6)
    result = run_search(ts, config(strategy))
    assert verify_final(result.program, result.sigma, ts)
    initial, sigma = build_initial(ts)
    assert result.cost < make_cost_fn("syn")(initial, sigma, ts)
