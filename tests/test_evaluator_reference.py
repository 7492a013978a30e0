"""The iterative evaluator.execute against the recursive one it replaced
(tests/evaluator_reference.py): the same bindings, loop counters,
recorded binds and calls, stop flag and error message on every run."""

import json
import random

from hypothesis import given, settings, strategies as st

import evaluator_reference as reference
from randprog import _make_handler, generate_case
from test_evaluator import ScriptedHandler, let, prog
from tracesynth.costs import CostWeights, make_cost_fn
from tracesynth.dsl import Const, Foreach, Ite, Return, RetryUntil, ValueCheck, VarRef
from tracesynth.evaluator import EvalError, ExecutionRecorder, GlobalOracle, check_psi, execute
from tracesynth.search import SearchConfig, build_initial, run_search, verify_final
from tracesynth.traces import extract_inputs, parse_traces


def outcome(execute_fn, program, inputs, handler, retry_bound):
    """Everything a run leaves behind: the state and the recorder, or
    the error message and what was recorded before it."""
    rec = ExecutionRecorder()
    try:
        state = execute_fn(program, inputs, handler, retry_bound, rec)
    except EvalError as exc:
        return ("error", str(exc), rec.bind_events, rec.calls, rec.stopped)
    return (state.bindings, state.loop_counters, rec.bind_events, rec.calls, rec.stopped)


def assert_same_run(program, inputs, make_handler, retry_bound):
    """Both evaluators agree; returns the run's outcome."""
    got = outcome(execute, program, inputs, make_handler(), retry_bound)
    want = outcome(reference.execute, program, inputs, make_handler(), retry_bound)
    assert got == want
    return got


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_replay_matches_the_recursive_reference_on_random_programs(seed, retry_bound):
    """Every input row against its own trace, every other row's trace
    (mostly a mismatch, so an EvalError) and a counting handler; retry
    bounds below a loop's target make it stop at K."""
    program, sigma, ts = generate_case(random.Random(seed))
    inputs = extract_inputs(sigma, ts.indices())
    for i in ts.indices():
        row = {p: inputs[p][i] for p in sigma.params}
        for j in ts.indices():
            assert_same_run(program, row, lambda: GlobalOracle(ts.trace(j)).call, retry_bound)
        assert_same_run(program, row, _make_handler, retry_bound)


def run(body, queues, retry_bound=5):
    """Both evaluators on a parameterless program, each with a fresh
    handler answering from these per-api queues."""
    return assert_same_run(prog(body), {}, lambda: ScriptedHandler(queues), retry_bound)


def test_a_return_inside_a_retry_leaves_its_counter_and_stops_the_run():
    poll = let("d", api="svc.Poll")
    stop_on = Ite(ValueCheck("d", "stop"), (Return(),), ())
    loop = RetryUntil("loop_1", (poll, stop_on), ValueCheck("d", "done"))
    bindings, counters, binds, calls, stopped = run(
        (loop, let("after")), {"svc.Poll": ["pending", "stop", "done"], "svc.Op": ["r"]}
    )
    assert counters == {"loop_1": 1}
    assert [api for api, _, _ in calls] == ["svc.Poll", "svc.Poll"]
    assert "after" not in bindings and stopped
    assert all(in_loop for _, _, in_loop in binds)


def test_a_return_inside_a_foreach_leaves_its_counter_and_stops_the_run():
    body = (let("x", u=VarRef("u")), Ite(ValueCheck("u", 2), (Return(),), ()))
    loop = Foreach("loop_1", "u", Const([1, 2, 3]), body)
    bindings, counters, binds, calls, stopped = run((loop, let("after")), {"svc.Op": ["r"]})
    assert counters == {"loop_1": 2}
    assert [request for _, request, _ in calls] == [{"u": 1}, {"u": 2}]
    assert [(v, val) for v, val, _ in binds] == [("u", 1), ("x", "r"), ("u", 2), ("x", "r")]
    assert "after" not in bindings and stopped


def test_an_empty_foreach_runs_no_body_and_resets_its_counter():
    loop = Foreach("loop_1", "u", Const([]), (let("x"),))
    bindings, counters, binds, calls, stopped = run((loop, let("after")), {"svc.Op": ["r"]})
    assert counters == {"loop_1": 0}
    assert binds == [("after", "r", False)]
    assert "u" not in bindings and not stopped


def test_a_foreach_over_a_non_list_is_an_error():
    loop = Foreach("loop_1", "u", Const(3), (let("x"),))
    got = run((let("before"), loop), {"svc.Op": ["r"]})
    assert got[:2] == ("error", "foreach source must be a list, got int")
    assert got[2] == [("before", "r", False)]


def test_a_retry_that_hits_k_stops_after_k_runs_and_resets_its_counter():
    loop = RetryUntil("loop_1", (let("d", api="svc.Poll"),), ValueCheck("d", "done"))
    bindings, counters, binds, calls, stopped = run((loop,), {"svc.Poll": ["pending"]}, retry_bound=3)
    assert len(calls) == 3 and counters == {"loop_1": 0}
    assert bindings["d"] == "pending" and not stopped


def test_a_read_of_an_unbound_variable_is_an_error():
    got = run((let("x"), let("y", k=VarRef("nope"))), {"svc.Op": ["r"]})
    assert got[:2] == ("error", "read of unbound variable nope")
    assert got[3] == [("svc.Op", {}, "r")]


def test_600_one_call_traces_replay_and_search_without_recursion_error():
    """The initial program nests one conditional per trace, 599 deep.
    Replay walks an explicit stack, so it checks the program; a search
    cut short by its deadline still returns a program that verifies.
    The deadline runs out before the first refinement enumeration
    ends."""
    apis = [f"svc.Op{a}" for a in range(7)]
    ts = parse_traces(
        json.dumps([[{"api": apis[t % 7], "request": {"k": t}, "response": {"r": t}}] for t in range(600)])
    )
    program, sigma = build_initial(ts)
    assert check_psi(program, sigma, ts, retry_bound=2)
    cfg = SearchConfig(cost_fn=make_cost_fn("syn", CostWeights()), timeout=0.01)
    result = run_search(ts, cfg)
    assert verify_final(result.program, result.sigma, ts)
