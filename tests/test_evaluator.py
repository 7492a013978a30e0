"""Big-step execution: loops, bounds, truncation, and oracle replay."""

import pytest

from tracesynth.dsl import (
    Const,
    Foreach,
    Ite,
    LetHidden,
    LetVisible,
    Program,
    Return,
    RetryUntil,
    ValueCheck,
    VarRef,
)
from tracesynth.evaluator import (
    EvalError,
    GlobalOracle,
    default_retry_bound,
    execute,
    psi_failures,
    replay_check,
)
from tracesynth.hidden import Eq, HiddenFnBody, Input
from tracesynth.traces import Scalar, TraceValuation, parse_traces


def let(var, api="svc.Op", **kw):
    return LetVisible(var, api, tuple((k, v) for k, v in kw.items()))


def prog(body, params=(), hidden=(), holes=()):
    return Program(params=tuple(params), body=tuple(body), hidden_defs=tuple(hidden), holes=tuple(holes))


class ScriptedHandler:
    """Returns queued responses per api name and counts calls."""

    def __init__(self, queues):
        self.queues = {k: list(v) for k, v in queues.items()}
        self.calls = []

    def __call__(self, api, request):
        self.calls.append((api, request))
        q = self.queues[api]
        return q.pop(0) if len(q) > 1 else q[0]


def retry_prog(pred_const="done"):
    poll = let("d", api="svc.Poll", n=Const(1))
    return prog((RetryUntil("loop_1", (poll,), ValueCheck("d", pred_const)),))


def test_retry_stops_when_predicate_holds():
    h = ScriptedHandler({"svc.Poll": ["pending", "pending", "done"]})
    state = execute(retry_prog(), {}, h, retry_bound=10)
    assert len(h.calls) == 3
    assert state.bindings["d"] == "done"


def test_retry_body_runs_at_least_once():
    h = ScriptedHandler({"svc.Poll": ["done"]})
    execute(retry_prog(), {}, h, retry_bound=10)
    assert len(h.calls) == 1


def test_retry_never_exceeds_the_bound():
    h = ScriptedHandler({"svc.Poll": ["pending"]})
    state = execute(retry_prog(), {}, h, retry_bound=4)
    assert len(h.calls) == 4
    assert state.bindings["d"] == "pending"


def test_loop_counter_is_zero_after_normal_exit():
    h = ScriptedHandler({"svc.Poll": ["pending", "done"]})
    state = execute(retry_prog(), {}, h, retry_bound=10)
    assert state.loop_counters["loop_1"] == 0
    h2 = ScriptedHandler({"svc.Poll": ["pending"]})
    state2 = execute(retry_prog(), {}, h2, retry_bound=3)
    assert state2.loop_counters["loop_1"] == 0


def test_return_inside_retry_truncates_and_keeps_counter():
    body = (
        let("d", api="svc.Poll", n=Const(1)),
        Ite(ValueCheck("d", "boom"), (Return(),), ()),
    )
    p = prog((RetryUntil("loop_1", body, ValueCheck("d", "done")),
              let("z", api="svc.After")))
    h = ScriptedHandler({"svc.Poll": ["pending", "boom"], "svc.After": [1]})
    state = execute(p, {}, h, retry_bound=10)
    # Not reset on early termination: it still holds the completed
    # iteration count (the stop happened mid-way through the second).
    assert state.loop_counters["loop_1"] == 1
    # The return cut off the call after the loop.
    assert [a for a, _ in h.calls] == ["svc.Poll", "svc.Poll"]
    assert "z" not in state.bindings


def test_return_truncates_the_rest_of_the_program():
    p = prog((let("a", api="svc.A"), Return(), let("b", api="svc.B")))
    h = ScriptedHandler({"svc.A": [1], "svc.B": [2]})
    state = execute(p, {}, h, retry_bound=2)
    assert [a for a, _ in h.calls] == ["svc.A"]
    assert state.bindings == {"a": 1}


def test_foreach_runs_zero_times_on_empty_list():
    p = prog(
        (
            let("xs", api="svc.List"),
            Foreach("loop_1", "u", VarRef("xs"), (let("y", api="svc.Each", item=VarRef("u")),)),
        )
    )
    h = ScriptedHandler({"svc.List": [[]], "svc.Each": [0]})
    state = execute(p, {}, h, retry_bound=2)
    assert [a for a, _ in h.calls] == ["svc.List"]
    assert state.loop_counters["loop_1"] == 0
    assert "y" not in state.bindings


def test_foreach_binds_each_item_in_order():
    p = prog(
        (
            let("xs", api="svc.List"),
            Foreach("loop_1", "u", VarRef("xs"), (let("y", api="svc.Each", item=VarRef("u")),)),
        )
    )
    h = ScriptedHandler({"svc.List": [["a", "b", "c"]], "svc.Each": [0]})
    state = execute(p, {}, h, retry_bound=2)
    assert [r["item"] for a, r in h.calls if a == "svc.Each"] == ["a", "b", "c"]
    assert state.loop_counters["loop_1"] == 0
    assert state.bindings["u"] == "c"


def test_foreach_over_non_list_fails():
    p = prog((Foreach("loop_1", "u", Const(5), ()),))
    with pytest.raises(EvalError):
        execute(p, {}, ScriptedHandler({}), retry_bound=2)


def test_hidden_let_evaluates_its_function():
    fn = HiddenFnBody(1, Eq(Input(0), "go"))
    p = prog(
        (
            let("x", api="svc.A"),
            LetHidden("s", "f_1", ("x",)),
            Ite(ValueCheck("s", True), (let("y", api="svc.B"),), ()),
        ),
        hidden=(("f_1", fn),),
    )
    h = ScriptedHandler({"svc.A": ["go"], "svc.B": [1]})
    execute(p, {}, h, retry_bound=2)
    assert [a for a, _ in h.calls] == ["svc.A", "svc.B"]


def test_execute_rejects_open_holes_bad_inputs_bad_bound():
    p_holes = prog((LetHidden("s", "f_1", ()),), holes=("f_1",))
    with pytest.raises(EvalError):
        execute(p_holes, {}, ScriptedHandler({}), retry_bound=2)
    p = prog((), params=("p",))
    with pytest.raises(EvalError):
        execute(p, {}, ScriptedHandler({}), retry_bound=2)
    with pytest.raises(EvalError):
        execute(p, {"p": 1, "q": 2}, ScriptedHandler({}), retry_bound=2)
    with pytest.raises(EvalError):
        execute(p, {"p": 1}, ScriptedHandler({}), retry_bound=0)


TRACES = parse_traces(
    """
[
  [{"api": "svc.A", "request": {"x": 1}, "response": "r1"}],
  [{"api": "svc.A", "request": {"x": 1}, "response": "r2"},
   {"api": "svc.B", "request": {}, "response": "r3"}]
]
"""
)


def test_global_oracle_replays_matching_calls():
    oracle = GlobalOracle(TRACES.trace(2))
    assert oracle.call("svc.A", {"x": 1}) == "r2"
    assert not oracle.done()
    assert oracle.call("svc.B", {}) == "r3"
    assert oracle.done()


def test_global_oracle_rejects_mismatches():
    oracle = GlobalOracle(TRACES.trace(1))
    with pytest.raises(EvalError):
        oracle.call("svc.Wrong", {"x": 1})
    oracle2 = GlobalOracle(TRACES.trace(1))
    with pytest.raises(EvalError):
        oracle2.call("svc.A", {"x": 2})
    oracle3 = GlobalOracle(TRACES.trace(1))
    oracle3.call("svc.A", {"x": 1})
    with pytest.raises(EvalError):
        oracle3.call("svc.A", {"x": 1})


def test_replay_check_requires_full_consumption():
    p = prog((let("a", api="svc.A", x=Const(1)),))
    ok, _ = replay_check(p, {}, TRACES.trace(1), retry_bound=3)
    assert ok
    ok2, reason = replay_check(p, {}, TRACES.trace(2), retry_bound=3)
    assert not ok2
    assert "1 of 2" in reason


def test_psi_failures_lists_failing_traces():
    p = prog((let("a", api="svc.A", x=Const(1)),))
    sigma = TraceValuation(params=(), entries={})
    failures = psi_failures(p, sigma, TRACES, retry_bound=3)
    assert [i for i, _ in failures] == [2]


def test_default_retry_bound_is_longest_trace_plus_one():
    assert default_retry_bound(TRACES) == 3
