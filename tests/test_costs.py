"""Cost functions and the two-trace rewrite cost trajectory."""

import pytest

from tracesynth.costs import (
    CostWeights,
    cost_syn,
    cost_traces,
    make_cost_fn,
)
from tracesynth.dsl import (
    Const,
    Foreach,
    Ite,
    LetHidden,
    LetVisible,
    Program,
    Return,
    RetryUntil,
    Select,
    ValueCheck,
    VarRef,
)
from tracesynth.traces import PerIteration, Scalar, TraceValuation, parse_traces


def let(var, api="svc.Op", **kw):
    return LetVisible(var, api, tuple((k, v) for k, v in kw.items()))


def prog(body, params=("br",)):
    return Program(params=tuple(params), body=tuple(body), hidden_defs=(), holes=())


def test_count_statements_conventions():
    """A program counts the statements of its body the syntactic cost
    charges for."""
    body = (
        let("a"),
        LetHidden("h", "f_1", ()),
        Ite(ValueCheck("a", 1), (let("b"), Return()), (let("c"),)),
        RetryUntil("loop_1", (let("d"),), ValueCheck("d", 1)),
        Foreach("loop_2", "u", VarRef("d"), (let("e"),)),
    )
    # a=1, hidden=0, if=1+(2)+(1), retry=1+1, foreach=1+1
    assert prog(body).n_statements == 9


def test_count_br_usages_counts_reads_everywhere():
    body = (
        let("a", x=Select(((ValueCheck("br", 1), Const(1)),), Const(2))),
        Ite(ValueCheck("br", 2), (), ()),
    )
    assert prog(body).n_br == 2


def test_cost_syn_weights():
    p = prog((let("a"), let("b", x=VarRef("br"))), params=("br", "i_1"))
    w = CostWeights()
    assert cost_syn(p, w) == 10 * 2 + 2 + 1
    assert cost_syn(p, CostWeights(statement=100)) == 203


def test_weights_from_dict():
    w = CostWeights.from_dict({"statement": 5, "br_usage": 2})
    assert w.statement == 5.0
    assert w.br_usage == 2.0
    assert w.parameter == 1.0
    with pytest.raises(ValueError):
        CostWeights.from_dict({"nope": 1})


TS = parse_traces(
    """
[
  [{"api": "svc.A", "request": {}, "response": 1}],
  [{"api": "svc.A", "request": {}, "response": 1},
   {"api": "svc.B", "request": {}, "response": 2}]
]
"""
)


def test_cost_traces_rewards_reproduced_events_and_taxes_br():
    # One statement reproducing one event per trace.
    p = Program(params=(), body=(let("a", api="svc.A"),), hidden_defs=(), holes=())
    sigma = TraceValuation(
        params=(), entries={("a", 1): Scalar(1), ("a", 2): Scalar(1)}
    )
    w = CostWeights()
    # 3 events + 1 statement - 2 reproduced
    assert cost_traces(p, sigma, TS, w) == 2.0

    p_br = Program(params=("br",), body=p.body, hidden_defs=(), holes=())
    assert cost_traces(p_br, sigma, TS, w) == 2.0 + 1000.0


def test_cost_traces_counts_loop_iterations():
    p = Program(
        params=(),
        body=(RetryUntil("loop_1", (let("a", api="svc.A"),), ValueCheck("a", 1)),),
        hidden_defs=(),
        holes=(),
    )
    sigma = TraceValuation(
        params=(),
        entries={("a", 1): PerIteration((1,)), ("a", 2): PerIteration((1, 2))},
    )
    # 3 events + 1 statement - 3 reproduced
    assert cost_traces(p, sigma, TS, CostWeights()) == 1.0


def test_make_cost_fn_dispatch():
    p = prog((let("a", api="svc.A"),), params=())
    syn = make_cost_fn("syn")
    traces = make_cost_fn("traces")
    sigma = TraceValuation(
        params=(), entries={("a", 1): Scalar(1), ("a", 2): Scalar(1)}
    )
    assert syn(p, sigma, TS) == 10.0
    assert traces(p, sigma, TS) == 2.0
    with pytest.raises(ValueError):
        make_cost_fn("nope")


SI = "ec2.StopInstances"
DIS = "ec2.DescribeInstanceStatus"
IDS1 = ["i-09dc8"]
IDS2 = ["i-07f34"]


def stop(var, ids, force):
    return let(var, api=SI, InstanceIds=Const(ids), Force=Const(force))


def describe(var, ids):
    return let(var, api=DIS, InstanceIds=Const(ids))


def test_two_trace_cost_trajectory_is_exact():
    """Hand-built program states along the narrated rewrite sequence on
    the two stop-instances traces, costed under the default weights:
    62, 53, 44, 43, 41."""
    w = CostWeights()
    guard = ValueCheck("br", 1)

    # Start: one straight-line branch per trace behind the selector.
    p0 = prog(
        (
            Ite(
                guard,
                (stop("x1", IDS1, False), describe("x2", IDS1), stop("x3", IDS1, True)),
                (stop("x4", IDS2, False), describe("x5", IDS2)),
            ),
        )
    )
    # Pull the shared leading stop out of both branches.
    tern_ids = Select(((guard, Const(IDS1)),), Const(IDS2))
    p1 = prog(
        (
            LetVisible("x1", SI, (("InstanceIds", tern_ids), ("Force", Const(False)))),
            Ite(guard, (describe("x2", IDS1), stop("x3", IDS1, True)), (describe("x5", IDS2),)),
        )
    )
    # Pull the describe call as well.
    p2 = prog(
        (
            LetVisible("x1", SI, (("InstanceIds", tern_ids), ("Force", Const(False)))),
            LetVisible("x2", DIS, (("InstanceIds", tern_ids),)),
            Ite(guard, (stop("x3", IDS1, True),), ()),
        )
    )
    # The varying ids become an input parameter.
    p3 = Program(
        params=("br", "i_1"),
        body=(
            LetVisible("x1", SI, (("InstanceIds", VarRef("i_1")), ("Force", Const(False)))),
            LetVisible("x2", DIS, (("InstanceIds", VarRef("i_1")),)),
            Ite(guard, (stop("x3", IDS1, True),), ()),
        ),
        hidden_defs=(),
        holes=(),
    )
    # The branch test becomes a synthesized check and br retires.
    p4 = Program(
        params=("i_1",),
        body=(
            LetVisible("x1", SI, (("InstanceIds", VarRef("i_1")), ("Force", Const(False)))),
            LetVisible("x2", DIS, (("InstanceIds", VarRef("i_1")),)),
            LetHidden("b_1", "f_1", ("i_1", "x1", "x2")),
            Ite(ValueCheck("b_1", True), (stop("x3", IDS1, True),), ()),
        ),
        hidden_defs=(),
        holes=("f_1",),
    )

    costs = [cost_syn(p, w) for p in (p0, p1, p2, p3, p4)]
    assert costs == [62.0, 53.0, 44.0, 43.0, 41.0]
    deltas = [b - a for a, b in zip(costs, costs[1:])]
    assert all(d < 0 for d in deltas)
    assert deltas[0] == -9.0
