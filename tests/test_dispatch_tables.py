"""Dispatch tables (dsl.int_dispatch, select_table, ite_table): a Select
or conditional chain keyed on one variable's int value gives what
testing its cases in order gives, and replay of the initial chain stays
linear in the number of traces.

The reference is tests/evaluator_reference.py: replay and term
evaluation as they were before the tables, sharing no table path with
src/."""

import json
from unittest import mock

from hypothesis import given, settings, strategies as st

import evaluator_reference as reference
from test_evaluator_reference import outcome
from tracesynth import dsl, evaluator, terms, traces
from tracesynth.dsl import Const, Ite, LetVisible, Program, Return, Select, ValueCheck
from tracesynth.evaluator import check_psi, default_retry_bound, execute
from tracesynth.jsonvals import ABSENT
from tracesynth.search import build_initial
from tracesynth.traces import Scalar, TraceValuation, ValuationError, evaluate_in_trace, parse_traces

UNBOUND = object()  # a variable with no value and no binding at all

# What the keyed variable v holds: ints, and values an int table must
# not take for one (a bool equals an int under ==, 1.0 hashes as 1).
values = st.one_of(
    st.integers(-3, 3), st.booleans(), st.sampled_from([1.0, "1", ABSENT, UNBOUND])
)
keys = st.integers(-3, 3)  # negative, and small enough to repeat


@st.composite
def preds(draw, keyed):
    """A test of v against an int; unless keyed, sometimes a test of
    another variable or against a constant that is not an int."""
    kind = 0 if keyed else draw(st.integers(0, 5))
    if kind == 1:
        return ValueCheck("w", draw(keys))
    if kind == 2:
        return ValueCheck("v", draw(st.sampled_from([True, False, 1.0, "1", None])))
    return ValueCheck("v", draw(keys))


@st.composite
def exprs(draw, keyed, depth=0):
    """A labelled constant, or a Select whose cases may hold Selects."""
    if depth < 2 and draw(st.integers(0, 3)) == 0:
        n = draw(st.integers(1, 5))
        cases = tuple((draw(preds(keyed)), draw(exprs(keyed, depth + 1))) for _ in range(n))
        return Select(cases, draw(exprs(keyed, depth + 1)))
    return Const(draw(st.integers(100, 999)))


def selects(keyed):
    return st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.lists(st.tuples(preds(keyed), exprs(keyed)), min_size=n, max_size=n),
            exprs(keyed),
        ).map(lambda t: Select(tuple(t[0]), t[1]))
    )


@st.composite
def blocks(draw, keyed, depth):
    """A branch: calls whose arguments may be Selects, a return, and
    below the top a nested chain."""
    out = []
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.integers(0, 5))
        if kind == 0:
            out.append(Return())
        elif kind == 1 and depth < 2:
            out += draw(chains(keyed, depth + 1))
        else:
            arg = draw(exprs(keyed, 1))
            out.append(LetVisible(f"x{draw(st.integers(0, 99))}", "svc.Op", (("k", arg),)))
    return tuple(out)


@st.composite
def chains(draw, keyed, depth=0):
    """A conditional whose else-branch is the next one, several deep.
    Unless keyed, an else-branch may also hold more than the next
    conditional, before or after it."""
    els = draw(blocks(keyed, depth))
    for _ in range(draw(st.integers(1, 6))):
        node = Ite(draw(preds(keyed)), draw(blocks(keyed, depth)), els)
        extra = () if keyed else draw(blocks(False, depth + 1))
        els = (node,) + extra if draw(st.booleans()) else extra + (node,)
    return els


def with_v(value):
    """σ with v holding value on trace 1 and w holding 0."""
    entries = {("w", 1): Scalar(0)}
    if value is not UNBOUND:
        entries[("v", 1)] = Scalar(value)
    return TraceValuation(params=(), entries=entries)


def result(f):
    try:
        got = f()
    except (ValuationError, evaluator.EvalError) as exc:
        return type(exc), str(exc)
    return type(got), got


@settings(max_examples=400, deadline=None)
@given(st.booleans().flatmap(lambda keyed: selects(keyed)), values)
def test_a_select_evaluates_as_its_cases_tested_in_order(e, value):
    sigma = with_v(value)
    got = result(lambda: evaluate_in_trace(e, sigma, 1))
    with mock.patch.object(traces, "term_evaluator", reference.term_evaluator):
        want = result(lambda: evaluate_in_trace(e, sigma, 1))
    assert got == want


def run_both(body, value):
    params, inputs = ("w",), {"w": 0}
    if value is not UNBOUND:
        params, inputs = ("v", "w"), {"v": value, "w": 0}
    program = Program(params=params, body=body)
    handler = lambda api, request: dict(request)
    got = outcome(execute, program, inputs, handler, 3)
    want = outcome(reference.execute, program, inputs, handler, 3)
    assert got == want


@settings(max_examples=400, deadline=None)
@given(st.booleans().flatmap(lambda keyed: chains(keyed)), values)
def test_a_conditional_chain_replays_as_its_guards_tested_in_order(chain, value):
    run_both(chain + (LetVisible("after", "svc.Op", ()),), value)


def vc(k, var="v"):
    return ValueCheck(var, k)


def branch(label):
    return (LetVisible(f"x{label}", "svc.Op", (("k", Const(label)),)),)


def test_the_first_predicate_testing_a_constant_wins():
    assert dsl.int_dispatch([vc(2), vc(-1), vc(2), vc(0)]) == ("v", {2: 0, -1: 1, 0: 3})
    s = Select(((vc(1), Const("a")), (vc(1), Const("b"))), Const("d"))
    assert dsl.select_table(s) == ("v", {1: Const("a")}, Const("d"))
    assert s.table == dsl.select_table(s)


def test_no_table_unless_every_predicate_tests_the_one_variable_against_an_int():
    assert dsl.int_dispatch([]) is None
    assert dsl.int_dispatch([vc(1), vc(2, var="w")]) is None
    for const in (True, False, 1.0, "1", None):
        assert dsl.int_dispatch([vc(1), vc(const)]) is None
        assert dsl.int_dispatch([vc(const), vc(1)]) is None
    assert dsl.int_dispatch([vc(1), dsl.PTrue()]) is None
    assert dsl.select_table(Select(((vc(True), Const(1)),), Const(0))) is None


def test_a_chain_ends_where_an_else_branch_is_not_just_the_next_keyed_conditional():
    """Down a chain's else-branches, the walk stops at a conditional on
    another variable or a non-int, and above an else-branch that holds
    anything besides one conditional."""
    for stop in (Ite(vc(5, var="w"), branch(5), branch(6)), Ite(vc(True), branch(5), branch(6))):
        c1 = Ite(vc(1), branch(1), (stop,))
        head = Ite(vc(0), branch(0), (c1,))
        assert dsl.ite_table(head) == ("v", {0: branch(0), 1: branch(1)}, (stop,))
    inner = Ite(vc(2), branch(2), branch(3))
    c1 = Ite(vc(1), branch(1), (inner,) + branch(9))
    head = Ite(vc(0), branch(0), (c1,))
    assert dsl.ite_table(head) == ("v", {0: branch(0), 1: branch(1)}, (inner,) + branch(9))
    assert head.table == dsl.ite_table(head)
    assert dsl.ite_table(Ite(vc(0, var="w"), branch(0), branch(1)))[2] == branch(1)
    assert dsl.ite_table(Ite(dsl.PTrue(), branch(0), (head,))) is None


def test_a_value_equal_to_an_int_but_not_one_takes_no_case():
    """True == 1 and hash(1.0) == hash(1), so a table would take either
    for the constant 1; canonical_eq takes neither."""
    s = Select(((vc(0), Const("zero")), (vc(1), Const("one"))), Const("d"))
    chain = (Ite(vc(0), branch(0), (Ite(vc(1), branch(1), branch(2)),)),)
    for value in (True, False, 1.0, 0.0):
        assert evaluate_in_trace(s, with_v(value), 1) == "d"
        state = execute(Program(params=("v",), body=chain), {"v": value}, lambda api, req: req, 2)
        assert "x2" in state.bindings and "x0" not in state.bindings and "x1" not in state.bindings


def test_tables_are_built_on_first_evaluation_and_not_compared():
    s = Select(((vc(0), Const("a")),), Const("d"))
    ite = Ite(vc(0), branch(0), branch(1))
    assert s.table is dsl.UNBUILT and ite.table is dsl.UNBUILT
    assert evaluate_in_trace(s, with_v(0), 1) == "a"
    execute(Program(params=("v",), body=(ite,)), {"v": 1}, lambda api, req: req, 2)
    assert s.table is not dsl.UNBUILT and ite.table is not dsl.UNBUILT
    assert s == Select(((vc(0), Const("a")),), Const("d"))
    assert ite == Ite(vc(0), branch(0), branch(1))
    assert "table" not in repr(s) + repr(ite)


def test_replay_of_the_initial_chain_stays_linear():
    """build_initial selects each of N traces' calls by an N-deep chain
    of br == i conditionals. Replaying all N compares each trace's one
    request (N calls of canonical_eq); testing the guards one by one
    would add about N^2/2 more."""
    n = 2000
    ts = parse_traces(
        json.dumps([[{"api": f"svc.Op{t % 7}", "request": {"k": t}, "response": {"r": t}}] for t in range(n)])
    )
    program, sigma = build_initial(ts)
    calls = [0]
    real = evaluator.canonical_eq

    def counting(a, b):
        calls[0] += 1
        return real(a, b)

    with mock.patch.object(terms, "canonical_eq", counting), mock.patch.object(
        evaluator, "canonical_eq", counting
    ):
        assert check_psi(program, sigma, ts, default_retry_bound(ts))
    assert calls[0] <= 2 * n
