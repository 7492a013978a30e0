"""Trace parsing and the per-trace valuation."""

import pytest

from tracesynth.dsl import Const, HiddenCall, Select, ValueCheck, VarRef
from tracesynth.hidden import Child, HiddenFnBody, Input
from tracesynth.jsonvals import ABSENT
from tracesynth.traces import (
    PerIteration,
    Scalar,
    TraceError,
    TraceSet,
    TraceValuation,
    ValuationError,
    evaluate_in_trace,
    extract_inputs,
    initial_valuation,
    parse_traces,
)

GOOD = """
[
  [{"api": "svc.A", "request": {"x": 1}, "response": {"ok": true}}],
  [{"api": "svc.A", "request": {"x": 2}, "response": {"ok": false}},
   {"api": "svc.B", "request": {}, "response": null}]
]
"""


def test_parse_traces_happy_path():
    ts = parse_traces(GOOD)
    assert len(ts) == 2
    assert list(ts.indices()) == [1, 2]
    assert len(ts.trace(1)) == 1
    assert len(ts.trace(2)) == 2
    rec = ts.trace(2)[1]
    assert rec.api == "svc.B"
    assert rec.request_map() == {}
    assert rec.response is None


def test_parse_traces_accepts_parsed_data_and_bytes():
    assert len(parse_traces(GOOD.encode())) == 2
    assert len(parse_traces([[{"api": "a.B", "request": {}, "response": 1}]] * 2)) == 2


@pytest.mark.parametrize(
    "bad",
    [
        "[]",
        "[[{\"api\": \"a.B\", \"request\": {}, \"response\": 1}]]",
        "{}",
        "not json",
        "[[{\"api\": \"a.B\", \"request\": {}}], [{\"api\": \"a.B\", \"request\": {}, \"response\": 1}]]",
        "[[{\"api\": \"\", \"request\": {}, \"response\": 1}], [{\"api\": \"a.B\", \"request\": {}, \"response\": 1}]]",
        "[[{\"api\": \"a.B\", \"request\": [], \"response\": 1}], [{\"api\": \"a.B\", \"request\": {}, \"response\": 1}]]",
        "[[1], [2]]",
    ],
)
def test_parse_traces_rejects_malformed_input(bad):
    with pytest.raises(TraceError):
        parse_traces(bad)


@pytest.mark.parametrize("place", ["request", "response"])
@pytest.mark.parametrize("number", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_parse_traces_rejects_non_finite_numbers(number, place):
    event = {"request": '{"k": 1}', "response": "1"}
    event[place] = event[place].replace("1", number)
    text = (
        '[[{"api": "a.B", "request": %(request)s, "response": %(response)s}],'
        ' [{"api": "a.B", "request": {}, "response": 1}]]' % event
    )
    with pytest.raises(TraceError, match="non-finite"):
        parse_traces(text)


def test_parse_traces_keeps_finite_floats():
    ts = parse_traces(
        '[[{"api": "a.B", "request": {"k": 1.5e300}, "response": -1e-400}],'
        ' [{"api": "a.B", "request": {}, "response": 0.25}]]'
    )
    assert ts.trace(1)[0].request_map() == {"k": 1.5e300}
    assert ts.trace(1)[0].response == -0.0


@pytest.mark.parametrize("nested", [False, True])
@pytest.mark.parametrize("place", ["request", "response"])
@pytest.mark.parametrize("number", [float("nan"), float("inf"), float("-inf")])
def test_parse_traces_rejects_non_finite_numbers_in_parsed_data(number, place, nested):
    value = {"a": [1, {"b": number}]} if nested else number
    event = {"api": "a.B", "request": {"k": 1.5}, "response": 0.25}
    event[place] = {"k": value} if place == "request" else value
    data = [[{"api": "a.B", "request": {}, "response": 1}], [event]]
    with pytest.raises(TraceError, match=f"trace 2 event 1 {place} holds a non-finite"):
        parse_traces(data)


def test_parse_traces_keeps_finite_floats_in_parsed_data():
    event = {"api": "a.B", "request": {"k": [1.5e300, {"x": -0.0}]}, "response": {"r": 1e-300}}
    ts = parse_traces([[event], [{"api": "a.B", "request": {}, "response": 0.25}]])
    assert ts.trace(1)[0].request_map() == {"k": [1.5e300, {"x": -0.0}]}
    assert ts.trace(1)[0].response == {"r": 1e-300}


@pytest.mark.parametrize(
    "place, value, message",
    [
        ("request", {1: 2}, "key that is not a string: 1"),
        ("request", {"k": (1, 2)}, "value that is not JSON: tuple"),
        ("response", {1: 2}, "key that is not a string: 1"),
        ("response", object(), "value that is not JSON: object"),
    ],
)
def test_parse_traces_rejects_parsed_data_that_is_not_json(place, value, message):
    event = {"api": "a.B", "request": {}, "response": 1}
    event[place] = value
    data = [[{"api": "a.B", "request": {}, "response": 1}], [event]]
    with pytest.raises(TraceError, match=f"trace 2 event 1 {place} holds a {message}"):
        parse_traces(data)


def two_trace_set():
    return parse_traces(GOOD)


def test_initial_valuation_binds_branch_selector():
    ts = two_trace_set()
    sigma = initial_valuation(ts)
    assert sigma.params == ("br",)
    assert sigma.lookup("br", 1).value == 1
    assert sigma.lookup("br", 2).value == 2


def test_lookup_and_scalar_errors():
    sigma = TraceValuation(params=(), entries={("x", 1): PerIteration((1, 2))})
    # x is known, so the trace where it has no cell reads as Absent.
    assert sigma.lookup("x", 2) == Scalar(ABSENT)
    assert sigma.lookup("x", 1) == PerIteration((1, 2))
    with pytest.raises(ValuationError):
        sigma.lookup("y", 1)
    assert sigma.traces_with_value("x") == [1] and sigma.traces_with_value("y") == []


def test_evaluate_var_and_ternary():
    sigma = TraceValuation(
        params=("p",),
        entries={("p", 1): Scalar(3), ("b", 1): Scalar(2)},
    )
    e = Select(((ValueCheck("b", 2), VarRef("p")),), Const(0))
    assert evaluate_in_trace(e, sigma, 1) == 3
    e2 = Select(((ValueCheck("b", 9), VarRef("p")),), Const(0))
    assert evaluate_in_trace(e2, sigma, 1) == 0


def test_evaluate_raises_on_absent_reads():
    sigma = TraceValuation(params=(), entries={("x", 1): Scalar(ABSENT)})
    with pytest.raises(ValuationError):
        evaluate_in_trace(VarRef("x"), sigma, 1)
    with pytest.raises(ValuationError):
        evaluate_in_trace(Select(((ValueCheck("x", 1), Const(1)),), Const(2)), sigma, 1)


def test_hidden_call_args_tolerate_absent():
    fn = HiddenFnBody(2, Child(Input(1), "k"))
    sigma = TraceValuation(
        params=(),
        entries={("a", 1): Scalar(ABSENT), ("r", 1): Scalar({"k": 7})},
    )
    e = HiddenCall("f_1", ("a", "r"))
    assert evaluate_in_trace(e, sigma, 1, {"f_1": fn}) == 7


def test_per_iteration_cells_read_as_last_value():
    sigma = TraceValuation(params=(), entries={("x", 1): PerIteration((10, 20, 30))})
    assert evaluate_in_trace(VarRef("x"), sigma, 1) == 30
    empty = TraceValuation(params=(), entries={("x", 1): PerIteration(())})
    with pytest.raises(ValuationError):
        evaluate_in_trace(VarRef("x"), empty, 1)


def test_extract_inputs():
    sigma = TraceValuation(
        params=("p", "q"),
        entries={
            ("p", 1): Scalar("a"),
            ("p", 2): Scalar("b"),
            ("q", 1): Scalar([1]),
            ("q", 2): Scalar([2]),
        },
    )
    inputs = extract_inputs(sigma, [1, 2])
    assert inputs == {"p": {1: "a", 2: "b"}, "q": {1: [1], 2: [2]}}
