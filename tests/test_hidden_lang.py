"""Hidden-function expressions: evaluation, sizing, printing, parsing."""

import pytest
from hypothesis import given, settings, strategies as st

from tracesynth.dsl import Program, pretty_print
from tracesynth.hidden import (
    BOOL_STEPS,
    EVERY,
    MISSES,
    PATH_STEPS,
    _STEP_PARAMS,
    Add,
    And,
    Child,
    Concat,
    ConstVal,
    Descendants,
    Empty,
    Eq,
    HiddenEvalError,
    HiddenFnBody,
    Index,
    Input,
    Length,
    MakeList,
    Not,
    Slice,
    eval_hidden,
    eval_path,
    expr_size,
    expr_uses_input,
    _no_param,
    print_hidden_fn,
)
from tracesynth.jsonvals import canonical_eq
from tracesynth.parser import parse_program

DOC = {
    "Reservations": [
        {"Instances": [{"InstanceId": "i-1", "State": {"Name": "running"}}]},
        {"Instances": [{"InstanceId": "i-2", "State": {"Name": "stopped"}}]},
    ],
    "Token": "t-9",
}


def test_child_hits_and_misses():
    assert eval_path(Child(Input(0), "Token"), [DOC]) == "t-9"
    assert eval_path(Child(Input(0), "Missing"), [DOC]) is None
    assert eval_path(Child(Child(Input(0), "Token"), "x"), [DOC]) is None


def test_index_and_slice():
    assert eval_path(Index(Child(Input(0), "Reservations"), 1), [DOC]) == DOC["Reservations"][1]
    assert eval_path(Index(Child(Input(0), "Reservations"), 5), [DOC]) is None
    assert eval_path(Slice(Child(Input(0), "Reservations"), 0, 1), [DOC]) == DOC["Reservations"][:1]
    assert eval_path(Slice(Input(0), 0, 1), [DOC]) is None


def test_length_add_concat():
    assert eval_path(Length(Child(Input(0), "Reservations")), [DOC]) == 2
    assert eval_path(Length(Child(Input(0), "Token")), [DOC]) == 3
    assert eval_path(Add(3, Length(Child(Input(0), "Reservations"))), [DOC]) == 5
    assert eval_path(Add(1, Input(0)), [True]) is None
    # Evaluation is total: a float plus an int too large for a float is null.
    assert eval_path(Add(0.5, Input(0)), [10**400]) is None
    assert eval_path(Add(1, Input(0)), [10**400]) == 10**400 + 1
    assert eval_path(Concat("pre-", Child(Input(0), "Token")), [DOC]) == "pre-t-9"
    assert eval_path(Concat("pre-", Input(0)), [7]) is None


def test_make_list_and_const():
    assert eval_path(MakeList((Child(Input(0), "Token"), ConstVal(1))), [DOC]) == ["t-9", 1]
    assert eval_path(ConstVal({"a": [1]}), [DOC]) == {"a": [1]}


def test_bool_layer():
    assert eval_hidden(HiddenFnBody(1, Eq(Child(Input(0), "Token"), "t-9")), [DOC])
    assert not eval_hidden(HiddenFnBody(1, Eq(Child(Input(0), "Token"), "zz")), [DOC])
    assert eval_hidden(HiddenFnBody(1, Empty(Child(Input(0), "Missing"))), [DOC])
    assert not eval_hidden(HiddenFnBody(1, Empty(Child(Input(0), "Reservations"))), [DOC])
    assert eval_hidden(
        HiddenFnBody(1, And(Not(Empty(Input(0))), Eq(Child(Input(0), "Token"), "t-9"))),
        [DOC],
    )


def test_arity_is_checked():
    f = HiddenFnBody(2, Input(1))
    with pytest.raises(HiddenEvalError):
        eval_hidden(f, [1])
    with pytest.raises(HiddenEvalError):
        eval_path(Input(3), [1, 2])


def naive_recursive_descent(v, key):
    """Straight-from-the-definition recursive descent: every value under
    any mapping entry named `key`, in document order, match before
    descent into the matched value."""
    found = []
    if isinstance(v, dict):
        for k, val in v.items():
            if k == key:
                found.append(val)
            found.extend(naive_recursive_descent(val, key))
    elif isinstance(v, list):
        for item in v:
            found.extend(naive_recursive_descent(item, key))
    return found


json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.sampled_from(["a", "b", "id"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["id", "a", "b", "c"]), inner, max_size=3),
    ),
    max_leaves=12,
)


@given(doc=json_values, key=st.sampled_from(["id", "a", "zz"]))
def test_descendants_matches_naive_recursive_descent(doc, key):
    got = eval_path(Descendants(Input(0), key), [doc])
    assert got == naive_recursive_descent(doc, key)


def test_descendants_collects_in_document_order():
    e = Descendants(Input(0), "InstanceId")
    assert eval_path(e, [DOC]) == ["i-1", "i-2"]
    nested = {"id": {"id": 1}, "rest": [{"id": 2}]}
    assert eval_path(Descendants(Input(0), "id"), [nested]) == [{"id": 1}, 1, 2]


STEPS = {**PATH_STEPS, **BOOL_STEPS}


def test_every_step_with_a_parameter_states_its_miss_rule():
    takes_param = {node for node in STEPS if _STEP_PARAMS[node] is not _no_param}
    assert set(MISSES) == takes_param == STEPS.keys() - {Length, Empty}


# Parameters to try against each miss rule: keys some values hold and
# one none does, indices past every length, bounds and constants of
# every type.
MISS_PARAMS = {
    Child: st.sampled_from(["id", "a", "b", "c", "zz"]),
    Descendants: st.sampled_from(["id", "a", "b", "c", "zz"]),
    Index: st.integers(0, 5),
    Slice: st.integers(0, 3).flatmap(lambda i: st.tuples(st.just(i), st.integers(i + 1, 5))),
    Add: st.one_of(st.integers(-2, 2), st.sampled_from([0.5, -1.5])),
    Concat: st.sampled_from(["", "x-", "a"]),
    Eq: json_values,
}


@settings(max_examples=400, deadline=None)
@given(values=st.lists(json_values, min_size=1, max_size=4), data=st.data())
def test_a_parameter_outside_the_hits_gives_the_miss_on_every_value(values, data):
    for node, (miss, hits_of) in MISSES.items():
        hits = hits_of(values)
        for p in data.draw(st.lists(MISS_PARAMS[node], max_size=5), label=node.__name__):
            if p not in hits:
                assert all(canonical_eq(STEPS[node](p, v), miss) for v in values), (node, p)


def test_the_hits_reach_every_depth_and_every_length():
    values = [[{"a": {"id": 1}}, "x"], {"b": [[], [1, 2, 3]]}]
    assert MISSES[Descendants][1](values) == {"a", "id", "b"}
    assert MISSES[Child][1](values) == {"b"}
    assert MISSES[Index][1](values) == range(2)
    assert eval_path(Index(Input(0), 1), values) == "x"
    assert MISSES[Index][1]([{"a": [1]}, "abc", None]) == range(0)


@pytest.mark.parametrize(
    "node, wrong_types, right_type",
    [(Slice, [{"a": []}, "ab", 1], []), (Add, [True, 1.5, "1", [1]], 0), (Concat, [1, ["a"], None], "")],
)
def test_a_step_for_one_type_hits_every_parameter_or_none(node, wrong_types, right_type):
    hits_of = MISSES[node][1]
    assert not hits_of(wrong_types)
    assert hits_of(wrong_types + [right_type]) is EVERY


def test_expr_size_conventions():
    assert expr_size(Input(0)) == 1
    assert expr_size(Child(Input(0), "a")) == 2
    assert expr_size(Descendants(Child(Input(0), "a"), "b")) == 3
    assert expr_size(Index(Input(0), 4)) == 2
    assert expr_size(Slice(Input(0), 1, 3)) == 2
    assert expr_size(Length(Input(0))) == 2
    assert expr_size(Add(1, Input(0))) == 3
    assert expr_size(Concat("p", Input(0))) == 3
    assert expr_size(Eq(Input(0), "x")) == 3
    assert expr_size(Eq(Input(0), {"a": 1})) == 4
    assert expr_size(Not(Eq(Input(0), "x"))) == 4
    assert expr_size(And(Eq(Input(0), "x"), Empty(Input(1)))) == 6


ROUND_TRIP_CASES = [
    HiddenFnBody(1, Input(0)),
    HiddenFnBody(2, Child(Input(1), "weird key")),
    HiddenFnBody(1, Descendants(Input(0), "Name")),
    HiddenFnBody(1, Index(Descendants(Input(0), "Name"), 0)),
    HiddenFnBody(1, Slice(Input(0), 1, 3)),
    HiddenFnBody(1, Length(Input(0))),
    HiddenFnBody(1, Add(-2, Input(0))),
    HiddenFnBody(1, Concat("bk-", Input(0))),
    HiddenFnBody(1, ConstVal({"a": [1, "s", None, True]})),
    HiddenFnBody(2, MakeList((Input(0), Child(Input(1), "id")))),
    HiddenFnBody(1, Eq(Input(0), ["i-09dc8"])),
    HiddenFnBody(1, Not(Eq(Index(Descendants(Input(0), "Name"), 0), "stopped"))),
    HiddenFnBody(2, And(Empty(Input(0)), Eq(Input(1), 3))),
    HiddenFnBody(3, Eq(Child(Child(Input(2), "a"), "b"), False)),
    HiddenFnBody(1, And(And(Eq(Input(0), 1), Eq(Input(0), 2)), Eq(Input(0), 3))),
    HiddenFnBody(1, And(Eq(Input(0), 1), And(Eq(Input(0), 2), Eq(Input(0), 3)))),
    HiddenFnBody(1, Not(And(And(Empty(Input(0)), Eq(Input(0), 2)), Eq(Input(0), 3)))),
    HiddenFnBody(1, Child(Add(1, Input(0)), "x")),
    HiddenFnBody(1, Child(ConstVal({"a": 1}), "a")),
    HiddenFnBody(1, Slice(Concat("s", Input(0)), 0, 2)),
]


def reparse(fns):
    """fns back from parse_program(pretty_print(...)) of a script whose
    where section defines them as f_1, f_2, ..."""
    defs = tuple((f"f_{i}", f) for i, f in enumerate(fns, 1))
    program = parse_program(pretty_print(Program(params=(), body=(), hidden_defs=defs)))
    return [f for _, f in program.hidden_defs]


@pytest.mark.parametrize("f", ROUND_TRIP_CASES, ids=lambda f: print_hidden_fn(f))
def test_print_parse_round_trip(f):
    assert reparse([f]) == [f]


def test_a_parenthesized_value_is_still_a_value():
    text = "lambda.\nwhere f_1 := (a0) -> (a0).k == 1 f_2 := (a0) -> (a0)[0]"
    defs = dict(parse_program(text).hidden_defs)
    assert defs["f_1"] == HiddenFnBody(1, Eq(Child(Input(0), "k"), 1))
    assert defs["f_2"] == HiddenFnBody(1, Index(Input(0), 0))


# Random helper bodies for the round trip. A list constant is never
# drawn: it prints as [...] and reads back as the MakeList that
# evaluates the same.
KEYS = st.one_of(
    st.sampled_from(["id", "Name", "weird key", "length", "true", "empty", "", "a.b", "1x"]),
    st.text(max_size=3),
)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-1000, 1000),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([1e-07, -2.5e+300, 6.02e23]),
    st.text(max_size=3),
)
LITERALS = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=2), inner, max_size=3)
    ),
    max_leaves=6,
)


@st.composite
def helper_fns(draw):
    arity = draw(st.integers(1, 3))
    consts = st.one_of(SCALARS, st.dictionaries(st.text(max_size=2), LITERALS, max_size=2))

    def extend_path(inner):
        inner = st.one_of(
            inner,
            st.builds(Add, st.integers(-5, 5), inner),
            st.builds(Concat, st.text(max_size=3), inner),
            consts.map(ConstVal),
        )
        return st.one_of(
            st.builds(Child, inner, KEYS),
            st.builds(Descendants, inner, KEYS),
            st.builds(Index, inner, st.integers(-3, 12)),
            st.builds(Slice, inner, st.integers(-3, 12), st.integers(-3, 12)),
        )

    values = st.deferred(
        lambda: st.one_of(
            paths,
            st.builds(Add, st.integers(-5, 5), values),
            st.builds(Concat, st.text(max_size=3), values),
            consts.map(ConstVal),
        )
    )
    paths = st.recursive(
        st.one_of(
            st.integers(0, arity - 1).map(Input),
            st.builds(Length, values),
            st.builds(MakeList, st.lists(values, max_size=3).map(tuple)),
        ),
        extend_path,
        max_leaves=4,
    )
    bools = st.recursive(
        st.one_of(st.builds(Eq, values, LITERALS), st.builds(Empty, values)),
        lambda inner: st.one_of(st.builds(Not, inner), st.builds(And, inner, inner)),
        max_leaves=5,
    )
    return HiddenFnBody(arity, draw(st.one_of(bools, paths, values)))


@settings(deadline=None)
@given(fns=st.lists(helper_fns(), min_size=2, max_size=4))
def test_random_helper_definitions_read_back_unchanged(fns):
    assert reparse(fns) == fns


def test_expr_uses_input():
    assert expr_uses_input(Child(Input(0), "a"))
    assert not expr_uses_input(ConstVal(3))
    assert not expr_uses_input(MakeList((ConstVal(1),)))
    assert expr_uses_input(And(Empty(ConstVal([])), Eq(Input(0), 1)))


def test_literal_node_equality_is_strict_typed():
    assert ConstVal(True) != ConstVal(1)
    assert ConstVal([1, 2]) == ConstVal([1, 2])
    assert Eq(Input(0), True) != Eq(Input(0), 1)
    assert Eq(Input(0), "x") == Eq(Input(0), "x")
    assert len({Eq(Input(0), True), Eq(Input(0), 1)}) == 2
    assert hash(ConstVal({"k": []})) == hash(ConstVal({"k": []}))
