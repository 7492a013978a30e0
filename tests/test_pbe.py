"""Enumerative synthesis against an exhaustive no-pruning oracle."""

import time

import pytest

from tracesynth.hidden import (
    Add,
    And,
    Child,
    Concat,
    Descendants,
    Empty,
    Eq,
    Index,
    Input,
    Length,
    Not,
    Slice,
    eval_bool,
    eval_path,
    expr_size,
)
from tracesynth.jsonvals import canonical_eq
from tracesynth.pbe import (
    ConstraintCache,
    GrammarConfig,
    IOExample,
    mine_pools,
    synthesize,
)


def oracle_solve(examples, kind, max_size):
    """Brute force over the same grammar: every expression up to the
    size bound, no observational-equivalence pruning, no early exit.
    Returns (found, minimal_size)."""
    pools = mine_pools(examples)
    arity = len(examples[0].args)
    arg_lists = [list(ex.args) for ex in examples]

    paths = {1: [Input(i) for i in range(arity)]}
    for s in range(2, max_size + 1):
        cur = []
        for b in paths.get(s - 1, []):
            for k in pools.keys:
                cur.append(Child(b, k))
                cur.append(Descendants(b, k))
            for i in pools.indices:
                cur.append(Index(b, i))
            for i, j in pools.slices:
                cur.append(Slice(b, i, j))
            cur.append(Length(b))
        for b in paths.get(s - 2, []):
            for c in pools.add_consts:
                cur.append(Add(c, b))
            for c in pools.concat_prefixes:
                cur.append(Concat(c, b))
        paths[s] = cur

    if kind == "value":
        best = None
        for s in range(1, max_size + 1):
            for e in paths.get(s, []):
                assert expr_size(e) == s
                if all(
                    canonical_eq(eval_path(e, args), ex.output)
                    for args, ex in zip(arg_lists, examples)
                ):
                    best = s
                    break
            if best is not None:
                break
        return best is not None, best

    bools = {}
    for s in range(1, max_size + 1):
        cur = []
        for j in range(1, s - 1):
            for c in pools.eq_values_by_size.get(s - 1 - j, []):
                for b in paths.get(j, []):
                    cur.append(Eq(b, c))
        for b in paths.get(s - 1, []):
            cur.append(Empty(b))
        for inner in bools.get(s - 1, []):
            cur.append(Not(inner))
        for j in range(1, s - 1):
            for left in bools.get(j, []):
                for right in bools.get(s - 1 - j, []):
                    cur.append(And(left, right))
        bools[s] = cur

    best = None
    for s in range(1, max_size + 1):
        for e in bools.get(s, []):
            assert expr_size(e) == s
            if all(
                eval_bool(e, args) == ex.output
                for args, ex in zip(arg_lists, examples)
            ):
                best = s
                break
        if best is not None:
            break
    return best is not None, best


def ex(args, output):
    return IOExample(args=tuple(args), output=output)


VALUE_SETS = [
    # identity
    [ex([5], 5), ex(["s"], "s")],
    # child access
    [ex([{"a": 5, "b": 1}], 5), ex([{"a": 7, "b": 2}], 7)],
    # deep chain
    [
        ex([{"a": {"b": {"c": "x1"}}}], "x1"),
        ex([{"a": {"b": {"c": "x2"}}}], "x2"),
    ],
    # descendant collection across nesting
    [
        ex([{"r": [{"id": "a"}, {"x": {"id": "b"}}]}], ["a", "b"]),
        ex([{"r": [{"id": "c"}]}], ["c"]),
    ],
    # first element of an array
    [ex([{"xs": [3, 4]}], 3), ex([{"xs": [9, 1]}], 9)],
    # slicing
    [ex([[1, 2, 3]], [1, 2]), ex([["a", "b", "c"]], ["a", "b"])],
    # lengths
    [ex([[1, 2, 3]], 3), ex([["a"]], 1)],
    # increment
    [ex([{"v": 5}], 6), ex([{"v": 12}], 13)],
    # prefixing
    [ex(["users"], "bk-users"), ex(["orders"], "bk-orders")],
    # second argument wins
    [ex([1, {"k": "a"}], "a"), ex([2, {"k": "b"}], "b")],
    # unrelated outputs: nothing in grammar produces them
    [ex([{"a": 1}], "zebra"), ex([{"a": 2}], "yak")],
    # constant output with no constant production
    [ex([{"a": 1}], "zzz"), ex([{"a": 2}], "zzz")],
]

BOOL_SETS = [
    # equality on a field
    [ex([{"s": "ok"}], True), ex([{"s": "no"}], False)],
    # emptiness of a list
    [ex([{"xs": []}], True), ex([{"xs": [1]}], False)],
    # negated equality, the polling shape
    [
        ex([{"Name": "stopping"}], True),
        ex([{"Name": "stopped"}], False),
        ex([{"Name": "shutting-down"}], True),
    ],
    # same shape one level deeper no longer fits in the budget
    [
        ex([{"st": {"Name": "stopping"}}], True),
        ex([{"st": {"Name": "stopped"}}], False),
        ex([{"st": {"Name": "shutting-down"}}], True),
    ],
    # conjunction: each input alone cannot separate the examples
    [
        ex([[], []], True),
        ex([[], [1]], False),
        ex([[1], []], False),
    ],
    # identical arguments demand different outputs: unsolvable
    [ex([{"a": 1}], True), ex([{"a": 1}], False)],
    # whole-object equality
    [ex([{"a": 1}], True), ex([{"a": 2}], False)],
]


@pytest.mark.parametrize("examples", VALUE_SETS)
def test_value_synthesis_matches_oracle(examples):
    start = time.monotonic()
    result = synthesize(examples, "value", GrammarConfig(max_size=5))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    found, best = oracle_solve(examples, "value", 5)
    assert result.sat == found
    if found:
        assert result.size == best
        for e in examples:
            assert canonical_eq(eval_path(result.expr, list(e.args)), e.output)


@pytest.mark.parametrize("examples", BOOL_SETS)
def test_bool_synthesis_matches_oracle(examples):
    start = time.monotonic()
    result = synthesize(examples, "bool", GrammarConfig(max_size=5))
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    found, best = oracle_solve(examples, "bool", 5)
    assert result.sat == found
    if found:
        assert result.size == best
        for e in examples:
            assert eval_bool(result.expr, list(e.args)) == e.output


def test_synthesize_validates_inputs():
    with pytest.raises(ValueError):
        synthesize([], "value", GrammarConfig())
    with pytest.raises(ValueError):
        synthesize([ex([1], 1)], "nope", GrammarConfig())
    with pytest.raises(ValueError):
        synthesize([ex([1], 1), ex([1, 2], 1)], "value", GrammarConfig())
    with pytest.raises(ValueError):
        synthesize([ex([1], "not bool")], "bool", GrammarConfig())


def test_timeout_reports_and_is_not_cached():
    examples = [ex([{"a": 1}], "unreachable"), ex([{"a": 2}], "nope")]
    cache = ConstraintCache()
    cfg = GrammarConfig(max_size=8, timeout=1e-9)
    r1 = cache.solve(examples, "value", cfg)
    r2 = cache.solve(examples, "value", cfg)
    assert r1.status == r2.status == "timeout"
    assert cache.pbe_calls == 2


def test_unsat_is_cached_per_budget():
    examples = [ex([{"a": 1}], "zebra"), ex([{"a": 2}], "yak")]
    cache = ConstraintCache()
    r1 = cache.solve(examples, "value", GrammarConfig(max_size=3))
    assert r1.status == "unsat"
    assert cache.pbe_calls == 1
    cache.solve(examples, "value", GrammarConfig(max_size=3))
    assert cache.pbe_calls == 1
    assert cache.has_unsat(examples, "value")
    cache.solve(examples, "value", GrammarConfig(max_size=5))
    assert cache.pbe_calls == 2


def test_sat_is_cached_across_budgets():
    examples = [ex([{"a": 5}], 5), ex([{"a": 7}], 7)]
    cache = ConstraintCache()
    r1 = cache.solve(examples, "value", GrammarConfig(max_size=5))
    assert r1.sat and cache.pbe_calls == 1 and cache.pbe_sat == 1
    r2 = cache.solve(examples, "value", GrammarConfig(max_size=8))
    assert r2.sat and cache.pbe_calls == 1
    assert r2.expr == r1.expr


def test_cache_digest_ignores_example_order():
    a = [ex([{"a": 1}], 1), ex([{"a": 2}], 2)]
    b = list(reversed(a))
    cache = ConstraintCache()
    cache.solve(a, "value", GrammarConfig(max_size=4))
    cache.solve(b, "value", GrammarConfig(max_size=4))
    assert cache.pbe_calls == 1
