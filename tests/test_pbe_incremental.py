"""The incremental enumerator against the per-candidate reference it
replaced (tests/pbe_reference.py), and its structural keys against
canonical_dumps."""

import copy
import itertools
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

import pbe_reference as reference
from tracesynth import hidden, jsonvals, pbe
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
)
from tracesynth.jsonvals import ABSENT, canonical_dumps
from tracesynth.pbe import ConstraintCache, GrammarConfig, IOExample, mine_pools, synthesize

KEYS = ["id", "a", "b", "Name"]
# Finite numbers only: NaN never equals itself, so pools holding one
# could not be compared element for element.
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.sampled_from(["", "a", "id", "x-a", "bx-a", "running"]),
)
json_values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.sampled_from(KEYS), inner, max_size=3),
    ),
    max_leaves=8,
)


def draw_path(draw, arity, depth):
    """A random path expression over the enumerated operators."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        return Input(draw(st.integers(0, arity - 1)))
    base = draw_path(draw, arity, depth - 1)
    op = draw(st.sampled_from([Child, Descendants, Index, Slice, Length, Add, Concat]))
    if op in (Child, Descendants):
        return op(base, draw(st.sampled_from(KEYS)))
    if op is Index:
        return Index(base, draw(st.integers(0, 2)))
    if op is Slice:
        i = draw(st.integers(0, 2))
        return Slice(base, i, draw(st.integers(i + 1, 3)))
    if op is Length:
        return Length(base)
    if op is Add:
        return Add(draw(st.integers(-2, 2)), base)
    return Concat(draw(st.sampled_from(["x-", "b"])), base)


def draw_bool(draw, arity, depth):
    """A random predicate over draw_path expressions."""
    op = draw(st.sampled_from([Eq, Empty, Not, And] if depth else [Eq, Empty]))
    if op is Eq:
        return Eq(draw_path(draw, arity, 2), draw(scalars))
    if op is Empty:
        return Empty(draw_path(draw, arity, 2))
    if op is Not:
        return Not(draw_bool(draw, arity, depth - 1))
    return And(draw_bool(draw, arity, depth - 1), draw_bool(draw, arity, depth - 1))


@st.composite
def example_sets(draw):
    """Examples whose outputs either follow one random expression, so
    that most sets have a solution, or are drawn independently."""
    kind = draw(st.sampled_from(["value", "bool"]))
    arity = draw(st.integers(1, 2))
    hidden = draw_path(draw, arity, 3) if kind == "value" else draw_bool(draw, arity, 1)
    follow = draw(st.integers(0, 3)) > 0
    examples = []
    for _ in range(draw(st.integers(1, 4))):
        args = tuple(draw(st.one_of(json_values, st.just(ABSENT))) for _ in range(arity))
        if kind == "bool":
            output = eval_bool(hidden, list(args)) if follow else draw(st.booleans())
        else:
            output = eval_path(hidden, list(args)) if follow else draw(json_values)
        examples.append(IOExample(args=args, output=output))
    return kind, examples, draw(st.integers(2, 5))


def ex(args, output):
    return IOExample(args=tuple(args), output=output)


# Sets the random ones rarely hit: winners built by And, Concat, Add and
# Slice, two argument strings completing one output, and a NaN that Eq
# must not equate with itself.
KNOWN_SETS = [
    ("bool", [ex([[], []], True), ex([[], [1]], False), ex([[1], []], False)], 5),
    ("value", [ex(["users"], "bk-users"), ex(["orders"], "bk-orders")], 4),
    ("value", [ex([{"v": 5}], 6), ex([{"v": 12}], 13)], 4),
    ("value", [ex([[1, 2, 3]], [1, 2]), ex([["a", "b", "c"]], ["a", "b"])], 3),
    ("value", [ex(["a", "xa"], "bxa"), ex(["a", "ya"], "bya")], 4),
    ("bool", [ex([float("nan")], True), ex([1.0], False)], 4),
]


def with_known_sets(test):
    for case in KNOWN_SETS:
        test = example(case)(test)
    return test


def fields(result):
    return (result.status, repr(result.expr), result.size, result.arity, result.enumerated)


def pool_fields(pools):
    return repr(
        (
            pools.keys,
            pools.eq_values_by_size,
            pools.indices,
            list(pools.slices),
            pools.add_consts,
            pools.concat_prefixes,
        )
    )


@settings(max_examples=300, deadline=None)
@given(example_sets())
@with_known_sets
def test_incremental_enumerator_matches_the_reference(case):
    kind, examples, max_size = case
    cfg = GrammarConfig(max_size=max_size)
    assert fields(synthesize(examples, kind, cfg)) == fields(
        reference.synthesize(examples, kind, cfg)
    )


def reordered(v):
    """v with every object's keys in reverse order, at every depth."""
    if isinstance(v, dict):
        return {k: reordered(v[k]) for k in reversed(list(v))}
    if isinstance(v, list):
        return [reordered(x) for x in v]
    return v


def sign_flipped(v):
    """v with every float zero's sign flipped, at every depth."""
    if isinstance(v, dict):
        return {k: sign_flipped(x) for k, x in v.items()}
    if isinstance(v, list):
        return [sign_flipped(x) for x in v]
    if isinstance(v, float) and v == 0:
        return -v
    return v


# Objects of objects, so that reordering keys reorders what `..key` finds.
slot_values = st.one_of(
    json_values,
    st.dictionaries(
        st.sampled_from(KEYS), st.dictionaries(st.sampled_from(KEYS), scalars, min_size=1), min_size=2
    ),
)


@st.composite
def repeating_example_sets(draw):
    """Examples whose slots repeat a few values: as the same object, as
    an equal copy, with objects' keys in another order (which `..key`
    sees), with float zeros' signs flipped (which nothing sees), or as
    the absent marker."""
    kind = draw(st.sampled_from(["value", "bool"]))
    arity = draw(st.integers(1, 3))
    pools = [draw(st.lists(slot_values, min_size=1, max_size=3)) for _ in range(arity)]
    variants = [lambda v: v, copy.deepcopy, reordered, sign_flipped, lambda v: ABSENT]
    hidden = draw_path(draw, arity, 3) if kind == "value" else draw_bool(draw, arity, 1)
    follow = draw(st.integers(0, 3)) > 0
    examples = []
    for _ in range(draw(st.integers(1, 6))):
        args = tuple(draw(st.sampled_from(variants))(draw(st.sampled_from(pool))) for pool in pools)
        if kind == "bool":
            output = eval_bool(hidden, list(args)) if follow else draw(st.booleans())
        else:
            output = eval_path(hidden, list(args)) if follow else draw(json_values)
        examples.append(IOExample(args=args, output=output))
    return kind, examples, draw(st.integers(2, 5))


# Two canonically equal arguments that `..k` reads in different orders.
ORDERED = {"a": {"k": 1}, "b": {"k": 2}}
REORDERED_SETS = [
    ("value", [ex([ORDERED], [1, 2]), ex([reordered(ORDERED)], [2, 1])], 3),
    ("bool", [ex([ORDERED], True), ex([reordered(ORDERED)], False), ex([ORDERED], True)], 5),
    ("value", [ex([[0.0], ABSENT], [0.0]), ex([[-0.0], None], [-0.0]), ex([[0.0], ABSENT], [0.0])], 4),
]


@settings(max_examples=300, deadline=None)
@given(repeating_example_sets())
@example(REORDERED_SETS[0])
@example(REORDERED_SETS[1])
@example(REORDERED_SETS[2])
def test_repeated_arguments_give_the_reference_result(case):
    """Each candidate is evaluated once per class of interchangeable
    arguments; that must not change what is enumerated or found."""
    kind, examples, max_size = case
    cfg = GrammarConfig(max_size=max_size)
    assert fields(synthesize(examples, kind, cfg)) == fields(
        reference.synthesize(examples, kind, cfg)
    )


# Object keys of each slot, disjoint across slots, as the responses of
# different APIs are.
SLOT_KEYS = [["State", "Name"], ["Status", "Code"], ["Items", "Id"], ["Token"], ["Owner", "Tags"]]
guard_scalars = st.sampled_from(["running", "stopped", "i-1", "i-2", 200, 0, True, None])


def slot_objects(keys):
    """Objects over one slot's keys, holding scalars, objects and lists
    of objects."""
    return st.recursive(
        guard_scalars,
        lambda inner: st.one_of(
            st.lists(inner, max_size=2), st.dictionaries(st.sampled_from(keys), inner, max_size=2)
        ),
        max_leaves=5,
    ).map(lambda v: v if isinstance(v, dict) else {keys[0]: v})


@st.composite
def guard_sets(draw):
    """Bool sets shaped like the search's guard calls, where most
    candidates miss: three to five slots, most of them Absent on every
    example, object keys that differ by slot, and one True output. Most
    `.key` and `..key` candidates then match nothing, most indices are
    past every list, and most Eq constants equal no value of the base."""
    arity = draw(st.integers(3, 5))
    present = draw(st.sets(st.integers(0, arity - 1), min_size=1, max_size=2))
    n = draw(st.integers(2, 6))
    true_at = draw(st.integers(0, n - 1))
    examples = [
        IOExample(
            tuple(
                draw(st.one_of(slot_objects(SLOT_KEYS[s]), st.just(ABSENT))) if s in present else ABSENT
                for s in range(arity)
            ),
            i == true_at,
        )
        for i in range(n)
    ]
    return "bool", examples, draw(st.integers(5, 6))


GUARD_SETS = [
    (
        "bool",
        [
            ex([ABSENT, {"Status": [{"Code": "running"}]}, ABSENT], True),
            ex([ABSENT, {"Status": [{"Code": "stopped"}]}, ABSENT], False),
            ex([ABSENT, {"Status": [{"Code": "stopped"}, {"Code": 0}]}, ABSENT], False),
        ],
        6,
    ),
    (
        "bool",
        [
            ex([{"State": "i-1"}, ABSENT, ABSENT, {"Token": "i-2"}], False),
            ex([{"State": "i-1"}, ABSENT, ABSENT, {"Token": "i-1"}], True),
        ],
        5,
    ),
]


@settings(max_examples=200, deadline=None)
@given(guard_sets())
@example(GUARD_SETS[0])
@example(GUARD_SETS[1])
def test_miss_heavy_guard_sets_give_the_reference_result(case):
    """Candidates that can only repeat a banked miss are counted without
    being evaluated; what is enumerated and found must not change."""
    kind, examples, max_size = case
    cfg = GrammarConfig(max_size=max_size)
    assert fields(synthesize(examples, kind, cfg)) == fields(
        reference.synthesize(examples, kind, cfg)
    )


def test_arguments_in_another_key_order_are_not_interchangeable():
    kind, examples, max_size = REORDERED_SETS[0]
    result = synthesize(examples, kind, GrammarConfig(max_size=max_size))
    assert result.expr == Descendants(Input(0), "k")


@settings(max_examples=300, deadline=None)
@given(example_sets())
@with_known_sets
def test_mined_pools_match_the_reference(case):
    _, examples, _ = case
    assert pool_fields(mine_pools(examples)) == pool_fields(reference.mine_pools(examples))


def twin(draw, v):
    """A value that may or may not dump like v: dict keys reversed, and
    scalars possibly swapped for a look-alike of another type or sign."""
    if isinstance(v, dict):
        return dict(reversed([(k, twin(draw, x)) for k, x in v.items()]))
    if isinstance(v, list):
        return [twin(draw, x) for x in v]
    looks = [v]
    if isinstance(v, float) and math.isnan(v):
        looks.append(float("nan"))
    elif isinstance(v, (bool, int, float)):
        looks += [float(v), -float(v)] if math.isfinite(v) else [-v]
        if float(v).is_integer():
            looks += [int(v), bool(v)]
    elif v is None:
        looks += ["n", [None]]
    return draw(st.sampled_from(looks))


any_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 2), st.floats(), st.sampled_from(["", "n", "a"])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), inner, max_size=3),
    ),
    max_leaves=6,
)


@st.composite
def value_pairs(draw):
    a = draw(any_values)
    return a, twin(draw, a) if draw(st.booleans()) else draw(any_values)


@settings(max_examples=400, deadline=None)
@given(value_pairs())
@example((True, 1))
@example((1, 1.0))
@example((True, 1.0))
@example(([None, {"a": None}], [None, {"a": None}]))
@example((None, [None]))
@example(({"a": 1, "b": [2]}, {"b": [2], "a": 1}))
@example((float("nan"), float("nan")))
@example(([float("nan")], [float("nan")]))
@example((-0.0, 0.0))
def test_structural_keys_are_equal_exactly_when_dumps_are(pair):
    a, b = pair
    keys = pbe._Keys()
    ka, kb = keys.of(a), keys.of(b)
    assert (ka == kb) == (canonical_dumps(a) == canonical_dumps(b))
    if ka == kb:
        assert hash(ka) == hash(kb)


def test_mining_a_10k_item_list_takes_linear_memory():
    ids = [f"i-{n:08x}" for n in range(10_000)]
    examples = [IOExample(args=(ids,), output=ids[:3])]
    tracemalloc.start()
    try:
        pools = mine_pools(examples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert len(pools.slices) == 50_005_000
    assert list(itertools.islice(pools.slices, 3)) == [(0, 1), (0, 2), (0, 3)]
    assert list(itertools.islice(pools.slices, 9_999, 10_001)) == [(0, 10_000), (1, 2)]


def test_the_reference_interpreter_has_the_final_word(monkeypatch):
    """A step that disagrees with eval_path cannot slip a wrong winner
    through: the winner is evaluated again before it is returned."""
    monkeypatch.setitem(pbe._STEPS, Child, lambda e, v: "forged")
    examples = [IOExample(args=({"k": 1},), output="forged")]
    with pytest.raises(RuntimeError):
        synthesize(examples, "value", GrammarConfig(max_size=3))


VALUE_SET = [IOExample(args=({"a": 5},), output=5), IOExample(args=({"a": 7},), output=7)]
FLAG_SET = [IOExample(args=({"s": "ok"},), output=True), IOExample(args=({"s": "no"},), output=False)]


@pytest.mark.parametrize("name", ["eval_path", "eval_bool", "mine_pools", "synthesize"])
def test_pbe_calls_its_helpers_through_module_globals(monkeypatch, name):
    """perfbench/tracer.py counts these calls by rebinding the names."""
    calls = []
    real = getattr(pbe, name)
    monkeypatch.setattr(pbe, name, lambda *a, **k: calls.append(name) or real(*a, **k))
    cfg = GrammarConfig(max_size=4)
    cache = ConstraintCache()
    assert cache.solve(VALUE_SET, "value", cfg).expr == Child(Input(0), "a")
    assert cache.solve(FLAG_SET, "bool", cfg).sat
    assert calls


def test_solving_never_dumps_a_value(monkeypatch):
    """The cache and the enumerator key values structurally; no value is
    serialized, at any of the names canonical_dumps is looked up by."""
    calls = []
    for module in (pbe, hidden, jsonvals):
        real = module.canonical_dumps
        monkeypatch.setattr(
            module, "canonical_dumps", lambda v, real=real: calls.append(v) or real(v)
        )
    cfg = GrammarConfig(max_size=4)
    cache = ConstraintCache()
    assert cache.solve(VALUE_SET, "value", cfg).expr == Child(Input(0), "a")
    assert cache.solve(FLAG_SET, "bool", cfg).sat
    assert cache.solve(list(reversed(FLAG_SET)), "bool", cfg).sat
    assert not cache.has_unsat(VALUE_SET, "bool")
    assert calls == []


# --- the walks that replaced recursion ---------------------------------------


def shared(draw, v):
    """v, or a list holding v twice, so one container is met twice."""
    return [v, v] if draw(st.booleans()) else v


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_iterative_walks_match_their_recursive_copies(data):
    values = data.draw(st.lists(any_values, min_size=1, max_size=4))
    values = [shared(data.draw, v) for v in values]
    values.append(copy.deepcopy(values[0]))
    new, old = pbe._Keys(), reference.Keys()
    assert [new.of(v) for v in values] == [old.of(v) for v in values]
    for v in values:
        assert jsonvals.structural_size(v) == reference.recursive_structural_size(v)
        keys, lengths, old_keys, old_lengths = {}, [], {}, []
        assert list(pbe._leaves(v, keys, lengths)) == list(
            reference.leaves(v, old_keys, old_lengths)
        )
        assert (list(keys), lengths) == (list(old_keys), old_lengths)


def nested(depth):
    value = {"deep": "leaf", "also": 1}
    for _ in range(depth):
        value = [{"k": value}]
    return value


def test_the_walks_take_any_depth():
    value = nested(5_000)
    assert jsonvals.structural_size(value) == 10_003
    keys, lengths = {}, []
    assert list(pbe._leaves(value, keys, lengths)) == ["leaf", 1]
    assert list(keys) == ["k", "deep", "also"] and len(lengths) == 5_000
    table = pbe._Keys()
    assert table.of(value) == table.of(nested(5_000)) != table.of(nested(4_999))


# --- the cache key -----------------------------------------------------------

# Values that dump alike or nearly so: NaN, -0.0, True against 1, 1
# against 1.0, objects whose keys come in another order.
look_alikes = st.recursive(
    st.sampled_from([None, True, False, 0, 1, 0.0, -0.0, 1.0, float("nan"), "", "1", "absent"]),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "c"]), inner, max_size=3),
    ),
    max_leaves=5,
)


@st.composite
def example_list_pairs(draw):
    """Two example lists, the second often the first with its examples
    reordered or repeated, and its values swapped for look-alikes."""
    kind = draw(st.sampled_from(["value", "bool"]))
    arity = draw(st.integers(1, 2))
    pool = draw(st.lists(st.one_of(look_alikes, st.just(ABSENT)), min_size=1, max_size=4))
    outputs = pool + [True, False] if kind == "value" else [True, False]

    def examples():
        return [
            IOExample(
                tuple(draw(st.sampled_from(pool)) for _ in range(arity)),
                draw(st.sampled_from(outputs)),
            )
            for _ in range(draw(st.integers(1, 4)))
        ]

    first = examples()
    if draw(st.integers(0, 3)) == 0:
        second = examples()
    else:
        second = [
            IOExample(
                tuple(twin(draw, a) if draw(st.booleans()) else a for a in e.args),
                twin(draw, e.output) if kind == "value" else e.output,
            )
            for e in first
        ]
        second = draw(st.permutations(second))
        if draw(st.booleans()):
            second.append(draw(st.sampled_from(second)))
    return kind, first, second


NAN = float("nan")


@settings(max_examples=500, deadline=None)
@given(example_list_pairs())
@example(("value", [ex([True], 1)], [ex([1], 1)]))
@example(("value", [ex([1], 1)], [ex([1.0], 1)]))
@example(("value", [ex([NAN], NAN)], [ex([float("nan")], float("nan"))]))
@example(("value", [ex([[-0.0]], 0.0)], [ex([[0.0]], -0.0)]))
@example(("value", [ex([{"a": 1, "b": [2]}], 1)], [ex([{"b": [2], "a": 1}], 1)]))
@example(("value", [ex([ABSENT], None)], [ex([None], None)]))
@example(("value", [ex([ABSENT], None)], [ex(["absent"], None)]))
@example(("bool", [ex([1], True), ex([1], True), ex([2], False)], [ex([1], True)] + [ex([2], False)] * 2))
@example(("bool", [ex([1], True), ex([2], False)], [ex([2], False), ex([1], True)]))
def test_examples_share_a_cache_entry_exactly_when_their_digests_agree(case):
    """The cache key splits example lists into the groups the sha256
    digest of their canonical_dumps did (tests/pbe_reference.py)."""
    kind, first, second = case
    cache = ConstraintCache()
    same = cache._key(first, kind) == cache._key(second, kind)
    assert same == (
        reference.constraint_digest(first, kind) == reference.constraint_digest(second, kind)
    )


def test_an_unsat_verdict_is_found_again_under_another_example_order():
    examples = [ex([{"a": 1, "b": 2}], "x"), ex([[-0.0]], "y")]
    cache = ConstraintCache()
    assert cache.solve(examples, "value", GrammarConfig(max_size=2)).status == "unsat"
    assert cache.has_unsat([ex([[0.0]], "y"), ex([{"b": 2, "a": 1}], "x")], "value")
    assert not cache.has_unsat([ex([[0]], "y"), ex([{"b": 2, "a": 1}], "x")], "value")


# --- the search table and the call table --------------------------------------


@settings(max_examples=400, deadline=None)
@given(value_pairs(), st.lists(any_values, max_size=3))
@example((float("nan"), float("nan")), [])
@example(([-0.0], [0.0]), [])
@example(({"a": [1], "b": 2}, {"b": 2, "a": [1]}), [[1]])
@example(([[True]], [[1]]), [[True]])
def test_call_table_keys_equal_search_table_keys_exactly_when_dumps_do(pair, others):
    """The search table keys a and some other values first; a call table
    made afterwards keys b, and every value once more."""
    a, b = pair
    search = pbe._Keys()
    ka = search.of(a)
    for v in others:
        search.of(v)
    call = pbe._Keys(search)
    kb = call.of(b)
    assert (ka == kb) == (canonical_dumps(a) == canonical_dumps(b))
    assert call.of(copy.deepcopy(a)) == ka
    for v in others:
        assert call.of(copy.deepcopy(v)) == search.of(v)
        assert (call.of(v) == kb) == (canonical_dumps(v) == canonical_dumps(b))


def containers(values):
    """Every list and dict in values, at any depth."""
    found, stack = [], list(values)
    while stack:
        v = stack.pop()
        if isinstance(v, (list, dict)):
            found.append(v)
            stack.extend(v.values() if isinstance(v, dict) else v)
    return found


def test_enumeration_outputs_stay_out_of_the_search_table():
    """`..key` and slice outputs are fresh lists; keying them in the
    search table would keep every one alive for the whole search."""
    examples = [
        IOExample(args=(items,), output=items[:2])
        for items in (
            [{"id": f"i-{n}", "v": n} for n in range(2_000)],
            [{"id": f"j-{n}", "v": -n} for n in range(2_000)],
        )
    ]
    cache = ConstraintCache()
    calls = []
    real_step = pbe._STEPS[Descendants]
    pbe._STEPS[Descendants] = lambda p, v: calls.append(p) or real_step(p, v)
    try:
        result = cache.solve(examples, "value", GrammarConfig(max_size=2))
    finally:
        pbe._STEPS[Descendants] = real_step
    assert result.expr == Slice(Input(0), 0, 2)
    assert calls
    held = [c for c, _ in cache.keys._by_id.values()]
    expected = containers([ex.args[0] for ex in examples] + [ex.output for ex in examples])
    assert {id(c) for c in held} == {id(c) for c in expected}
