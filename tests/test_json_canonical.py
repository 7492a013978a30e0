"""Canonical JSON comparison, sizing, and the absent marker."""

import math

from hypothesis import given, settings, strategies as st

from tracesynth.hidden import ConstVal, Eq, Input
from tracesynth.jsonvals import (
    ABSENT,
    canonical_dumps,
    canonical_eq,
    is_absent,
    is_int,
    structural_size,
)


def test_number_types_are_strict():
    assert canonical_eq(1, 1)
    assert canonical_eq(1.5, 1.5)
    assert not canonical_eq(1, 1.0)
    assert not canonical_eq({"n": 2}, {"n": 2.0})
    assert not canonical_eq(1, 2)


def test_bools_are_not_numbers():
    assert not canonical_eq(True, 1)
    assert not canonical_eq(False, 0)
    assert canonical_eq(True, True)


def test_dict_key_order_is_irrelevant():
    assert canonical_eq({"a": 1, "b": [2]}, {"b": [2], "a": 1})


def test_list_order_matters():
    assert not canonical_eq([1, 2], [2, 1])


def test_nested_structures():
    a = {"x": [{"y": 1, "z": None}], "w": "s"}
    b = {"w": "s", "x": [{"z": None, "y": 1}]}
    assert canonical_eq(a, b)
    assert not canonical_eq(a, {"w": "s", "x": [{"z": None, "y": 1, "q": 0}]})


def test_canonical_dumps_is_order_insensitive_and_type_tagged():
    assert canonical_dumps({"a": 2, "b": 1}) == canonical_dumps({"b": 1, "a": 2})
    assert canonical_dumps(1) != canonical_dumps(1.0)
    assert canonical_dumps(True) != canonical_dumps(1)
    assert canonical_dumps([1, 2]) != canonical_dumps([2, 1])


def test_float_zeros_of_either_sign_dump_and_hash_alike():
    # canonical_eq(-0.0, 0.0) holds, so everything keyed by the dump
    # must agree, or equal literal nodes would hash apart.
    assert canonical_eq(-0.0, 0.0)
    assert canonical_dumps(-0.0) == canonical_dumps(0.0)
    assert canonical_dumps({"z": [-0.0]}) == canonical_dumps({"z": [0.0]})
    assert canonical_dumps(-0.0) != canonical_dumps(0)
    assert ConstVal(-0.0) == ConstVal(0.0)
    assert hash(ConstVal(-0.0)) == hash(ConstVal(0.0))
    assert hash(Eq(Input(0), [-0.0])) == hash(Eq(Input(0), [0.0]))
    assert len({Eq(Input(0), -0.0), Eq(Input(0), 0.0)}) == 1


def test_structural_size_scalars():
    assert structural_size(5) == 1
    assert structural_size("s") == 1
    assert structural_size(None) == 1
    assert structural_size(True) == 1


def test_structural_size_containers():
    assert structural_size([1, 2, 3]) == 4
    assert structural_size({"a": 1}) == 2
    assert structural_size({"a": {"b": [1]}}) == 4
    assert structural_size([]) == 1
    assert structural_size({}) == 1


def test_absent_is_a_singleton_and_not_json():
    assert is_absent(ABSENT)
    assert not is_absent(None)
    assert not is_absent(0)
    assert ABSENT is type(ABSENT)()
    assert not canonical_eq(ABSENT, None)
    assert canonical_eq(ABSENT, ABSENT)


def recursive_canonical_eq(a, b) -> bool:
    """canonical_eq as it was before it walked an explicit stack, kept
    verbatim as the reference its verdicts are tested against."""
    if a is ABSENT or b is ABSENT:
        return a is b
    if isinstance(a, bool) or isinstance(b, bool):
        return isinstance(a, bool) and isinstance(b, bool) and a == b
    if is_int(a) or is_int(b):
        return is_int(a) and is_int(b) and a == b
    if isinstance(a, float) or isinstance(b, float):
        return isinstance(a, float) and isinstance(b, float) and a == b
    if isinstance(a, str) or isinstance(b, str):
        return isinstance(a, str) and isinstance(b, str) and a == b
    if a is None or b is None:
        return a is None and b is None
    if isinstance(a, list) or isinstance(b, list):
        if not (isinstance(a, list) and isinstance(b, list)):
            return False
        return len(a) == len(b) and all(recursive_canonical_eq(x, y) for x, y in zip(a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        if set(a.keys()) != set(b.keys()):
            return False
        return all(recursive_canonical_eq(a[k], b[k]) for k in a)
    return False


# Few distinct scalars, so that equal values and the cross-type near
# misses (1, 1.0, True; 0.0, -0.0, 0, False; NaN) are drawn often.
SCALARS = st.sampled_from(
    [None, True, False, 0, 1, 2, 0.0, -0.0, 1.0, 2.5, math.nan, math.inf, "", "a", "1", ABSENT]
)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from("abc"), inner, max_size=3),
    max_leaves=12,
)


def reordered(v):
    """v with every object's keys in reverse order, rebuilt all through,
    so no container of v is shared."""
    if isinstance(v, list):
        return [reordered(x) for x in v]
    if isinstance(v, dict):
        return {k: reordered(v[k]) for k in reversed(list(v))}
    return v


@settings(max_examples=400, deadline=None)
@given(JSON, JSON)
def test_canonical_eq_gives_the_recursive_verdicts(a, b):
    for x, y in ((a, b), (a, reordered(a)), (a, a), ([a], [reordered(b)]), ({"k": a}, {"k": b})):
        assert canonical_eq(x, y) == recursive_canonical_eq(x, y), (x, y)
        assert canonical_eq(y, x) == recursive_canonical_eq(y, x), (y, x)


def test_canonical_eq_keeps_its_verdicts_on_the_edge_cases():
    nan = math.nan
    assert not canonical_eq(nan, nan)
    assert not canonical_eq([nan], [nan])
    shared = [nan]
    assert not canonical_eq(shared, shared)
    assert not canonical_eq(True, 1) and not canonical_eq(1, 1.0) and not canonical_eq(0.0, False)
    assert canonical_eq(-0.0, 0.0) and canonical_eq([-0.0], [0.0])
    assert canonical_eq({"a": 1, "b": {"c": 2, "d": 3}}, {"b": {"d": 3, "c": 2}, "a": 1})
    assert not canonical_eq([1], {"0": 1}) and not canonical_eq({}, [])
    assert not canonical_eq([None], [ABSENT])


def test_canonical_eq_compares_values_nested_past_the_recursion_limit():
    def nested(depth, leaf):
        v = leaf
        for _ in range(depth):
            v = [{"k": v}]
        return v

    assert canonical_eq(nested(5000, 1), nested(5000, 1))
    assert not canonical_eq(nested(5000, 1), nested(5000, 1.0))
    assert not canonical_eq(nested(5000, 1), nested(4999, [1]))
