"""Canonical JSON comparison, sizing, and the absent marker."""

from tracesynth.hidden import ConstVal, Eq, Input
from tracesynth.jsonvals import (
    ABSENT,
    canonical_dumps,
    canonical_eq,
    is_absent,
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
