"""JSON value helpers shared across the package.

Values are whatever json.loads produces: None, bool, int, float, str,
list, dict. Equality is canonical: object key order is irrelevant, array
order matters, and there is no type coercion (True != 1, 1 != "1",
1 != 1.0).
"""

from __future__ import annotations

import json
from typing import Any

JsonValue = Any


class _Absent:
    """Sentinel for "no value was recorded here", distinct from JSON null."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "<absent>"


ABSENT = _Absent()


def is_absent(v) -> bool:
    return v is ABSENT


def is_int(v) -> bool:
    """True for ints that are not bools (Python bools subclass int)."""
    return isinstance(v, int) and not isinstance(v, bool)


# The scalar types of json.loads, compared with == when both sides have
# the same one.
_SCALAR_TYPES = (str, int, float, bool, type(None))


def _leaf_eq(a, b) -> bool:
    """canonical_eq where a is not a container: True when both are the
    same scalar type and ==, or both are ABSENT."""
    t = type(a)
    return t is type(b) and (a == b if t in _SCALAR_TYPES else a is ABSENT)


def canonical_eq(a, b) -> bool:
    """Structural JSON equality with strict types.

    Dict key order is ignored; list order is significant; bool, int,
    float and str never compare equal across types. Containers are
    compared off an explicit stack, so nesting depth is unbounded.
    """
    if not isinstance(a, (list, dict)):
        return _leaf_eq(a, b)
    stack = [(a, b)]  # pairs still to compare
    while stack:
        a, b = stack.pop()
        if isinstance(a, list):
            if not (isinstance(b, list) and len(a) == len(b)):
                return False
            stack.extend(zip(a, b))
        elif isinstance(a, dict):
            if not (isinstance(b, dict) and a.keys() == b.keys()):
                return False
            stack.extend((a[k], b[k]) for k in a)
        elif not _leaf_eq(a, b):
            return False
    return True


def _tag(v):
    if v is ABSENT:
        return "<absent>"
    if isinstance(v, bool):
        return ("b", v)
    if is_int(v):
        return ("i", v)
    if isinstance(v, float):
        # -0.0 == 0.0, so both must dump alike.
        return ("f", 0.0 if v == 0 else v)
    if isinstance(v, str):
        return ("s", v)
    if v is None:
        return "n"
    if isinstance(v, list):
        return ["l"] + [_tag(x) for x in v]
    if isinstance(v, dict):
        return ["d"] + sorted(([k, _tag(x)] for k, x in v.items()), key=lambda p: p[0])
    raise TypeError(f"not a JSON value: {v!r}")


def canonical_dumps(v) -> str:
    """Deterministic string key for a value; equal iff canonical_eq,
    except that every NaN dumps alike although canonical_eq equates no
    NaN with anything."""
    return json.dumps(_tag(v), sort_keys=False, separators=(",", ":"))


def structural_size(v) -> int:
    """Node count of a JSON value: scalars 1, containers 1 + members.
    Counts off an explicit stack, so nesting depth is unbounded."""
    if not isinstance(v, (list, dict)):
        return 1
    n = 0
    stack = [v]
    while stack:
        x = stack.pop()
        n += 1
        if isinstance(x, list):
            stack.extend(x)
        elif isinstance(x, dict):
            stack.extend(x.values())
    return n


def dumps_pretty(v) -> str:
    """Literal syntax used by the program printer (insertion order kept)."""
    return json.dumps(v, separators=(", ", ": "), sort_keys=False)
