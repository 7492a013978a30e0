"""Pure data-transformation language for hidden functions.

A hidden function takes JSON arguments (slots $0..$n-1) and returns a
JSON value or a boolean. Evaluation is total: selector misses and type
mismatches produce null rather than errors, so candidate bodies can be
scored on any example.

Path layer:    slot, .key child, ..key descendants, [i] index,
               [i:j] slice, length(e), int + e, "str" + e
Bool layer:    e == literal, empty(e), !(b), b && b
Value extras:  scalar constants and [e, ...] list construction
               (used by parsed bodies; the synthesizer does not
               enumerate bare constants).

This module holds the nodes, their evaluator and their printer;
parser.py reads the printed form, in a script's `where` section.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import attrgetter
from typing import Tuple

from .jsonvals import ABSENT, canonical_dumps, canonical_eq, dumps_pretty, is_int


class HiddenEvalError(Exception):
    pass


@dataclass(frozen=True)
class Input:
    slot: int


@dataclass(frozen=True)
class Child:
    base: object
    key: str


@dataclass(frozen=True)
class Descendants:
    base: object
    key: str


@dataclass(frozen=True)
class Index:
    base: object
    i: int


@dataclass(frozen=True)
class Slice:
    base: object
    i: int
    j: int


@dataclass(frozen=True)
class Length:
    base: object


@dataclass(frozen=True)
class Add:
    const: int
    base: object


@dataclass(frozen=True)
class Concat:
    const: str
    base: object


@dataclass(frozen=True, eq=False)
class ConstVal:
    """Equality must stay strict-typed: Python's == lets True equal 1,
    which would let structurally different literals compare equal."""

    value: object

    def __eq__(self, other):
        if not isinstance(other, ConstVal):
            return NotImplemented
        return canonical_eq(self.value, other.value)

    def __hash__(self):
        return hash(("constval", canonical_dumps(self.value)))


@dataclass(frozen=True)
class MakeList:
    items: Tuple[object, ...]


@dataclass(frozen=True, eq=False)
class Eq:
    base: object
    const: object

    # Same strict-typed equality concern as ConstVal.
    def __eq__(self, other):
        if not isinstance(other, Eq):
            return NotImplemented
        return self.base == other.base and canonical_eq(self.const, other.const)

    def __hash__(self):
        return hash(("eq", self.base, canonical_dumps(self.const)))


@dataclass(frozen=True)
class Empty:
    base: object


@dataclass(frozen=True)
class Not:
    inner: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


BOOL_NODES = (Eq, Empty, Not, And)


@dataclass(frozen=True)
class HiddenFnBody:
    arity: int
    body: object

    def returns_bool(self) -> bool:
        return isinstance(self.body, BOOL_NODES)


def _descend(v, key, out):
    if isinstance(v, dict):
        for k, val in v.items():
            if k == key:
                out.append(val)
            _descend(val, key, out)
    elif isinstance(v, list):
        for item in v:
            _descend(item, key, out)


# One step per operator: the value of e given its parameter p and v, the
# value of e.base. The parameter is the node's key, index, (i, j) bounds
# or constant, or None (_STEP_PARAMS reads it off a node). eval_path and
# eval_bool recurse through these, and the enumerator applies them to the
# stored values of a candidate's base before it builds the node.


def _child(key, v):
    if isinstance(v, dict) and key in v:
        return v[key]
    return None


def _descendants(key, v):
    out = []
    _descend(v, key, out)
    return out


def _index(i, v):
    if isinstance(v, list) and 0 <= i < len(v):
        return v[i]
    return None


def _slice(ij, v):
    if isinstance(v, list):
        return v[ij[0] : ij[1]]
    return None


def _length(_, v):
    if isinstance(v, (list, str, dict)):
        return len(v)
    return None


def _add(const, v):
    if is_int(v):
        try:
            return const + v
        except OverflowError:  # a float and an int too large for one
            pass
    return None


def _concat(const, v):
    if isinstance(v, str):
        return const + v
    return None


def _eq(const, v) -> bool:
    return canonical_eq(v, const)


def _empty(_, v) -> bool:
    if v is None:
        return True
    if isinstance(v, (str, list, dict)):
        return len(v) == 0
    return False


def _no_param(_):
    return None


PATH_STEPS = {
    Child: _child,
    Descendants: _descendants,
    Index: _index,
    Slice: _slice,
    Length: _length,
    Add: _add,
    Concat: _concat,
}
BOOL_STEPS = {Eq: _eq, Empty: _empty}


# Each step that takes a parameter has a miss rule (miss, hits): miss is
# its value on a value it does not apply to, and hits(values) holds every
# parameter that may give something else on one of values. So a
# parameter outside hits(values) gives miss on every one of them, and
# the enumerator counts such candidates without evaluating them. Length
# and Empty take no parameter, so they have no rule.


def _child_hits(values):
    """The keys of the values that are objects."""
    return {k for v in values if isinstance(v, dict) for k in v}


def _descendants_hits(values):
    """The keys of every object at any depth of the values, walked off an
    explicit stack. JSON keys are strings, so membership agrees with
    _descend's k == key."""
    keys, stack = set(), list(values)
    while stack:
        v = stack.pop()
        if isinstance(v, dict):
            keys.update(v)
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
    return keys


def _index_hits(values):
    """The indices of the longest list among the values."""
    return range(max([len(v) for v in values if isinstance(v, list)], default=0))


class _Every:
    """The hits of a step that applies to a value whatever the parameter."""

    def __contains__(self, _):
        return True


EVERY = _Every()


def _every_if(applies):
    """The hits of a step that applies to a value v, whatever the
    parameter, when applies(v): every parameter if one of the values
    does, else none."""
    return lambda values: EVERY if any(applies(v) for v in values) else ()


def _eq_hits(values):
    """The values themselves: a constant canonical_eq to a value is also
    == to it, so `in` finds it. The enumerator, whose Eq compares keys,
    passes the values' keys and tests the constant's key."""
    return values


MISSES = {
    Child: (None, _child_hits),
    Descendants: ([], _descendants_hits),
    Index: (None, _index_hits),
    Slice: (None, _every_if(lambda v: isinstance(v, list))),
    Add: (None, _every_if(is_int)),
    Concat: (None, _every_if(lambda v: isinstance(v, str))),
    Eq: (False, _eq_hits),
}
_STEP_PARAMS = {
    Child: attrgetter("key"),
    Descendants: attrgetter("key"),
    Index: attrgetter("i"),
    Slice: attrgetter("i", "j"),
    Length: _no_param,
    Add: attrgetter("const"),
    Concat: attrgetter("const"),
    Eq: attrgetter("const"),
    Empty: _no_param,
}


def eval_path(e, args):
    """Evaluate a path/value expression; misses yield None."""
    step = PATH_STEPS.get(type(e))
    if step is not None:
        return step(_STEP_PARAMS[type(e)](e), eval_path(e.base, args))
    if isinstance(e, Input):
        if not 0 <= e.slot < len(args):
            raise HiddenEvalError(f"slot {e.slot} out of range for arity {len(args)}")
        v = args[e.slot]
        return None if v is ABSENT else v
    if isinstance(e, ConstVal):
        return e.value
    if isinstance(e, MakeList):
        return [eval_path(item, args) for item in e.items]
    raise HiddenEvalError(f"not a path expression: {e!r}")


def eval_bool(e, args) -> bool:
    step = BOOL_STEPS.get(type(e))
    if step is not None:
        return step(_STEP_PARAMS[type(e)](e), eval_path(e.base, args))
    if isinstance(e, Not):
        return not eval_bool(e.inner, args)
    if isinstance(e, And):
        return eval_bool(e.left, args) and eval_bool(e.right, args)
    raise HiddenEvalError(f"not a boolean expression: {e!r}")


def eval_hidden(f: HiddenFnBody, args):
    if len(args) != f.arity:
        raise HiddenEvalError(f"arity mismatch: expected {f.arity}, got {len(args)}")
    if f.returns_bool():
        return eval_bool(f.body, args)
    return eval_path(f.body, args)


def expr_uses_input(e) -> bool:
    """Whether any input slot feeds the expression."""
    if isinstance(e, Input):
        return True
    if isinstance(e, (Child, Descendants, Index, Slice, Length, Add, Concat, Eq, Empty)):
        return expr_uses_input(e.base)
    if isinstance(e, Not):
        return expr_uses_input(e.inner)
    if isinstance(e, And):
        return expr_uses_input(e.left) or expr_uses_input(e.right)
    if isinstance(e, MakeList):
        return any(expr_uses_input(x) for x in e.items)
    return False


def expr_size(e) -> int:
    """Candidate size: operators and slots cost 1, keys/indices are free,
    constant values cost their structural node count."""
    from .jsonvals import structural_size

    if isinstance(e, Input):
        return 1
    if isinstance(e, (Child, Descendants, Index, Length, Empty, Not)):
        base = e.inner if isinstance(e, Not) else e.base
        return 1 + expr_size(base)
    if isinstance(e, Slice):
        return 1 + expr_size(e.base)
    if isinstance(e, (Add, Concat)):
        return 1 + expr_size(e.base) + 1
    if isinstance(e, ConstVal):
        return structural_size(e.value)
    if isinstance(e, MakeList):
        return 1 + sum(expr_size(x) for x in e.items)
    if isinstance(e, Eq):
        return 1 + expr_size(e.base) + structural_size(e.const)
    if isinstance(e, And):
        return 1 + expr_size(e.left) + expr_size(e.right)
    raise HiddenEvalError(f"not an expression: {e!r}")


# ---------------------------------------------------------------------------
# printing

def is_ident(s: str) -> bool:
    """Whether the script tokenizer reads s as one identifier."""
    return bool(s) and (s[0].isalpha() or s[0] == "_") and all(c.isalnum() or c == "_" for c in s)


def key_text(key: str, bare=is_ident) -> str:
    """A name as script text: as it is where bare(key) holds, that is
    where the parser reads it as a name, else as a JSON string."""
    return key if bare(key) else json.dumps(key)


def _argname(i: int) -> str:
    return f"a{i}"


def print_expr(e) -> str:
    """Render an expression, naming input slot i a<i>."""
    if isinstance(e, Input):
        return _argname(e.slot)
    if isinstance(e, (Child, Descendants, Index, Slice)):
        base = print_expr(e.base)
        # Unbracketed, 1 + a0.x would read back as 1 + (a0.x), and
        # {"a": 1}.a would not read back at all.
        if isinstance(e.base, (Add, Concat, ConstVal)):
            base = f"({base})"
        if isinstance(e, Child):
            return f"{base}.{key_text(e.key)}"
        if isinstance(e, Descendants):
            return f"{base}..{key_text(e.key)}"
        if isinstance(e, Index):
            return f"{base}[{e.i}]"
        return f"{base}[{e.i}:{e.j}]"
    if isinstance(e, Length):
        return f"length({print_expr(e.base)})"
    if isinstance(e, Add):
        return f"{e.const} + {print_expr(e.base)}"
    if isinstance(e, Concat):
        return f"{json.dumps(e.const)} + {print_expr(e.base)}"
    if isinstance(e, ConstVal):
        return dumps_pretty(e.value)
    if isinstance(e, MakeList):
        return "[" + ", ".join(print_expr(x) for x in e.items) + "]"
    if isinstance(e, Eq):
        return f"{print_expr(e.base)} == {dumps_pretty(e.const)}"
    if isinstance(e, Empty):
        return f"empty({print_expr(e.base)})"
    if isinstance(e, Not):
        return f"!({print_expr(e.inner)})"
    if isinstance(e, And):
        left = print_expr(e.left)
        right = print_expr(e.right)
        if isinstance(e.left, And):
            left = f"({left})"
        if isinstance(e.right, And):
            right = f"({right})"
        return f"{left} && {right}"
    raise HiddenEvalError(f"not an expression: {e!r}")


def print_hidden_fn(f: HiddenFnBody) -> str:
    args = ", ".join(_argname(i) for i in range(f.arity))
    return f"({args}) -> {print_expr(f.body)}"
