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
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Tuple

from .jsonvals import ABSENT, canonical_dumps, canonical_eq, dumps_pretty, is_int


class HiddenEvalError(Exception):
    pass


class HiddenParseError(Exception):
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


# One step per operator: the value of e given v, the value of e.base.
# eval_path/eval_bool recurse through these, and the enumerator applies
# them to the stored values of a candidate's base.


def _child(e, v):
    if isinstance(v, dict) and e.key in v:
        return v[e.key]
    return None


def _descendants(e, v):
    out = []
    _descend(v, e.key, out)
    return out


def _index(e, v):
    if isinstance(v, list) and 0 <= e.i < len(v):
        return v[e.i]
    return None


def _slice(e, v):
    if isinstance(v, list):
        return v[e.i : e.j]
    return None


def _length(e, v):
    if isinstance(v, (list, str, dict)):
        return len(v)
    return None


def _add(e, v):
    if is_int(v):
        return e.const + v
    return None


def _concat(e, v):
    if isinstance(v, str):
        return e.const + v
    return None


def _eq(e, v) -> bool:
    return canonical_eq(v, e.const)


def _empty(e, v) -> bool:
    if v is None:
        return True
    if isinstance(v, (str, list, dict)):
        return len(v) == 0
    return False


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


def eval_path(e, args):
    """Evaluate a path/value expression; misses yield None."""
    step = PATH_STEPS.get(type(e))
    if step is not None:
        return step(e, eval_path(e.base, args))
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
        return step(e, eval_path(e.base, args))
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

_IDENT_OK = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _is_ident(s: str) -> bool:
    return bool(s) and not s[0].isdigit() and all(c in _IDENT_OK for c in s)


def _key_text(key: str) -> str:
    return key if _is_ident(key) else json.dumps(key)


def _argname(i: int) -> str:
    return f"a{i}"


def print_expr(e, names=None) -> str:
    """Render an expression; names maps slot index to display name."""

    def nm(i):
        return names[i] if names else _argname(i)

    if isinstance(e, Input):
        return nm(e.slot)
    if isinstance(e, Child):
        return f"{print_expr(e.base, names)}.{_key_text(e.key)}"
    if isinstance(e, Descendants):
        return f"{print_expr(e.base, names)}..{_key_text(e.key)}"
    if isinstance(e, Index):
        return f"{print_expr(e.base, names)}[{e.i}]"
    if isinstance(e, Slice):
        return f"{print_expr(e.base, names)}[{e.i}:{e.j}]"
    if isinstance(e, Length):
        return f"length({print_expr(e.base, names)})"
    if isinstance(e, Add):
        return f"{e.const} + {print_expr(e.base, names)}"
    if isinstance(e, Concat):
        return f"{json.dumps(e.const)} + {print_expr(e.base, names)}"
    if isinstance(e, ConstVal):
        return dumps_pretty(e.value)
    if isinstance(e, MakeList):
        return "[" + ", ".join(print_expr(x, names) for x in e.items) + "]"
    if isinstance(e, Eq):
        return f"{print_expr(e.base, names)} == {dumps_pretty(e.const)}"
    if isinstance(e, Empty):
        return f"empty({print_expr(e.base, names)})"
    if isinstance(e, Not):
        return f"!({print_expr(e.inner, names)})"
    if isinstance(e, And):
        left = print_expr(e.left, names)
        right = print_expr(e.right, names)
        if isinstance(e.left, And):
            left = f"({left})"
        if isinstance(e.right, And):
            right = f"({right})"
        return f"{left} && {right}"
    raise HiddenEvalError(f"not an expression: {e!r}")


def print_hidden_fn(f: HiddenFnBody) -> str:
    args = ", ".join(_argname(i) for i in range(f.arity))
    return f"({args}) -> {print_expr(f.body)}"


# ---------------------------------------------------------------------------
# parsing

_PUNCT = ("->", "..", "==", "&&", "(", ")", "[", "]", "{", "}", ",", ":", ".", "+", "!")


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c == '"':
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                j += 1
            if j >= n:
                raise HiddenParseError("unterminated string literal")
            toks.append(("str", json.loads(text[i : j + 1])))
            i = j + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE+-"):
                if text[j] in "+-" and text[j - 1] not in "eE":
                    break
                j += 1
            lit = text[i:j]
            toks.append(("num", json.loads(lit)))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j]))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(("punct", p))
                i += len(p)
                break
        else:
            raise HiddenParseError(f"unexpected character {c!r} at offset {i}")
    toks.append(("end", None))
    return toks


class _P:
    def __init__(self, toks, argnames):
        self.toks = toks
        self.pos = 0
        self.args = {name: i for i, name in enumerate(argnames)}

    def peek(self):
        return self.toks[self.pos]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, kind, val=None):
        k, v = self.next()
        if k != kind or (val is not None and v != val):
            raise HiddenParseError(f"expected {val or kind}, got {v!r}")
        return v

    def at_punct(self, p):
        k, v = self.peek()
        return k == "punct" and v == p

    # -- JSON literal (used for Eq right sides and scalar constants)
    def json_literal(self):
        k, v = self.next()
        if k in ("str", "num"):
            return v
        if k == "ident" and v in ("true", "false", "null"):
            return {"true": True, "false": False, "null": None}[v]
        if k == "punct" and v == "[":
            items = []
            if not self.at_punct("]"):
                while True:
                    items.append(self.json_literal())
                    if self.at_punct(","):
                        self.next()
                        continue
                    break
            self.expect("punct", "]")
            return items
        if k == "punct" and v == "{":
            obj = {}
            if not self.at_punct("}"):
                while True:
                    kk, kv = self.next()
                    if kk != "str":
                        raise HiddenParseError("object keys must be strings")
                    self.expect("punct", ":")
                    obj[kv] = self.json_literal()
                    if self.at_punct(","):
                        self.next()
                        continue
                    break
            self.expect("punct", "}")
            return obj
        raise HiddenParseError(f"expected a JSON literal, got {v!r}")

    # -- boolean layer
    def bool_expr(self):
        node = self.bool_term()
        while self.at_punct("&&"):
            self.next()
            node = And(node, self.bool_term())
        return node

    def bool_term(self):
        k, v = self.peek()
        if k == "punct" and v == "!":
            self.next()
            self.expect("punct", "(")
            inner = self.bool_expr()
            self.expect("punct", ")")
            return Not(inner)
        if k == "ident" and v == "empty":
            self.next()
            self.expect("punct", "(")
            base = self.value_expr()
            self.expect("punct", ")")
            return Empty(base)
        base = self.value_expr()
        self.expect("punct", "==")
        return Eq(base, self.json_literal())

    # -- body: boolean if it uses ==, empty or !, otherwise a value
    def body(self):
        k, v = self.peek()
        if (k == "punct" and v == "!") or (k == "ident" and v == "empty"):
            return self.bool_expr()
        node = self.value_expr()
        if self.at_punct("=="):
            self.next()
            node = Eq(node, self.json_literal())
            while self.at_punct("&&"):
                self.next()
                node = And(node, self.bool_term())
        return node

    # -- value layer
    def value_expr(self):
        k, v = self.peek()
        if (
            k in ("str", "num")
            or (k == "ident" and v in ("true", "false", "null"))
            or (k == "punct" and v == "{")
        ):
            lit = self.json_literal()
            if self.at_punct("+"):
                self.next()
                base = self.value_expr()
                if is_int(lit):
                    return Add(lit, base)
                if isinstance(lit, str):
                    return Concat(lit, base)
                raise HiddenParseError("+ needs an int or string constant on the left")
            return ConstVal(lit)
        return self.postfix()

    def postfix(self):
        k, v = self.next()
        if k == "ident" and v == "length":
            self.expect("punct", "(")
            node = Length(self.value_expr())
            self.expect("punct", ")")
        elif k == "ident":
            if v not in self.args:
                raise HiddenParseError(f"unknown argument name {v!r}")
            node = Input(self.args[v])
        elif k == "punct" and v == "(":
            node = self.value_expr()
            self.expect("punct", ")")
        elif k == "punct" and v == "[":
            items = []
            if not self.at_punct("]"):
                while True:
                    items.append(self.value_expr())
                    if self.at_punct(","):
                        self.next()
                        continue
                    break
            self.expect("punct", "]")
            node = MakeList(tuple(items))
        else:
            raise HiddenParseError(f"unexpected token {v!r}")
        return self.trailers(node)

    def trailers(self, node):
        while True:
            if self.at_punct("."):
                self.next()
                node = Child(node, self.key_token())
            elif self.at_punct(".."):
                self.next()
                node = Descendants(node, self.key_token())
            elif self.at_punct("["):
                self.next()
                k, v = self.next()
                if k != "num" or not is_int(v):
                    raise HiddenParseError("index must be an integer")
                if self.at_punct(":"):
                    self.next()
                    k2, v2 = self.next()
                    if k2 != "num" or not is_int(v2):
                        raise HiddenParseError("slice bound must be an integer")
                    self.expect("punct", "]")
                    node = Slice(node, v, v2)
                else:
                    self.expect("punct", "]")
                    node = Index(node, v)
            else:
                return node

    def key_token(self):
        k, v = self.next()
        if k == "ident":
            return v
        if k == "str":
            return v
        raise HiddenParseError(f"expected a key, got {v!r}")


def parse_hidden_fn(text: str) -> HiddenFnBody:
    """Parse "(a0, a1) -> body" into a HiddenFnBody."""
    toks = _tokenize(text)
    pos = 0
    if toks[pos] != ("punct", "("):
        raise HiddenParseError("hidden function must start with an argument list")
    pos += 1
    argnames = []
    if toks[pos] != ("punct", ")"):
        while True:
            k, v = toks[pos]
            if k != "ident":
                raise HiddenParseError("argument names must be identifiers")
            argnames.append(v)
            pos += 1
            if toks[pos] == ("punct", ","):
                pos += 1
                continue
            break
    if toks[pos] != ("punct", ")"):
        raise HiddenParseError("unterminated argument list")
    pos += 1
    if toks[pos] != ("punct", "->"):
        raise HiddenParseError("expected -> after argument list")
    pos += 1
    if len(set(argnames)) != len(argnames):
        raise HiddenParseError("duplicate argument name")
    p = _P(toks[pos:], argnames)
    body = p.body()
    if p.peek()[0] != "end":
        raise HiddenParseError(f"trailing tokens after body: {p.peek()[1]!r}")
    return HiddenFnBody(arity=len(argnames), body=body)
