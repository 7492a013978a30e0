"""Text form of programs.

The concrete syntax is whitespace-insensitive, the `where` section
included; a hidden-function definition ends where the next `name :=`
begins:

    LAMBDA f_2. lambda p_1.
      let x = ec2.StopInstances(InstanceIds=p_1, force=false)
      if b { let y = ec2.StopInstances(InstanceIds=p_1, force=true) }
      retry loop_1 { let d = api.Poll(arg=p_1) } until s
      for loop_2 (u) in members { let g = api.Fetch(user=u) }
      return
    where
      f_1 := (a0) -> a0..id[0]

An expression `(p) ? a : b` is a if the predicate p holds, else b. A
right-nested chain `(p) ? a : (q) ? b : c` reads as one dsl.Select with
a case per predicate, in a loop that does not recurse along the chain.

Whether `let v = name(...)` is a visible call or a hidden-function call
is decided by the name: names declared in the LAMBDA prefix or the
where section are hidden, everything else (dotted or not) is visible.
An API name or argument key that is not written as a name is a JSON
string, as in `let v = "s3:GetObject"("Content-Type"="text/plain")`.
One tokenizer and one token cursor serve both the script grammar and
the helper-function grammar of hidden.py's nodes.
"""

from __future__ import annotations

import json
import math
from typing import Tuple

from .dsl import (
    COMPARE_OPS,
    Compare,
    Const,
    DslError,
    Foreach,
    HiddenCall,
    Ite,
    LetHidden,
    LetVisible,
    PAnd,
    PFalse,
    PNot,
    POr,
    PTrue,
    Program,
    Return,
    RetryUntil,
    Select,
    ValueCheck,
    VarRef,
    map_instrs,
    validate_program,
)
from .hidden import (
    BOOL_NODES,
    Add,
    And,
    Child,
    Concat,
    ConstVal,
    Descendants,
    Empty,
    Eq,
    HiddenFnBody,
    Index,
    Input,
    Length,
    MakeList,
    Not,
    Slice,
)
from .jsonvals import is_int


class ParseError(Exception):
    pass


_PUNCT = (
    ":=",
    "->",
    "..",
    "==",
    ">=",
    "<=",
    "&&",
    "||",
    "(",
    ")",
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    ".",
    "=",
    ">",
    "<",
    "?",
    "!",
    "-",
    "+",
)

_KEYWORDS = {"lambda", "LAMBDA", "let", "if", "else", "retry", "until", "for", "in",
             "return", "where", "true", "false", "null"}


def _literal(text: str, i: int, j: int):
    """The JSON string or number text[i:j]. A number must be finite: a
    non-finite one would print as a name."""
    try:
        v = json.loads(text[i:j])
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError
        return v
    except ValueError:
        raise ParseError(f"bad literal {text[i:j]!r} at offset {i}") from None


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
                raise ParseError(f"unterminated string literal at offset {i}")
            toks.append(("str", _literal(text, i, j + 1), i))
            i = j + 1
            continue
        if c.isdigit() or (c == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and (text[j].isdigit() or text[j] in ".eE"):
                j += 1
            if j < n and text[j] in "+-" and text[j - 1] in "eE":
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            toks.append(("num", _literal(text, i, j), i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], i))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                toks.append(("punct", p, i))
                i += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r} at offset {i}")
    toks.append(("end", None, n))
    return toks


class _RawLet:
    """let statement before visible/hidden resolution. The conditionals
    and loops built around it take their subtree counts from it; they
    are rebuilt around the resolved lets by map_instrs, so these counts
    are never read."""

    n_statements = 0
    n_br = 0

    def __init__(self, var, name, args):
        self.var = var
        self.name = name
        self.args = args  # list of (key, expr); key is None if positional


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.loop_counter = 0
        self.slots = {}  # argument name -> slot, in a hidden definition

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def at(self, kind, val=None):
        k, v, _ = self.peek()
        return k == kind and (val is None or v == val)

    def expect(self, kind, val=None):
        k, v, off = self.next()
        if k != kind or (val is not None and v != val):
            raise ParseError(f"expected {val or kind} at offset {off}, got {v!r}")
        return v

    def ident(self):
        return self.expect("ident")

    def names(self):
        """One or more comma-separated identifiers."""
        out = [self.ident()]
        while self.at("punct", ","):
            self.next()
            out.append(self.ident())
        return tuple(out)

    def items(self, item, close):
        """item() repeated, comma-separated, up to the closing
        punctuation, which is consumed."""
        out = []
        if not self.at("punct", close):
            out.append(item())
            while self.at("punct", ","):
                self.next()
                out.append(item())
        self.expect("punct", close)
        return out

    # ---- header

    def header(self):
        holes = ()
        if self.at("ident", "LAMBDA"):
            self.next()
            holes = self.names()
            self.expect("punct", ".")
        self.expect("ident", "lambda")
        params = ()
        if self.at("ident") and self.peek()[1] not in _KEYWORDS:
            params = self.names()
        self.expect("punct", ".")
        return holes, params

    # ---- statements

    def stmt_seq(self, stop_at_brace: bool) -> Tuple:
        out = []
        while True:
            k, v, _ = self.peek()
            if k == "end":
                break
            if stop_at_brace and k == "punct" and v == "}":
                break
            if k == "ident" and v == "where":
                break
            out.append(self.stmt())
        return tuple(out)

    def stmt(self):
        k, v, off = self.peek()
        if k != "ident":
            raise ParseError(f"expected a statement at offset {off}, got {v!r}")
        if v == "let":
            return self.let_stmt()
        if v == "if":
            return self.if_stmt()
        if v == "retry":
            return self.retry_stmt()
        if v == "for":
            return self.for_stmt()
        if v == "return":
            self.next()
            return Return()
        raise ParseError(f"unknown statement keyword {v!r} at offset {off}")

    def let_stmt(self):
        self.expect("ident", "let")
        var = self.ident()
        self.expect("punct", "=")
        name = self.next()[1] if self.at("str") else self.dotted_name()
        self.expect("punct", "(")
        return _RawLet(var, name, self.items(self.let_arg, ")"))

    def let_arg(self):
        key = None
        if (
            (self.at("str") or (self.at("ident") and self.peek()[1] not in ("true", "false", "null")))
            and self.peek(1)[:2] == ("punct", "=")
        ):
            key = self.next()[1]
            self.next()
        return key, self.expr()

    def dotted_name(self):
        parts = [self.ident()]
        while self.at("punct", "."):
            self.next()
            parts.append(self.ident())
        return ".".join(parts)

    def block(self):
        self.expect("punct", "{")
        body = self.stmt_seq(True)
        self.expect("punct", "}")
        return body

    def if_stmt(self):
        self.expect("ident", "if")
        pred = self.pred()
        then = self.block()
        els: Tuple = ()
        if self.at("ident", "else"):
            self.next()
            els = self.block()
        return Ite(pred, then, els)

    def loop_id(self):
        """The loop's written id, else the next loop_<n>."""
        if self.at("ident"):
            return self.ident()
        self.loop_counter += 1
        return f"loop_{self.loop_counter}"

    def retry_stmt(self):
        self.expect("ident", "retry")
        loop_id = self.loop_id()
        body = self.block()
        self.expect("ident", "until")
        return RetryUntil(loop_id, body, self.pred())

    def for_stmt(self):
        self.expect("ident", "for")
        loop_id = self.loop_id()
        self.expect("punct", "(")
        var = self.ident()
        self.expect("punct", ")")
        self.expect("ident", "in")
        source = self.expr()
        return Foreach(loop_id, var, source, self.block())

    # ---- predicates

    def pred(self):
        node = self.pred_and()
        while self.at("punct", "||"):
            self.next()
            node = POr(node, self.pred_and())
        return node

    def pred_and(self):
        node = self.pred_term()
        while self.at("punct", "&&"):
            self.next()
            node = PAnd(node, self.pred_term())
        return node

    def pred_term(self):
        k, v, off = self.peek()
        if k == "punct" and v == "!":
            self.next()
            self.expect("punct", "(")
            inner = self.pred()
            self.expect("punct", ")")
            return PNot(inner)
        if k == "punct" and v == "(":
            self.next()
            inner = self.pred()
            self.expect("punct", ")")
            return inner
        if k == "ident" and v == "true":
            self.next()
            return PTrue()
        if k == "ident" and v == "false":
            self.next()
            return PFalse()
        if k == "ident":
            name = self.ident()
            nk, nv, _ = self.peek()
            if nk == "punct" and nv == "==":
                self.next()
                return ValueCheck(name, self.json_literal())
            if nk == "punct" and nv in COMPARE_OPS:
                self.next()
                return Compare(name, nv, self.ident())
            return ValueCheck(name, True)
        raise ParseError(f"expected a predicate at offset {off}, got {v!r}")

    # ---- expressions

    def expr(self):
        cases = []
        while self.at("punct", "("):
            self.next()
            pred = self.pred()
            self.expect("punct", ")")
            self.expect("punct", "?")
            cases.append((pred, self.expr()))
            self.expect("punct", ":")
        e = self.operand()
        return Select(tuple(cases), e) if cases else e

    def operand(self):
        """An expression other than a conditional one."""
        k, v, off = self.peek()
        if k in ("str", "num"):
            return Const(self.json_literal())
        if k == "punct" and v in ("[", "{"):
            return Const(self.json_literal())
        if k == "ident" and v in ("true", "false", "null"):
            return Const(self.json_literal())
        if k == "ident":
            name = self.ident()
            if self.at("punct", "("):
                self.next()
                return HiddenCall(name, tuple(self.items(self.ident, ")")))
            return VarRef(name)
        raise ParseError(f"expected an expression at offset {off}, got {v!r}")

    def json_literal(self):
        k, v, off = self.next()
        if k in ("str", "num"):
            return v
        if k == "ident" and v in ("true", "false", "null"):
            return {"true": True, "false": False, "null": None}[v]
        if k == "punct" and v == "[":
            return self.items(self.json_literal, "]")
        if k == "punct" and v == "{":
            return dict(self.items(self.json_member, "}"))
        raise ParseError(f"expected a JSON literal at offset {off}, got {v!r}")

    def json_member(self):
        if not self.at("str"):
            raise ParseError(f"object keys must be strings, at offset {self.peek()[2]}")
        key = self.next()[1]
        self.expect("punct", ":")
        return key, self.json_literal()

    # ---- hidden-function definitions: name := (a0, a1) -> body

    def hidden_def(self):
        name = self.ident()
        self.expect("punct", ":=")
        self.expect("punct", "(")
        off = self.peek()[2]
        argnames = self.items(self.ident, ")")
        if len(set(argnames)) != len(argnames):
            raise ParseError(f"duplicate argument name at offset {off}")
        self.expect("punct", "->")
        self.slots = {a: i for i, a in enumerate(argnames)}
        return name, HiddenFnBody(len(argnames), self.bool_expr(value_ok=True))

    def bool_expr(self, value_ok=False):
        """Terms joined by &&. With value_ok (a body), a value expression
        that no == follows is the whole result."""
        node = self.bool_term(value_ok)
        if not isinstance(node, BOOL_NODES):
            return node
        while self.at("punct", "&&"):
            self.next()
            node = And(node, self.bool_term())
        return node

    def bool_term(self, value_ok=False):
        k, v, _ = self.peek()
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
        if k == "punct" and v == "(":
            # A parenthesized conjunction; failing that, a parenthesized
            # value such as (a0).k == 1.
            start = self.pos
            try:
                self.next()
                inner = self.bool_expr()
                self.expect("punct", ")")
                return inner
            except ParseError:
                self.pos = start
        base = self.value_expr()
        if value_ok and not self.at("punct", "=="):
            return base
        self.expect("punct", "==")
        return Eq(base, self.json_literal())

    def value_expr(self):
        k, v, off = self.peek()
        if (
            k in ("str", "num")
            or (k == "ident" and v in ("true", "false", "null"))
            or (k == "punct" and v == "{")
        ):
            lit = self.json_literal()
            if not self.at("punct", "+"):
                return ConstVal(lit)
            self.next()
            base = self.value_expr()
            if is_int(lit):
                return Add(lit, base)
            if isinstance(lit, str):
                return Concat(lit, base)
            raise ParseError(f"+ needs an int or string constant on the left, at offset {off}")
        return self.postfix()

    def postfix(self):
        k, v, off = self.next()
        if k == "ident" and v == "length":
            self.expect("punct", "(")
            node = Length(self.value_expr())
            self.expect("punct", ")")
        elif k == "ident":
            if v not in self.slots:
                raise ParseError(f"unknown argument name {v!r} at offset {off}")
            node = Input(self.slots[v])
        elif k == "punct" and v == "(":
            node = self.value_expr()
            self.expect("punct", ")")
        elif k == "punct" and v == "[":
            node = MakeList(tuple(self.items(self.value_expr, "]")))
        else:
            raise ParseError(f"expected a value at offset {off}, got {v!r}")
        return self.trailers(node)

    def trailers(self, node):
        while True:
            if self.at("punct", "."):
                self.next()
                node = Child(node, self.key_token())
            elif self.at("punct", ".."):
                self.next()
                node = Descendants(node, self.key_token())
            elif self.at("punct", "["):
                self.next()
                i = self.int_token()
                if self.at("punct", ":"):
                    self.next()
                    node = Slice(node, i, self.int_token())
                else:
                    node = Index(node, i)
                self.expect("punct", "]")
            else:
                return node

    def int_token(self):
        k, v, off = self.next()
        if k != "num" or not is_int(v):
            raise ParseError(f"expected an integer at offset {off}, got {v!r}")
        return v

    def key_token(self):
        k, v, off = self.next()
        if k not in ("ident", "str"):
            raise ParseError(f"expected a key at offset {off}, got {v!r}")
        return v


def _resolve(instr, hidden_names):
    """A parsed let as a hidden or a visible call, by its callee's name;
    any other instruction as it is."""
    if not isinstance(instr, _RawLet):
        return instr
    if instr.name in hidden_names:
        args = []
        for key, e in instr.args:
            if key is not None:
                raise ParseError(
                    f"hidden function {instr.name} takes positional arguments"
                )
            if not isinstance(e, VarRef):
                raise ParseError(
                    f"hidden function {instr.name} arguments must be variables"
                )
            args.append(e.name)
        return LetHidden(instr.var, instr.name, tuple(args))
    if any(key is None for key, _ in instr.args):
        raise ParseError(
            f"visible call {instr.name} requires named arguments"
        )
    return LetVisible(instr.var, instr.name, tuple(instr.args))


def parse_program(text: str) -> Program:
    parser = _Parser(_tokenize(text))
    holes, params = parser.header()
    body = parser.stmt_seq(False)
    hidden_defs = []
    if parser.at("ident", "where"):
        parser.next()
        while not parser.at("end"):
            hidden_defs.append(parser.hidden_def())

    hidden_names = set(holes) | {n for n, _ in hidden_defs}
    body = map_instrs(body, lambda instr, _: _resolve(instr, hidden_names))
    program = Program(
        params=params, body=body, hidden_defs=tuple(hidden_defs), holes=holes
    )
    try:
        validate_program(program)
    except DslError as exc:
        raise ParseError(str(exc)) from exc
    return program
