"""Text form of programs.

The concrete syntax is whitespace-insensitive except for the `where`
section, which holds one hidden-function definition per line:

    LAMBDA f_2. lambda p_1.
      let x = ec2.StopInstances(InstanceIds=p_1, force=false)
      if b { let y = ec2.StopInstances(InstanceIds=p_1, force=true) }
      retry loop_1 { let d = api.Poll(arg=p_1) } until s
      for loop_2 (u) in members { let g = api.Fetch(user=u) }
      return
    where
      f_1 := (a0) -> a0..id[0]

Whether `let v = name(...)` is a visible call or a hidden-function call
is decided by the name: names declared in the LAMBDA prefix or the
where section are hidden, everything else (dotted or not) is visible.
"""

from __future__ import annotations

import json
from typing import List, Optional, Tuple

from .dsl import (
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
    Ternary,
    ValueCheck,
    VarRef,
    map_instrs,
    validate_program,
)
from .hidden import parse_hidden_fn


class ParseError(Exception):
    pass


_PUNCT = (
    ":=",
    "->",
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
                raise ParseError("unterminated string literal")
            toks.append(("str", json.loads(text[i : j + 1]), i))
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
            toks.append(("num", json.loads(text[i:j]), i))
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

    def __init__(self, var, name, kwargs, posargs):
        self.var = var
        self.name = name
        self.kwargs = kwargs      # list of (key, expr) or None
        self.posargs = posargs    # list of expr or None


class _Parser:
    def __init__(self, toks):
        self.toks = toks
        self.pos = 0
        self.loop_counter = 0
        self.loop_ids: List[str] = []

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

    def fresh_loop_id(self):
        self.loop_counter += 1
        return f"loop_{self.loop_counter}"

    # ---- header

    def header(self):
        holes: List[str] = []
        if self.at("ident", "LAMBDA"):
            self.next()
            while True:
                holes.append(self.expect("ident"))
                if self.at("punct", ","):
                    self.next()
                    continue
                break
            self.expect("punct", ".")
        self.expect("ident", "lambda")
        params: List[str] = []
        if self.at("ident") and self.peek()[1] not in _KEYWORDS:
            while True:
                params.append(self.expect("ident"))
                if self.at("punct", ","):
                    self.next()
                    continue
                break
        self.expect("punct", ".")
        return tuple(holes), tuple(params)

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
        var = self.expect("ident")
        self.expect("punct", "=")
        name = self.dotted_name()
        self.expect("punct", "(")
        kwargs: Optional[list] = None
        posargs: Optional[list] = None
        if not self.at("punct", ")"):
            while True:
                if (
                    self.at("ident")
                    and self.peek()[1] not in ("true", "false", "null")
                    and self.peek(1)[:2] == ("punct", "=")
                ):
                    key = self.expect("ident")
                    self.expect("punct", "=")
                    if posargs is not None:
                        raise ParseError("cannot mix named and positional arguments")
                    kwargs = kwargs or []
                    kwargs.append((key, self.expr()))
                else:
                    if kwargs is not None:
                        raise ParseError("cannot mix named and positional arguments")
                    posargs = posargs or []
                    posargs.append(self.expr())
                if self.at("punct", ","):
                    self.next()
                    continue
                break
        self.expect("punct", ")")
        return _RawLet(var, name, kwargs, posargs)

    def dotted_name(self):
        parts = [self.expect("ident")]
        while self.at("punct", ".") :
            self.next()
            parts.append(self.expect("ident"))
        return ".".join(parts)

    def if_stmt(self):
        self.expect("ident", "if")
        pred = self.pred()
        self.expect("punct", "{")
        then = self.stmt_seq(True)
        self.expect("punct", "}")
        els: Tuple = ()
        if self.at("ident", "else"):
            self.next()
            self.expect("punct", "{")
            els = self.stmt_seq(True)
            self.expect("punct", "}")
        return Ite(pred, then, els)

    def retry_stmt(self):
        self.expect("ident", "retry")
        loop_id = None
        if self.at("ident"):
            loop_id = self.expect("ident")
        if loop_id is None:
            loop_id = self.fresh_loop_id()
        self.expect("punct", "{")
        body = self.stmt_seq(True)
        self.expect("punct", "}")
        self.expect("ident", "until")
        pred = self.pred()
        return RetryUntil(loop_id, body, pred)

    def for_stmt(self):
        self.expect("ident", "for")
        loop_id = None
        if self.at("ident"):
            loop_id = self.expect("ident")
        if loop_id is None:
            loop_id = self.fresh_loop_id()
        self.expect("punct", "(")
        var = self.expect("ident")
        self.expect("punct", ")")
        self.expect("ident", "in")
        source = self.expr()
        self.expect("punct", "{")
        body = self.stmt_seq(True)
        self.expect("punct", "}")
        return Foreach(loop_id, var, source, body)

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
            name = self.expect("ident")
            nk, nv, _ = self.peek()
            if nk == "punct" and nv == "==":
                self.next()
                return ValueCheck(name, self.json_literal())
            if nk == "punct" and nv in (">=", ">", "<=", "<"):
                self.next()
                return Compare(name, nv, self.expect("ident"))
            return ValueCheck(name, True)
        raise ParseError(f"expected a predicate at offset {off}, got {v!r}")

    # ---- expressions

    def expr(self):
        k, v, off = self.peek()
        if k in ("str", "num"):
            return Const(self.json_literal())
        if k == "punct" and v in ("[", "{"):
            return Const(self.json_literal())
        if k == "punct" and v == "(":
            self.next()
            pred = self.pred()
            self.expect("punct", ")")
            self.expect("punct", "?")
            then_expr = self.expr()
            self.expect("punct", ":")
            else_expr = self.expr()
            return Ternary(pred, then_expr, else_expr)
        if k == "ident" and v in ("true", "false", "null"):
            return Const(self.json_literal())
        if k == "ident":
            name = self.expect("ident")
            if self.at("punct", "("):
                self.next()
                args = []
                if not self.at("punct", ")"):
                    while True:
                        args.append(self.expect("ident"))
                        if self.at("punct", ","):
                            self.next()
                            continue
                        break
                self.expect("punct", ")")
                return HiddenCall(name, tuple(args))
            return VarRef(name)
        raise ParseError(f"expected an expression at offset {off}, got {v!r}")

    def json_literal(self):
        k, v, off = self.next()
        if k in ("str", "num"):
            return v
        if k == "ident" and v in ("true", "false", "null"):
            return {"true": True, "false": False, "null": None}[v]
        if k == "punct" and v == "[":
            items = []
            if not self.at("punct", "]"):
                while True:
                    items.append(self.json_literal())
                    if self.at("punct", ","):
                        self.next()
                        continue
                    break
            self.expect("punct", "]")
            return items
        if k == "punct" and v == "{":
            obj = {}
            if not self.at("punct", "}"):
                while True:
                    kk, kv, _ = self.next()
                    if kk != "str":
                        raise ParseError("object keys must be strings")
                    self.expect("punct", ":")
                    obj[kv] = self.json_literal()
                    if self.at("punct", ","):
                        self.next()
                        continue
                    break
            self.expect("punct", "}")
            return obj
        raise ParseError(f"expected a JSON literal at offset {off}, got {v!r}")


def _resolve(instr, hidden_names):
    """A parsed let as a hidden or a visible call, by its callee's name;
    any other instruction as it is."""
    if not isinstance(instr, _RawLet):
        return instr
    if instr.name in hidden_names:
        if instr.kwargs:
            raise ParseError(
                f"hidden function {instr.name} takes positional arguments"
            )
        args = []
        for e in instr.posargs or []:
            if not isinstance(e, VarRef):
                raise ParseError(
                    f"hidden function {instr.name} arguments must be variables"
                )
            args.append(e.name)
        return LetHidden(instr.var, instr.name, tuple(args))
    if instr.posargs:
        raise ParseError(
            f"visible call {instr.name} requires named arguments"
        )
    return LetVisible(instr.var, instr.name, tuple(instr.kwargs or []))


def parse_program(text: str) -> Program:
    toks = _tokenize(text)
    # split off the where-section (a top-level `where` identifier)
    depth = 0
    where_off = None
    cut = len(toks) - 1
    for idx, (k, v, off) in enumerate(toks):
        if k == "punct" and v in ("{", "["):
            depth += 1
        elif k == "punct" and v in ("}", "]"):
            depth -= 1
        elif k == "ident" and v == "where" and depth == 0:
            where_off = off
            cut = idx
            break
    program_toks = toks[:cut] + [("end", None, toks[cut][2])]
    parser = _Parser(program_toks)
    holes, params = parser.header()
    body = parser.stmt_seq(False)
    if parser.peek()[0] != "end":
        raise ParseError(f"trailing tokens at offset {parser.peek()[2]}")

    hidden_defs = []
    if where_off is not None:
        section = text[where_off + len("where") :]
        for line in section.splitlines():
            line = line.strip()
            if not line:
                continue
            if ":=" not in line:
                raise ParseError(f"malformed hidden definition: {line!r}")
            name, _, rhs = line.partition(":=")
            name = name.strip()
            if not name.isidentifier():
                raise ParseError(f"bad hidden function name {name!r}")
            hidden_defs.append((name, parse_hidden_fn(rhs.strip())))

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
