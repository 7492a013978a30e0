"""Values of script expressions and predicates.

One interpreter serves both places that evaluate terms: execution, which
reads the live bindings of a run, and rewriting, which reads recorded
valuation cells. They differ only in how a variable is read and in the
error they raise, so both are parameters.

A Select whose predicates all test one variable against an int (see
dsl.select_table: the br-keyed Selects of pull and push) reads that
variable once. An int value takes its case from the table, so the
cost does not grow with the number of cases. Any other value falls
back to testing the cases in order, which gives canonical_eq's
strict-typed answer, and a read that fails raises what the first
case's predicate would.
"""

from __future__ import annotations

from typing import Callable, Dict, Type

from . import dsl
from .hidden import HiddenEvalError, HiddenFnBody, eval_hidden
from .jsonvals import JsonValue, canonical_eq


def term_evaluator(
    read: Callable[[str], JsonValue],
    read_arg: Callable[[str], JsonValue],
    hidden: Dict[str, HiddenFnBody],
    error: Type[Exception],
) -> Callable[[object], JsonValue]:
    """Evaluator of expressions and predicates. read gives a variable's
    value where a term reads it directly, read_arg where it is passed to
    a hidden function; a term that cannot be evaluated raises error."""

    def ev(t):
        if isinstance(t, dsl.Const):
            return t.value
        if isinstance(t, dsl.VarRef):
            return read(t.name)
        if isinstance(t, dsl.ValueCheck):
            return canonical_eq(read(t.var), t.const)
        if isinstance(t, dsl.Select):
            table = dsl.select_table(t)
            v = None if table is None else read(table[0])
            if type(v) is int:
                return ev(table[1].get(v, table[2]))
            for p, e in t.cases:
                if ev(p):
                    return ev(e)
            return ev(t.default)
        if isinstance(t, dsl.HiddenCall):
            body = hidden.get(t.fn_name)
            if body is None:
                raise error(f"hidden function {t.fn_name} has no definition")
            try:
                return eval_hidden(body, [read_arg(a) for a in t.args])
            except HiddenEvalError as exc:
                raise error(str(exc)) from exc
        if isinstance(t, dsl.PTrue):
            return True
        if isinstance(t, dsl.PFalse):
            return False
        if isinstance(t, dsl.PAnd):
            return ev(t.left) and ev(t.right)
        if isinstance(t, dsl.POr):
            return ev(t.left) or ev(t.right)
        if isinstance(t, dsl.PNot):
            return not ev(t.inner)
        if isinstance(t, dsl.Compare):
            lv, rv = read(t.left), read(t.right)
            num = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (num(lv) and num(rv)):
                raise error(f"comparison {t.op} needs numeric operands")
            return {">=": lv >= rv, ">": lv > rv, "<=": lv <= rv, "<": lv < rv}[t.op]
        raise error(f"not an expression or predicate: {t!r}")

    return ev
