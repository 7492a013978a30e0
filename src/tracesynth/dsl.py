"""Core script AST.

A program is a parameter list, an instruction sequence, a set of named
hidden-function definitions, and an ordered set of unsolved holes
(hidden functions referenced before synthesis fills them in).

Bindings follow the run-to-completion state model: a variable bound
anywhere remains bound for the rest of the run, including after the
enclosing conditional or loop. Names of binders, parameters, loop ids,
and hidden functions are unique program-wide.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from .hidden import HiddenFnBody, print_hidden_fn
from .jsonvals import canonical_dumps, canonical_eq, dumps_pretty


class DslError(Exception):
    pass


# --- expressions -----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Const:
    """Equality must stay strict-typed: Python's == lets True equal 1,
    which would let structurally different literals compare equal."""

    value: object

    def __eq__(self, other):
        if not isinstance(other, Const):
            return NotImplemented
        return canonical_eq(self.value, other.value)

    def __hash__(self):
        return hash(("const", canonical_dumps(self.value)))


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class Ternary:
    pred: object
    then_expr: object
    else_expr: object


@dataclass(frozen=True)
class HiddenCall:
    fn_name: str
    args: Tuple[str, ...]


# --- predicates ------------------------------------------------------------


@dataclass(frozen=True)
class PTrue:
    pass


@dataclass(frozen=True)
class PFalse:
    pass


@dataclass(frozen=True)
class PAnd:
    left: object
    right: object


@dataclass(frozen=True)
class POr:
    left: object
    right: object


@dataclass(frozen=True)
class PNot:
    inner: object


@dataclass(frozen=True, eq=False)
class ValueCheck:
    var: str
    const: object

    # Same strict-typed equality concern as Const.
    def __eq__(self, other):
        if not isinstance(other, ValueCheck):
            return NotImplemented
        return self.var == other.var and canonical_eq(self.const, other.const)

    def __hash__(self):
        return hash(("valuecheck", self.var, canonical_dumps(self.const)))


@dataclass(frozen=True)
class Compare:
    left: str
    op: str
    right: str


COMPARE_OPS = (">=", ">", "<=", "<")


# --- instructions ----------------------------------------------------------


@dataclass(frozen=True)
class LetVisible:
    var: str
    api: str
    args: Tuple[Tuple[str, object], ...]


@dataclass(frozen=True)
class LetHidden:
    var: str
    fn: str
    args: Tuple[str, ...]


@dataclass(frozen=True)
class Ite:
    pred: object
    then: Tuple[object, ...]
    els: Tuple[object, ...]


@dataclass(frozen=True)
class RetryUntil:
    loop_id: str
    body: Tuple[object, ...]
    pred: object


@dataclass(frozen=True)
class Foreach:
    loop_id: str
    var: str
    source: object
    body: Tuple[object, ...]


@dataclass(frozen=True)
class Return:
    pass


@dataclass(frozen=True)
class Program:
    params: Tuple[str, ...] = ()
    body: Tuple[object, ...] = ()
    hidden_defs: Tuple[Tuple[str, HiddenFnBody], ...] = ()
    holes: Tuple[str, ...] = ()

    def hidden_map(self) -> Dict[str, HiddenFnBody]:
        return dict(self.hidden_defs)

    def is_closed(self) -> bool:
        return not self.holes


# --- traversal helpers -----------------------------------------------------


def expr_reads(e) -> list:
    """Variable names read by an expression, in occurrence order."""
    if isinstance(e, Const):
        return []
    if isinstance(e, VarRef):
        return [e.name]
    if isinstance(e, Ternary):
        return pred_reads(e.pred) + expr_reads(e.then_expr) + expr_reads(e.else_expr)
    if isinstance(e, HiddenCall):
        return list(e.args)
    raise DslError(f"not an expression: {e!r}")


def pred_reads(p) -> list:
    if isinstance(p, (PTrue, PFalse)):
        return []
    if isinstance(p, (PAnd, POr)):
        return pred_reads(p.left) + pred_reads(p.right)
    if isinstance(p, PNot):
        return pred_reads(p.inner)
    if isinstance(p, ValueCheck):
        return [p.var]
    if isinstance(p, Compare):
        return [p.left, p.right]
    raise DslError(f"not a predicate: {p!r}")


def instr_reads(instr) -> list:
    if isinstance(instr, LetVisible):
        out = []
        for _, e in instr.args:
            out.extend(expr_reads(e))
        return out
    if isinstance(instr, LetHidden):
        return list(instr.args)
    if isinstance(instr, Ite):
        return pred_reads(instr.pred) + seq_reads(instr.then) + seq_reads(instr.els)
    if isinstance(instr, RetryUntil):
        return seq_reads(instr.body) + pred_reads(instr.pred)
    if isinstance(instr, Foreach):
        return expr_reads(instr.source) + seq_reads(instr.body)
    if isinstance(instr, Return):
        return []
    raise DslError(f"not an instruction: {instr!r}")


def seq_reads(seq) -> list:
    out = []
    for instr in seq:
        out.extend(instr_reads(instr))
    return out


def instr_binders(instr) -> list:
    if isinstance(instr, (LetVisible, LetHidden)):
        return [instr.var]
    if isinstance(instr, Ite):
        return seq_binders(instr.then) + seq_binders(instr.els)
    if isinstance(instr, RetryUntil):
        return seq_binders(instr.body)
    if isinstance(instr, Foreach):
        return [instr.var] + seq_binders(instr.body)
    return []


def seq_binders(seq) -> list:
    out = []
    for instr in seq:
        out.extend(instr_binders(instr))
    return out


def free_vars(seq) -> set:
    """Names read in seq before any binding of them within seq."""
    free: set = set()
    bound: set = set()

    def walk_seq(s):
        for instr in s:
            walk_instr(instr)

    def note(names):
        for n in names:
            if n not in bound:
                free.add(n)

    def walk_instr(instr):
        if isinstance(instr, LetVisible):
            for _, e in instr.args:
                note(expr_reads(e))
            bound.add(instr.var)
        elif isinstance(instr, LetHidden):
            note(instr.args)
            bound.add(instr.var)
        elif isinstance(instr, Ite):
            note(pred_reads(instr.pred))
            snapshot = set(bound)
            walk_seq(instr.then)
            after_then = set(bound)
            bound.clear()
            bound.update(snapshot)
            walk_seq(instr.els)
            bound.update(after_then)
        elif isinstance(instr, RetryUntil):
            walk_seq(instr.body)
            note(pred_reads(instr.pred))
        elif isinstance(instr, Foreach):
            note(expr_reads(instr.source))
            bound.add(instr.var)
            walk_seq(instr.body)
        elif isinstance(instr, Return):
            pass
        else:
            raise DslError(f"not an instruction: {instr!r}")

    walk_seq(seq)
    return free


def count_reads(seq, name: str) -> int:
    """Syntactic read occurrences of name anywhere in seq."""
    return sum(1 for n in seq_reads(seq) if n == name)


# --- substitution (read renaming) ------------------------------------------


def _subst_expr(e, old, new):
    if isinstance(e, Const):
        return e
    if isinstance(e, VarRef):
        return VarRef(new) if e.name == old else e
    if isinstance(e, Ternary):
        return Ternary(
            _subst_pred(e.pred, old, new),
            _subst_expr(e.then_expr, old, new),
            _subst_expr(e.else_expr, old, new),
        )
    if isinstance(e, HiddenCall):
        return HiddenCall(e.fn_name, tuple(new if a == old else a for a in e.args))
    raise DslError(f"not an expression: {e!r}")


def _subst_pred(p, old, new):
    if isinstance(p, (PTrue, PFalse)):
        return p
    if isinstance(p, PAnd):
        return PAnd(_subst_pred(p.left, old, new), _subst_pred(p.right, old, new))
    if isinstance(p, POr):
        return POr(_subst_pred(p.left, old, new), _subst_pred(p.right, old, new))
    if isinstance(p, PNot):
        return PNot(_subst_pred(p.inner, old, new))
    if isinstance(p, ValueCheck):
        return ValueCheck(new, p.const) if p.var == old else p
    if isinstance(p, Compare):
        return Compare(
            new if p.left == old else p.left, p.op, new if p.right == old else p.right
        )
    raise DslError(f"not a predicate: {p!r}")


def rename_reads(seq, old: str, new: str):
    """Rename reads of old to new, leaving binders alone. The caller is
    responsible for hygiene (rewrite rules remove the old binder and
    point its readers at the surviving one)."""

    def walk(s):
        return tuple(walk_instr(i) for i in s)

    def walk_instr(instr):
        if isinstance(instr, LetVisible):
            return LetVisible(
                instr.var,
                instr.api,
                tuple((k, _subst_expr(e, old, new)) for k, e in instr.args),
            )
        if isinstance(instr, LetHidden):
            return LetHidden(
                instr.var, instr.fn, tuple(new if a == old else a for a in instr.args)
            )
        if isinstance(instr, Ite):
            return Ite(_subst_pred(instr.pred, old, new), walk(instr.then), walk(instr.els))
        if isinstance(instr, RetryUntil):
            return RetryUntil(instr.loop_id, walk(instr.body), _subst_pred(instr.pred, old, new))
        if isinstance(instr, Foreach):
            return Foreach(
                instr.loop_id, instr.var, _subst_expr(instr.source, old, new), walk(instr.body)
            )
        if isinstance(instr, Return):
            return instr
        raise DslError(f"not an instruction: {instr!r}")

    return walk(seq)


# --- validation ------------------------------------------------------------


def seq_loop_ids(seq) -> list:
    out = []
    for instr in seq:
        if isinstance(instr, Ite):
            out.extend(seq_loop_ids(instr.then))
            out.extend(seq_loop_ids(instr.els))
        elif isinstance(instr, RetryUntil):
            out.append(instr.loop_id)
            out.extend(seq_loop_ids(instr.body))
        elif isinstance(instr, Foreach):
            out.append(instr.loop_id)
            out.extend(seq_loop_ids(instr.body))
    return out


def validate_program(p: Program) -> None:
    """Raise DslError on name clashes or dangling references."""
    names = list(p.params) + seq_binders(p.body)
    dupes = {n for n in names if names.count(n) > 1}
    if dupes:
        raise DslError(f"duplicate binders: {sorted(dupes)}")
    loops = seq_loop_ids(p.body)
    if len(set(loops)) != len(loops):
        raise DslError("duplicate loop ids")
    fnames = [n for n, _ in p.hidden_defs] + list(p.holes)
    if len(set(fnames)) != len(fnames):
        raise DslError("hidden function name declared twice")
    known = set(fnames)

    def check_calls(seq):
        for instr in seq:
            if isinstance(instr, LetHidden) and instr.fn not in known:
                raise DslError(f"call to undefined hidden function {instr.fn}")
            if isinstance(instr, LetVisible):
                for _, e in instr.args:
                    check_expr(e)
            if isinstance(instr, Ite):
                check_calls(instr.then)
                check_calls(instr.els)
            if isinstance(instr, (RetryUntil, Foreach)):
                check_calls(instr.body)

    def check_expr(e):
        if isinstance(e, HiddenCall) and e.fn_name not in known:
            raise DslError(f"call to undefined hidden function {e.fn_name}")
        if isinstance(e, Ternary):
            check_expr(e.then_expr)
            check_expr(e.else_expr)

    check_calls(p.body)
    unbound = free_vars(p.body) - set(p.params)
    if unbound:
        raise DslError(f"unbound variables: {sorted(unbound)}")


# --- pretty printing --------------------------------------------------------


def print_pred(p, parent: str = "") -> str:
    """parent is the operator of the enclosing binary predicate, with
    "-right" appended for its right operand: both operators parse
    left-associative, so a right operand of the same operator needs
    parentheses."""
    if isinstance(p, PTrue):
        return "true"
    if isinstance(p, PFalse):
        return "false"
    if isinstance(p, POr):
        s = f"{print_pred(p.left, 'or')} || {print_pred(p.right, 'or-right')}"
        return f"({s})" if parent in ("and", "and-right", "or-right") else s
    if isinstance(p, PAnd):
        s = f"{print_pred(p.left, 'and')} && {print_pred(p.right, 'and-right')}"
        return f"({s})" if parent == "and-right" else s
    if isinstance(p, PNot):
        return f"!({print_pred(p.inner)})"
    if isinstance(p, ValueCheck):
        if p.const is True:
            return p.var
        return f"{p.var} == {dumps_pretty(p.const)}"
    if isinstance(p, Compare):
        return f"{p.left} {p.op} {p.right}"
    raise DslError(f"not a predicate: {p!r}")


def print_expr(e) -> str:
    if isinstance(e, Const):
        return dumps_pretty(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, Ternary):
        return f"({print_pred(e.pred)}) ? {print_expr(e.then_expr)} : {print_expr(e.else_expr)}"
    if isinstance(e, HiddenCall):
        return f"{e.fn_name}({', '.join(e.args)})"
    raise DslError(f"not an expression: {e!r}")


def _print_instr(instr, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(instr, LetVisible):
        args = ", ".join(f"{k}={print_expr(e)}" for k, e in instr.args)
        out.append(f"{pad}let {instr.var} = {instr.api}({args})")
    elif isinstance(instr, LetHidden):
        out.append(f"{pad}let {instr.var} = {instr.fn}({', '.join(instr.args)})")
    elif isinstance(instr, Ite):
        out.append(f"{pad}if {print_pred(instr.pred)} {{")
        for s in instr.then:
            _print_instr(s, indent + 1, out)
        if instr.els:
            out.append(f"{pad}}} else {{")
            for s in instr.els:
                _print_instr(s, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(instr, RetryUntil):
        out.append(f"{pad}retry {instr.loop_id} {{")
        for s in instr.body:
            _print_instr(s, indent + 1, out)
        out.append(f"{pad}}} until {print_pred(instr.pred)}")
    elif isinstance(instr, Foreach):
        out.append(f"{pad}for {instr.loop_id} ({instr.var}) in {print_expr(instr.source)} {{")
        for s in instr.body:
            _print_instr(s, indent + 1, out)
        out.append(f"{pad}}}")
    elif isinstance(instr, Return):
        out.append(f"{pad}return")
    else:
        raise DslError(f"not an instruction: {instr!r}")


def pretty_print(p: Program) -> str:
    out = []
    header = ""
    if p.holes:
        header += f"LAMBDA {', '.join(p.holes)}. "
    header += f"lambda {', '.join(p.params)}."
    out.append(header)
    for instr in p.body:
        _print_instr(instr, 1, out)
    if p.hidden_defs:
        out.append("where")
        for name, fn in p.hidden_defs:
            out.append(f"  {name} := {print_hidden_fn(fn)}")
    return "\n".join(out) + "\n"


# --- structural equivalence modulo renaming ---------------------------------


class _RenameMap:
    def __init__(self):
        self.fwd: Dict[str, str] = {}
        self.bwd: Dict[str, str] = {}

    def match(self, a: str, b: str) -> bool:
        if a in self.fwd:
            return self.fwd[a] == b
        if b in self.bwd:
            return False
        self.fwd[a] = b
        self.bwd[b] = a
        return True


def _equiv_expr(a, b, vm: _RenameMap, fm: _RenameMap) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return canonical_eq(a.value, b.value)
    if isinstance(a, VarRef):
        return vm.match(a.name, b.name)
    if isinstance(a, Ternary):
        return (
            _equiv_pred(a.pred, b.pred, vm)
            and _equiv_expr(a.then_expr, b.then_expr, vm, fm)
            and _equiv_expr(a.else_expr, b.else_expr, vm, fm)
        )
    if isinstance(a, HiddenCall):
        return (
            fm.match(a.fn_name, b.fn_name)
            and len(a.args) == len(b.args)
            and all(vm.match(x, y) for x, y in zip(a.args, b.args))
        )
    return False


def _equiv_pred(a, b, vm: _RenameMap) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, (PTrue, PFalse)):
        return True
    if isinstance(a, (PAnd, POr)):
        return _equiv_pred(a.left, b.left, vm) and _equiv_pred(a.right, b.right, vm)
    if isinstance(a, PNot):
        return _equiv_pred(a.inner, b.inner, vm)
    if isinstance(a, ValueCheck):
        return vm.match(a.var, b.var) and canonical_eq(a.const, b.const)
    if isinstance(a, Compare):
        return a.op == b.op and vm.match(a.left, b.left) and vm.match(a.right, b.right)
    return False


def _equiv_seq(a, b, vm, fm, lm) -> bool:
    if len(a) != len(b):
        return False
    return all(_equiv_instr(x, y, vm, fm, lm) for x, y in zip(a, b))


def _equiv_instr(a, b, vm, fm, lm) -> bool:
    if type(a) is not type(b):
        return False
    if isinstance(a, LetVisible):
        if a.api != b.api or not vm.match(a.var, b.var):
            return False
        if len(a.args) != len(b.args):
            return False
        return all(
            ka == kb and _equiv_expr(ea, eb, vm, fm)
            for (ka, ea), (kb, eb) in zip(a.args, b.args)
        )
    if isinstance(a, LetHidden):
        return (
            vm.match(a.var, b.var)
            and fm.match(a.fn, b.fn)
            and len(a.args) == len(b.args)
            and all(vm.match(x, y) for x, y in zip(a.args, b.args))
        )
    if isinstance(a, Ite):
        return (
            _equiv_pred(a.pred, b.pred, vm)
            and _equiv_seq(a.then, b.then, vm, fm, lm)
            and _equiv_seq(a.els, b.els, vm, fm, lm)
        )
    if isinstance(a, RetryUntil):
        return (
            lm.match(a.loop_id, b.loop_id)
            and _equiv_seq(a.body, b.body, vm, fm, lm)
            and _equiv_pred(a.pred, b.pred, vm)
        )
    if isinstance(a, Foreach):
        return (
            lm.match(a.loop_id, b.loop_id)
            and vm.match(a.var, b.var)
            and _equiv_expr(a.source, b.source, vm, fm)
            and _equiv_seq(a.body, b.body, vm, fm, lm)
        )
    if isinstance(a, Return):
        return True
    return False


def equiv_mod_renaming(p1: Program, p2: Program) -> bool:
    """Structural equality under a bijective renaming of variables,
    hidden-function names, and loop ids. Parameter order is significant."""
    if len(p1.params) != len(p2.params):
        return False
    vm, fm, lm = _RenameMap(), _RenameMap(), _RenameMap()
    for a, b in zip(p1.params, p2.params):
        if not vm.match(a, b):
            return False
    if not _equiv_seq(p1.body, p2.body, vm, fm, lm):
        return False
    if len(p1.holes) != len(p2.holes) or len(p1.hidden_defs) != len(p2.hidden_defs):
        return False
    for h1 in p1.holes:
        if h1 in fm.fwd:
            if fm.fwd[h1] not in p2.holes:
                return False
    defs2 = dict(p2.hidden_defs)
    leftover1 = []
    leftover2 = set(defs2) - set(fm.bwd)
    for name1, fn1 in p1.hidden_defs:
        if name1 in fm.fwd:
            name2 = fm.fwd[name1]
            if name2 not in defs2 or fn1 != defs2[name2]:
                return False
        else:
            leftover1.append(fn1)
    # defs never referenced from the body must pair up in declaration order
    rest2 = [defs2[n] for n, _ in p2.hidden_defs if n in leftover2]
    if len(leftover1) != len(rest2):
        return False
    return all(f1 == f2 for f1, f2 in zip(leftover1, rest2))
