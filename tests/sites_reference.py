"""The recursive program walks and per-site analyses as they were before
rewrites.StateIndex: every rule re-walked the program for each site,
scope_before scanned all sites for each query, and _ite_reaching walked
from the root for every site and trace. Also the recursive walks that
validation, the cost functions and the index used before they counted
with stacks or read the counts kept on program nodes: the statement and
read counters, binders, loop ids, free variables, hidden-call checks,
visible-let binders and the names in use, and the least fresh name
outside them. And the recursive rebuilders that dsl.map_instrs
replaced: read renaming and const-inlining. And
the recursive term readers, expr_reads and pred_reads. And the
recursive printer and the recursive matcher that compared programs
up to renaming before dsl renamed them canonically. And the recursive
collector of a loop span's single-api conditional tree. Kept verbatim as
the reference the index, the node counts, the linear walks, the
rebuilds, the printer and the equivalence are tested against, except
that a conditional expression is a flat Select, whose cases each walk
takes in order; nothing in src/ uses it."""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional

from tracesynth import dsl
from tracesynth.dsl import (
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
    Program,
    PTrue,
    Return,
    RetryUntil,
    Select,
    ValueCheck,
    VarRef,
    _arg_key,
    _dotted,
    print_expr,
    print_pred,
)
from tracesynth.hidden import key_text, print_hidden_fn
from tracesynth.jsonvals import canonical_eq
from tracesynth.rewrites import _InlineReject
from tracesynth.traces import BR, ValuationError, evaluate_in_trace


# --- rewrites.py -----------------------------------------------------------------


def iter_seqs(seq, path=(), in_loop=False):
    """All sequence locations: (seq_path, seq, in_loop)."""
    yield path, seq, in_loop
    for i, ins in enumerate(seq):
        if isinstance(ins, dsl.Ite):
            yield from iter_seqs(ins.then, path + (i, 0), in_loop)
            yield from iter_seqs(ins.els, path + (i, 1), in_loop)
        elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
            yield from iter_seqs(ins.body, path + (i, 0), True)


def iter_instr_sites(seq):
    """All instruction sites in preorder: (path, instr, in_loop)."""
    for seq_path, s, in_loop in iter_seqs(seq):
        for i, ins in enumerate(s):
            yield seq_path + (i,), ins, in_loop


def _seq_at(seq, seq_path):
    for p in range(0, len(seq_path), 2):
        ins = seq[seq_path[p]]
        if isinstance(ins, dsl.Ite):
            seq = ins.then if seq_path[p + 1] == 0 else ins.els
        else:
            seq = ins.body
    return seq


def scope_before(program: dsl.Program, site_path) -> List[str]:
    """Input names usable at a site: parameters except br, then every
    binder (lets and loop variables) whose site precedes this one."""
    scope = [p for p in program.params if p != BR]
    for path, ins, _ in iter_instr_sites(program.body):
        if path >= tuple(site_path):
            break
        if isinstance(ins, (dsl.LetVisible, dsl.LetHidden)):
            scope.append(ins.var)
        elif isinstance(ins, dsl.Foreach):
            scope.append(ins.var)
    return scope


def _ite_reaching(program, sigma, ts, site_path, hidden) -> Optional[List[int]]:
    """Traces whose control path arrives at this site; None when a
    guard on the way cannot be evaluated."""
    reaching = []
    for i in ts.indices():
        ok = True
        p = 0
        while p + 1 < len(site_path):
            ins = _seq_at(program.body, site_path[:p])[site_path[p]]
            branch = site_path[p + 1]
            if isinstance(ins, dsl.Ite):
                try:
                    val = evaluate_in_trace(ins.pred, sigma, i, hidden)
                except ValuationError:
                    ok = False
                    break
                if val is not (branch == 0):
                    ok = False
                    break
            else:
                ok = False  # loop ancestors are handled elsewhere
                break
            p += 2
        if ok:
            reaching.append(i)
    return reaching


def _tree_stmts(ite, path, api):
    """Statements of a conditional tree whose instructions are all
    calls of one api (or nested such trees); None otherwise."""
    out = []
    for branch_code, branch in ((0, ite.then), (1, ite.els)):
        for i, ins in enumerate(branch):
            p = path + (branch_code, i)
            if isinstance(ins, dsl.LetVisible) and ins.api == api:
                out.append((p, ins))
            elif isinstance(ins, dsl.Ite):
                sub = _tree_stmts(ins, p, api)
                if sub is None:
                    return None
                out.extend(sub)
            else:
                return None
    return out


# --- dsl.py ----------------------------------------------------------------------


def expr_reads(e) -> list:
    """Variable names read by an expression, in occurrence order."""
    if isinstance(e, Const):
        return []
    if isinstance(e, VarRef):
        return [e.name]
    if isinstance(e, Select):
        return [n for p, x in e.cases for n in pred_reads(p) + expr_reads(x)] + expr_reads(e.default)
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


def count_reads(seq, name: str) -> int:
    """Syntactic read occurrences of name anywhere in seq."""
    return sum(1 for n in seq_reads(seq) if n == name)


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


def check_calls(seq, known) -> None:
    """validate_program's nested check_calls and check_expr, with the
    hidden-function names passed in."""

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
        if isinstance(e, dsl.HiddenCall) and e.fn_name not in known:
            raise DslError(f"call to undefined hidden function {e.fn_name}")
        if isinstance(e, dsl.Select):
            for _, x in e.cases:
                check_expr(x)
            check_expr(e.default)

    check_calls(seq)


# The prefixes the rules take fresh names with.
FRESH_PREFIXES = ("f_", "b_", "v_", "i_", "s_", "L_", "u_", "loop_")


def fresh(program: dsl.Program, prefix: str) -> str:
    """The least prefix<n> outside used_names(program), to compare with
    rewrites.StateIndex.fresh."""
    used = used_names(program)
    n = 1
    while f"{prefix}{n}" in used:
        n += 1
    return f"{prefix}{n}"


def used_names(program: dsl.Program) -> set:
    """The names in use, to compare with rewrites.StateIndex.names."""
    names = set(program.params)
    names.update(seq_binders(program.body))
    names.update(seq_loop_ids(program.body))
    names.update(n for n, _ in program.hidden_defs)
    names.update(program.holes)
    names.update(
        ins.api for _, ins, _ in iter_instr_sites(program.body) if isinstance(ins, dsl.LetVisible)
    )
    return names


# --- read renaming and const-inlining, before dsl.map_instrs -------------------


def _subst_expr(e, old, new):
    if isinstance(e, Const):
        return e
    if isinstance(e, VarRef):
        return VarRef(new) if e.name == old else e
    if isinstance(e, Select):
        return Select(
            tuple((_subst_pred(p, old, new), _subst_expr(x, old, new)) for p, x in e.cases),
            _subst_expr(e.default, old, new),
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


def _fold_const_pred(p, var, value):
    if isinstance(p, dsl.ValueCheck) and p.var == var:
        return dsl.PTrue() if canonical_eq(value, p.const) else dsl.PFalse()
    if isinstance(p, dsl.PAnd):
        return dsl.PAnd(_fold_const_pred(p.left, var, value), _fold_const_pred(p.right, var, value))
    if isinstance(p, dsl.POr):
        return dsl.POr(_fold_const_pred(p.left, var, value), _fold_const_pred(p.right, var, value))
    if isinstance(p, dsl.PNot):
        return dsl.PNot(_fold_const_pred(p.inner, var, value))
    if isinstance(p, dsl.Compare) and var in (p.left, p.right):
        raise _InlineReject()
    return p


def _inline_const_expr(e, var, value):
    if isinstance(e, dsl.VarRef):
        return dsl.Const(value) if e.name == var else e
    if isinstance(e, dsl.Select):
        return dsl.Select(
            tuple(
                (_fold_const_pred(p, var, value), _inline_const_expr(x, var, value))
                for p, x in e.cases
            ),
            _inline_const_expr(e.default, var, value),
        )
    if isinstance(e, dsl.HiddenCall) and var in e.args:
        raise _InlineReject()
    return e


def _inline_const_seq(seq, var, value):
    new = []
    for ins in seq:
        if isinstance(ins, dsl.LetVisible):
            new.append(
                replace(
                    ins,
                    args=tuple((k, _inline_const_expr(e, var, value)) for k, e in ins.args),
                )
            )
        elif isinstance(ins, dsl.LetHidden):
            if var in ins.args:
                raise _InlineReject()
            new.append(ins)
        elif isinstance(ins, dsl.Ite):
            new.append(
                dsl.Ite(
                    _fold_const_pred(ins.pred, var, value),
                    _inline_const_seq(ins.then, var, value),
                    _inline_const_seq(ins.els, var, value),
                )
            )
        elif isinstance(ins, dsl.RetryUntil):
            new.append(
                replace(
                    ins,
                    body=_inline_const_seq(ins.body, var, value),
                    pred=_fold_const_pred(ins.pred, var, value),
                )
            )
        elif isinstance(ins, dsl.Foreach):
            new.append(
                replace(
                    ins,
                    source=_inline_const_expr(ins.source, var, value),
                    body=_inline_const_seq(ins.body, var, value),
                )
            )
        else:
            new.append(ins)
    return tuple(new)


# --- costs.py --------------------------------------------------------------------


def count_statements(seq) -> int:
    """Statements for the syntactic cost: visible-call lets,
    conditionals, loop headers, returns. Hidden-call lets are free."""
    n = 0
    for ins in seq:
        if isinstance(ins, dsl.LetVisible):
            n += 1
        elif isinstance(ins, dsl.LetHidden):
            pass
        elif isinstance(ins, dsl.Ite):
            n += 1 + count_statements(ins.then) + count_statements(ins.els)
        elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
            n += 1 + count_statements(ins.body)
        elif isinstance(ins, dsl.Return):
            n += 1
        else:
            raise TypeError(f"not an instruction: {ins!r}")
    return n


def _visible_let_vars(seq):
    for ins in seq:
        if isinstance(ins, dsl.LetVisible):
            yield ins.var
        elif isinstance(ins, dsl.Ite):
            yield from _visible_let_vars(ins.then)
            yield from _visible_let_vars(ins.els)
        elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
            yield from _visible_let_vars(ins.body)


# --- dsl.py: printing ---------------------------------------------------------------


def _print_instr(instr, indent: int, out: list) -> None:
    pad = "  " * indent
    if isinstance(instr, LetVisible):
        args = ", ".join(f"{key_text(k, _arg_key)}={print_expr(e)}" for k, e in instr.args)
        out.append(f"{pad}let {instr.var} = {key_text(instr.api, _dotted)}({args})")
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


# --- dsl.py: structural equivalence modulo renaming -------------------------------


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
    if isinstance(a, Select):
        return (
            len(a.cases) == len(b.cases)
            and all(
                _equiv_pred(p, q, vm) and _equiv_expr(x, y, vm, fm)
                for (p, x), (q, y) in zip(a.cases, b.cases)
            )
            and _equiv_expr(a.default, b.default, vm, fm)
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
