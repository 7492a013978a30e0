"""The rewrite catalog.

Refinements transform the program and the valuation without new
synthesis work: pulling or pushing common calls out of conditionals,
merging or sequencing nested conditionals, dropping empty conditionals
and unused parameters, inlining trivial hidden functions, and turning a
branch-dependent expression into a fresh input parameter.

Synthesizing rewrites leave a named hole for a hidden function plus the
input/output examples its implementation must satisfy: replacing a
branch guard with a hidden predicate, deriving an API argument from
values already in scope, and rolling repeated calls into retry or
foreach loops.

Every rule computes the successor valuation eagerly; a candidate whose
valuation cannot be built is simply not offered. Candidates come back
sorted by (site path, rule order), which is the deterministic tie-break
the search relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from . import dsl
from .jsonvals import ABSENT, canonical_eq
from .pbe import ConstraintCache, GrammarConfig, IOExample
from .traces import (
    BR,
    PerIteration,
    Scalar,
    TraceSet,
    TraceValuation,
    ValuationError,
    ValuationTransform,
    _cell_value,
    eval_with_lookup,
    evaluate_in_trace,
)


@dataclass(frozen=True)
class SynthesisSpec:
    hole: str
    kind: str  # "bool" | "value"
    examples: Tuple[IOExample, ...]


@dataclass(frozen=True)
class Rewrite:
    rule: str
    site: str
    path: Tuple[int, ...]
    rule_index: int
    program: dsl.Program
    transform: ValuationTransform
    specs: Tuple[SynthesisSpec, ...] = ()

    def order_key(self):
        return (self.path, self.rule_index)


@dataclass
class RewriteContext:
    ts: TraceSet
    cache: ConstraintCache
    pbe_cfg: GrammarConfig = None

    def __post_init__(self):
        if self.pbe_cfg is None:
            self.pbe_cfg = GrammarConfig()


# --- tree navigation ---------------------------------------------------------
#
# An instruction site is a tuple of ints: index within its sequence,
# then (branch, index) pairs while descending. Branch 0 is the
# then-branch or loop body, branch 1 the else-branch. Lexicographic
# order on sites is preorder.


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


def replace_seq_at(seq, seq_path, new_seq):
    if not seq_path:
        return tuple(new_seq)
    i, branch = seq_path[0], seq_path[1]
    ins = seq[i]
    if isinstance(ins, dsl.Ite):
        if branch == 0:
            ins2 = replace(ins, then=replace_seq_at(ins.then, seq_path[2:], new_seq))
        else:
            ins2 = replace(ins, els=replace_seq_at(ins.els, seq_path[2:], new_seq))
    elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
        ins2 = replace(ins, body=replace_seq_at(ins.body, seq_path[2:], new_seq))
    else:
        raise ValueError(f"path descends into a leaf at {seq_path}")
    return seq[:i] + (ins2,) + seq[i + 1 :]


def _seq_at(seq, seq_path):
    for p in range(0, len(seq_path), 2):
        ins = seq[seq_path[p]]
        if isinstance(ins, dsl.Ite):
            seq = ins.then if seq_path[p + 1] == 0 else ins.els
        else:
            seq = ins.body
    return seq


def _splice(body, path, new, length=1):
    """body with the length instructions starting at site path replaced
    by the instructions in new."""
    seq_path, idx = path[:-1], path[-1]
    seq = _seq_at(body, seq_path)
    return replace_seq_at(body, seq_path, seq[:idx] + new + seq[idx + length :])


def _site_str(path) -> str:
    return "/".join(str(p) for p in path) or "top"


def used_names(program: dsl.Program) -> set:
    names = set(program.params)
    names.update(dsl.seq_binders(program.body))
    names.update(dsl.seq_loop_ids(program.body))
    names.update(n for n, _ in program.hidden_defs)
    names.update(program.holes)
    return names


def fresh_name(prefix: str, used: set) -> str:
    n = 1
    while f"{prefix}{n}" in used:
        n += 1
    name = f"{prefix}{n}"
    used.add(name)
    return name


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


def _non_absent(sigma, var, idx) -> bool:
    if not sigma.has(var, idx):
        return False
    cell = sigma.lookup(var, idx)
    if isinstance(cell, Scalar):
        return cell.value is not ABSENT
    return bool(cell.values)


def _merge_cells(ca, cb) -> Optional[Scalar]:
    """Cell for a variable merged from two mutually exclusive branches;
    None when the merge is out of scope (per-iteration cells)."""
    if not isinstance(ca, Scalar) or not isinstance(cb, Scalar):
        return None
    if ca.value is not ABSENT:
        return ca
    return cb


def _reaching(sigma, ts, var) -> List[int]:
    return [i for i in ts.indices() if _non_absent(sigma, var, i)]


# --- pull / push -------------------------------------------------------------


def _unify_args(a: dsl.LetVisible, b: dsl.LetVisible, pred):
    if a.api != b.api:
        return None
    if tuple(k for k, _ in a.args) != tuple(k for k, _ in b.args):
        return None
    reads = set()
    for _, e in a.args + b.args:
        reads.update(dsl.expr_reads(e))
    if a.var in reads or b.var in reads:
        return None
    merged = []
    for (k, ea), (_, eb) in zip(a.args, b.args):
        merged.append((k, ea if ea == eb else dsl.Ternary(pred, ea, eb)))
    return tuple(merged)


def _merged_let_rewrite(
    program, sigma, ts, rule, rule_index, path, keep: dsl.LetVisible,
    drop: dsl.LetVisible, new_instrs,
):
    """Shared tail of pull/push/merge: build the program with keep's
    name as the surviving binder and fold the two valuation columns."""
    new_entries = {}
    for i in ts.indices():
        cell = _merge_cells(sigma.lookup(keep.var, i), sigma.lookup(drop.var, i))
        if cell is None:
            return None
        new_entries[(keep.var, i)] = cell
    body = dsl.rename_reads(_splice(program.body, path, new_instrs), drop.var, keep.var)
    return Rewrite(
        rule=rule,
        site=_site_str(path),
        path=tuple(path),
        rule_index=rule_index,
        program=replace(program, body=body),
        transform=ValuationTransform(drop_vars=(drop.var,), new_entries=new_entries),
    )


def rule_pull(program, sigma, ctx, rule_index):
    out = []
    for path, ins, _ in iter_instr_sites(program.body):
        if not isinstance(ins, dsl.Ite) or not ins.then or not ins.els:
            continue
        a, b = ins.then[0], ins.els[0]
        if not (isinstance(a, dsl.LetVisible) and isinstance(b, dsl.LetVisible)):
            continue
        merged_args = _unify_args(a, b, ins.pred)
        if merged_args is None:
            continue
        new = (
            dsl.LetVisible(a.var, a.api, merged_args),
            replace(ins, then=ins.then[1:], els=ins.els[1:]),
        )
        rw = _merged_let_rewrite(
            program, sigma, ctx.ts, "pull", rule_index, path, a, b, new
        )
        if rw:
            out.append(rw)
    return out


def rule_push(program, sigma, ctx, rule_index):
    out = []
    for path, ins, _ in iter_instr_sites(program.body):
        if not isinstance(ins, dsl.Ite) or not ins.then or not ins.els:
            continue
        a, b = ins.then[-1], ins.els[-1]
        if not (isinstance(a, dsl.LetVisible) and isinstance(b, dsl.LetVisible)):
            continue
        merged_args = _unify_args(a, b, ins.pred)
        if merged_args is None:
            continue
        new = (
            replace(ins, then=ins.then[:-1], els=ins.els[:-1]),
            dsl.LetVisible(a.var, a.api, merged_args),
        )
        rw = _merged_let_rewrite(
            program, sigma, ctx.ts, "push", rule_index, path, a, b, new
        )
        if rw:
            out.append(rw)
    return out


# --- conditional cleanup ------------------------------------------------------


def rule_eliminate_empty_if(program, sigma, ctx, rule_index):
    out = []
    for path, ins, _ in iter_instr_sites(program.body):
        if isinstance(ins, dsl.Ite) and not ins.then and not ins.els:
            out.append(
                Rewrite(
                    rule="eliminate_empty_if",
                    site=_site_str(path),
                    path=tuple(path),
                    rule_index=rule_index,
                    program=replace(program, body=_splice(program.body, path, ())),
                    transform=ValuationTransform(),
                )
            )
    return out


def rule_invert_empty_then(program, sigma, ctx, rule_index):
    out = []
    for path, ins, _ in iter_instr_sites(program.body):
        if isinstance(ins, dsl.Ite) and not ins.then and ins.els:
            flipped = dsl.Ite(dsl.PNot(ins.pred), ins.els, ())
            body = _splice(program.body, path, (flipped,))
            out.append(
                Rewrite(
                    rule="invert_empty_then",
                    site=_site_str(path),
                    path=tuple(path),
                    rule_index=rule_index,
                    program=replace(program, body=body),
                    transform=ValuationTransform(),
                )
            )
    return out


def rule_merge_nested(program, sigma, ctx, rule_index):
    """Two single-call branches separated by a nested conditional chain
    collapse into one guarded call: `if c1 {A} else { if c2 {B} else {} }`
    becomes `if c1 || c2 {merged}`, and `if c1 {A} else { if c2 {} else
    {B} }` becomes `if c1 || !c2 {merged}`."""
    out = []
    for path, ins, _ in iter_instr_sites(program.body):
        if not isinstance(ins, dsl.Ite):
            continue
        if len(ins.then) != 1 or len(ins.els) != 1:
            continue
        a, inner = ins.then[0], ins.els[0]
        if not isinstance(a, dsl.LetVisible) or not isinstance(inner, dsl.Ite):
            continue
        variants = []
        if (
            len(inner.then) == 1
            and isinstance(inner.then[0], dsl.LetVisible)
            and not inner.els
        ):
            variants.append((inner.then[0], dsl.POr(ins.pred, inner.pred)))
        if (
            not inner.then
            and len(inner.els) == 1
            and isinstance(inner.els[0], dsl.LetVisible)
        ):
            variants.append((inner.els[0], dsl.POr(ins.pred, dsl.PNot(inner.pred))))
        for b, new_pred in variants:
            merged_args = _unify_args(a, b, ins.pred)
            if merged_args is None:
                continue
            new = (dsl.Ite(new_pred, (dsl.LetVisible(a.var, a.api, merged_args),), ()),)
            rw = _merged_let_rewrite(
                program, sigma, ctx.ts, "merge_nested", rule_index, path, a, b, new
            )
            if rw:
                out.append(rw)
    return out


def rule_sequence_nested(program, sigma, ctx, rule_index):
    """A conditional whose then-branch ends in a nested conditional
    (else branches empty) splits into two sequential conditionals, the
    second guarded by the conjunction; when the nested conditional is
    the whole branch it simply flattens."""
    out = []
    for path, ins, _ in iter_instr_sites(program.body):
        if not isinstance(ins, dsl.Ite) or ins.els or not ins.then:
            continue
        inner = ins.then[-1]
        if not isinstance(inner, dsl.Ite) or inner.els:
            continue
        combined = dsl.Ite(dsl.PAnd(ins.pred, inner.pred), inner.then, ())
        if len(ins.then) == 1:
            new = (combined,)
        else:
            new = (dsl.Ite(ins.pred, ins.then[:-1], ()), combined)
        body = _splice(program.body, path, new)
        out.append(
            Rewrite(
                rule="sequence_nested",
                site=_site_str(path),
                path=tuple(path),
                rule_index=rule_index,
                program=replace(program, body=body),
                transform=ValuationTransform(),
            )
        )
    return out


# --- parameter and hidden-let housekeeping -----------------------------------


def rule_eliminate_unused_param(program, sigma, ctx, rule_index):
    out = []
    for pidx, p in enumerate(program.params):
        if dsl.count_reads(program.body, p) == 0:
            params = tuple(q for q in program.params if q != p)
            out.append(
                Rewrite(
                    rule="eliminate_unused_param",
                    site=p,
                    path=(-1, pidx),
                    rule_index=rule_index,
                    program=replace(program, params=params),
                    transform=ValuationTransform(params=params),
                )
            )
    return out


class _InlineReject(Exception):
    pass


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
    if isinstance(e, dsl.Ternary):
        return dsl.Ternary(
            _fold_const_pred(e.pred, var, value),
            _inline_const_expr(e.then_expr, var, value),
            _inline_const_expr(e.else_expr, var, value),
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


def _fn_still_used(body, fn) -> bool:
    for _, ins, _ in iter_instr_sites(body):
        if isinstance(ins, dsl.LetHidden) and ins.fn == fn:
            return True
        if isinstance(ins, dsl.LetVisible):
            for _, e in ins.args:
                for n in _hidden_call_names(e):
                    if n == fn:
                        return True
        if isinstance(ins, dsl.Foreach):
            for n in _hidden_call_names(ins.source):
                if n == fn:
                    return True
    return False


def _hidden_call_names(e):
    if isinstance(e, dsl.HiddenCall):
        yield e.fn_name
    elif isinstance(e, dsl.Ternary):
        yield from _hidden_call_names(e.then_expr)
        yield from _hidden_call_names(e.else_expr)


def rule_inline_trivial_hidden(program, sigma, ctx, rule_index):
    """Hidden lets whose function is an input projection or ignores its
    inputs entirely inline away."""
    from .hidden import Input, eval_hidden, expr_uses_input

    defs = program.hidden_map()
    out = []
    for path, ins, _ in iter_instr_sites(program.body):
        if not isinstance(ins, dsl.LetHidden) or ins.fn not in defs:
            continue
        fn_body = defs[ins.fn]
        body = _splice(program.body, path, ())
        if isinstance(fn_body.body, Input):
            target = ins.args[fn_body.body.slot]
            body2 = dsl.rename_reads(body, ins.var, target)
        elif not expr_uses_input(fn_body.body):
            value = eval_hidden(fn_body, [None] * fn_body.arity)
            try:
                body2 = _inline_const_seq(body, ins.var, value)
            except _InlineReject:
                continue
        else:
            continue
        hidden_defs = program.hidden_defs
        if not _fn_still_used(body2, ins.fn):
            hidden_defs = tuple((n, f) for n, f in hidden_defs if n != ins.fn)
        out.append(
            Rewrite(
                rule="inline_trivial_hidden",
                site=_site_str(path),
                path=tuple(path),
                rule_index=rule_index,
                program=replace(program, body=body2, hidden_defs=hidden_defs),
                transform=ValuationTransform(drop_vars=(ins.var,)),
            )
        )
    return out


# --- introduce parameter -------------------------------------------------------


def rule_introduce_parameter(program, sigma, ctx, rule_index):
    """A branch-dependent argument expression becomes a fresh input
    parameter when no bound variable could explain it instead: either
    nothing is in scope at its first occurrence, or deriving it from
    the scope is already recorded unsatisfiable."""
    hidden = program.hidden_map()
    candidates = []  # (first_path, expr) distinct by structure
    seen = set()
    for path, ins, in_loop in iter_instr_sites(program.body):
        if not isinstance(ins, dsl.LetVisible):
            continue
        for e in (expr for _, expr in ins.args):
            if not isinstance(e, dsl.Ternary) or BR not in dsl.expr_reads(e):
                continue
            key = dsl.print_expr(e)
            if key in seen:
                continue
            seen.add(key)
            if not in_loop:
                candidates.append((path, ins, e))
    out = []
    for path, stmt, e in candidates:
        scope = scope_before(program, path)
        if scope:
            # Something is in scope that might derive this value; hold
            # off until the derivation attempt is recorded unsolvable.
            examples = _derivation_examples(program, sigma, ctx.ts, path, stmt, e)
            if examples is None or not ctx.cache.has_unsat(list(examples), "value"):
                continue
        try:
            values = {
                i: evaluate_in_trace(e, sigma, i, hidden) for i in ctx.ts.indices()
            }
        except ValuationError:
            continue
        used = used_names(program)
        q = fresh_name("i_", used)
        body = _replace_param_occurrences(program, sigma, ctx.ts, e, values, q, hidden)
        params = program.params + (q,)
        new_entries = {(q, i): Scalar(values[i]) for i in ctx.ts.indices()}
        out.append(
            Rewrite(
                rule="introduce_parameter",
                site=f"{dsl.print_expr(e)} at {_site_str(path)}",
                path=tuple(path),
                rule_index=rule_index,
                program=replace(program, params=params, body=body),
                transform=ValuationTransform(new_entries=new_entries, params=params),
            )
        )
    return out


def _replace_param_occurrences(program, sigma, ts, e, values, q, hidden):
    """Swap in the parameter for every structural occurrence of the
    expression, plus other arguments whose recorded value matches on
    every trace that executes their statement: constants anywhere, and
    branch-dependent expressions outside loops (inside a loop their
    value may change per iteration, which a parameter cannot)."""
    target = dsl.VarRef(q)

    def value_matches(a, var):
        reaching = _reaching(sigma, ts, var)
        if not reaching:
            return False
        for i in reaching:
            try:
                got = evaluate_in_trace(a, sigma, i, hidden)
            except ValuationError:
                return False
            if not canonical_eq(got, values[i]):
                return False
        return True

    def replace_in_stmt(ins, in_loop):
        new_args = []
        for k, a in ins.args:
            if a == e:
                new_args.append((k, target))
            elif isinstance(a, dsl.Const) and value_matches(a, ins.var):
                new_args.append((k, target))
            elif (
                not in_loop
                and BR in dsl.expr_reads(a)
                and value_matches(a, ins.var)
            ):
                new_args.append((k, target))
            else:
                new_args.append((k, a))
        return replace(ins, args=tuple(new_args))

    def walk(seq, in_loop):
        out = []
        for ins in seq:
            if isinstance(ins, dsl.LetVisible):
                out.append(replace_in_stmt(ins, in_loop))
            elif isinstance(ins, dsl.Ite):
                out.append(
                    dsl.Ite(ins.pred, walk(ins.then, in_loop), walk(ins.els, in_loop))
                )
            elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
                out.append(replace(ins, body=walk(ins.body, True)))
            else:
                out.append(ins)
        return tuple(out)

    return walk(program.body, False)


# --- synthesis rules -----------------------------------------------------------


def _scope_values(sigma, scope, trace_idx):
    return tuple(_cell_value(sigma.lookup(s, trace_idx)) for s in scope)


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


def rule_eliminate_branch_condition(program, sigma, ctx, rule_index):
    hidden = program.hidden_map()
    out = []
    for path, ins, in_loop in iter_instr_sites(program.body):
        if not isinstance(ins, dsl.Ite) or in_loop:
            continue
        if BR not in dsl.pred_reads(ins.pred):
            continue
        scope = scope_before(program, path)
        if not scope:
            continue
        reaching = _ite_reaching(program, sigma, ctx.ts, path, hidden)
        if not reaching:
            continue
        examples = []
        ok = True
        for i in reaching:
            try:
                guard_val = evaluate_in_trace(ins.pred, sigma, i, hidden)
                args = _scope_values(sigma, scope, i)
            except ValuationError:
                ok = False
                break
            examples.append(IOExample(args=args, output=bool(guard_val)))
        if not ok:
            continue
        used = used_names(program)
        fn = fresh_name("f_", used)
        bvar = fresh_name("b_", used)
        hidden_let = dsl.LetHidden(bvar, fn, tuple(scope))
        new_ite = replace(ins, pred=dsl.ValueCheck(bvar, True))
        body = _splice(program.body, path, (hidden_let, new_ite))
        new_entries = {}
        for i in ctx.ts.indices():
            if i in reaching:
                val = evaluate_in_trace(ins.pred, sigma, i, hidden)
                new_entries[(bvar, i)] = Scalar(bool(val))
            else:
                new_entries[(bvar, i)] = Scalar(ABSENT)
        # A branch selector that selected only this guard has no job
        # left; retiring it is part of the same rewrite.
        params = program.params
        if BR in params and BR not in dsl.seq_reads(body):
            params = tuple(p for p in params if p != BR)
        out.append(
            Rewrite(
                rule="eliminate_branch_condition",
                site=_site_str(path),
                path=tuple(path),
                rule_index=rule_index,
                program=replace(
                    program, params=params, body=body, holes=program.holes + (fn,)
                ),
                transform=ValuationTransform(new_entries=new_entries, params=params),
                specs=(SynthesisSpec(fn, "bool", tuple(examples)),),
            )
        )
    return out


def _iteration_lookup(sigma, trace_idx, it, n):
    def lookup(name):
        cell = sigma.lookup(name, trace_idx)
        if isinstance(cell, Scalar):
            return cell.value
        if isinstance(cell, PerIteration):
            if len(cell.values) == n:
                return cell.values[it]
            return cell.values[-1] if cell.values else ABSENT
        raise ValuationError(f"bad cell for {name}")

    return lookup


def _derivation_examples(program, sigma, ts, stmt_path, stmt, arg_expr):
    """Examples for deriving one argument of a visible call from the
    values in scope. None when they cannot be built."""
    hidden = program.hidden_map()
    scope = scope_before(program, stmt_path)
    if not scope:
        return None
    in_loop = any(
        isinstance(_seq_at(program.body, stmt_path[:p])[stmt_path[p]],
                   (dsl.RetryUntil, dsl.Foreach))
        for p in range(0, len(stmt_path) - 1, 2)
    )
    examples = []
    try:
        if not in_loop:
            for i in _reaching(sigma, ts, stmt.var):
                args = _scope_values(sigma, scope, i)
                out = evaluate_in_trace(arg_expr, sigma, i, hidden)
                examples.append(IOExample(args=args, output=out))
        else:
            for i in ts.indices():
                cell = sigma.lookup(stmt.var, i)
                if not isinstance(cell, PerIteration):
                    return None
                n = len(cell.values)
                for it in range(n):
                    lk = _iteration_lookup(sigma, i, it, n)
                    args = tuple(lk(s) for s in scope)
                    out = eval_with_lookup(arg_expr, lk, hidden)
                    examples.append(IOExample(args=args, output=out))
    except ValuationError:
        return None
    if not examples:
        return None
    return tuple(examples)


def rule_eliminate_argument(program, sigma, ctx, rule_index):
    hidden = program.hidden_map()
    out = []
    for path, ins, in_loop in iter_instr_sites(program.body):
        if not isinstance(ins, dsl.LetVisible):
            continue
        for arg_idx, (name, e) in enumerate(ins.args):
            if BR not in dsl.expr_reads(e):
                continue
            scope = scope_before(program, path)
            if not scope:
                continue
            examples = _derivation_examples(program, sigma, ctx.ts, path, ins, e)
            if examples is None:
                continue
            used = used_names(program)
            fn = fresh_name("f_", used)
            vvar = fresh_name("v_", used)
            hidden_let = dsl.LetHidden(vvar, fn, tuple(scope))
            new_args = tuple(
                (k, dsl.VarRef(vvar) if j == arg_idx else a)
                for j, (k, a) in enumerate(ins.args)
            )
            new_stmt = replace(ins, args=new_args)
            body = _splice(program.body, path, (hidden_let, new_stmt))
            new_entries = {}
            if not in_loop:
                reaching = set(_reaching(sigma, ctx.ts, ins.var))
                k = 0
                for i in ctx.ts.indices():
                    if i in reaching:
                        new_entries[(vvar, i)] = Scalar(examples[k].output)
                        k += 1
                    else:
                        new_entries[(vvar, i)] = Scalar(ABSENT)
            else:
                k = 0
                for i in ctx.ts.indices():
                    cell = sigma.lookup(ins.var, i)
                    n = len(cell.values)
                    new_entries[(vvar, i)] = PerIteration(
                        tuple(examples[k + j].output for j in range(n))
                    )
                    k += n
            out.append(
                Rewrite(
                    rule="eliminate_argument",
                    site=f"{name} at {_site_str(path)}",
                    path=tuple(path) + (arg_idx,),
                    rule_index=rule_index,
                    program=replace(program, body=body, holes=program.holes + (fn,)),
                    transform=ValuationTransform(new_entries=new_entries),
                    specs=(SynthesisSpec(fn, "value", examples),),
                )
            )
    return out


# --- loop introduction ----------------------------------------------------------


@dataclass
class _Span:
    seq_path: Tuple[int, ...]
    start: int
    length: int  # instructions consumed in the sequence
    stmts: Tuple[Tuple[Tuple[int, ...], dsl.LetVisible], ...]  # preorder
    api: str


def _first_leaf_api(ite) -> Optional[str]:
    for branch in (ite.then, ite.els):
        for ins in branch:
            if isinstance(ins, dsl.LetVisible):
                return ins.api
            if isinstance(ins, dsl.Ite):
                api = _first_leaf_api(ins)
                if api is not None:
                    return api
    return None


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


def _find_spans(program) -> List[_Span]:
    """Maximal runs of instructions that are all calls of one api,
    where conditionals whose contents are such calls count too. The
    statement list is in program order (preorder), which within any one
    trace is also execution order, since each trace takes one branch."""
    spans = []
    for seq_path, seq, in_loop in iter_seqs(program.body):
        if in_loop:
            continue
        i = 0
        while i < len(seq):
            ins = seq[i]
            if isinstance(ins, dsl.LetVisible):
                api = ins.api
            elif isinstance(ins, dsl.Ite):
                api = _first_leaf_api(ins)
            else:
                api = None
            if api is None:
                i += 1
                continue
            stmts: List = []
            j = i
            while j < len(seq):
                nxt = seq[j]
                if isinstance(nxt, dsl.LetVisible) and nxt.api == api:
                    stmts.append((seq_path + (j,), nxt))
                    j += 1
                elif isinstance(nxt, dsl.Ite):
                    sub = _tree_stmts(nxt, seq_path + (j,), api)
                    if not sub:
                        break
                    stmts.extend(sub)
                    j += 1
                else:
                    break
            if len(stmts) >= 2:
                spans.append(_Span(seq_path, i, j - i, tuple(stmts), api))
            i = max(j, i + 1)
    return spans


def _span_iterations(span, sigma, ts):
    """Per-trace executed statements: {trace: [(stmt, response)]}.
    None if some trace never enters the span."""
    runs = {}
    for i in ts.indices():
        executed = []
        for path, stmt in span.stmts:
            if _non_absent(sigma, stmt.var, i):
                cell = sigma.lookup(stmt.var, i)
                if not isinstance(cell, Scalar):
                    return None
                executed.append((stmt, cell.value))
        if not executed:
            return None
        runs[i] = executed
    return runs


def _span_arg_profile(span, runs, sigma, ts, hidden):
    """Classify argument names as constant or varying across the span.
    Returns (names, varying_names, per-trace values per name), or None
    when the span cannot unify (mismatched names, unevaluable args)."""
    first = span.stmts[0][1]
    names = tuple(k for k, _ in first.args)
    for _, stmt in span.stmts:
        if tuple(k for k, _ in stmt.args) != names:
            return None
    values = {name: {} for name in names}  # name -> trace -> [per-iteration]
    try:
        for i in ts.indices():
            for stmt, _ in runs[i]:
                for name, e in stmt.args:
                    values[name].setdefault(i, []).append(
                        evaluate_in_trace(e, sigma, i, hidden)
                    )
    except ValuationError:
        return None
    varying = []
    for name in names:
        constant = all(
            all(canonical_eq(v, vals[0]) for v in vals)
            for vals in values[name].values()
        )
        if not constant:
            varying.append(name)
    return names, varying, values


def _pick_constant_exprs(span, values, sigma, ts, hidden, names, varying):
    """For each within-trace-constant argument, an expression from the
    span that evaluates to that constant on every trace, reading
    nothing bound inside the span. None if some argument has no such
    expression (the loop body could not reproduce the calls)."""
    span_vars = {stmt.var for _, stmt in span.stmts}
    chosen = {}
    for name in names:
        if name in varying:
            continue
        expr = None
        for _, stmt in span.stmts:
            cand = dict(stmt.args)[name]
            if set(dsl.expr_reads(cand)) & span_vars:
                continue
            try:
                ok = all(
                    canonical_eq(
                        evaluate_in_trace(cand, sigma, i, hidden),
                        values[name][i][0],
                    )
                    for i in ts.indices()
                )
            except ValuationError:
                ok = False
            if ok:
                expr = cand
                break
        if expr is None:
            return None
        chosen[name] = expr
    return chosen


def _span_outside_reads(program, span) -> bool:
    """Whether any variable bound inside the span is read outside the
    instructions the span consumes (those reads would change meaning
    once the span collapses into a loop)."""
    seq = _seq_at(program.body, span.seq_path)
    consumed = seq[span.start : span.start + span.length]
    for v in (stmt.var for _, stmt in span.stmts):
        if dsl.count_reads(program.body, v) > dsl.count_reads(consumed, v):
            return True
    return False


def _loop_spans(program, sigma, ctx, n_varying):
    """Spans that some trace runs more than once, whose calls unify
    with exactly n_varying arguments varying within a trace, and whose
    binders are read only inside the span. Yields (span, runs, names,
    varying, values, chosen), chosen mapping each constant argument to
    an expression for it."""
    hidden = program.hidden_map()
    for span in _find_spans(program):
        runs = _span_iterations(span, sigma, ctx.ts)
        if runs is None:
            continue
        if max(len(r) for r in runs.values()) < 2:
            continue
        profile = _span_arg_profile(span, runs, sigma, ctx.ts, hidden)
        if profile is None:
            continue
        names, varying, values = profile
        if len(varying) != n_varying:
            continue
        if _span_outside_reads(program, span):
            continue
        chosen = _pick_constant_exprs(
            span, values, sigma, ctx.ts, hidden, names, varying
        )
        if chosen is None:
            continue
        yield span, runs, names, varying, values, chosen


def _roll_span(program, span, rule, rule_index, loop_instrs, fn, new_entries, spec):
    """The rewrite replacing the span by loop_instrs, which keep only
    the first call's binder and leave fn as a hole."""
    path = span.seq_path + (span.start,)
    first = span.stmts[0][1]
    body = _splice(program.body, path, loop_instrs, span.length)
    drop = tuple(stmt.var for _, stmt in span.stmts if stmt.var != first.var)
    return Rewrite(
        rule=rule,
        site=_site_str(path),
        path=path,
        rule_index=rule_index,
        program=replace(program, body=body, holes=program.holes + (fn,)),
        transform=ValuationTransform(drop_vars=drop, new_entries=new_entries),
        specs=(spec,),
    )


def rule_introduce_retry(program, sigma, ctx, rule_index):
    out = []
    for span, runs, names, _, _, chosen in _loop_spans(program, sigma, ctx, 0):
        first_path, first = span.stmts[0]
        scope = scope_before(program, first_path) + [first.var]
        used = used_names(program)
        fn = fresh_name("f_", used)
        svar = fresh_name("s_", used)
        loop_id = fresh_name("loop_", used)
        examples = []
        for i in ctx.ts.indices():
            n = len(runs[i])
            for it, (_, response) in enumerate(runs[i]):
                args = _scope_values(sigma, scope[:-1], i) + (response,)
                examples.append(IOExample(args=args, output=(it == n - 1)))
        call_args = tuple((k, chosen[k]) for k in names)
        loop = dsl.RetryUntil(
            loop_id,
            (
                dsl.LetVisible(first.var, span.api, call_args),
                dsl.LetHidden(svar, fn, tuple(scope)),
            ),
            dsl.ValueCheck(svar, True),
        )
        new_entries = {}
        for i in ctx.ts.indices():
            responses = tuple(r for _, r in runs[i])
            n = len(responses)
            new_entries[(first.var, i)] = PerIteration(responses)
            new_entries[(svar, i)] = PerIteration(
                tuple(it == n - 1 for it in range(n))
            )
        spec = SynthesisSpec(fn, "bool", tuple(examples))
        out.append(
            _roll_span(program, span, "introduce_retry", rule_index, (loop,), fn,
                       new_entries, spec)
        )
    return out


def rule_introduce_foreach(program, sigma, ctx, rule_index):
    out = []
    for span, runs, names, varying, values, chosen in _loop_spans(program, sigma, ctx, 1):
        vname = varying[0]
        first_path, first = span.stmts[0]
        scope = scope_before(program, first_path)
        if not scope:
            continue
        used = used_names(program)
        fn = fresh_name("f_", used)
        lvar = fresh_name("L_", used)
        uvar = fresh_name("u_", used)
        loop_id = fresh_name("loop_", used)
        examples = []
        items = {}
        for i in ctx.ts.indices():
            items[i] = list(values[vname][i])
            args = _scope_values(sigma, scope, i)
            examples.append(IOExample(args=args, output=items[i]))
        call_args = tuple(
            (k, dsl.VarRef(uvar) if k == vname else chosen[k]) for k in names
        )
        prelude = dsl.LetHidden(lvar, fn, tuple(scope))
        loop = dsl.Foreach(
            loop_id,
            uvar,
            dsl.VarRef(lvar),
            (dsl.LetVisible(first.var, span.api, call_args),),
        )
        new_entries = {}
        for i in ctx.ts.indices():
            responses = tuple(r for _, r in runs[i])
            new_entries[(lvar, i)] = Scalar(list(items[i]))
            new_entries[(uvar, i)] = PerIteration(tuple(items[i]))
            new_entries[(first.var, i)] = PerIteration(responses)
        spec = SynthesisSpec(fn, "value", tuple(examples))
        out.append(
            _roll_span(program, span, "introduce_foreach", rule_index, (prelude, loop),
                       fn, new_entries, spec)
        )
    return out


# --- entry point ----------------------------------------------------------------


_REFINE_FNS = {
    "pull": rule_pull,
    "push": rule_push,
    "eliminate_empty_if": rule_eliminate_empty_if,
    "invert_empty_then": rule_invert_empty_then,
    "merge_nested": rule_merge_nested,
    "sequence_nested": rule_sequence_nested,
    "eliminate_unused_param": rule_eliminate_unused_param,
    "inline_trivial_hidden": rule_inline_trivial_hidden,
    "introduce_parameter": rule_introduce_parameter,
}

_SYNTH_FNS = {
    "eliminate_branch_condition": rule_eliminate_branch_condition,
    "eliminate_argument": rule_eliminate_argument,
    "introduce_retry": rule_introduce_retry,
    "introduce_foreach": rule_introduce_foreach,
}


REFINE_RULES = tuple(_REFINE_FNS)
SYNTH_RULES = tuple(_SYNTH_FNS)


def enumerate_rewrites(
    program: dsl.Program,
    sigma: TraceValuation,
    kind: str,
    ctx: RewriteContext,
) -> List[Rewrite]:
    if kind == "refine":
        fns = _REFINE_FNS
    elif kind == "synth":
        fns = _SYNTH_FNS
    else:
        raise ValueError(f"unknown rewrite kind {kind!r}")
    out: List[Rewrite] = []
    for idx, fn in enumerate(fns.values()):
        out.extend(fn(program, sigma, ctx, idx))
    out.sort(key=Rewrite.order_key)
    return out
