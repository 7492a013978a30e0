"""The synthesizing rules as they were when every candidate built its
examples as it was enumerated: SynthesisSpec held the example tuple,
eliminate_branch_condition evaluated each guard itself, and the two loop
rules each analysed the spans on their own. Kept verbatim as the eager
reference that the rules, whose examples wait until a candidate is
solved, are tested against; the helpers that did not change are
imported from tracesynth.rewrites. The sites the rules scan come from
sites_reference, as StateIndex no longer lists them all. The loop rules
collect their spans from every sequence outside a loop, as they did
before the spans were taken from the top-level body alone, so comparing
the two at every search state also tests that no nested span is ever
lost. New names come from StateIndex.fresh, the sequences from
sites_reference.iter_seqs and each Edit from rewrites._splice, as in
the rules. Nothing in src/ uses it."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

import sites_reference
from tracesynth import dsl
from tracesynth.dsl import BR
from tracesynth.pbe import IOExample
from tracesynth.rewrites import (
    Candidate,
    _iteration_lookup,
    _pick_constant_exprs,
    _site_str,
    _span_arg_profile,
    _span_iterations,
    _splice,
)
from tracesynth.traces import (
    PerIteration,
    Scalar,
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


def _scope_values(sigma, scope, trace_idx):
    return tuple(_cell_value(sigma.lookup(s, trace_idx)) for s in scope)


def rule_eliminate_branch_condition(ix, ctx):
    program, sigma, hidden = ix.program, ix.sigma, ix.hidden
    out = []
    for path, ins, in_loop in sites_reference.iter_instr_sites(ix.program.body):
        if not isinstance(ins, dsl.Ite) or in_loop:
            continue
        guard_br = dsl.term_br(ins.pred)
        if not guard_br:
            continue
        scope = ix.scope_before(path)
        if not scope:
            continue
        reaching = ix.reaching(path)
        if not reaching:
            continue
        examples = []
        guard = {}
        ok = True
        for i in reaching:
            try:
                guard[i] = bool(evaluate_in_trace(ins.pred, sigma, i, hidden))
                args = _scope_values(sigma, scope, i)
            except ValuationError:
                ok = False
                break
            examples.append(IOExample(args=args, output=guard[i]))
        if not ok:
            continue
        fn = ix.fresh("f_")
        bvar = ix.fresh("b_")
        hidden_let = dsl.LetHidden(bvar, fn, tuple(scope))
        new_ite = replace(ins, pred=dsl.ValueCheck(bvar, True))
        edit = _splice(ix, path, (hidden_let, new_ite))
        new_entries = {(bvar, i): Scalar(g) for i, g in guard.items()}
        # A branch selector that selected only this guard has no job
        # left; retiring it is part of the same rewrite. The new body
        # reads br as often as the old one, less the replaced guard's
        # reads (scope never holds br).
        params = program.params
        if BR in params and ix.reads[BR] == guard_br:
            params = tuple(p for p in params if p != BR)
        fields = {"params": params, "holes": program.holes + (fn,)}
        transform = ValuationTransform(new_entries=new_entries, params=params)
        spec = SynthesisSpec(fn, "bool", tuple(examples))
        out.append(Candidate(path, fields, transform, (spec,), edit=edit))
    return out


def _derivation_examples(ix, scope, in_loop, stmt, arg_expr):
    """Examples for deriving one argument of a visible call, at a site
    with this non-empty scope, from the values in scope. None when they
    cannot be built."""
    sigma, ts, hidden = ix.sigma, ix.ts, ix.hidden
    examples = []
    try:
        if not in_loop:
            for i in sigma.traces_with_value(stmt.var):
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


def rule_eliminate_argument(ix, ctx):
    program, sigma = ix.program, ix.sigma
    out = []
    for path, ins, in_loop in sites_reference.iter_instr_sites(ix.program.body):
        if not isinstance(ins, dsl.LetVisible) or not ins.n_br:
            continue
        for arg_idx, (name, e) in enumerate(ins.args):
            if not dsl.term_br(e):
                continue
            scope = ix.scope_before(path)
            if not scope:
                continue
            examples = _derivation_examples(ix, scope, in_loop, ins, e)
            if examples is None:
                continue
            fn = ix.fresh("f_")
            vvar = ix.fresh("v_")
            hidden_let = dsl.LetHidden(vvar, fn, tuple(scope))
            new_args = tuple(
                (k, dsl.VarRef(vvar) if j == arg_idx else a)
                for j, (k, a) in enumerate(ins.args)
            )
            new_stmt = replace(ins, args=new_args)
            edit = _splice(ix, path, (hidden_let, new_stmt))
            if not in_loop:
                reaching = sigma.traces_with_value(ins.var)
                new_entries = {(vvar, i): Scalar(ex.output) for i, ex in zip(reaching, examples)}
            else:
                new_entries = {}
                k = 0
                for i in ctx.ts.indices():
                    cell = sigma.lookup(ins.var, i)
                    n = len(cell.values)
                    new_entries[(vvar, i)] = PerIteration(
                        tuple(examples[k + j].output for j in range(n))
                    )
                    k += n
            fields = {"holes": program.holes + (fn,)}
            transform = ValuationTransform(new_entries=new_entries)
            spec = SynthesisSpec(fn, "value", examples)
            site = f"{name} at {_site_str(path)}"
            out.append(Candidate(path + (arg_idx,), fields, transform, (spec,), site, edit))
    return out


@dataclass
class _Span:
    seq_path: Tuple[int, ...]
    start: int
    length: int  # instructions consumed in the sequence
    stmts: Tuple[Tuple[Tuple[int, ...], dsl.LetVisible], ...]  # preorder
    api: str


def _first_leaf_api(ite) -> Optional[str]:
    """The api of a conditional's first call in dsl.walk order. A call
    in a loop counts too: _tree_stmts then rejects the tree anyway."""
    return next((i.api for i in dsl.walk((ite,)) if isinstance(i, dsl.LetVisible)), None)


def _tree_stmts(ite, path, api):
    """Statements of a conditional tree whose instructions are all
    calls of one api (or nested such trees), in preorder, then-branch
    before else-branch; None otherwise. Uses an explicit stack."""
    out = []
    stack = [(path, ite)]
    while stack:
        p, ins = stack.pop()
        if isinstance(ins, dsl.Ite):
            for branch_code, branch in ((1, ins.els), (0, ins.then)):
                stack.extend((p + (branch_code, i), branch[i]) for i in reversed(range(len(branch))))
        elif isinstance(ins, dsl.LetVisible) and ins.api == api:
            out.append((p, ins))
        else:
            return None
    return out


def _find_spans(ix) -> List[_Span]:
    """Maximal runs of instructions that are all calls of one api,
    where conditionals whose contents are such calls count too. The
    statement list is in program order (preorder), which within any one
    trace is also execution order, since each trace takes one branch."""
    spans = []
    for seq_path, seq, in_loop in sites_reference.iter_seqs(ix.program.body):
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


def _span_outside_reads(ix, span) -> bool:
    """Whether any variable bound inside the span is read outside the
    instructions the span consumes (those reads would change meaning
    once the span collapses into a loop)."""
    seq = ix.seq_by_path[span.seq_path]
    consumed = Counter(sites_reference.seq_reads(seq[span.start : span.start + span.length]))
    return any(ix.reads[stmt.var] > consumed[stmt.var] for _, stmt in span.stmts)


def _roll_span(ix, span, loop_instrs, fn, new_entries, spec):
    """The rewrite replacing the span by loop_instrs, which keep only
    the first call's binder and leave fn as a hole."""
    path = span.seq_path + (span.start,)
    first = span.stmts[0][1]
    edit = _splice(ix, path, loop_instrs, span.length)
    drop = tuple(stmt.var for _, stmt in span.stmts if stmt.var != first.var)
    transform = ValuationTransform(drop_vars=drop, new_entries=new_entries)
    fields = {"holes": ix.program.holes + (fn,)}
    return Candidate(path, fields, transform, (spec,), edit=edit)


def _loop_spans(ix, ctx, n_varying):
    """Spans that some trace runs more than once, whose calls unify
    with exactly n_varying arguments varying within a trace, and whose
    binders are read only inside the span. Yields (span, runs, names,
    varying, values, chosen), chosen mapping each constant argument to
    an expression for it."""
    sigma, hidden = ix.sigma, ix.hidden
    for span in _find_spans(ix):
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
        if _span_outside_reads(ix, span):
            continue
        chosen = _pick_constant_exprs(
            span, values, sigma, ctx.ts, hidden, names, varying
        )
        if chosen is None:
            continue
        yield span, runs, names, varying, values, chosen


def rule_introduce_retry(ix, ctx):
    sigma = ix.sigma
    out = []
    for span, runs, names, _, _, chosen in _loop_spans(ix, ctx, 0):
        first_path, first = span.stmts[0]
        scope = ix.scope_before(first_path) + [first.var]
        fn = ix.fresh("f_")
        svar = ix.fresh("s_")
        loop_id = ix.fresh("loop_")
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
        out.append(_roll_span(ix, span, (loop,), fn, new_entries, spec))
    return out


def rule_introduce_foreach(ix, ctx):
    sigma = ix.sigma
    out = []
    for span, runs, names, varying, values, chosen in _loop_spans(ix, ctx, 1):
        vname = varying[0]
        first_path, first = span.stmts[0]
        scope = ix.scope_before(first_path)
        if not scope:
            continue
        fn = ix.fresh("f_")
        lvar = ix.fresh("L_")
        uvar = ix.fresh("u_")
        loop_id = ix.fresh("loop_")
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
        out.append(_roll_span(ix, span, (prelude, loop), fn, new_entries, spec))
    return out


SYNTH_FNS = {
    "eliminate_branch_condition": rule_eliminate_branch_condition,
    "eliminate_argument": rule_eliminate_argument,
    "introduce_retry": rule_introduce_retry,
    "introduce_foreach": rule_introduce_foreach,
}
