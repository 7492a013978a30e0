"""pull, push and merge_nested as they were when every candidate merged
its two σ columns and renamed the dropped binder's reads at once:
_merged_let_rewrite walks every trace that holds either binder, folds
their cells with _merge_cells (offering nothing where a cell is
per-iteration), and builds the renamed body itself. Kept verbatim as
the reference the unbuilt merge edits of rewrites.py are tested
against; nothing in src/ uses it."""

from __future__ import annotations

from typing import Optional

from tracesynth import dsl
from tracesynth.jsonvals import ABSENT
from tracesynth.rewrites import Candidate, _splice, _unify_args
from tracesynth.traces import Scalar, ValuationTransform


def _merge_cells(ca, cb) -> Optional[Scalar]:
    """Cell for a variable merged from two mutually exclusive branches;
    None when the merge is out of scope (per-iteration cells)."""
    if not isinstance(ca, Scalar) or not isinstance(cb, Scalar):
        return None
    if ca.value is not ABSENT:
        return ca
    return cb


def _merged_let_rewrite(ix, path, keep: dsl.LetVisible, drop: dsl.LetVisible, new_instrs):
    """Shared tail of pull/push/merge: build the program with keep's
    name as the surviving binder and fold the two valuation columns
    over the traces where either holds a value."""
    sigma = ix.sigma
    new_entries = {}
    for i in sorted({*sigma.traces_with_value(keep.var), *sigma.traces_with_value(drop.var)}):
        cell = _merge_cells(sigma.lookup(keep.var, i), sigma.lookup(drop.var, i))
        if cell is None:
            return None
        new_entries[(keep.var, i)] = cell
    edit = _splice(ix, path, new_instrs)
    transform = ValuationTransform(drop_vars=(drop.var,), new_entries=new_entries)
    # Every expression in the spliced body copies one of the state's,
    # so drop's name is read in it only if the state reads it. Renaming
    # walks a built body.
    if ix.reads[drop.var]:
        body = dsl.rename_reads(edit.build(ix.program.body), drop.var, keep.var)
        return Candidate(path, {"body": body}, transform)
    return Candidate(path, {}, transform, edit=edit)


def _hoist_let(ix, end):
    """Candidates that unify the lets at one end of both branches of a
    conditional (0, the first; -1, the last) into one let, placed at
    that end of the conditional."""
    out = []
    for path, ins, _ in ix.ites:
        if not ins.then or not ins.els:
            continue
        a, b = ins.then[end], ins.els[end]
        if not (isinstance(a, dsl.LetVisible) and isinstance(b, dsl.LetVisible)):
            continue
        merged_args = _unify_args(a, b, ins.pred)
        if merged_args is None:
            continue
        let = dsl.LetVisible(a.var, a.api, merged_args)
        if end == 0:
            new = (let, dsl.Ite(ins.pred, ins.then[1:], ins.els[1:]))
        else:
            new = (dsl.Ite(ins.pred, ins.then[:-1], ins.els[:-1]), let)
        cand = _merged_let_rewrite(ix, path, a, b, new)
        if cand:
            out.append(cand)
    return out


def rule_pull(ix, ctx):
    return _hoist_let(ix, 0)


def rule_push(ix, ctx):
    return _hoist_let(ix, -1)


def rule_merge_nested(ix, ctx):
    """Two single-call branches separated by a nested conditional chain
    collapse into one guarded call: `if c1 {A} else { if c2 {B} else {} }`
    becomes `if c1 || c2 {merged}`, and `if c1 {A} else { if c2 {} else
    {B} }` becomes `if c1 || !c2 {merged}`."""
    out = []
    for path, ins, _ in ix.ites:
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
            cand = _merged_let_rewrite(ix, path, a, b, new)
            if cand:
                out.append(cand)
    return out


RULES = {"pull": rule_pull, "push": rule_push, "merge_nested": rule_merge_nested}
