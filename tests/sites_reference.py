"""The recursive program walks and per-site analyses as they were before
rewrites.StateIndex: every rule re-walked the program for each site,
scope_before scanned all sites for each query, and _ite_reaching walked
from the root for every site and trace. Also the recursive statement
counter the syntactic cost used before it counted with a stack. Kept
verbatim as the reference the index and the linear walks are tested
against; nothing in src/ uses it."""

from __future__ import annotations

from typing import List, Optional

from tracesynth import dsl
from tracesynth.dsl import (
    DslError,
    Foreach,
    Ite,
    LetHidden,
    LetVisible,
    Return,
    RetryUntil,
    expr_reads,
    pred_reads,
)
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


# --- dsl.py ----------------------------------------------------------------------


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
