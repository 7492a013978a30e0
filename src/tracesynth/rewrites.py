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
foreach loops. A loop rolls a run of the top-level body, since no
sequence nested in a conditional is entered by every trace
(_find_spans); StateIndex.loop_spans finds and vets those runs once per
state for both loop rules.

A rule takes (ix, ctx), the state's StateIndex and the RewriteContext,
and returns a list of Candidate. Its name is its key in _REFINE_FNS or
_SYNTH_FNS and its order is its place there; enumerate_rewrites alone
turns candidates into Rewrites.

A candidate's change to the body is an Edit: a run of one sequence's
instructions replaced by new ones, not yet built into the program. The
edit keeps the sequence, which the index already holds, and the number
of instructions it replaces, so building it descends the path once.
Rebuilding the spine of ancestors above that sequence costs O(depth),
and the search takes one candidate of the many it scores, so a Rewrite
builds its program only when it is first read. A cost function that
reads only params, n_statements and n_br (costs.cost_syn) scores a
candidate from its state's counts plus its edit's delta. An edit may
also rename reads (pull, push and merge_nested, when the dropped binder
is read), which walks the body only when the edit is built. Two rules
carry a built body instead, because they walk one to decide what they
offer: inline_trivial_hidden and introduce_parameter.

Every rule computes the successor valuation's transform when it offers
the candidate; a candidate whose transform cannot be computed is simply
not offered. The transform is data: the valuation is built from it when
a cell is first read, so the merged binders' columns of pull, push and
merge_nested are folded only in a valuation the search reads.
A synthesizing candidate's examples are built only when the search
reads them, that is when it tries to solve the candidate: the search
solves candidates one at a time in cost order and stops at the first
that closes. What decides whether a candidate is offered stays eager:
the guard values, derived argument values, loop runs and items that are
also its valuation's entries. Only the tuples of values in scope, the
examples' arguments, wait.

Candidates come back sorted by (site path, rule order), which is the
deterministic tie-break the search relies on.

Every enumeration indexes its state afresh, and every rule runs in
full at every state. The index counts the body's reads and names in
use in the walk it makes anyway, and a rule takes its new names from
it (StateIndex.fresh). A visible call keeps its arguments' reads
(dsl.own_reads), so a call shared between states reads them once, and
pull, push and merge_nested test the two calls' binders against them.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Tuple

from . import dsl
from .dsl import BR
from .hidden import Input, eval_hidden, expr_uses_input
from .jsonvals import ABSENT, canonical_eq
from .pbe import ConstraintCache, GrammarConfig, IOExample, _Deadline
from .traces import (
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


class SynthesisSpec:
    """A hole and the examples its hidden function must satisfy. kind is
    "bool" or "value". The examples are built by a thunk the first time
    examples is read, and then kept; a candidate the search never tries
    to solve never builds them."""

    __slots__ = ("hole", "kind", "_build", "_examples")

    def __init__(self, hole: str, kind: str, build: Callable[[], Iterable[IOExample]]):
        self.hole, self.kind = hole, kind
        self._build, self._examples = build, None

    @property
    def examples(self) -> Tuple[IOExample, ...]:
        if self._build is not None:
            self._examples, self._build = tuple(self._build()), None
        return self._examples


class Edit(NamedTuple):
    """An unbuilt change to a state's body: the length instructions of
    seq, the state's sequence at seq_path, from start on, replaced by
    new, and then, when rename is an (old, new) pair, every read of the
    old name in the body made a read of the new one. seq is taken from
    the state's index (StateIndex.seq_by_path), so building the edit
    descends the path once, to rebuild its spine."""

    seq_path: Tuple[int, ...]
    seq: Tuple[object, ...]
    start: int
    length: int
    new: Tuple[object, ...]
    rename: Optional[Tuple[str, str]] = None

    def build(self, body):
        """body, the state's, with the edit made: the spine of the
        ancestors on seq_path is rebuilt, and a rename walks the whole
        body."""
        seq, start = self.seq, self.start
        body = replace_seq_at(body, self.seq_path, seq[:start] + self.new + seq[start + self.length :])
        return body if self.rename is None else dsl.rename_reads(body, *self.rename)

    def delta(self) -> Tuple[int, int]:
        """What the edit adds to the body's statement and br-read
        counts. A rebuilt ancestor keeps its own reads and passes its
        child sequence's change up unchanged, so the replaced
        instructions' counts against the new ones' is the whole of it.
        A rename never renames br and adds no statement."""
        old = self.seq[self.start : self.start + self.length]
        return (
            sum(ins.n_statements for ins in self.new) - sum(ins.n_statements for ins in old),
            sum(ins.n_br for ins in self.new) - sum(ins.n_br for ins in old),
        )


class Candidate(NamedTuple):
    """One rewrite as a rule returns it. edit is its change to the body,
    unbuilt; a rule that must build the body itself leaves edit None
    and puts the body in fields. fields are the Program fields it
    changes otherwise; site labels the site when the path alone does
    not."""

    path: Tuple[int, ...]
    fields: Dict[str, object]
    transform: ValuationTransform = ValuationTransform()
    specs: Tuple[SynthesisSpec, ...] = ()
    site: Optional[str] = None
    edit: Optional[Edit] = None


class Rewrite:
    """A candidate successor of a state: its state's program with the
    candidate's fields and edit. A cost function scores it as it would
    a Program (see costs.py): params, n_statements and n_br are set
    here, the counts being the state's plus the edit's delta, and body
    is read off program, which is built the first time it is read and
    then kept. So a candidate the search does not take is never built,
    and its site is printed only if the search logs it."""

    __slots__ = (
        "rule", "path", "transform", "specs",
        "params", "n_statements", "n_br", "_cand", "_base", "_program",
    )

    def __init__(self, rule, base: dsl.Program, cand: Candidate):
        self.rule, self.path, self._cand = rule, cand.path, cand
        self.transform, self.specs = cand.transform, cand.specs
        self.params = cand.fields.get("params", base.params)
        self._base = base
        if cand.edit is None:
            self._program = replace(base, **cand.fields)
            self.n_statements = self._program.n_statements
            self.n_br = self._program.n_br
        else:
            self._program = None
            statements, br = cand.edit.delta()
            self.n_statements = base.n_statements + statements
            self.n_br = base.n_br + br

    @property
    def program(self) -> dsl.Program:
        if self._program is None:
            body = self._cand.edit.build(self._base.body)
            self._program = replace(self._base, body=body, **self._cand.fields)
        return self._program

    @property
    def body(self):
        return self.program.body

    @property
    def site(self) -> str:
        return _site_str(self.path) if self._cand.site is None else self._cand.site


@dataclass
class RewriteContext:
    ts: TraceSet
    cache: ConstraintCache
    pbe_cfg: GrammarConfig = field(default_factory=GrammarConfig)
    # introduce_parameter's printed case pairs and defaults of each
    # br-reading Select argument of the last state it saw: id(part) ->
    # (part, text); an argument's duplicate key joins its parts' texts.
    # Holding the part keeps its id from being reused. A pull or push
    # builds its Select from the parts of the two merged arguments, so
    # only its new first case is printed. Keeping only the last state's
    # parts bounds the memo by one program.
    param_keys: Dict[int, Tuple[object, str]] = field(default_factory=dict, repr=False)
    # The search's deadline. eliminate_branch_condition evaluates every
    # reached guard on every trace that reaches it, N^2/2 evaluations on
    # the initial chain of N traces, so it stops offering candidates
    # once the deadline has passed; the search stops there anyway.
    deadline: _Deadline = field(default_factory=lambda: _Deadline(None), repr=False)


# --- tree navigation ---------------------------------------------------------
#
# An instruction site is a tuple of ints: index within its sequence,
# then (branch, index) pairs while descending. Branch 0 is the
# then-branch or loop body, branch 1 the else-branch. Sites are visited
# sequence by sequence (see StateIndex.seq_by_path), which is not
# lexicographic order: (1,) comes before (0, 0, 0).


def replace_seq_at(seq, seq_path, new_seq):
    """seq with the sequence at seq_path replaced by new_seq. Only the
    ancestors on the path are rebuilt, each with its node constructor,
    and the descent uses no recursion."""
    ancestors = []  # (enclosing sequence, index, instruction, branch)
    for p in range(0, len(seq_path), 2):
        i, branch = seq_path[p], seq_path[p + 1]
        ins = seq[i]
        ancestors.append((seq, i, ins, branch))
        if isinstance(ins, dsl.Ite):
            seq = ins.then if branch == 0 else ins.els
        elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
            seq = ins.body
        else:
            raise ValueError(f"path descends into a leaf at {seq_path[p:]}")
    new = tuple(new_seq)
    for seq, i, ins, branch in reversed(ancestors):
        if isinstance(ins, dsl.Ite):
            if branch == 0:
                ins = dsl.Ite(ins.pred, new, ins.els)
            else:
                ins = dsl.Ite(ins.pred, ins.then, new)
        elif isinstance(ins, dsl.RetryUntil):
            ins = dsl.RetryUntil(ins.loop_id, new, ins.pred)
        else:
            ins = dsl.Foreach(ins.loop_id, ins.var, ins.source, new)
        new = seq[:i] + (ins,) + seq[i + 1 :]
    return new


def _splice(ix, path, new, length=1, rename=None) -> Edit:
    """The edit replacing the length instructions starting at site path
    by the instructions in new, then renaming reads by rename."""
    seq_path, start = path[:-1], path[-1]
    return Edit(seq_path, ix.seq_by_path[seq_path], start, length, new, rename)


def _site_str(path) -> str:
    return "/".join(str(p) for p in path) or "top"


class StateIndex:
    """The analysis every rule reads of one (program, σ) state, done
    once per enumerate_rewrites call: the instruction sites by kind,
    the names in scope at each site, how often each name is read, the
    names in use and the fresh names outside them, the traces that
    reach each site, and the loop spans.

    One walk gathers each sequence by its path (seq_by_path, in walk
    order), which an Edit splices, and the conditional sites, the
    visible-let sites whose arguments read br and the hidden-let sites
    (ites, br_lets, hidden_lets, each in site order), so a rule scans
    only the sites it can rewrite.

    The same walk lists each instruction's own reads (dsl.own_reads)
    and the names it takes (binder, loop id, visible API). reads counts
    the first list, built once at the end, and names is the set of the
    second with the program's parameters, hidden functions and holes,
    which fresh picks new names outside of.

    What reads σ, and the bisection arrays of scope_before, are
    computed on first query: reaching traces and guard values per
    conditional, and the loop spans once for both loop rules."""

    def __init__(self, program: dsl.Program, sigma: TraceValuation, ts: TraceSet):
        self.program = program
        self.sigma = sigma
        self.ts = ts
        self.hidden = program.hidden_map()
        self._params = [p for p in program.params if p != BR]
        # One walk over the sequences, in preorder: a sequence, then each
        # nested sequence of its instructions in order, then-branch
        # before else-branch. An explicit stack, so depth is unbounded.
        seq_by_path = {}
        ites, br_lets, hidden_lets = [], [], []
        reads, names = [], []
        # The largest site path scanned up to the first binder, in the
        # order of scope_before's scan; None while no binder is met.
        first, top = None, ()
        stack = [((), program.body, False)]
        while stack:
            seq_path, seq, in_loop = stack.pop()
            seq_by_path[seq_path] = seq
            nested = []
            for i, ins in enumerate(seq):
                reads += dsl.own_reads(ins)
                kind = type(ins)
                if kind is dsl.LetVisible:
                    names += (ins.var, ins.api)
                    if ins.n_br:
                        br_lets.append((seq_path + (i,), ins, in_loop))
                elif kind is dsl.Ite:
                    path = seq_path + (i,)
                    ites.append((path, ins, in_loop))
                    nested += ((path + (0,), ins.then, in_loop), (path + (1,), ins.els, in_loop))
                elif kind is dsl.LetHidden:
                    names.append(ins.var)
                    hidden_lets.append((seq_path + (i,), ins, in_loop))
                elif kind is dsl.RetryUntil:
                    names.append(ins.loop_id)
                    nested.append((seq_path + (i, 0), ins.body, True))
                elif kind is dsl.Foreach:
                    names += (ins.loop_id, ins.var)
                    nested.append((seq_path + (i, 0), ins.body, True))
            if first is None:
                for i, ins in enumerate(seq):
                    path = seq_path + (i,)
                    if path > top:
                        top = path
                    if isinstance(ins, (dsl.LetVisible, dsl.LetHidden, dsl.Foreach)):
                        first = top
                        break
            stack += reversed(nested)
        self.seq_by_path = seq_by_path
        self.reads = Counter(reads)
        self.names = {*names, *program.params, *(n for n, _ in program.hidden_defs), *program.holes}
        self.ites, self.br_lets, self.hidden_lets = ites, br_lets, hidden_lets
        self._first_binder_top = first
        self._scope = None  # see scope_before
        self._reach = {(): list(ts.indices())}  # sequence path -> traces
        self._guards = {}  # conditional's site path -> {trace: guard value}
        self._spans = None  # see loop_spans

    def fresh(self, prefix: str) -> str:
        """The least prefix<n>, n >= 1, not in names; a helper named as
        an API would read back as a call of it. A candidate asks for
        each prefix at most once and no two of the rules' prefixes
        (f_, b_, v_, i_, s_, L_, u_, loop_) give the same name, so the
        names a candidate takes differ from each other without being
        added to the set."""
        n = 1
        while f"{prefix}{n}" in self.names:
            n += 1
        return f"{prefix}{n}"

    def has_scope(self, site_path) -> bool:
        """Whether scope_before(site_path) is not empty, without its
        arrays: there is a parameter other than br, or the scan meets a
        binder before its first site whose path is >= site_path, that
        is the largest path scanned up to the first binder is less."""
        top = self._first_binder_top
        return bool(self._params) or (top is not None and top < tuple(site_path))

    def scope_before(self, site_path) -> List[str]:
        """Input names usable at a site: the parameters except br, then
        the binders (lets and loop variables) of the sites that the scan
        over seq_by_path meets before its first site whose path is >=
        site_path. That order is not lexicographic, so a binder
        enclosing a nested site may be left out of its scope, and a
        binder in a sibling branch may be in it."""
        if self._scope is None:
            # By bisection: max_path[k] is the largest of the first
            # k + 1 site paths, and n_binders[k] counts the binders
            # among the first k sites.
            binders, n_binders, max_path = [], [0], []
            top = ()
            for seq_path, seq in self.seq_by_path.items():
                for i, ins in enumerate(seq):
                    path = seq_path + (i,)
                    if path > top:
                        top = path
                    max_path.append(top)
                    if isinstance(ins, (dsl.LetVisible, dsl.LetHidden, dsl.Foreach)):
                        binders.append(ins.var)
                    n_binders.append(len(binders))
            self._scope = binders, n_binders, max_path
        binders, n_binders, max_path = self._scope
        k = bisect_left(max_path, tuple(site_path))
        return self._params + binders[: n_binders[k]]

    def reaching(self, site_path) -> List[int]:
        """Traces whose control path arrives at a site: each enclosing
        conditional's guard evaluates to the branch taken. A guard that
        cannot be evaluated on a trace leaves the trace out, and no
        trace reaches a site inside a loop (loops are handled
        elsewhere). Each sequence's list is filtered once from its
        enclosing sequence's; callers must not change it."""
        seq_path = tuple(site_path[:-1])
        missing = []
        while seq_path not in self._reach:
            missing.append(seq_path)
            seq_path = seq_path[:-2]
        reach = self._reach[seq_path]
        for seq_path in reversed(missing):
            owner_path = seq_path[:-1]
            owner = self.seq_by_path[owner_path[:-1]][owner_path[-1]]
            if isinstance(owner, dsl.Ite):
                taken = seq_path[-1] == 0
                guard = self._guard(owner_path, owner, reach)
                reach = [i for i in reach if guard.get(i) is taken]
            else:
                reach = []
            self._reach[seq_path] = reach
        return reach

    def _guard(self, path, ite, reach):
        """{trace: guard value} of a conditional over the traces that
        reach it, reach, in their order; traces where the guard cannot
        be evaluated are left out. Each guard is evaluated once, for
        reaching and eliminate_branch_condition both."""
        values = self._guards.get(path)
        if values is None:
            values = {}
            for i in reach:
                try:
                    values[i] = evaluate_in_trace(ite.pred, self.sigma, i, self.hidden)
                except ValuationError:
                    pass
            self._guards[path] = values
        return values

    def loop_spans(self):
        """The spans of the top-level body (_find_spans) that can roll
        into a loop, each as (span, runs, names, varying, values,
        chosen): every trace enters the span and some trace runs it more
        than once (runs, _span_iterations); its calls unify with at most
        one argument varying within a trace (_span_arg_profile); no
        binder of the span is read outside it (_span_outside_reads); and
        chosen maps each constant argument to an expression for it
        (_pick_constant_exprs). Computed on first query; introduce_retry
        takes the spans with no varying argument, introduce_foreach those
        with one."""
        if self._spans is None:
            self._spans = []
            sigma, ts, hidden = self.sigma, self.ts, self.hidden
            for span in _find_spans(self.program.body):
                runs = _span_iterations(span, sigma, ts)
                if runs is None or max(len(r) for r in runs.values()) < 2:
                    continue
                profile = _span_arg_profile(span, runs, sigma, ts, hidden)
                if profile is None or len(profile[1]) > 1 or _span_outside_reads(self, span):
                    continue
                names, varying, values = profile
                chosen = _pick_constant_exprs(span, values, sigma, ts, hidden, names, varying)
                if chosen is not None:
                    self._spans.append((span, runs, names, varying, values, chosen))
        return self._spans


# --- pull / push -------------------------------------------------------------


def _unify_args(a: dsl.LetVisible, b: dsl.LetVisible, pred):
    if a.api != b.api:
        return None
    if tuple(k for k, _ in a.args) != tuple(k for k, _ in b.args):
        return None
    # The calls' argument reads, kept on them by the index's walk.
    reads = dsl.own_reads(a) + dsl.own_reads(b)
    if a.var in reads or b.var in reads:
        return None
    merged = []
    for (k, ea), (_, eb) in zip(a.args, b.args):
        merged.append((k, ea if ea == eb else dsl.Select(((pred, ea),), eb)))
    return tuple(merged)


def _merged_let_rewrite(ix, path, keep: dsl.LetVisible, drop: dsl.LetVisible, new_instrs):
    """Shared tail of pull/push/merge: keep's name survives, and σ folds
    drop's column into keep's when it is first read. Every expression in
    the spliced body copies one of the state's, so drop's name is read
    in it only if the state reads it."""
    rename = (drop.var, keep.var) if ix.reads[drop.var] else None
    transform = ValuationTransform(merge=(drop.var, keep.var))
    return Candidate(path, {}, transform, edit=_splice(ix, path, new_instrs, rename=rename))


def _hoist_let(ix, end):
    """Candidates that unify the lets at one end of both branches of a
    conditional (0, the first; -1, the last) into one let, placed at
    that end of the conditional. A conditional in a loop body is left
    alone: its lets hold per-iteration cells, which do not fold."""
    out = []
    for path, ins, in_loop in ix.ites:
        if in_loop or not ins.then or not ins.els:
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
        out.append(_merged_let_rewrite(ix, path, a, b, new))
    return out


def rule_pull(ix, ctx):
    return _hoist_let(ix, 0)


def rule_push(ix, ctx):
    return _hoist_let(ix, -1)


# --- conditional cleanup ------------------------------------------------------


def rule_eliminate_empty_if(ix, ctx):
    out = []
    for path, ins, _ in ix.ites:
        if not ins.then and not ins.els:
            out.append(Candidate(path, {}, edit=_splice(ix, path, ())))
    return out


def rule_invert_empty_then(ix, ctx):
    out = []
    for path, ins, _ in ix.ites:
        if not ins.then and ins.els:
            flipped = dsl.Ite(dsl.PNot(ins.pred), ins.els, ())
            out.append(Candidate(path, {}, edit=_splice(ix, path, (flipped,))))
    return out


def rule_merge_nested(ix, ctx):
    """Two single-call branches separated by a nested conditional chain
    collapse into one guarded call: `if c1 {A} else { if c2 {B} else {} }`
    becomes `if c1 || c2 {merged}`, and `if c1 {A} else { if c2 {} else
    {B} }` becomes `if c1 || !c2 {merged}`. As for pull and push, a
    conditional in a loop body is left alone."""
    out = []
    for path, ins, in_loop in ix.ites:
        if in_loop or len(ins.then) != 1 or len(ins.els) != 1:
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
            out.append(_merged_let_rewrite(ix, path, a, b, new))
    return out


def rule_sequence_nested(ix, ctx):
    """A conditional whose then-branch ends in a nested conditional
    (else branches empty) splits into two sequential conditionals, the
    second guarded by the conjunction; when the nested conditional is
    the whole branch it simply flattens."""
    out = []
    for path, ins, _ in ix.ites:
        if ins.els or not ins.then:
            continue
        inner = ins.then[-1]
        if not isinstance(inner, dsl.Ite) or inner.els:
            continue
        combined = dsl.Ite(dsl.PAnd(ins.pred, inner.pred), inner.then, ())
        if len(ins.then) == 1:
            new = (combined,)
        else:
            new = (dsl.Ite(ins.pred, ins.then[:-1], ()), combined)
        out.append(Candidate(path, {}, edit=_splice(ix, path, new)))
    return out


# --- parameter and hidden-let housekeeping -----------------------------------


def rule_eliminate_unused_param(ix, ctx):
    program = ix.program
    out = []
    for pidx, p in enumerate(program.params):
        if ix.reads[p] == 0:
            params = tuple(q for q in program.params if q != p)
            transform = ValuationTransform(params=params)
            out.append(Candidate((-1, pidx), {"params": params}, transform, site=p))
    return out


class _InlineReject(Exception):
    pass


def _inline_const(seq, var, value):
    """seq with every read of var replaced by the constant value and
    every guard var == c folded to true or false. Raises _InlineReject
    where a comparison or a hidden call reads var: neither takes a
    constant."""

    def leaf(t):
        if isinstance(t, dsl.VarRef) and t.name == var:
            return dsl.Const(value)
        if isinstance(t, dsl.ValueCheck) and t.var == var:
            return dsl.PTrue() if canonical_eq(value, t.const) else dsl.PFalse()
        if isinstance(t, dsl.Compare) and var in (t.left, t.right):
            raise _InlineReject()
        if isinstance(t, dsl.HiddenCall) and var in t.args:
            raise _InlineReject()
        return t

    return dsl.map_instrs(seq, lambda ins, _: dsl.map_terms(ins, leaf))


def rule_inline_trivial_hidden(ix, ctx):
    """Hidden lets whose function is an input projection or ignores its
    inputs entirely inline away."""
    defs = ix.hidden
    out = []
    for path, ins, _ in ix.hidden_lets:
        if ins.fn not in defs:
            continue
        fn_body = defs[ins.fn]
        projection = isinstance(fn_body.body, Input)
        if not projection and expr_uses_input(fn_body.body):
            continue
        # Renaming, inlining and called_fns walk a built body.
        body = _splice(ix, path, ()).build(ix.program.body)
        if projection:
            if ix.reads[ins.var]:
                body = dsl.rename_reads(body, ins.var, ins.args[fn_body.body.slot])
        else:
            value = eval_hidden(fn_body, [None] * fn_body.arity)
            try:
                body = _inline_const(body, ins.var, value)
            except _InlineReject:
                continue
        hidden_defs = ix.program.hidden_defs
        if ins.fn not in dsl.called_fns(body):
            hidden_defs = tuple((n, f) for n, f in hidden_defs if n != ins.fn)
        fields = {"body": body, "hidden_defs": hidden_defs}
        out.append(Candidate(path, fields, ValuationTransform(drop_vars=(ins.var,))))
    return out


# --- introduce parameter -------------------------------------------------------


def rule_introduce_parameter(ix, ctx):
    """A branch-dependent argument expression becomes a fresh input
    parameter when no bound variable could explain it instead: either
    nothing is in scope at its first occurrence, or deriving it from
    the scope is already recorded unsatisfiable."""
    program, sigma, hidden = ix.program, ix.sigma, ix.hidden
    keys, kept = ctx.param_keys, {}

    def printed(part, show):
        hit = kept[id(part)] = kept.get(id(part)) or keys.get(id(part)) or (part, show(part))
        return hit[1]

    candidates = []  # (first_path, stmt, expr, key), distinct by printed form
    seen = set()
    for path, ins, in_loop in ix.br_lets:
        for _, e in ins.args:
            if not isinstance(e, dsl.Select) or not e.n_br:
                continue
            # dsl.print_expr(e), with the parts of the last state reused.
            key = "".join([printed(c, dsl.print_case) for c in e.cases]) + printed(e.default, dsl.print_expr)
            if key in seen:
                continue
            seen.add(key)
            if not in_loop:
                candidates.append((path, ins, e, key))
    ctx.param_keys = kept
    out = []
    for path, stmt, e, key in candidates:
        if ix.has_scope(path):
            # Something is in scope that might derive this value; hold
            # off until the derivation attempt is recorded unsolvable.
            # While the cache records no unsat verdict at all, it cannot
            # hold this one, so neither the scope nor the examples need
            # be built.
            if not ctx.cache.records_unsat():
                continue
            derived = _derivation_examples(ix, ix.scope_before(path), False, stmt, e)
            if derived is None or not ctx.cache.has_unsat(derived[1](), "value"):
                continue
        try:
            values = {
                i: evaluate_in_trace(e, sigma, i, hidden) for i in ctx.ts.indices()
            }
        except ValuationError:
            continue
        q = ix.fresh("i_")
        body = _replace_param_occurrences(program, sigma, e, values, q, hidden)
        params = program.params + (q,)
        new_entries = {(q, i): Scalar(values[i]) for i in ctx.ts.indices()}
        transform = ValuationTransform(new_entries=new_entries, params=params)
        site = f"{key} at {_site_str(path)}"
        out.append(Candidate(path, {"params": params, "body": body}, transform, site=site))
    return out


def _replace_param_occurrences(program, sigma, e, values, q, hidden):
    """Swap in the parameter for every structural occurrence of the
    expression, plus other arguments whose recorded value matches on
    every trace that executes their statement: constants anywhere, and
    branch-dependent expressions outside loops (inside a loop their
    value may change per iteration, which a parameter cannot)."""
    target = dsl.VarRef(q)

    def value_matches(a, var):
        reaching = sigma.traces_with_value(var)
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
        if not isinstance(ins, dsl.LetVisible):
            return ins
        new_args = []
        for k, a in ins.args:
            if a == e:
                new_args.append((k, target))
            elif isinstance(a, dsl.Const) and value_matches(a, ins.var):
                new_args.append((k, target))
            elif not in_loop and dsl.term_br(a) and value_matches(a, ins.var):
                new_args.append((k, target))
            else:
                new_args.append((k, a))
        return replace(ins, args=tuple(new_args))

    return dsl.map_instrs(program.body, replace_in_stmt)


# --- synthesis rules -----------------------------------------------------------


def _scope_values(sigma, scope, trace_idx):
    return tuple(_cell_value(sigma.lookup(s, trace_idx)) for s in scope)


def _trace_examples(sigma, scope, traces, outputs):
    """One example per trace: the values in scope on it, and its output.
    A SynthesisSpec's thunk, so a candidate never solved never reads the
    scope; every name in scope has a σ column, so reading it cannot
    fail."""
    return [IOExample(_scope_values(sigma, scope, i), out) for i, out in zip(traces, outputs)]


def rule_eliminate_branch_condition(ix, ctx):
    program = ix.program
    out = []
    for path, ins, in_loop in ix.ites:
        if ctx.deadline.expired():
            break
        if in_loop:
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
        guard = ix._guard(path, ins, reaching)
        if len(guard) < len(reaching):
            continue  # the guard cannot be evaluated on some trace
        outputs = [bool(g) for g in guard.values()]
        fn, bvar = ix.fresh("f_"), ix.fresh("b_")
        hidden_let = dsl.LetHidden(bvar, fn, tuple(scope))
        new_ite = replace(ins, pred=dsl.ValueCheck(bvar, True))
        edit = _splice(ix, path, (hidden_let, new_ite))
        new_entries = {(bvar, i): Scalar(g) for i, g in zip(reaching, outputs)}
        # A branch selector that selected only this guard has no job
        # left; retiring it is part of the same rewrite. The new body
        # reads br as often as the old one, less the replaced guard's
        # reads (scope never holds br).
        params = program.params
        if BR in params and program.n_br == guard_br:
            params = tuple(p for p in params if p != BR)
        fields = {"params": params, "holes": program.holes + (fn,)}
        transform = ValuationTransform(new_entries=new_entries, params=params)
        examples = partial(_trace_examples, ix.sigma, scope, reaching, outputs)
        spec = SynthesisSpec(fn, "bool", examples)
        out.append(Candidate(path, fields, transform, (spec,), edit=edit))
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


def _iteration_examples(scope, lookups, outputs):
    """One example per loop iteration, whose lookup reads the values in
    scope there; a SynthesisSpec's thunk, as _trace_examples."""
    return [IOExample(tuple(lk(s) for s in scope), out) for lk, out in zip(lookups, outputs)]


def _derivation_examples(ix, scope, in_loop, stmt, arg_expr):
    """How to derive one argument of a visible call, at a site with this
    non-empty scope, from the values in scope: (outputs, examples), the
    argument's value at each run of the call and a thunk building the
    examples that pair each with the values in scope there. None when
    the call never runs or the argument cannot be evaluated."""
    sigma, ts, hidden = ix.sigma, ix.ts, ix.hidden
    outputs = []
    try:
        if not in_loop:
            traces = sigma.traces_with_value(stmt.var)
            for i in traces:
                outputs.append(evaluate_in_trace(arg_expr, sigma, i, hidden))
            examples = partial(_trace_examples, sigma, scope, traces, outputs)
        else:
            lookups = []
            for i in ts.indices():
                cell = sigma.lookup(stmt.var, i)
                if not isinstance(cell, PerIteration):
                    return None
                n = len(cell.values)
                for it in range(n):
                    lk = _iteration_lookup(sigma, i, it, n)
                    lookups.append(lk)
                    outputs.append(eval_with_lookup(arg_expr, lk, hidden))
            examples = partial(_iteration_examples, scope, lookups, outputs)
    except ValuationError:
        return None
    if not outputs:
        return None
    return outputs, examples


def rule_eliminate_argument(ix, ctx):
    program, sigma = ix.program, ix.sigma
    out = []
    for path, ins, in_loop in ix.br_lets:
        for arg_idx, (name, e) in enumerate(ins.args):
            if not dsl.term_br(e):
                continue
            scope = ix.scope_before(path)
            if not scope:
                continue
            derived = _derivation_examples(ix, scope, in_loop, ins, e)
            if derived is None:
                continue
            outputs, examples = derived
            fn, vvar = ix.fresh("f_"), ix.fresh("v_")
            hidden_let = dsl.LetHidden(vvar, fn, tuple(scope))
            new_args = tuple(
                (k, dsl.VarRef(vvar) if j == arg_idx else a)
                for j, (k, a) in enumerate(ins.args)
            )
            new_stmt = replace(ins, args=new_args)
            edit = _splice(ix, path, (hidden_let, new_stmt))
            if not in_loop:
                reaching = sigma.traces_with_value(ins.var)
                new_entries = {(vvar, i): Scalar(v) for i, v in zip(reaching, outputs)}
            else:
                new_entries = {}
                k = 0
                for i in ctx.ts.indices():
                    n = len(sigma.lookup(ins.var, i).values)
                    new_entries[(vvar, i)] = PerIteration(tuple(outputs[k : k + n]))
                    k += n
            fields = {"holes": program.holes + (fn,)}
            transform = ValuationTransform(new_entries=new_entries)
            spec = SynthesisSpec(fn, "value", examples)
            site = f"{name} at {_site_str(path)}"
            out.append(Candidate(path + (arg_idx,), fields, transform, (spec,), site, edit))
    return out


# --- loop introduction ----------------------------------------------------------


@dataclass
class _Span:
    start: int  # in the top-level body
    length: int  # instructions consumed there
    stmts: Tuple[Tuple[Tuple[int, ...], dsl.LetVisible], ...]  # preorder
    api: str


def _tree_stmts(ite, path, api=None):
    """Statements of a conditional tree whose instructions are all
    calls of one api (or nested such trees), in preorder, then-branch
    before else-branch; None otherwise. With no api, the api of the
    tree's first call. Uses an explicit stack."""
    out = []
    stack = [(path, ite)]
    while stack:
        p, ins = stack.pop()
        if isinstance(ins, dsl.Ite):
            for branch_code, branch in ((1, ins.els), (0, ins.then)):
                stack.extend((p + (branch_code, i), branch[i]) for i in reversed(range(len(branch))))
        elif isinstance(ins, dsl.LetVisible) and api in (None, ins.api):
            api = ins.api
            out.append((p, ins))
        else:
            return None
    return out


def _find_spans(body) -> List[_Span]:
    """Maximal runs of the top-level body's instructions that are all
    calls of one api, where conditionals whose contents are such calls
    count too. The statement list is in program order (preorder), which
    within any one trace is also execution order, since each trace
    takes one branch.

    A nested sequence never holds a loop span, because a span must be
    entered by every trace (_span_iterations) and no nested sequence is
    entered by every trace:
    - every search state descends from build_initial, whose br == i
      conditionals each split the traces that reach them into two
      non-empty parts;
    - every rule keeps each branch of each conditional outside a loop
      taken by at least one trace. A synthesized guard always reads an
      input, so inline_trivial_hidden never folds one to true or false,
      and the search never creates a return.
    tests/test_search.py checks this at every searched state."""
    spans = []
    i = 0
    while i < len(body):
        stmts, api, j = [], None, i
        while j < len(body):
            ins = body[j]
            if isinstance(ins, dsl.LetVisible) and api in (None, ins.api):
                sub = [((j,), ins)]
            elif isinstance(ins, dsl.Ite):
                sub = _tree_stmts(ins, (j,), api)
                if not sub:
                    break
            else:
                break
            api = sub[0][1].api
            stmts.extend(sub)
            j += 1
        if len(stmts) >= 2:
            spans.append(_Span(i, j - i, tuple(stmts), api))
        i = max(j, i + 1)
    return spans


def _span_iterations(span, sigma, ts):
    """Per-trace executed statements: {trace: [(stmt, response)]}.
    None if some trace never enters the span."""
    runs = {i: [] for i in ts.indices()}
    for _, stmt in span.stmts:
        for i in sigma.traces_with_value(stmt.var):
            cell = sigma.lookup(stmt.var, i)
            if not isinstance(cell, Scalar):
                return None
            runs[i].append((stmt, cell.value))
    return runs if all(runs.values()) else None


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


def _span_outside_reads(ix, span) -> bool:
    """Whether any variable bound inside the span is read outside the
    instructions the span consumes (those reads would change meaning
    once the span collapses into a loop)."""
    consumed = Counter(
        n for ins in dsl.walk(ix.program.body[span.start : span.start + span.length]) for n in dsl.own_reads(ins)
    )
    return any(ix.reads[stmt.var] > consumed[stmt.var] for _, stmt in span.stmts)


def _roll_span(ix, span, loop_instrs, fn, new_entries, spec):
    """The rewrite replacing the span by loop_instrs, which keep only
    the first call's binder and leave fn as a hole."""
    path = (span.start,)
    first = span.stmts[0][1]
    edit = _splice(ix, path, loop_instrs, span.length)
    drop = tuple(stmt.var for _, stmt in span.stmts if stmt.var != first.var)
    transform = ValuationTransform(drop_vars=drop, new_entries=new_entries)
    fields = {"holes": ix.program.holes + (fn,)}
    return Candidate(path, fields, transform, (spec,), edit=edit)


def _retry_examples(sigma, scope, runs):
    """One example per run of a retried call: the values in scope before
    the loop plus the call's response, and whether the run is its
    trace's last. A SynthesisSpec's thunk, as _trace_examples."""
    examples = []
    for i, run in runs.items():
        before = _scope_values(sigma, scope, i)
        n = len(run)
        for it, (_, response) in enumerate(run):
            examples.append(IOExample(before + (response,), it == n - 1))
    return examples


def rule_introduce_retry(ix, ctx):
    out = []
    for span, runs, names, varying, _, chosen in ix.loop_spans():
        if varying:
            continue
        first_path, first = span.stmts[0]
        scope = ix.scope_before(first_path) + [first.var]
        fn, svar, loop_id = ix.fresh("f_"), ix.fresh("s_"), ix.fresh("loop_")
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
        spec = SynthesisSpec(fn, "bool", partial(_retry_examples, ix.sigma, scope[:-1], runs))
        out.append(_roll_span(ix, span, (loop,), fn, new_entries, spec))
    return out


def rule_introduce_foreach(ix, ctx):
    out = []
    for span, runs, names, varying, values, chosen in ix.loop_spans():
        if not varying:
            continue
        vname = varying[0]
        first_path, first = span.stmts[0]
        scope = ix.scope_before(first_path)
        if not scope:
            continue
        fn, lvar, uvar, loop_id = ix.fresh("f_"), ix.fresh("L_"), ix.fresh("u_"), ix.fresh("loop_")
        traces = list(ctx.ts.indices())
        items = [list(values[vname][i]) for i in traces]
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
        for i, trace_items in zip(traces, items):
            responses = tuple(r for _, r in runs[i])
            new_entries[(lvar, i)] = Scalar(list(trace_items))
            new_entries[(uvar, i)] = PerIteration(tuple(trace_items))
            new_entries[(first.var, i)] = PerIteration(responses)
        spec = SynthesisSpec(fn, "value", partial(_trace_examples, ix.sigma, scope, traces, items))
        out.append(_roll_span(ix, span, (prelude, loop), fn, new_entries, spec))
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
    program: dsl.Program, sigma: TraceValuation, kind: str, ctx: RewriteContext
) -> List[Rewrite]:
    """The rewrites of kind at the state (program, sigma), sorted by
    path. Every rule runs in full on one StateIndex of the state."""
    if kind == "refine":
        fns = _REFINE_FNS
    elif kind == "synth":
        fns = _SYNTH_FNS
    else:
        raise ValueError(f"unknown rewrite kind {kind!r}")
    ix = StateIndex(program, sigma, ctx.ts)
    out = [Rewrite(rule, program, c) for rule, fn in fns.items() for c in fn(ix, ctx)]
    # Stable, so candidates at one path keep their rules' table order.
    out.sort(key=lambda rw: rw.path)
    return out
