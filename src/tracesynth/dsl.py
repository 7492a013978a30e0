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

from collections import Counter
from dataclasses import dataclass, field
from operator import is_ as _is
from typing import ClassVar, Dict, Tuple

from .hidden import HiddenFnBody, is_ident, key_text, print_hidden_fn
from .jsonvals import canonical_dumps, canonical_eq, dumps_pretty


class DslError(Exception):
    pass


# The synthetic branch-selector parameter of the initial program, whose
# conditionals test br == i to select trace i's branch.
BR = "br"

# Every composite term and every instruction node keeps counts of its
# subtree for the syntactic cost, set once at construction from its
# children's counts, so building a node costs O(its width) and no walk
# is ever needed: n_br, the reads of br, and on instructions also
# n_statements (visible-call lets, conditionals, loop headers and
# returns; hidden-call lets are free). The counts are fields that take
# no part in equality, hashing or repr.

_set = object.__setattr__  # writes a field of a frozen node


def _counted():
    return field(init=False, repr=False, compare=False)


# A node that selects by one variable's int value also keeps a dispatch
# table, so evaluating it costs one read and one lookup whatever its
# number of cases: a Select over its cases, and a conditional over the
# chain of conditionals down its else-branches. These are the br chains
# of the initial program and the Selects pull and push build from them.
# A table is built the first time it is asked for (select_table,
# ite_table), on the node's first evaluation, not at construction,
# since a rewrite builds many nodes that are never evaluated. It is a
# field that takes no part in equality, hashing or repr, like the
# counts.

UNBUILT = object()  # a table not yet built


def _table():
    return field(default=UNBUILT, init=False, repr=False, compare=False)


def _tests_int(p, var) -> bool:
    """Whether p is a ValueCheck of var against an int (a bool is not one)."""
    return isinstance(p, ValueCheck) and p.var == var and type(p.const) is int


def int_dispatch(preds):
    """(var, {k: index of the first of preds testing k}) when every one
    of preds is a ValueCheck of the one variable var against an int;
    else None."""
    var = preds[0].var if preds and isinstance(preds[0], ValueCheck) else None
    index = {}
    for i, p in enumerate(preds):
        if not _tests_int(p, var):
            return None
        index.setdefault(p.const, i)
    return (var, index) if index else None


def select_table(s):
    """s's dispatch table, built the first time it is asked for and
    kept on s: (var, {k: the expression of the first case testing k},
    the default), or None when int_dispatch finds no table for its
    cases' predicates."""
    if s.table is UNBUILT:
        found = int_dispatch([p for p, _ in s.cases])
        _keep_table(s, found, [e for _, e in s.cases], s.default)
    return s.table


def ite_table(ite):
    """ite's dispatch table, built the first time it is asked for and
    kept on ite. Its chain starts at ite and goes down while an
    else-branch is exactly one conditional testing ite's variable
    against an int. The table is (var, {k: the then-branch of the first
    conditional of the chain testing k}, the last conditional's
    else-branch), or None when int_dispatch finds no table for the
    chain's guards."""
    if ite.table is UNBUILT:
        chain = [ite]
        if isinstance(ite.pred, ValueCheck):
            els = ite.els
            var = ite.pred.var
            while len(els) == 1 and isinstance(els[0], Ite) and _tests_int(els[0].pred, var):
                chain.append(els[0])
                els = els[0].els
        found = int_dispatch([c.pred for c in chain])
        _keep_table(ite, found, [c.then for c in chain], chain[-1].els)
    return ite.table


def _keep_table(node, found, targets, default):
    """Keep on node the table of int_dispatch's result found over
    targets, or None."""
    table = None
    if found is not None:
        var, index = found
        table = var, {k: targets[i] for k, i in index.items()}, default
    _set(node, "table", table)


def term_br(t) -> int:
    """Reads of br in an expression or predicate."""
    if isinstance(t, (Select, PAnd, POr, PNot)):
        return t.n_br
    if isinstance(t, VarRef):
        return t.name == BR
    if isinstance(t, ValueCheck):
        return t.var == BR
    if isinstance(t, (Const, PTrue, PFalse)):
        return 0
    if isinstance(t, HiddenCall):
        return t.args.count(BR)
    if isinstance(t, Compare):
        return (t.left == BR) + (t.right == BR)
    raise DslError(f"not an expression or predicate: {t!r}")


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
class Select:
    """A conditional expression: the expression of the first of cases,
    (predicate, expression) pairs, whose predicate holds, else default.
    `(p) ? a : b` is Select(((p, a),), b). A default that is itself a
    Select is folded into the cases, so a chain of any length is one
    flat node, equal to and hashed as the same chain built in one go."""

    cases: Tuple[Tuple[object, object], ...]
    default: object
    n_br: int = _counted()
    table: object = _table()

    def __post_init__(self):
        d = self.default
        _set(self, "n_br", sum(term_br(p) + term_br(e) for p, e in self.cases) + term_br(d))
        if isinstance(d, Select):
            _set(self, "cases", self.cases + d.cases)
            _set(self, "default", d.default)


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
    n_br: int = _counted()

    def __post_init__(self):
        _set(self, "n_br", term_br(self.left) + term_br(self.right))


@dataclass(frozen=True)
class POr:
    left: object
    right: object
    n_br: int = _counted()

    def __post_init__(self):
        _set(self, "n_br", term_br(self.left) + term_br(self.right))


@dataclass(frozen=True)
class PNot:
    inner: object
    n_br: int = _counted()

    def __post_init__(self):
        _set(self, "n_br", term_br(self.inner))


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


def _set_counts(node, own_br, *seqs):
    """Set node's counts from own_br reads of its own and its child
    sequences, counting node itself as one statement."""
    stmts, br = 1, own_br
    for seq in seqs:
        for ins in seq:
            stmts += ins.n_statements
            br += ins.n_br
    _set(node, "n_statements", stmts)
    _set(node, "n_br", br)


@dataclass(frozen=True)
class LetVisible:
    var: str
    api: str
    args: Tuple[Tuple[str, object], ...]
    n_statements: ClassVar[int] = 1
    n_br: int = _counted()

    def __post_init__(self):
        _set(self, "n_br", sum(term_br(e) for _, e in self.args))


@dataclass(frozen=True)
class LetHidden:
    var: str
    fn: str
    args: Tuple[str, ...]
    n_statements: ClassVar[int] = 0
    n_br: int = _counted()

    def __post_init__(self):
        _set(self, "n_br", self.args.count(BR))


@dataclass(frozen=True)
class Ite:
    pred: object
    then: Tuple[object, ...]
    els: Tuple[object, ...]
    n_statements: int = _counted()
    n_br: int = _counted()
    table: object = _table()

    def __post_init__(self):
        _set_counts(self, term_br(self.pred), self.then, self.els)


@dataclass(frozen=True)
class RetryUntil:
    loop_id: str
    body: Tuple[object, ...]
    pred: object
    n_statements: int = _counted()
    n_br: int = _counted()

    def __post_init__(self):
        _set_counts(self, term_br(self.pred), self.body)


@dataclass(frozen=True)
class Foreach:
    loop_id: str
    var: str
    source: object
    body: Tuple[object, ...]
    n_statements: int = _counted()
    n_br: int = _counted()

    def __post_init__(self):
        _set_counts(self, term_br(self.source), self.body)


@dataclass(frozen=True)
class Return:
    n_statements: ClassVar[int] = 1
    n_br: ClassVar[int] = 0


@dataclass(frozen=True)
class Program:
    """A script. n_statements and n_br sum its top-level instructions'
    counts, set once at construction as on the nodes."""

    params: Tuple[str, ...] = ()
    body: Tuple[object, ...] = ()
    hidden_defs: Tuple[Tuple[str, HiddenFnBody], ...] = ()
    holes: Tuple[str, ...] = ()
    n_statements: int = _counted()
    n_br: int = _counted()

    def __post_init__(self):
        _set(self, "n_statements", sum(ins.n_statements for ins in self.body))
        _set(self, "n_br", sum(ins.n_br for ins in self.body))

    def hidden_map(self) -> Dict[str, HiddenFnBody]:
        return dict(self.hidden_defs)

    def is_closed(self) -> bool:
        return not self.holes


# --- traversal helpers -----------------------------------------------------


def walk(seq):
    """Every instruction of seq and of the sequences nested in it, in
    preorder: an instruction before its nested sequences, a
    conditional's then-branch before its else-branch. Uses an explicit
    stack, so nesting depth is unbounded."""
    stack = list(reversed(seq))  # instructions still to visit, next on top
    while stack:
        instr = stack.pop()
        yield instr
        if isinstance(instr, Ite):
            stack.extend(reversed(instr.els))
            stack.extend(reversed(instr.then))
        elif isinstance(instr, (RetryUntil, Foreach)):
            stack.extend(reversed(instr.body))


def map_instrs(seq, f, in_loop=False):
    """seq with every instruction, nested ones included, replaced by
    f(instr, in_loop), where instr's nested sequences are already mapped
    and in_loop tells whether a loop encloses it. A node is rebuilt only
    when one of its sequences changed, and an unchanged sequence is
    returned as it is. Does not recurse: the sequences are collected
    breadth-first, then mapped innermost first."""
    seqs = [(seq, in_loop)]
    first_child = []  # index in seqs of each sequence's first nested one
    for s, loop in seqs:
        first_child.append(len(seqs))
        for instr in s:
            if isinstance(instr, Ite):
                seqs += ((instr.then, loop), (instr.els, loop))
            elif isinstance(instr, (RetryUntil, Foreach)):
                seqs.append((instr.body, True))
    mapped = [None] * len(seqs)
    for k in range(len(seqs) - 1, -1, -1):
        s, loop = seqs[k]
        c = first_child[k]
        out = []
        for instr in s:
            if isinstance(instr, Ite):
                then, els = mapped[c], mapped[c + 1]
                c += 2
                if then is not instr.then or els is not instr.els:
                    instr = Ite(instr.pred, then, els)
            elif isinstance(instr, (RetryUntil, Foreach)):
                body = mapped[c]
                c += 1
                if body is not instr.body and isinstance(instr, RetryUntil):
                    instr = RetryUntil(instr.loop_id, body, instr.pred)
                elif body is not instr.body:
                    instr = Foreach(instr.loop_id, instr.var, instr.source, body)
            out.append(f(instr, loop))
        mapped[k] = s if all(map(_is, out, s)) else tuple(out)
    return mapped[0]


def map_term(t, leaf):
    """t with leaf applied to each of its leaves (a read, constant,
    hidden call, value check, comparison, true or false); a Select or
    connective is rebuilt only when a part of it changed, around the same
    case pairs where they did not."""
    if isinstance(t, Select):
        cases = []
        for case in t.cases:
            p, e = map_term(case[0], leaf), map_term(case[1], leaf)
            cases.append(case if p is case[0] and e is case[1] else (p, e))
        default = map_term(t.default, leaf)
        if default is t.default and all(map(_is, cases, t.cases)):
            return t
        return Select(tuple(cases), default)
    if isinstance(t, (PAnd, POr)):
        a, b = map_term(t.left, leaf), map_term(t.right, leaf)
        return t if a is t.left and b is t.right else type(t)(a, b)
    if isinstance(t, PNot):
        a = map_term(t.inner, leaf)
        return t if a is t.inner else PNot(a)
    return leaf(t)


def map_terms(instr, leaf):
    """instr with map_term applied to the terms it holds itself: a
    visible call's arguments, a hidden let's arguments (which reach leaf
    as a HiddenCall), a guard, an exit predicate, a loop source. Nested
    sequences are left alone, and instr is returned as it is when no
    term changed."""
    if isinstance(instr, LetVisible):
        args = [(k, map_term(e, leaf)) for k, e in instr.args]
        for (_, new), (_, old) in zip(args, instr.args):
            if new is not old:
                return LetVisible(instr.var, instr.api, tuple(args))
        return instr
    if isinstance(instr, LetHidden):
        call = HiddenCall(instr.fn, instr.args)
        new = leaf(call)
        return instr if new is call else LetHidden(instr.var, new.fn_name, new.args)
    if isinstance(instr, Ite):
        pred = map_term(instr.pred, leaf)
        return instr if pred is instr.pred else Ite(pred, instr.then, instr.els)
    if isinstance(instr, RetryUntil):
        pred = map_term(instr.pred, leaf)
        return instr if pred is instr.pred else RetryUntil(instr.loop_id, instr.body, pred)
    if isinstance(instr, Foreach):
        src = map_term(instr.source, leaf)
        return instr if src is instr.source else Foreach(instr.loop_id, instr.var, src, instr.body)
    if isinstance(instr, Return):
        return instr
    raise DslError(f"not an instruction: {instr!r}")


def expr_reads(e) -> list:
    """Variable names read by an expression, in occurrence order."""
    if isinstance(e, Const):
        return []
    if isinstance(e, VarRef):
        return [e.name]
    return _term_reads(e, False)


def pred_reads(p) -> list:
    """Variable names read by a predicate, in occurrence order."""
    if isinstance(p, ValueCheck):
        return [p.var]
    return _term_reads(p, True)


def _term_reads(t, is_pred: bool) -> list:
    """expr_reads or pred_reads of t, over an explicit stack of (term,
    is a predicate): cases in order, then the default."""
    out = []
    stack = [(t, is_pred)]
    while stack:
        t, is_pred = stack.pop()
        if is_pred:
            if isinstance(t, ValueCheck):
                out.append(t.var)
            elif isinstance(t, (PAnd, POr)):
                stack += ((t.right, True), (t.left, True))
            elif isinstance(t, PNot):
                stack.append((t.inner, True))
            elif isinstance(t, Compare):
                out += (t.left, t.right)
            elif not isinstance(t, (PTrue, PFalse)):
                raise DslError(f"not a predicate: {t!r}")
        elif isinstance(t, VarRef):
            out.append(t.name)
        elif isinstance(t, Select):
            stack.append((t.default, False))
            for p, e in reversed(t.cases):
                stack += ((e, False), (p, True))
        elif isinstance(t, HiddenCall):
            out += t.args
        elif not isinstance(t, Const):
            raise DslError(f"not an expression: {t!r}")
    return out


def _parts(instr) -> tuple:
    """What an instruction holds of its own, as (its nested sequences'
    instructions, the names it takes: binder, loop id, visible API; the
    names it reads directly: a hidden let's arguments; the terms that
    may read a name: a visible call's arguments other than constants, a
    guard or exit predicate, a loop source)."""
    if isinstance(instr, LetVisible):
        return (), (instr.var, instr.api), (), [e for _, e in instr.args if not isinstance(e, Const)]
    if isinstance(instr, Ite):
        return instr.then + instr.els, (), (), (instr.pred,)
    if isinstance(instr, LetHidden):
        return (), (instr.var,), instr.args, ()
    if isinstance(instr, RetryUntil):
        return instr.body, (instr.loop_id,), (), (instr.pred,)
    if isinstance(instr, Foreach):
        return instr.body, (instr.loop_id, instr.var), (), (instr.source,)
    return (), (), (), ()


def _subterms(t) -> tuple:
    """The parts a Select (case pairs, default), case pair or connective
    is built of; a leaf has none."""
    if isinstance(t, Select):
        return (*t.cases, t.default)
    if isinstance(t, tuple):
        return t
    if isinstance(t, (PAnd, POr)):
        return (t.left, t.right)
    if isinstance(t, PNot):
        return (t.inner,)
    return ()


def _count_term_reads(reads: Counter, stack: list, sign: int, pending: dict) -> None:
    """Add sign times the reads of the terms on stack to reads. A term
    with occurrences left in pending (id -> [term, occurrences])
    cancels one of them instead and is not walked."""
    while stack:
        t = stack.pop()
        hit = pending.get(id(t)) if pending else None
        if hit is not None and hit[1]:
            hit[1] -= 1
        elif isinstance(t, Const):
            continue
        elif isinstance(t, VarRef):
            reads[t.name] += sign
        elif isinstance(t, ValueCheck):
            reads[t.var] += sign
        elif isinstance(t, Compare):
            reads[t.left] += sign
            reads[t.right] += sign
        elif isinstance(t, HiddenCall):
            for name in t.args:
                reads[name] += sign
        else:
            stack += _subterms(t)


def count_changes(old, new, reads: Counter, names: Counter) -> None:
    """Update a body's read counts, reads, and the counts of the names
    it takes (binders, loop ids and visible APIs), names, for replacing
    its run of instructions old by the run new. A name no longer counted
    is left at zero, as a Counter reads one it never counted.

    An identity diff. An instruction that is the same object on both
    sides is the same subtree, so neither side is walked below it, and
    an edit that rebuilds a conditional around its old branches'
    instructions costs what it rebuilt, not the branches. new is matched
    against old's instructions down to two levels below the run, where
    the refinements take theirs from; an instruction shared from deeper
    down is walked and counted on both sides, which cancels. Likewise a
    term of a new instruction that is the same object as a term of a
    replaced one cancels it unread, and a new term built around old
    ones is walked only down to them: a replaced Select is matched by
    its case pairs and default, which a pull's Select over the two merged
    arguments holds. With old empty, all of new is counted in."""
    in_old, level = set(), old
    for _ in range(3):
        in_old.update(map(id, level))
        level = [n for instr in level for n in _parts(instr)[0]]
    kept, added_names, added_reads, terms = set(), [], [], []
    stack = list(new)
    while stack:
        instr = stack.pop()
        if id(instr) in in_old:
            kept.add(id(instr))
            continue
        nested, taken, read, held = _parts(instr)
        stack += nested
        added_names += taken
        added_reads += read
        terms += held
    reads.update(added_reads)
    names.update(added_names)
    pending = {}  # id of a gone instruction's term -> [term, occurrences]
    stack = list(old)
    while stack:
        instr = stack.pop()
        if id(instr) in kept:
            continue
        nested, taken, read, held = _parts(instr)
        stack += nested
        for name in taken:
            names[name] -= 1
        for name in read:
            reads[name] -= 1
        for t in held:
            for part in _subterms(t) if isinstance(t, Select) else (t,):
                pending.setdefault(id(part), [part, 0])[1] += 1
    _count_term_reads(reads, terms, 1, pending)
    _count_term_reads(reads, [t for t, n in pending.values() for _ in range(n)], -1, {})


def seq_binders(seq) -> list:
    """Names bound in seq (lets and loop variables), in walk order."""
    return [i.var for i in walk(seq) if isinstance(i, (LetVisible, LetHidden, Foreach))]


def free_vars(seq) -> set:
    """Names read in seq before any binding of them within seq. A
    conditional's branches start from the same bound names, and after
    it the names bound in either branch stay bound. Walks with an
    explicit stack, and undoes a then-branch's bindings from a log
    rather than copying the bound set, so the walk is linear."""
    free: set = set()
    bound: set = set()
    log: list = []  # names in the order they became bound
    # Work items, next on top: ("ins", instruction), ("pred", guard read
    # after a loop body), ("else", (log mark, then-branch's names)) once
    # the then-branch is done, ("join", then-branch's names) after the
    # else-branch.
    stack = [("ins", instr) for instr in reversed(seq)]

    def note(names):
        for n in names:
            if n not in bound:
                free.add(n)

    def bind(n):
        if n not in bound:
            bound.add(n)
            log.append(n)

    while stack:
        op, x = stack.pop()
        if op == "pred":
            note(pred_reads(x))
        elif op == "else":
            mark, then_names = x
            then_names.extend(log[mark:])
            del log[mark:]
            bound.difference_update(then_names)
        elif op == "join":
            for n in x:
                bind(n)
        elif isinstance(x, LetVisible):
            for _, e in x.args:
                note(expr_reads(e))
            bind(x.var)
        elif isinstance(x, LetHidden):
            note(x.args)
            bind(x.var)
        elif isinstance(x, Ite):
            note(pred_reads(x.pred))
            then_names: list = []
            stack.append(("join", then_names))
            stack.extend(("ins", i) for i in reversed(x.els))
            stack.append(("else", (len(log), then_names)))
            stack.extend(("ins", i) for i in reversed(x.then))
        elif isinstance(x, RetryUntil):
            stack.append(("pred", x.pred))
            stack.extend(("ins", i) for i in reversed(x.body))
        elif isinstance(x, Foreach):
            note(expr_reads(x.source))
            bind(x.var)
            stack.extend(("ins", i) for i in reversed(x.body))
        elif not isinstance(x, Return):
            raise DslError(f"not an instruction: {x!r}")
    return free


# --- substitution (read renaming) ------------------------------------------


def rename_reads(seq, old: str, new: str):
    """Rename reads of old to new, leaving binders alone. The caller is
    responsible for hygiene (rewrite rules remove the old binder and
    point its readers at the surviving one)."""

    def leaf(t):
        if isinstance(t, VarRef):
            return VarRef(new) if t.name == old else t
        if isinstance(t, ValueCheck):
            return ValueCheck(new, t.const) if t.var == old else t
        if isinstance(t, HiddenCall) and old in t.args:
            return HiddenCall(t.fn_name, tuple(new if a == old else a for a in t.args))
        if isinstance(t, Compare) and old in (t.left, t.right):
            return Compare(
                new if t.left == old else t.left, t.op, new if t.right == old else t.right
            )
        return t

    return map_instrs(seq, lambda ins, _: map_terms(ins, leaf))


# --- validation ------------------------------------------------------------


def seq_loop_ids(seq) -> list:
    """Loop ids in seq, in walk order."""
    return [i.loop_id for i in walk(seq) if isinstance(i, (RetryUntil, Foreach))]


def called_fns(seq) -> list:
    """Names of the hidden functions seq calls, in walk order: a hidden
    let, or a hidden call in any term an instruction holds (a visible
    call's arguments, a loop's source)."""
    out = []
    for instr in walk(seq):
        if isinstance(instr, LetHidden):
            out.append(instr.fn)
            continue
        if isinstance(instr, LetVisible):
            terms = [e for _, e in reversed(instr.args)]
        elif isinstance(instr, Foreach):
            terms = [instr.source]
        else:
            continue  # a predicate holds no hidden call
        while terms:
            t = terms.pop()
            if isinstance(t, HiddenCall):
                out.append(t.fn_name)
            elif isinstance(t, Select):
                terms += [t.default] + [e for _, e in reversed(t.cases)]
    return out


def check_calls(seq, known) -> None:
    """Raise DslError at the first call, in walk order, of a hidden
    function not in known."""
    for fn in called_fns(seq):
        if fn not in known:
            raise DslError(f"call to undefined hidden function {fn}")


def validate_program(p: Program) -> None:
    """Raise DslError on name clashes or dangling references. Every
    check is linear in the program and none recurses."""
    counts = Counter(p.params)
    counts.update(seq_binders(p.body))
    dupes = {n for n, c in counts.items() if c > 1}
    if dupes:
        raise DslError(f"duplicate binders: {sorted(dupes)}")
    loops = seq_loop_ids(p.body)
    if len(set(loops)) != len(loops):
        raise DslError("duplicate loop ids")
    fnames = [n for n, _ in p.hidden_defs] + list(p.holes)
    if len(set(fnames)) != len(fnames):
        raise DslError("hidden function name declared twice")
    # The parser reads a call of a declared hidden name as a hidden call.
    clash = {i.api for i in walk(p.body) if isinstance(i, LetVisible)}.intersection(fnames)
    if clash:
        raise DslError(f"hidden functions named like a visible API: {sorted(clash)}")
    check_calls(p.body, set(fnames))
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


def print_case(case) -> str:
    """A conditional expression's case as printed ahead of the next."""
    return f"({print_pred(case[0])}) ? {print_expr(case[1])} : "


def print_expr(e) -> str:
    if isinstance(e, Const):
        return dumps_pretty(e.value)
    if isinstance(e, VarRef):
        return e.name
    if isinstance(e, Select):
        return "".join(map(print_case, e.cases)) + print_expr(e.default)
    if isinstance(e, HiddenCall):
        return f"{e.fn_name}({', '.join(e.args)})"
    raise DslError(f"not an expression: {e!r}")


def _dotted(name: str) -> bool:
    """Whether the parser reads name as a dotted callee."""
    return all(is_ident(part) for part in name.split("."))


def _arg_key(key: str) -> bool:
    """Whether the parser reads key as a let argument's bare key."""
    return is_ident(key) and key not in ("true", "false", "null")


def _print_seq(seq, out: list) -> None:
    """Append the lines of a program body to out. Uses an explicit stack,
    so nesting depth is unbounded."""
    # Items still to print, the next on top: (indent, instruction), or a
    # closing line that waits below its block's instructions.
    stack = [(1, instr) for instr in reversed(seq)]

    def push(indent, block):
        stack.extend((indent, s) for s in reversed(block))

    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        indent, instr = item
        pad = "  " * indent
        if isinstance(instr, LetVisible):
            args = ", ".join(f"{key_text(k, _arg_key)}={print_expr(e)}" for k, e in instr.args)
            out.append(f"{pad}let {instr.var} = {key_text(instr.api, _dotted)}({args})")
        elif isinstance(instr, LetHidden):
            out.append(f"{pad}let {instr.var} = {instr.fn}({', '.join(instr.args)})")
        elif isinstance(instr, Ite):
            out.append(f"{pad}if {print_pred(instr.pred)} {{")
            stack.append(f"{pad}}}")
            if instr.els:
                push(indent + 1, instr.els)
                stack.append(f"{pad}}} else {{")
            push(indent + 1, instr.then)
        elif isinstance(instr, RetryUntil):
            out.append(f"{pad}retry {instr.loop_id} {{")
            stack.append(f"{pad}}} until {print_pred(instr.pred)}")
            push(indent + 1, instr.body)
        elif isinstance(instr, Foreach):
            out.append(f"{pad}for {instr.loop_id} ({instr.var}) in {print_expr(instr.source)} {{")
            stack.append(f"{pad}}}")
            push(indent + 1, instr.body)
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
    _print_seq(p.body, out)
    if p.hidden_defs:
        out.append("where")
        for name, fn in p.hidden_defs:
            out.append(f"  {name} := {print_hidden_fn(fn)}")
    return "\n".join(out) + "\n"


# --- structural equivalence modulo renaming ---------------------------------


def _canonical(p: Program) -> Program:
    """p with every name replaced by the k-th name of its kind, in order
    of first occurrence: variables (the parameters first, in order),
    hidden functions and loop ids. The body is renamed in map_instrs's
    order, which only its shape decides, so two programs of one shape
    come out equal exactly when a bijection of names maps one onto the
    other. Hidden names the body never calls come after the called
    ones: definitions in declaration order, then holes."""
    vs, fs, ls = {}, {}, {}  # variables, hidden functions, loop ids

    def v(name):
        return vs.setdefault(name, f"v{len(vs)}")

    def fn(name):
        return fs.setdefault(name, f"f{len(fs)}")

    def loop(name):
        return ls.setdefault(name, f"l{len(ls)}")

    def leaf(t):
        if isinstance(t, VarRef):
            return VarRef(v(t.name))
        if isinstance(t, ValueCheck):
            return ValueCheck(v(t.var), t.const)
        if isinstance(t, HiddenCall):
            return HiddenCall(fn(t.fn_name), tuple(map(v, t.args)))
        if isinstance(t, Compare):
            return Compare(v(t.left), t.op, v(t.right))
        return t

    def rename(instr, _):
        instr = map_terms(instr, leaf)
        if isinstance(instr, LetVisible):
            return LetVisible(v(instr.var), instr.api, instr.args)
        if isinstance(instr, LetHidden):
            return LetHidden(v(instr.var), instr.fn, instr.args)
        if isinstance(instr, RetryUntil):
            return RetryUntil(loop(instr.loop_id), instr.body, instr.pred)
        if isinstance(instr, Foreach):
            return Foreach(loop(instr.loop_id), v(instr.var), instr.source, instr.body)
        return instr

    params = tuple(map(v, p.params))
    body = map_instrs(p.body, rename)
    defs, holes = dict(p.hidden_defs), set(p.holes)
    for name in list(defs) + list(p.holes):
        fn(name)
    return Program(
        params,
        body,
        tuple((c, defs[n]) for n, c in fs.items() if n in defs),
        tuple(c for n, c in fs.items() if n in holes),
    )


def _flat(instr):
    """instr without its nested sequences, but with their lengths."""
    if isinstance(instr, Ite):
        return Ite, instr.pred, len(instr.then), len(instr.els)
    if isinstance(instr, RetryUntil):
        return RetryUntil, instr.loop_id, instr.pred, len(instr.body)
    if isinstance(instr, Foreach):
        return Foreach, instr.loop_id, instr.var, instr.source, len(instr.body)
    return instr


def equiv_mod_renaming(p1: Program, p2: Program) -> bool:
    """Structural equality under a bijective renaming of variables,
    hidden-function names, and loop ids. Parameter order is significant.
    Compares the canonical renamings, the bodies one flat instruction at
    a time in walk order, so nothing recurses per nesting level."""
    c1, c2 = _canonical(p1), _canonical(p2)
    return (
        c1.params == c2.params
        and list(map(_flat, walk(c1.body))) == list(map(_flat, walk(c2.body)))
        and c1.hidden_defs == c2.hidden_defs
        and c1.holes == c2.holes
    )
