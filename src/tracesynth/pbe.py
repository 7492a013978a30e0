"""Bottom-up enumerative synthesis of hidden pure functions.

Candidates are enumerated in ascending size. Size charges 1 per
operator node and per input-slot reference; object keys and list
indices are free; literal constants cost their structural node count
(a scalar is 1, a container is 1 plus its members). The first candidate
consistent with every example wins, so the pinned enumeration order is
part of the contract:

  for each total size: path productions in the order
  [child, descendants, index, slice, length, add, concat], then bool
  productions in the order [eq, empty, not, and]; within a production,
  smaller bases first, bases in table insertion order, mined constants
  in encounter order.

Evaluation is incremental, and once per distinct argument. Each input
slot's arguments are split into classes of interchangeable values:
equal structural keys, and objects listing their keys in the same order
at every depth (canonical equality ignores key order, but `..key`
follows it). Every path reads exactly one slot, so the bank stores a
path with one output and one key per class of its slot. A new
candidate's outputs come from its base's stored outputs and the
operator's parameter (key, index, bounds or constant) through the
operator's step in hidden.PATH_STEPS / BOOL_STEPS, the steps eval_path
itself recurses through, and Eq and Empty likewise work per class. The
candidate's node is built only when its vector is new and it is banked.
The key vector over all examples, which pruning compares, is rebuilt
from the class keys by index; a predicate is stored with its bool
vector over all examples, which Not and And combine. Only the slots'
class representatives are evaluated from the examples, and the winner
is checked again with eval_path / eval_bool on every example before it
is returned.

Observational equivalence pruning keeps only the first expression per
output vector. Most candidates give their production's miss vector: a
`.key` or `..key` that no output of the base holds, an index past
every list, an Eq constant that no output equals. hidden.MISSES states
each step's miss value and, per base, the parameters that can give
anything else (its hits). Once the miss vector is banked, a candidate
whose parameter is outside its base's hits is counted, in its turn and
against the budget, and not evaluated, keyed or built, so the order,
the count and the winner are those of evaluating it.

A value vector is keyed by the values' structural keys (_Keys), which
are equal exactly when their canonical_dumps are; a bool vector is its
own key. A search's ConstraintCache keeps one key table for the whole
search: it keys each example value once, for the cache key and for
every synthesize call that reads it. Each call keys its enumeration
outputs in a table of its own layered on that one, so the search table
holds only the examples. Constants, keys, indices, addends, and
concatenation prefixes are mined from the examples (arguments before
outputs, in encounter order), in time linear in the examples' size;
the slice bounds are produced on demand. Every walk over a JSON value
runs off an explicit stack, so values of any depth are keyed and
mined.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .hidden import (
    BOOL_STEPS,
    EVERY,
    MISSES,
    PATH_STEPS,
    Add,
    And,
    Child,
    Concat,
    Descendants,
    Empty,
    Eq,
    HiddenFnBody,
    Index,
    Input,
    Length,
    Not,
    Slice,
    eval_bool,
    eval_path,
)
from .jsonvals import (
    ABSENT,
    JsonValue,
    # Not called here: perfbench/tracer.py counts its calls by rebinding
    # pbe.canonical_dumps, and perfbench/ changes only with the benchmark.
    canonical_dumps,  # noqa: F401
    canonical_eq,
    is_absent,
    structural_size,
)


@dataclass(frozen=True)
class IOExample:
    """One observation: argument tuple (entries may be the absent
    marker) and the required output."""

    args: Tuple[JsonValue, ...]
    output: JsonValue


@dataclass(frozen=True)
class GrammarConfig:
    max_size: int = 8
    timeout: Optional[float] = None


@dataclass
class SynthesisResult:
    status: str  # "sat" | "unsat" | "timeout"
    expr: Optional[object] = None
    size: int = 0
    arity: int = 0
    enumerated: int = 0

    @property
    def sat(self) -> bool:
        return self.status == "sat"

    def fn_body(self) -> HiddenFnBody:
        if not self.sat:
            raise ValueError("no solution to wrap")
        return HiddenFnBody(arity=self.arity, body=self.expr)


# --- structural keys ---------------------------------------------------------


_BOOL_KEYS = {False: ("b", False), True: ("b", True)}
_NAN_KEY = ("f", "nan")


def _scalar_key(v):
    """The structural key of a value that is neither a list nor a dict."""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return _BOOL_KEYS[v]
    if isinstance(v, int) or v is None or v is ABSENT:
        return v
    if isinstance(v, float):
        return ("f", v) if v == v else _NAN_KEY
    raise TypeError(f"not a JSON value: {v!r}")


class _Keys:
    """Structural keys of JSON values. Two keys are equal exactly when
    the values' canonical_dumps are.

    Strings, ints, None and the absent marker are their own keys; bools
    and floats are tagged tuples, every NaN sharing one (NaN dumps
    alike); a list or dict is keyed by a small (tag, n) tuple interned
    from its members' keys, so hashing a vector never walks a value.

    A search table (made with no argument) lives as long as the
    search's ConstraintCache, which keys every example with it, and
    synthesize keys the examples' values with it too. It memoizes
    containers by id and holds each one, so its id cannot be reused;
    the examples are σ cells, which stay alive anyway. Its shapes are
    tagged "c".

    A call table (_Keys(search)) keys one synthesize call's enumeration
    outputs, which are mostly fresh lists from `..key` and slices. It
    reads the search table's memo and shapes and writes only its own
    shapes, tagged "t", and memoizes nothing, so an output is freed as
    soon as its candidate is pruned. Its keys equal the search table's
    exactly when the dumps are equal, as long as the search table keys
    no new value while the call table is in use."""

    def __init__(self, search: Optional[_Keys] = None):
        self._interned: Dict[tuple, tuple] = {}
        if search is None:
            self._by_id: Dict[int, tuple] = {}  # id -> (container, key)
            self._fixed: Dict[tuple, tuple] = {}
            self._tag = "c"
        else:
            self._by_id = search._by_id
            self._fixed = search._interned
            self._tag = "t"
        self._memoize = search is None

    def of(self, v):
        # _scalar_key's cases, inline: most values keyed are scalars.
        if isinstance(v, str):
            return v
        if isinstance(v, bool):
            return _BOOL_KEYS[v]
        if isinstance(v, int) or v is None or v is ABSENT:
            return v
        if isinstance(v, float):
            return ("f", v) if v == v else _NAN_KEY
        if not isinstance(v, (list, dict)):
            raise TypeError(f"not a JSON value: {v!r}")
        hit = self._by_id.get(id(v))
        if hit is not None:
            return hit[1]
        return self._key_new(v)

    def _key_new(self, root):
        """Key root, a container not in the memo, and every container
        in it not in the memo, members before their container. Walks an
        explicit stack of (container, its member iterator, its members'
        keys so far), so each new container is visited once, at any
        depth."""
        if not root:  # most often an `..key` that matched nothing
            return self._intern(("l",) if isinstance(root, list) else ("d",))
        by_id = self._by_id
        stack = [(root, iter(root.values() if isinstance(root, dict) else root), [])]
        while stack:
            c, members, got = stack[-1]
            for x in members:
                if isinstance(x, str):
                    got.append(x)
                elif isinstance(x, (list, dict)):
                    hit = by_id.get(id(x))
                    if hit is None:
                        stack.append((x, iter(x.values() if isinstance(x, dict) else x), []))
                        break
                    got.append(hit[1])
                else:
                    got.append(_scalar_key(x))
            else:
                stack.pop()
                if isinstance(c, list):
                    shape = ("l", *got)
                else:
                    shape = ("d", *sorted(zip(c, got)))
                key = self._intern(shape)
                if self._memoize:
                    by_id[id(c)] = (c, key)
                if stack:
                    stack[-1][2].append(key)
        return key

    def _intern(self, shape: tuple) -> tuple:
        return self._fixed.get(shape) or self._interned.setdefault(
            shape, (self._tag, len(self._interned))
        )

    def vector(self, values) -> tuple:
        return tuple([self.of(v) for v in values])


# --- constant mining ---------------------------------------------------------


@dataclass(frozen=True)
class SlicePairs:
    """The slice bounds (i, j), 0 <= i < j <= n, row by row. They are
    produced on demand: a list of n items has n(n+1)/2 of them."""

    n: int = 0

    def __iter__(self):
        return combinations(range(self.n + 1), 2)

    def __len__(self) -> int:
        return self.n * (self.n + 1) // 2


@dataclass
class MinedPools:
    keys: List[str] = field(default_factory=list)
    eq_values_by_size: Dict[int, List[JsonValue]] = field(default_factory=dict)
    indices: List[int] = field(default_factory=list)
    slices: SlicePairs = field(default_factory=SlicePairs)
    add_consts: List[JsonValue] = field(default_factory=list)
    concat_prefixes: List[str] = field(default_factory=list)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _add_consts(out_leaves, arg_leaves) -> List[JsonValue]:
    """Every nonzero output - argument difference, in the order of the
    pairs. Repeated numbers (same type, equal value) add no new
    difference, so each side is taken once; a NaN difference, which
    equals nothing, is therefore listed once per distinct pair. A pair
    of an int too large for a float and a float has no difference."""
    args = list(dict.fromkeys((type(a), a) for a in arg_leaves if _is_number(a)))
    consts = {}
    for _, out in dict.fromkeys((type(o), o) for o in out_leaves if _is_number(o)):
        for _, arg in args:
            try:
                diff = out - arg
            except OverflowError:
                continue
            if diff != 0:
                consts.setdefault(diff, None)
    return list(consts)


def _concat_prefixes(out_leaves, arg_leaves) -> List[str]:
    """For each output string, in order, the prefixes that some nonempty
    argument string completes to it, in the order those arguments first
    occur. Only the output's proper suffixes as long as some argument
    are looked up among the arguments, so no output is compared with
    every argument."""
    rank = {
        a: i
        for i, a in enumerate(dict.fromkeys(a for a in arg_leaves if isinstance(a, str) and a))
    }
    lengths = sorted({len(a) for a in rank})
    prefixes = {}
    for out in dict.fromkeys(o for o in out_leaves if isinstance(o, str)):
        n = len(out)
        cuts = [(rank[tail], n - m) for m in lengths if m < n and (tail := out[n - m :]) in rank]
        for _, cut in sorted(cuts):
            prefixes.setdefault(out[:cut], None)
    return list(prefixes)


def _leaves(v, keys, lengths):
    """v's scalar leaves, depth first. Each object key is added to the
    dict keys just before its value is walked, in encounter order, and
    list lengths to the list lengths. Walks a stack of member iterators,
    as the values are JSON of any depth."""
    stack = [(iter((v,)), False)]  # (members, are they (key, value) pairs)
    while stack:
        members, pairs = stack[-1]
        for x in members:
            if pairs:
                k, x = x
                keys.setdefault(k, None)
            if isinstance(x, dict):
                stack.append((iter(x.items()), True))
                break
            if isinstance(x, list):
                lengths.append(len(x))
                stack.append((iter(x), False))
                break
            yield x
        else:
            stack.pop()


def mine_pools(examples: List[IOExample], value_keys: Optional[_Keys] = None) -> MinedPools:
    """The constant pools of a set of examples. value_keys, when given,
    is the caller's key table, which then keys the examples' values
    for both."""
    pools = MinedPools()
    if value_keys is None:
        value_keys = _Keys()
    seen_values = set()
    keys: Dict[str, None] = {}
    lengths = [0]
    arg_leaves: List[JsonValue] = []
    out_leaves: List[JsonValue] = []

    def add_value(v):
        key = value_keys.of(v)
        if key not in seen_values:
            seen_values.add(key)
            pools.eq_values_by_size.setdefault(structural_size(v), []).append(v)

    def add_leaves(v, leaves):
        for leaf in _leaves(v, keys, lengths):
            leaves.append(leaf)
            add_value(leaf)

    for ex in examples:
        for a in ex.args:
            if is_absent(a):
                continue
            add_value(a)
            add_leaves(a, arg_leaves)
        add_leaves(ex.output, out_leaves)

    max_list_len = max(lengths)
    pools.keys = list(keys)
    pools.indices = list(range(max_list_len))
    pools.slices = SlicePairs(max_list_len)
    pools.add_consts = _add_consts(out_leaves, arg_leaves)
    pools.concat_prefixes = _concat_prefixes(out_leaves, arg_leaves)
    return pools


# --- enumeration -------------------------------------------------------------


class _Deadline:
    def __init__(self, timeout: Optional[float]):
        self.at = time.monotonic() + timeout if timeout else None

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() >= self.at


class _Timeout(Exception):
    pass


_STEPS = {**PATH_STEPS, **BOOL_STEPS}


def _same_key_order(a, b) -> bool:
    """For two values with equal structural keys: do their objects list
    their keys in the same order, at every depth? Canonical equality
    ignores key order, but `..key` (hidden._descend) follows it. Walks
    with an explicit stack, as the values are JSON of any depth."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if x is y:
            continue
        if isinstance(x, dict):
            if list(x) != list(y):
                return False
            stack.extend(zip(x.values(), y.values()))
        elif isinstance(x, list):
            stack.extend(zip(x, y))
    return True


def _slot_classes(arg_lists, slot, keys):
    """The examples split by their argument in one input slot into
    classes of interchangeable values, which every step maps to equal
    results: equal structural keys and the same key order. Returns each
    example's class and, per class, the arguments of its first
    example."""
    members: Dict[object, List[tuple]] = {}  # key -> [(class, value)]
    classes, reps = [], []
    for args in arg_lists:
        v = args[slot]
        group = members.setdefault(keys.of(v), [])
        for c, w in group:
            if _same_key_order(w, v):
                break
        else:
            c = len(reps)
            group.append((c, v))
            reps.append(args)
        classes.append(c)
    return classes, reps


def synthesize(
    examples: List[IOExample],
    kind: str,
    cfg: GrammarConfig,
    deadline: Optional[_Deadline] = None,
    keys: Optional[_Keys] = None,
) -> SynthesisResult:
    """Enumerate until the first expression consistent with all
    examples. kind "value" wants path expressions reproducing outputs;
    kind "bool" wants predicates over the path layer with boolean
    outputs. The enumeration times out at cfg.timeout or at deadline,
    a caller's own, whichever expires first. keys is the search's key
    table, which has keyed the examples already; without one, the call
    makes its own."""
    if kind not in ("value", "bool"):
        raise ValueError(f"unknown synthesis kind {kind!r}")
    if not examples:
        raise ValueError("need at least one example")
    arity = len(examples[0].args)
    if any(len(ex.args) != arity for ex in examples):
        raise ValueError("examples disagree on arity")
    if kind == "bool" and not all(isinstance(ex.output, bool) for ex in examples):
        raise ValueError("bool synthesis needs boolean outputs")

    if keys is None:
        keys = _Keys()
    pools = mine_pools(examples, keys)
    arg_lists = [list(ex.args) for ex in examples]
    deadlines = [_Deadline(cfg.timeout)] + ([deadline] if deadline else [])
    enumerated = 0

    # Per input slot: the examples' arguments in classes, and the map
    # from a vector over those classes to the vector over the examples.
    slots = [_slot_classes(arg_lists, slot, keys) for slot in range(arity)]
    spread = [itemgetter(*classes) if len(classes) > 1 else tuple for classes, _ in slots]

    # The bank: per size, insertion-ordered, the first expression of
    # each distinct output vector over the examples. A path is stored
    # as (expr, slot, outputs, keys), its outputs and their keys being
    # per class of the one slot it reads; a predicate as (expr,
    # outputs), one bool per example.
    path_by_size: Dict[int, List[tuple]] = {}
    bool_by_size: Dict[int, List[tuple]] = {}
    seen_path_vectors = set()
    seen_bool_vectors = set()

    want_value = kind == "value"
    expected = tuple(ex.output for ex in examples)
    goal = keys.vector(expected) if want_value else expected

    # Eq compares keys, which agrees with canonical_eq except on NaN; a
    # constant holding a NaN, which canonical_eq equates with nothing,
    # gets a key that equals nothing. Per size, each constant is listed
    # under its key, in pool order (mine_pools pools each key once).
    eq_consts = {
        size: {(keys.of(c) if canonical_eq(c, c) else object()): c for c in consts}
        for size, consts in pools.eq_values_by_size.items()
        if not want_value
    }

    # The enumeration's outputs are keyed in a table of their own, so
    # the search table keeps only the examples' values.
    out_keys = _Keys(keys)

    def check_budget():
        if any(d.expired() for d in deadlines):
            raise _Timeout()

    def admit(seen, vec) -> bool:
        """Count a candidate; is its vector new?"""
        nonlocal enumerated
        enumerated += 1
        if enumerated % 512 == 0:
            check_budget()
        if vec in seen:
            return False
        seen.add(vec)
        return True

    def count(n):
        """Count n candidates whose vector is banked already, checking
        the budget at the same counts admit does."""
        nonlocal enumerated
        while n:
            k = min(n, 512 - enumerated % 512)
            enumerated += k
            n -= k
            if enumerated % 512 == 0:
                check_budget()

    def kept(params, hits):
        """One base's parameters that are in hits, in order. A candidate
        whose parameter is outside them gives its production's miss
        vector, which the caller has seen banked, so it is only counted,
        in its turn."""
        if hits is EVERY:
            yield from params
        elif not hits:
            count(len(params))
        else:
            missed = 0
            for p in params:
                if p in hits:
                    count(missed)
                    missed = 0
                    yield p
                else:
                    missed += 1
            count(missed)

    def paths_of(size):
        return path_by_size.get(size, [])

    def bools_of(size):
        return bool_by_size.get(size, [])

    def bank_path(size, slot, outs, make, *parts):
        """Bank make(*parts), a path whose outputs per class of its slot
        are outs, if its vector is new; the winner, or None."""
        okeys = out_keys.vector(outs)
        vec = spread[slot](okeys)
        if not admit(seen_path_vectors, vec):
            return None
        expr = make(*parts)
        path_by_size.setdefault(size, []).append((expr, slot, outs, okeys))
        return expr if want_value and vec == goal else None

    def grow(size, bases, params, node, make=None):
        """make(base, p) (by default node(base, p)) for every base and
        p, bases outer, its outputs computed from its base's through
        node's step; the winner, or None. Once node's miss vector is
        banked, a p outside the base's hits (hidden.MISSES) is only
        counted."""
        step = _STEPS[node]
        make = make or node
        miss, hits_of = MISSES.get(node, (None, None))
        missed = (out_keys.of(miss),) * len(examples)
        for base, slot, outs, _ in bases:
            hits = hits_of(outs) if hits_of and missed in seen_path_vectors else EVERY
            for p in kept(params, hits):
                hit = bank_path(size, slot, tuple([step(p, v) for v in outs]), make, base, p)
                if hit is not None:
                    return hit
        return None

    def paths(size):
        """Bank the paths of one size; the winner, or None."""
        if size == 1:
            for slot, (_, reps) in enumerate(slots):
                read = Input(slot)
                outs = tuple([eval_path(read, args) for args in reps])
                hit = bank_path(size, slot, outs, Input, slot)
                if hit is not None:
                    return hit
            return None
        smaller = paths_of(size - 1)
        productions = [
            (smaller, pools.keys, Child),
            (smaller, pools.keys, Descendants),
            (smaller, pools.indices, Index),
            (smaller, pools.slices, Slice, lambda b, ij: Slice(b, *ij)),
            (smaller, (None,), Length, lambda b, _: Length(b)),
        ]
        if size >= 3:
            productions.append((paths_of(size - 2), pools.add_consts, Add, lambda b, c: Add(c, b)))
            productions.append(
                (paths_of(size - 2), pools.concat_prefixes, Concat, lambda b, c: Concat(c, b))
            )
        for production in productions:
            hit = grow(size, *production)
            if hit is not None:
                return hit
        return None

    def bank_bool(size, outs, make, *parts):
        """Bank make(*parts) if its vector is new; the winner, or None."""
        if not admit(seen_bool_vectors, outs):
            return None
        expr = make(*parts)
        bool_by_size.setdefault(size, []).append((expr, outs))
        return expr if outs == goal else None

    def bools(size):
        """Bank the predicates of one size; the winner, or None. Once
        Eq's miss vector is banked, a constant outside the base's hits
        is only counted; Eq compares keys, so the hits are taken over
        the base's class keys."""
        eq_miss, eq_hits = MISSES[Eq]
        eq_missed = (eq_miss,) * len(examples)
        for j in range(1, size - 1):
            consts = eq_consts.get(size - 1 - j)
            if not consts:
                continue
            for base, slot, _, okeys in paths_of(j):
                hits = set(eq_hits(okeys)) if eq_missed in seen_bool_vectors else EVERY
                for ckey in kept(consts, hits):
                    outs = spread[slot](tuple([k == ckey for k in okeys]))
                    hit = bank_bool(size, outs, Eq, base, consts[ckey])
                    if hit is not None:
                        return hit
        empty = _STEPS[Empty]
        for base, slot, outs, _ in paths_of(size - 1):
            hit = bank_bool(size, spread[slot](tuple([empty(None, v) for v in outs])), Empty, base)
            if hit is not None:
                return hit
        for inner, outs in bools_of(size - 1):
            hit = bank_bool(size, tuple([not b for b in outs]), Not, inner)
            if hit is not None:
                return hit
        for j in range(1, size - 1):
            for left, louts in bools_of(j):
                for right, routs in bools_of(size - 1 - j):
                    outs = tuple([a and b for a, b in zip(louts, routs)])
                    hit = bank_bool(size, outs, And, left, right)
                    if hit is not None:
                        return hit
        return None

    def found(expr, size):
        """The winner, once the reference interpreter agrees with its
        stored outputs on every example."""
        for args, want in zip(arg_lists, goal):
            got = out_keys.of(eval_path(expr, args)) if want_value else eval_bool(expr, args)
            if got != want:
                raise RuntimeError(f"incremental evaluation disagrees with eval on {expr!r}")
        return SynthesisResult("sat", expr, size, arity, enumerated)

    try:
        for size in range(1, cfg.max_size + 1):
            check_budget()
            hit = paths(size)
            if hit is None and not want_value:
                hit = bools(size)
            if hit is not None:
                return found(hit, size)
    except _Timeout:
        return SynthesisResult("timeout", None, 0, arity, enumerated)

    return SynthesisResult("unsat", None, 0, arity, enumerated)


# --- caching -----------------------------------------------------------------


class ConstraintCache:
    """Memo of solved constraint sets, for one search. Satisfying
    expressions are reused outright; unsat verdicts are kept with the
    budget they were proved at, so only a larger budget re-runs the
    enumeration. pbe_calls and pbe_sat count actual enumerator runs
    (cache hits are free).

    A constraint set is keyed by its kind, its arity and the multiset
    of its examples, each example being the tuple of its arguments' and
    output's structural keys: example order is ignored, and two sets
    share an entry exactly when their examples' canonical_dumps agree
    (the absent marker is a key of its own). The keys come from one
    _Keys table for the whole search, which synthesize reuses, so each
    example value is keyed once per search, not once per call."""

    def __init__(self):
        self.keys = _Keys()
        self._sat: Dict[tuple, SynthesisResult] = {}
        self._unsat_budget: Dict[tuple, int] = {}
        self.pbe_calls = 0
        self.pbe_sat = 0

    def _key(self, examples: List[IOExample], kind: str) -> tuple:
        of = self.keys.of
        arity = len(examples[0].args) if examples else 0
        rows = Counter(tuple([of(a) for a in ex.args] + [of(ex.output)]) for ex in examples)
        return kind, arity, frozenset(rows.items())

    def records_unsat(self) -> int:
        """How many constraint sets are recorded unsat, at any budget. A
        verdict is never taken back, so the count grows exactly when a
        new one is recorded."""
        return len(self._unsat_budget)

    def has_unsat(self, examples: List[IOExample], kind: str) -> bool:
        """Is this constraint set recorded unsat at any budget?"""
        return self._key(examples, kind) in self._unsat_budget

    def solve(
        self,
        examples: List[IOExample],
        kind: str,
        cfg: GrammarConfig,
        deadline: Optional[_Deadline] = None,
    ) -> SynthesisResult:
        key = self._key(examples, kind)
        if key in self._sat:
            return self._sat[key]
        if self._unsat_budget.get(key, -1) >= cfg.max_size:
            return SynthesisResult("unsat", None, 0, len(examples[0].args), 0)
        self.pbe_calls += 1
        result = synthesize(examples, kind, cfg, deadline, keys=self.keys)
        if result.sat:
            self.pbe_sat += 1
            self._sat[key] = result
        elif result.status == "unsat":
            self._unsat_budget[key] = max(cfg.max_size, self._unsat_budget.get(key, 0))
        return result
