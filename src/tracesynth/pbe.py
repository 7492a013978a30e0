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
candidate's outputs come from its base's stored outputs through the
operator's step in hidden.PATH_STEPS / BOOL_STEPS, the steps eval_path
itself recurses through, and Eq and Empty likewise work per class. The
key vector over all examples, which pruning compares, is rebuilt from
the class keys by index; a predicate is stored with its bool vector
over all examples, which Not and And combine. Only the slots' class
representatives are evaluated from the examples, and the winner is
checked again with eval_path / eval_bool on every example before it is
returned.

Observational equivalence pruning keeps only the first expression per
output vector. A value vector is keyed by the values' structural keys
(_Keys), which are equal exactly when their canonical_dumps are; a bool
vector is its own key. Constants, keys, indices, addends, and
concatenation prefixes are mined from the examples (arguments before
outputs, in encounter order), in time linear in the examples' size; the
slice bounds are produced on demand.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from itertools import combinations
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .hidden import (
    BOOL_STEPS,
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
    canonical_dumps,
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


class _Keys:
    """Structural keys of JSON values, for one synthesize call, which
    shares them with the mine_pools call it makes.

    Two keys are equal exactly when the values' canonical_dumps are.
    Strings, ints, None and the absent marker are their own keys; bools
    and floats are tagged tuples, every NaN sharing one (NaN dumps
    alike); a list or dict is keyed by a small ("c", n) tuple interned
    from its members' keys, so hashing a vector never walks a value.
    Containers are memoized by id. The memo holds each container, so its
    id cannot be reused while this object lives."""

    def __init__(self):
        self._by_id: Dict[int, tuple] = {}
        self._interned: Dict[tuple, tuple] = {}

    def of(self, v):
        if isinstance(v, str):
            return v
        if isinstance(v, bool):
            return _BOOL_KEYS[v]
        if isinstance(v, int) or v is None or v is ABSENT:
            return v
        if isinstance(v, float):
            return ("f", v) if v == v else _NAN_KEY
        hit = self._by_id.get(id(v))
        if hit is not None:
            return hit[1]
        if isinstance(v, list):
            shape = ("l",) + tuple([self.of(x) for x in v])
        elif isinstance(v, dict):
            shape = ("d",) + tuple(sorted([(k, self.of(x)) for k, x in v.items()]))
        else:
            raise TypeError(f"not a JSON value: {v!r}")
        key = self._interned.setdefault(shape, ("c", len(self._interned)))
        self._by_id[id(v)] = (v, key)
        return key

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
    equals nothing, is therefore listed once per distinct pair."""
    args = list(dict.fromkeys((type(a), a) for a in arg_leaves if _is_number(a)))
    consts = {}
    for _, out in dict.fromkeys((type(o), o) for o in out_leaves if _is_number(o)):
        for _, arg in args:
            diff = out - arg
            if diff != 0:
                consts.setdefault(diff, None)
    return list(consts)


def _concat_prefixes(out_leaves, arg_leaves) -> List[str]:
    """For each output string, in order, the prefixes that some nonempty
    argument string completes to it, in the order those arguments first
    occur. A proper suffix of the output is looked up among the
    arguments, so no output is compared with every argument."""
    rank = {
        a: i
        for i, a in enumerate(dict.fromkeys(a for a in arg_leaves if isinstance(a, str) and a))
    }
    prefixes = {}
    for out in dict.fromkeys(o for o in out_leaves if isinstance(o, str)):
        for _, cut in sorted((rank[out[k:]], k) for k in range(1, len(out)) if out[k:] in rank):
            prefixes.setdefault(out[:cut], None)
    return list(prefixes)


def _leaves(v, keys, lengths):
    """v's scalar leaves, depth first. Object keys are added to the dict
    keys in encounter order, list lengths to the list lengths."""
    if isinstance(v, dict):
        for k, sub in v.items():
            keys.setdefault(k, None)
            yield from _leaves(sub, keys, lengths)
    elif isinstance(v, list):
        lengths.append(len(v))
        for sub in v:
            yield from _leaves(sub, keys, lengths)
    else:
        yield v


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
) -> SynthesisResult:
    """Enumerate until the first expression consistent with all
    examples. kind "value" wants path expressions reproducing outputs;
    kind "bool" wants predicates over the path layer with boolean
    outputs. The enumeration times out at cfg.timeout or at deadline,
    a caller's own, whichever expires first."""
    if kind not in ("value", "bool"):
        raise ValueError(f"unknown synthesis kind {kind!r}")
    if not examples:
        raise ValueError("need at least one example")
    arity = len(examples[0].args)
    if any(len(ex.args) != arity for ex in examples):
        raise ValueError("examples disagree on arity")
    if kind == "bool" and not all(isinstance(ex.output, bool) for ex in examples):
        raise ValueError("bool synthesis needs boolean outputs")

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

    def check_budget():
        if any(d.expired() for d in deadlines):
            raise _Timeout()

    def admit(bank, seen, vec, size, entry) -> bool:
        """Count a candidate, and bank it if its vector is new."""
        nonlocal enumerated
        enumerated += 1
        if enumerated % 512 == 0:
            check_budget()
        if vec in seen:
            return False
        seen.add(vec)
        bank.setdefault(size, []).append(entry)
        return True

    def paths_of(size):
        return path_by_size.get(size, [])

    def bools_of(size):
        return bool_by_size.get(size, [])

    def grow(bases, params, make):
        """make(base, p) for every base and p, with its outputs computed
        from its base's."""
        for base, slot, outs, _ in bases:
            for p in params:
                expr = make(base, p)
                step = _STEPS[type(expr)]
                yield expr, slot, tuple([step(expr, v) for v in outs])

    def path_candidates(size):
        if size == 1:
            for slot, (_, reps) in enumerate(slots):
                expr = Input(slot)
                yield expr, slot, tuple([eval_path(expr, args) for args in reps])
            return
        yield from grow(paths_of(size - 1), pools.keys, Child)
        yield from grow(paths_of(size - 1), pools.keys, Descendants)
        yield from grow(paths_of(size - 1), pools.indices, Index)
        yield from grow(paths_of(size - 1), pools.slices, lambda b, ij: Slice(b, *ij))
        yield from grow(paths_of(size - 1), (None,), lambda b, _: Length(b))
        if size >= 3:
            yield from grow(paths_of(size - 2), pools.add_consts, lambda b, c: Add(c, b))
            yield from grow(paths_of(size - 2), pools.concat_prefixes, lambda b, c: Concat(c, b))

    # Eq compares keys, which agrees with canonical_eq except on NaN; a
    # constant holding a NaN, which canonical_eq equates with nothing,
    # gets a key that equals nothing.
    eq_consts = {
        size: [(c, keys.of(c) if canonical_eq(c, c) else object()) for c in consts]
        for size, consts in pools.eq_values_by_size.items()
        if not want_value
    }

    def bool_candidates(size):
        for j in range(1, size - 1):
            consts = eq_consts.get(size - 1 - j, [])
            if not consts:
                continue
            for base, slot, _, okeys in paths_of(j):
                for c, ckey in consts:
                    yield Eq(base, c), spread[slot](tuple([k == ckey for k in okeys]))
        for expr, slot, outs in grow(paths_of(size - 1), (None,), lambda b, _: Empty(b)):
            yield expr, spread[slot](outs)
        for inner, outs in bools_of(size - 1):
            yield Not(inner), tuple([not b for b in outs])
        for j in range(1, size - 1):
            for left, louts in bools_of(j):
                for right, routs in bools_of(size - 1 - j):
                    yield And(left, right), tuple([a and b for a, b in zip(louts, routs)])

    def found(expr, size):
        """The winner, once the reference interpreter agrees with its
        stored outputs on every example."""
        for args, want in zip(arg_lists, goal):
            got = keys.of(eval_path(expr, args)) if want_value else eval_bool(expr, args)
            if got != want:
                raise RuntimeError(f"incremental evaluation disagrees with eval on {expr!r}")
        return SynthesisResult("sat", expr, size, arity, enumerated)

    try:
        for size in range(1, cfg.max_size + 1):
            check_budget()
            for expr, slot, outs in path_candidates(size):
                okeys = keys.vector(outs)
                vec = spread[slot](okeys)
                entry = (expr, slot, outs, okeys)
                if admit(path_by_size, seen_path_vectors, vec, size, entry) and (
                    want_value and vec == goal
                ):
                    return found(expr, size)
            if want_value:
                continue
            for expr, outs in bool_candidates(size):
                if admit(bool_by_size, seen_bool_vectors, outs, size, (expr, outs)) and outs == goal:
                    return found(expr, size)
    except _Timeout:
        return SynthesisResult("timeout", None, 0, arity, enumerated)

    return SynthesisResult("unsat", None, 0, arity, enumerated)


# --- caching -----------------------------------------------------------------


def _example_digest(ex: IOExample) -> str:
    parts = []
    for a in ex.args:
        parts.append("absent" if is_absent(a) else canonical_dumps(a))
    parts.append(canonical_dumps(ex.output))
    return "\x1e".join(parts)


def constraint_digest(examples: List[IOExample], kind: str) -> str:
    arity = len(examples[0].args) if examples else 0
    encoded = sorted(_example_digest(ex) for ex in examples)
    h = hashlib.sha256()
    h.update(f"{kind}|{arity}|".encode())
    for e in encoded:
        h.update(e.encode())
        h.update(b"\x1d")
    return h.hexdigest()


class ConstraintCache:
    """Memo of solved constraint sets, keyed order-insensitively.
    Satisfying expressions are reused outright; unsat verdicts are kept
    with the budget they were proved at, so only a larger budget
    re-runs the enumeration. pbe_calls and pbe_sat count actual
    enumerator runs (cache hits are free)."""

    def __init__(self):
        self._sat: Dict[str, SynthesisResult] = {}
        self._unsat_budget: Dict[str, int] = {}
        self.pbe_calls = 0
        self.pbe_sat = 0

    def records_unsat(self) -> bool:
        """Is any constraint set recorded unsat?"""
        return bool(self._unsat_budget)

    def has_unsat(self, examples: List[IOExample], kind: str) -> bool:
        """Is this constraint set recorded unsat at any budget?"""
        return constraint_digest(examples, kind) in self._unsat_budget

    def solve(
        self,
        examples: List[IOExample],
        kind: str,
        cfg: GrammarConfig,
        deadline: Optional[_Deadline] = None,
    ) -> SynthesisResult:
        digest = constraint_digest(examples, kind)
        if digest in self._sat:
            return self._sat[digest]
        if self._unsat_budget.get(digest, -1) >= cfg.max_size:
            return SynthesisResult("unsat", None, 0, len(examples[0].args), 0)
        self.pbe_calls += 1
        result = synthesize(examples, kind, cfg, deadline)
        if result.sat:
            self.pbe_sat += 1
            self._sat[digest] = result
        elif result.status == "unsat":
            self._unsat_budget[digest] = max(
                cfg.max_size, self._unsat_budget.get(digest, 0)
            )
        return result
