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

Observational equivalence pruning keeps only the first expression per
output vector. Constants, keys, indices, addends, and concatenation
prefixes are mined from the examples (arguments before outputs, in
encounter order).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .hidden import (
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
    JsonValue,
    canonical_dumps,
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


# --- constant mining ---------------------------------------------------------


@dataclass
class MinedPools:
    keys: List[str] = field(default_factory=list)
    eq_values_by_size: Dict[int, List[JsonValue]] = field(default_factory=dict)
    indices: List[int] = field(default_factory=list)
    slices: List[Tuple[int, int]] = field(default_factory=list)
    add_consts: List[JsonValue] = field(default_factory=list)
    concat_prefixes: List[str] = field(default_factory=list)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def mine_pools(examples: List[IOExample]) -> MinedPools:
    pools = MinedPools()
    seen_keys = set()
    seen_values = set()
    seen_adds = set()
    seen_prefixes = set()
    max_list_len = 0
    arg_leaves: List[JsonValue] = []
    out_leaves: List[JsonValue] = []

    def add_value(v):
        d = canonical_dumps(v)
        if d not in seen_values:
            seen_values.add(d)
            pools.eq_values_by_size.setdefault(structural_size(v), []).append(v)

    def walk(v, leaves):
        nonlocal max_list_len
        if isinstance(v, dict):
            for k, sub in v.items():
                if k not in seen_keys:
                    seen_keys.add(k)
                    pools.keys.append(k)
                walk(sub, leaves)
        elif isinstance(v, list):
            max_list_len = max(max_list_len, len(v))
            for sub in v:
                walk(sub, leaves)
        else:
            leaves.append(v)
            add_value(v)

    for ex in examples:
        for a in ex.args:
            if is_absent(a):
                continue
            add_value(a)
            walk(a, arg_leaves)
        walk(ex.output, out_leaves)

    pools.indices = list(range(max_list_len))
    pools.slices = [
        (i, j) for i in range(max_list_len + 1) for j in range(i + 1, max_list_len + 1)
    ]
    for out in out_leaves:
        if _is_number(out):
            for arg in arg_leaves:
                if _is_number(arg):
                    diff = out - arg
                    if diff != 0 and diff not in seen_adds:
                        seen_adds.add(diff)
                        pools.add_consts.append(diff)
        if isinstance(out, str):
            for arg in arg_leaves:
                if (
                    isinstance(arg, str)
                    and arg
                    and out.endswith(arg)
                    and len(out) > len(arg)
                ):
                    prefix = out[: -len(arg)]
                    if prefix not in seen_prefixes:
                        seen_prefixes.add(prefix)
                        pools.concat_prefixes.append(prefix)
    return pools


# --- enumeration -------------------------------------------------------------


class _Deadline:
    def __init__(self, timeout: Optional[float]):
        self.at = time.monotonic() + timeout if timeout else None

    def expired(self) -> bool:
        return self.at is not None and time.monotonic() >= self.at


class _Timeout(Exception):
    pass


def _vector_digest(values) -> str:
    parts = []
    for v in values:
        parts.append("miss" if v is None else canonical_dumps(v))
    return "\x1f".join(parts)


def synthesize(
    examples: List[IOExample], kind: str, cfg: GrammarConfig
) -> SynthesisResult:
    """Enumerate until the first expression consistent with all
    examples. kind "value" wants path expressions reproducing outputs;
    kind "bool" wants predicates over the path layer with boolean
    outputs."""
    if kind not in ("value", "bool"):
        raise ValueError(f"unknown synthesis kind {kind!r}")
    if not examples:
        raise ValueError("need at least one example")
    arity = len(examples[0].args)
    if any(len(ex.args) != arity for ex in examples):
        raise ValueError("examples disagree on arity")
    if kind == "bool" and not all(isinstance(ex.output, bool) for ex in examples):
        raise ValueError("bool synthesis needs boolean outputs")

    pools = mine_pools(examples)
    arg_vectors = [ex.args for ex in examples]
    deadline = _Deadline(cfg.timeout)
    enumerated = 0

    # OE tables: per size, insertion-ordered lists of (expr, outputs).
    path_by_size: Dict[int, List[Tuple[object, tuple]]] = {}
    bool_by_size: Dict[int, List[Tuple[object, tuple]]] = {}
    seen_path_vectors = set()
    seen_bool_vectors = set()

    want_value = kind == "value"
    expected = [ex.output for ex in examples]
    expected_digest = _vector_digest(expected) if want_value else None

    def check_budget():
        if deadline.expired():
            raise _Timeout()

    def consider_path(expr, size):
        """Returns the expression if it solves a value constraint."""
        nonlocal enumerated
        enumerated += 1
        if enumerated % 512 == 0:
            check_budget()
        outs = tuple(eval_path(expr, list(args)) for args in arg_vectors)
        digest = _vector_digest(outs)
        if digest in seen_path_vectors:
            return None
        seen_path_vectors.add(digest)
        path_by_size.setdefault(size, []).append((expr, outs))
        if want_value and digest == expected_digest:
            return expr
        return None

    def consider_bool(expr, size):
        nonlocal enumerated
        enumerated += 1
        if enumerated % 512 == 0:
            check_budget()
        outs = tuple(eval_bool(expr, list(args)) for args in arg_vectors)
        digest = _vector_digest(outs)
        if digest in seen_bool_vectors:
            return None
        seen_bool_vectors.add(digest)
        bool_by_size.setdefault(size, []).append((expr, outs))
        if not want_value and outs == tuple(expected):
            return expr
        return None

    def paths_of(size):
        return path_by_size.get(size, [])

    def bools_of(size):
        return bool_by_size.get(size, [])

    def found(expr, size):
        return SynthesisResult("sat", expr, size, arity, enumerated)

    try:
        for size in range(1, cfg.max_size + 1):
            check_budget()
            # path layer
            if size == 1:
                for slot in range(arity):
                    hit = consider_path(Input(slot), 1)
                    if hit is not None:
                        return found(hit, size)
            else:
                for base, _ in paths_of(size - 1):
                    for key in pools.keys:
                        hit = consider_path(Child(base, key), size)
                        if hit is not None:
                            return found(hit, size)
                for base, _ in paths_of(size - 1):
                    for key in pools.keys:
                        hit = consider_path(Descendants(base, key), size)
                        if hit is not None:
                            return found(hit, size)
                for base, _ in paths_of(size - 1):
                    for i in pools.indices:
                        hit = consider_path(Index(base, i), size)
                        if hit is not None:
                            return found(hit, size)
                for base, _ in paths_of(size - 1):
                    for i, j in pools.slices:
                        hit = consider_path(Slice(base, i, j), size)
                        if hit is not None:
                            return found(hit, size)
                for base, _ in paths_of(size - 1):
                    hit = consider_path(Length(base), size)
                    if hit is not None:
                        return found(hit, size)
                if size >= 3:
                    for base, _ in paths_of(size - 2):
                        for c in pools.add_consts:
                            hit = consider_path(Add(c, base), size)
                            if hit is not None:
                                return found(hit, size)
                    for base, _ in paths_of(size - 2):
                        for c in pools.concat_prefixes:
                            hit = consider_path(Concat(c, base), size)
                            if hit is not None:
                                return found(hit, size)
            if want_value:
                continue
            # bool layer: eq, empty, not, and
            for j in range(1, size - 1):
                const_size = size - 1 - j
                consts = pools.eq_values_by_size.get(const_size, [])
                if not consts:
                    continue
                for base, _ in paths_of(j):
                    for c in consts:
                        hit = consider_bool(Eq(base, c), size)
                        if hit is not None:
                            return found(hit, size)
            for base, _ in paths_of(size - 1):
                hit = consider_bool(Empty(base), size)
                if hit is not None:
                    return found(hit, size)
            for inner, _ in bools_of(size - 1):
                hit = consider_bool(Not(inner), size)
                if hit is not None:
                    return found(hit, size)
            for j in range(1, size - 1):
                k = size - 1 - j
                for left, _ in bools_of(j):
                    for right, _ in bools_of(k):
                        hit = consider_bool(And(left, right), size)
                        if hit is not None:
                            return found(hit, size)
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

    def lookup(self, examples: List[IOExample], kind: str, max_size: int):
        digest = constraint_digest(examples, kind)
        if digest in self._sat:
            return self._sat[digest]
        if self._unsat_budget.get(digest, -1) >= max_size:
            return SynthesisResult("unsat", None, 0, len(examples[0].args), 0)
        return None

    def has_unsat(self, examples: List[IOExample], kind: str) -> bool:
        """Is this constraint set recorded unsat at any budget?"""
        return constraint_digest(examples, kind) in self._unsat_budget

    def solve(
        self, examples: List[IOExample], kind: str, cfg: GrammarConfig
    ) -> SynthesisResult:
        hit = self.lookup(examples, kind, cfg.max_size)
        if hit is not None:
            return hit
        digest = constraint_digest(examples, kind)
        self.pbe_calls += 1
        result = synthesize(examples, kind, cfg)
        if result.sat:
            self.pbe_sat += 1
            self._sat[digest] = result
        elif result.status == "unsat":
            self._unsat_budget[digest] = max(
                cfg.max_size, self._unsat_budget.get(digest, 0)
            )
        return result
