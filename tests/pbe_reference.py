"""The enumerator as it was before incremental evaluation: every
candidate is evaluated from the examples' inputs with eval_path /
eval_bool, and output vectors are keyed by canonical_dumps. Kept
verbatim as the reference the incremental enumerator is tested against;
nothing in src/ uses it.

Below it, verbatim too, the recursive JSON walks that pbe.py and
jsonvals.py now run off explicit stacks (_Keys.of, _leaves,
structural_size), and the digest that keyed ConstraintCache before it
keyed examples by their structural keys."""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from tracesynth.hidden import (
    Add,
    And,
    Child,
    Concat,
    Descendants,
    Empty,
    Eq,
    Index,
    Input,
    Length,
    Not,
    Slice,
    eval_bool,
    eval_path,
)
from tracesynth.jsonvals import (
    ABSENT,
    JsonValue,
    canonical_dumps,
    is_absent,
    structural_size,
)
from tracesynth.pbe import GrammarConfig, IOExample, SynthesisResult


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
                    try:
                        diff = out - arg
                    except OverflowError:
                        continue
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


# --- the recursive walks -----------------------------------------------------


_BOOL_KEYS = {False: ("b", False), True: ("b", True)}
_NAN_KEY = ("f", "nan")


class Keys:
    """pbe._Keys before it walked a stack (one table per call)."""

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


def leaves(v, keys, lengths):
    """pbe._leaves before it walked a stack."""
    if isinstance(v, dict):
        for k, sub in v.items():
            keys.setdefault(k, None)
            yield from leaves(sub, keys, lengths)
    elif isinstance(v, list):
        lengths.append(len(v))
        for sub in v:
            yield from leaves(sub, keys, lengths)
    else:
        yield v


def recursive_structural_size(v) -> int:
    """jsonvals.structural_size before it walked a stack."""
    if isinstance(v, list):
        return 1 + sum(recursive_structural_size(x) for x in v)
    if isinstance(v, dict):
        return 1 + sum(recursive_structural_size(x) for x in v.values())
    return 1


# --- the cache digest ----------------------------------------------------------


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
