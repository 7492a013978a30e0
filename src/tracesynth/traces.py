"""Traces and the per-trace valuation that rewrites maintain.

A trace file is a JSON array of traces; each trace is an array of
{"api", "request", "response"} events in call order. Trace indices are
1-based throughout (the synthetic branch selector br maps trace i to i).

The valuation maps (variable, trace index) to either a Scalar value or
a PerIteration vector (for variables bound inside loop bodies). Entries
can hold the Absent marker for variables that a trace's control path
never binds; Absent is distinct from JSON null.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from .jsonvals import ABSENT, JsonValue
from .terms import term_evaluator


class TraceError(Exception):
    pass


class ValuationError(Exception):
    pass


@dataclass(frozen=True)
class TraceRecord:
    api: str
    request: Tuple[Tuple[str, JsonValue], ...]
    response: JsonValue

    def request_map(self) -> dict:
        return dict(self.request)


Trace = Tuple[TraceRecord, ...]


@dataclass(frozen=True)
class TraceSet:
    traces: Tuple[Trace, ...]

    def __len__(self):
        return len(self.traces)

    def indices(self):
        return range(1, len(self.traces) + 1)

    def trace(self, idx: int) -> Trace:
        return self.traces[idx - 1]


def parse_traces(data) -> TraceSet:
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    if isinstance(data, str):
        try:
            raw = json.loads(data)
        except json.JSONDecodeError as exc:
            raise TraceError(f"trace file is not valid JSON: {exc}") from exc
    else:
        raw = data
    if not isinstance(raw, list):
        raise TraceError("trace file must be a JSON array of traces")
    if len(raw) < 2:
        raise TraceError("|T_in| must exceed 1: need at least two traces")
    traces = []
    for ti, t in enumerate(raw, 1):
        if not isinstance(t, list):
            raise TraceError(f"trace {ti} is not an array")
        records = []
        for ei, ev in enumerate(t, 1):
            if not isinstance(ev, dict):
                raise TraceError(f"trace {ti} event {ei} is not an object")
            missing = {"api", "request", "response"} - set(ev)
            if missing:
                raise TraceError(
                    f"trace {ti} event {ei} is missing fields: {sorted(missing)}"
                )
            api = ev["api"]
            if not isinstance(api, str) or not api:
                raise TraceError(f"trace {ti} event {ei}: api must be a non-empty string")
            req = ev["request"]
            if not isinstance(req, dict):
                raise TraceError(f"trace {ti} event {ei}: request must be an object")
            records.append(
                TraceRecord(api=api, request=tuple(req.items()), response=ev["response"])
            )
        traces.append(tuple(records))
    return TraceSet(tuple(traces))


# --- valuation ---------------------------------------------------------------


@dataclass(frozen=True)
class Scalar:
    value: JsonValue


@dataclass(frozen=True)
class PerIteration:
    values: Tuple[JsonValue, ...]


@dataclass(frozen=True)
class TraceValuation:
    params: Tuple[str, ...]
    entries: Dict[Tuple[str, int], object]

    def lookup(self, var: str, trace_idx: int):
        key = (var, trace_idx)
        if key not in self.entries:
            raise ValuationError(f"no entry for {var} on trace {trace_idx}")
        return self.entries[key]

    def has(self, var: str, trace_idx: int) -> bool:
        return (var, trace_idx) in self.entries

    def scalar(self, var: str, trace_idx: int):
        cell = self.lookup(var, trace_idx)
        if isinstance(cell, Scalar):
            return cell.value
        raise ValuationError(f"{var} is per-iteration on trace {trace_idx}")


BR = "br"


def initial_valuation(ts: TraceSet) -> TraceValuation:
    entries = {(BR, i): Scalar(i) for i in ts.indices()}
    return TraceValuation(params=(BR,), entries=entries)


def _cell_value(cell):
    """Value of a cell outside any loop context: per-iteration cells read
    as their last value (bindings persist after the loop exits)."""
    if isinstance(cell, Scalar):
        return cell.value
    if isinstance(cell, PerIteration):
        if not cell.values:
            return ABSENT
        return cell.values[-1]
    raise ValuationError(f"bad cell {cell!r}")


def eval_with_lookup(e, lookup, hidden_defs=None):
    """Value of an expression or predicate with variable reads resolved
    by the lookup function. Reads of absent values fail, except as
    hidden-function arguments, which tolerate absence."""

    def read(name):
        v = lookup(name)
        if v is ABSENT:
            raise ValuationError(f"{name} has no value here")
        return v

    return term_evaluator(read, lookup, hidden_defs or {}, ValuationError)(e)


def evaluate_in_trace(e, sigma: TraceValuation, trace_idx: int, hidden_defs=None):
    """Value of an expression or predicate on one trace, reading each
    variable's cell (per-iteration cells read as their final value)."""
    return eval_with_lookup(
        e, lambda name: _cell_value(sigma.lookup(name, trace_idx)), hidden_defs
    )


@dataclass(frozen=True)
class ValuationTransform:
    """The σ update that accompanies a rewrite: every entry of the
    drop_vars goes, new_entries are added, and params, when given,
    becomes the parameter list."""

    drop_vars: Tuple[str, ...] = ()
    new_entries: Dict[Tuple[str, int], object] = field(default_factory=dict)
    params: Optional[Tuple[str, ...]] = None

    def apply(self, sigma: TraceValuation) -> TraceValuation:
        drop = set(self.drop_vars)
        entries = {k: v for k, v in sigma.entries.items() if k[0] not in drop}
        entries.update(self.new_entries)
        return TraceValuation(
            params=sigma.params if self.params is None else self.params,
            entries=entries,
        )


def extract_inputs(sigma: TraceValuation, trace_indices) -> Dict[str, Dict[int, JsonValue]]:
    """Per-trace input assignment used as the replay witness."""
    out: Dict[str, Dict[int, JsonValue]] = {}
    for p in sigma.params:
        out[p] = {}
        for i in trace_indices:
            cell = sigma.lookup(p, i)
            if not isinstance(cell, Scalar):
                raise ValuationError(f"parameter {p} is per-iteration on trace {i}")
            if cell.value is ABSENT:
                raise ValuationError(f"parameter {p} has no value on trace {i}")
            out[p][i] = cell.value
    return out
