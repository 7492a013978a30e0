"""Traces and the per-trace valuation that rewrites maintain.

A trace file is a JSON array of traces; each trace is an array of
{"api", "request", "response"} events in call order. Every number must
be finite: a script prints the values it replays as JSON. Trace indices
are 1-based throughout (the synthetic branch selector br maps trace i
to i).

The valuation maps (variable, trace index) to either a Scalar value or
a PerIteration vector (for variables bound inside loop bodies). A
variable that a trace's control path never binds reads as
Scalar(ABSENT) there; Absent is distinct from JSON null. This module
alone knows how that is stored: as no cell at all, so a valuation holds
one cell per binding that ran, not one per variable and trace.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .dsl import BR  # re-exported: callers import br's name from here too
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


def loads_finite(text: str, what: str):
    """json.loads, keeping only numbers that a script can print back:
    NaN, Infinity and floats that overflow to infinity print as names,
    so they raise TraceError naming `what` (say, "trace file")."""

    def finite(number: str) -> float:
        v = float(number)
        if not math.isfinite(v):
            raise TraceError(f"{what} holds a non-finite number: {number}")
        return v

    return json.loads(text, parse_float=finite, parse_constant=finite)


def _check_json(value, where: str) -> None:
    """What loads_finite guarantees of text, checked on already-parsed
    data: raise TraceError unless value is JSON, made of objects with
    string keys, arrays, strings, finite numbers, booleans and null.
    Uses an explicit stack, as an event is JSON of any depth."""
    stack = [value]
    while stack:
        v = stack.pop()
        if isinstance(v, float):
            if not math.isfinite(v):
                raise TraceError(f"{where} holds a non-finite number: {v}")
        elif isinstance(v, dict):
            for k in v:
                if not isinstance(k, str):
                    raise TraceError(f"{where} holds a key that is not a string: {k!r}")
            stack.extend(v.values())
        elif isinstance(v, list):
            stack.extend(v)
        elif not (v is None or isinstance(v, (str, int))):
            raise TraceError(f"{where} holds a value that is not JSON: {type(v).__name__}")


def parse_traces(data) -> TraceSet:
    if isinstance(data, (bytes, bytearray)):
        data = data.decode("utf-8")
    parsed = not isinstance(data, str)
    if not parsed:
        try:
            raw = loads_finite(data, "trace file")
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
            if parsed:
                _check_json(req, f"trace {ti} event {ei} request")
                _check_json(ev["response"], f"trace {ti} event {ei} response")
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


# What a known variable reads as on a trace where it holds no cell.
_ABSENT_CELL = Scalar(ABSENT)


def _stored(cell) -> bool:
    """Whether a column keeps the cell: every cell but an Absent scalar."""
    return not (isinstance(cell, Scalar) and cell.value is ABSENT)


class TraceValuation:
    """The parameters and the (variable, trace index) cells of σ.

    Cells are kept by variable: _entries maps each variable σ knows to
    its column, a {trace index: cell} dict that holds no Scalar(ABSENT)
    cell. A known variable reads as Scalar(ABSENT) on a trace where its
    column has no cell, so a column may be empty; only a variable σ
    does not know fails to read. A valuation made by
    ValuationTransform.apply holds only its base and the transform
    until a cell is first read. It then shares every column of the base
    that the transform leaves alone and copies only the columns it
    writes, so building it costs one reference per variable plus the
    cells written, and a base is never changed. A candidate whose
    valuation nobody reads (the syn cost reads none) never pays even
    that."""

    __slots__ = ("params", "_entries", "_pending")

    def __init__(self, params: Tuple[str, ...], entries: Dict[Tuple[str, int], object]):
        self.params = params
        columns: Dict[str, Dict[int, object]] = {}
        for (var, trace_idx), cell in entries.items():
            column = columns.get(var)
            if column is None:
                column = columns[var] = {}
            if _stored(cell):
                column[trace_idx] = cell
        self._entries = columns
        self._pending = None  # (base valuation, transform) until first read

    @classmethod
    def _after(cls, base: "TraceValuation", transform: "ValuationTransform"):
        sigma = cls.__new__(cls)
        sigma.params = base.params if transform.params is None else transform.params
        sigma._entries = None
        sigma._pending = (base, transform)
        return sigma

    def _columns(self) -> Dict[str, Dict[int, object]]:
        if self._pending is not None:
            self._build()
        return self._entries

    @property
    def entries(self) -> Dict[Tuple[str, int], object]:
        """A new flat {(variable, trace index): cell} dict of the stored
        cells, variable by variable."""
        return {
            (var, trace_idx): cell
            for var, column in self._columns().items()
            for trace_idx, cell in column.items()
        }

    def _build(self) -> None:
        """Build the column tables of this valuation and of every unread
        base below it, oldest first, without recursion. Each transform
        drops its columns, then folds its merged pair into a new column,
        then copies each column it writes once and writes it."""
        chain = []
        sigma = self
        while sigma._pending is not None:
            chain.append(sigma)
            sigma = sigma._pending[0]
        for sigma in reversed(chain):
            base, transform = sigma._pending
            columns = dict(base._entries)
            for var in transform.drop_vars:
                columns.pop(var, None)
            if transform.merge is not None:  # keep's stored cell wins
                drop, keep = transform.merge
                columns[keep] = {**columns.pop(drop, {}), **columns.get(keep, {})}
            copied = set()  # columns of this valuation's own
            for (var, trace_idx), cell in transform.new_entries.items():
                if var not in copied:
                    copied.add(var)
                    columns[var] = dict(columns.get(var, ()))
                if _stored(cell):
                    columns[var][trace_idx] = cell
                else:
                    columns[var].pop(trace_idx, None)
            sigma._entries, sigma._pending = columns, None

    # lookup is the hot reader, so it tests _pending inline.
    def lookup(self, var: str, trace_idx: int):
        if self._pending is not None:
            self._build()
        try:
            column = self._entries[var]
        except KeyError:
            raise ValuationError(f"no entry for {var} on trace {trace_idx}") from None
        return column.get(trace_idx, _ABSENT_CELL)

    def traces_with_value(self, var: str) -> List[int]:
        """The traces, ascending, on which var holds a value: a scalar
        other than Absent or a non-empty per-iteration vector. A
        variable σ does not know holds a value on no trace."""
        column = self._columns().get(var, {})
        return sorted(
            i for i, cell in column.items() if not isinstance(cell, PerIteration) or cell.values
        )

    def __eq__(self, other):
        if not isinstance(other, TraceValuation):
            return NotImplemented
        # Absent is never stored, so equal columns mean equal cells.
        return self.params == other.params and self._columns() == other._columns()

    __hash__ = None

    def __repr__(self):
        return f"TraceValuation(params={self.params!r}, entries={self.entries!r})"


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
    drop_vars goes; merge, a (drop, keep) pair, folds drop's column into
    keep's, a cell of keep's winning over drop's, and drop goes;
    new_entries are added (an Absent one clears its cell); and params,
    when given, becomes the parameter list."""

    drop_vars: Tuple[str, ...] = ()
    new_entries: Dict[Tuple[str, int], object] = field(default_factory=dict)
    params: Optional[Tuple[str, ...]] = None
    merge: Optional[Tuple[str, str]] = None

    def apply(self, sigma: TraceValuation) -> TraceValuation:
        """The updated valuation. Its cells are copied from sigma only
        when one is first read."""
        return TraceValuation._after(sigma, self)


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
