"""Cost functions the search minimizes.

Two built-in objectives:

* ``syn`` scores syntactic complexity: 10 per statement (visible-call
  lets, conditionals, loop headers, return; hidden-call lets are free),
  1 per program parameter, and 1 per usage of the synthetic branch
  selector br.

* ``traces`` scores agreement with the input traces: total recorded
  events, plus one per visible-call statement, minus how many events
  each statement reproduces, so a statement explaining many events is
  cheap. br usages carry weight 0.5 and keeping br as a parameter at
  all carries a large penalty, which makes eliminating br the dominant
  concern.

Weights are a dataclass so a config file can override any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from . import dsl
from .jsonvals import ABSENT
from .traces import BR, PerIteration, Scalar, TraceSet, TraceValuation


@dataclass(frozen=True)
class CostWeights:
    statement: float = 10.0
    parameter: float = 1.0
    br_usage: float = 1.0
    traces_statement: float = 1.0
    traces_br_usage: float = 0.5
    traces_br_param: float = 1000.0

    @staticmethod
    def from_dict(d: dict) -> "CostWeights":
        unknown = set(d) - {f for f in CostWeights.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown weight names: {sorted(unknown)}")
        return replace(CostWeights(), **{k: float(v) for k, v in d.items()})


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


def count_br_usages(program: dsl.Program) -> int:
    return dsl.count_reads(program.body, BR)


def cost_syn(program: dsl.Program, w: CostWeights) -> float:
    return (
        w.statement * count_statements(program.body)
        + w.parameter * len(program.params)
        + w.br_usage * count_br_usages(program)
    )


def _visible_let_vars(seq):
    for ins in seq:
        if isinstance(ins, dsl.LetVisible):
            yield ins.var
        elif isinstance(ins, dsl.Ite):
            yield from _visible_let_vars(ins.then)
            yield from _visible_let_vars(ins.els)
        elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
            yield from _visible_let_vars(ins.body)


def _executions(sigma: TraceValuation, var: str, trace_idx: int) -> int:
    if not sigma.has(var, trace_idx):
        return 0
    cell = sigma.lookup(var, trace_idx)
    if isinstance(cell, Scalar):
        return 0 if cell.value is ABSENT else 1
    if isinstance(cell, PerIteration):
        return sum(1 for v in cell.values if v is not ABSENT)
    return 0


def cost_traces(
    program: dsl.Program, sigma: TraceValuation, ts: TraceSet, w: CostWeights
) -> float:
    """Trace-agreement cost: total events + per-statement charge minus
    events reproduced per statement. Execution counts come from the
    valuation, so holed programs rank the same way solved ones do."""
    total_events = sum(len(t) for t in ts.traces)
    let_vars = list(_visible_let_vars(program.body))
    reproduced = sum(
        _executions(sigma, v, i) for v in let_vars for i in ts.indices()
    )
    cost = (
        total_events
        + w.traces_statement * len(let_vars)
        - w.traces_statement * reproduced
        + w.traces_br_usage * count_br_usages(program)
    )
    if BR in program.params:
        cost += w.traces_br_param
    return cost


class CostFn:
    """A named objective over (program, valuation, traces)."""

    def __init__(self, name: str, fn: Callable, weights: CostWeights):
        self.name = name
        self._fn = fn
        self.weights = weights

    def __call__(
        self, program: dsl.Program, sigma: TraceValuation, ts: TraceSet
    ) -> float:
        return self._fn(program, sigma, ts, self.weights)


COST_KINDS = ("syn", "traces")


def make_cost_fn(kind: str, weights: CostWeights = CostWeights()) -> CostFn:
    if kind == "syn":
        return CostFn("syn", lambda p, s, t, w: cost_syn(p, w), weights)
    if kind == "traces":
        return CostFn("traces", cost_traces, weights)
    raise ValueError(f"unknown cost kind {kind!r}; choose from {COST_KINDS}")
