"""Cost functions the search minimizes.

Two built-in objectives:

* ``syn`` scores syntactic complexity: 10 per statement (visible-call
  lets, conditionals, loop headers, return; hidden-call lets are free),
  1 per program parameter, and 1 per usage of the synthetic branch
  selector br. Both counts come from the instruction nodes, which keep
  their subtree's statement and br-read counts from construction (see
  dsl.py), so scoring a program sums only its top-level sequence and a
  rewrite candidate pays only for the nodes its edit built.

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
from math import isfinite
from typing import Callable

from . import dsl
from .jsonvals import ABSENT
from .dsl import BR
from .traces import PerIteration, TraceSet, TraceValuation


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
        if not isinstance(d, dict):
            raise ValueError("weights must be a JSON object of numbers")
        unknown = set(d) - {f for f in CostWeights.__dataclass_fields__}
        if unknown:
            raise ValueError(f"unknown weight names: {sorted(unknown)}")
        # bool is not in the tuple; NaN would make every cost comparison false.
        bad = sorted(k for k, v in d.items() if type(v) not in (int, float) or not isfinite(v))
        if bad:
            raise ValueError(f"weights must be finite numbers: {bad}")
        return replace(CostWeights(), **{k: float(v) for k, v in d.items()})


def count_statements(seq) -> int:
    """Statements for the syntactic cost: visible-call lets,
    conditionals, loop headers, returns. Hidden-call lets are free.
    Sums the counts each node keeps of its subtree."""
    return sum(ins.n_statements for ins in seq)


def count_br_usages(program: dsl.Program) -> int:
    return sum(ins.n_br for ins in program.body)


def cost_syn(program: dsl.Program, w: CostWeights) -> float:
    return (
        w.statement * count_statements(program.body)
        + w.parameter * len(program.params)
        + w.br_usage * count_br_usages(program)
    )


def _visible_let_vars(seq) -> list:
    """Visible-call binders in dsl.walk order."""
    return [ins.var for ins in dsl.walk(seq) if isinstance(ins, dsl.LetVisible)]


def _executions(cell) -> int:
    """Events a cell of a trace on which its variable holds a value
    reproduces."""
    if isinstance(cell, PerIteration):
        return sum(1 for v in cell.values if v is not ABSENT)
    return 1


def cost_traces(
    program: dsl.Program, sigma: TraceValuation, ts: TraceSet, w: CostWeights
) -> float:
    """Trace-agreement cost: total events + per-statement charge minus
    events reproduced per statement. Execution counts come from the
    valuation, so holed programs rank the same way solved ones do."""
    total_events = sum(len(t) for t in ts.traces)
    let_vars = _visible_let_vars(program.body)
    reproduced = sum(
        _executions(sigma.lookup(v, i)) for v in let_vars for i in sigma.traces_with_value(v)
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
