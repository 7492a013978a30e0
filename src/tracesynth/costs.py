"""Cost functions the search minimizes.

A cost function takes (scored, sigma, ts), where scored is a
dsl.Program or a rewrites.Rewrite candidate. Both offer the same four
attributes: params; n_statements and n_br, the statement and br-read
counts of the body; and body itself. A candidate keeps its counts as
its state's plus its edit's delta, and builds its program only when
body is read, so an objective that does not read body scores a
candidate without building it.

Two built-in objectives:

* ``syn`` scores syntactic complexity: 10 per statement (visible-call
  lets, conditionals, loop headers, return; hidden-call lets are free),
  1 per program parameter, and 1 per usage of the synthetic branch
  selector br. It reads params, n_statements and n_br only.

* ``traces`` scores agreement with the input traces: total recorded
  events, plus one per visible-call statement, minus how many events
  each statement reproduces, so a statement explaining many events is
  cheap. br usages carry weight 0.5 and keeping br as a parameter at
  all carries a large penalty, which makes eliminating br the dominant
  concern. It reads body, params and n_br.

Weights are a dataclass so a config file can override any of them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from sys import float_info
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
        # bool is not in the tuple. NaN (which would make every cost
        # comparison false), the infinities and an int too large for a
        # float all fail the bound.
        bad = sorted(k for k, v in d.items() if type(v) not in (int, float) or not abs(v) <= float_info.max)
        if bad:
            raise ValueError(f"weights must be finite numbers: {bad}")
        return replace(CostWeights(), **{k: float(v) for k, v in d.items()})


def cost_syn(scored, w: CostWeights) -> float:
    """scored is a Program or a Rewrite: only params, n_statements and
    n_br are read, so a rewrite candidate is scored unbuilt."""
    return w.statement * scored.n_statements + w.parameter * len(scored.params) + w.br_usage * scored.n_br


def _visible_let_vars(seq) -> list:
    """Visible-call binders in dsl.walk order."""
    return [ins.var for ins in dsl.walk(seq) if isinstance(ins, dsl.LetVisible)]


def _executions(cell) -> int:
    """Events a cell of a trace on which its variable holds a value
    reproduces."""
    if isinstance(cell, PerIteration):
        return sum(1 for v in cell.values if v is not ABSENT)
    return 1


def cost_traces(scored, sigma: TraceValuation, ts: TraceSet, w: CostWeights) -> float:
    """Trace-agreement cost: total events + per-statement charge minus
    events reproduced per statement. Execution counts come from the
    valuation, so holed programs rank the same way solved ones do.
    Reads scored's body, which builds a Rewrite's program."""
    total_events = sum(len(t) for t in ts.traces)
    let_vars = _visible_let_vars(scored.body)
    reproduced = sum(
        _executions(sigma.lookup(v, i)) for v in let_vars for i in sigma.traces_with_value(v)
    )
    cost = (
        total_events
        + w.traces_statement * len(let_vars)
        - w.traces_statement * reproduced
        + w.traces_br_usage * scored.n_br
    )
    if BR in scored.params:
        cost += w.traces_br_param
    return cost


COST_KINDS = ("syn", "traces")


def make_cost_fn(kind: str, weights: CostWeights = CostWeights()) -> Callable:
    """The objective kind as a function of (scored, sigma, ts)."""
    if kind == "syn":
        return lambda scored, sigma, ts: cost_syn(scored, weights)
    if kind == "traces":
        return lambda scored, sigma, ts: cost_traces(scored, sigma, ts, weights)
    raise ValueError(f"unknown cost kind {kind!r}; choose from {COST_KINDS}")
