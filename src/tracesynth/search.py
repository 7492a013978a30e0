"""Search strategies over the rewrite system.

Every strategy starts from the same trivially correct program: one
straight-line branch per trace, dispatched on the branch-selector
parameter. Rewrites preserve correctness, so the job of a strategy is
purely to drive cost down.

alternating: repeatedly apply the cheapest strictly-improving
refinement; when none is left, try synthesizing rewrites in order of
resulting cost, accepting the first whose hidden functions all have
solutions and whose replay still passes, then go back to refining.
After both are exhausted, refinements are re-examined once more:
recorded synthesis failures can unlock the parameter-introduction rule,
whose guard requires evidence that no hidden function could derive the
value.
Each refine state after the first counts its reads and names in use
from the refinement that reached it, updated by that refinement's edit
(see rewrites.enumerate_rewrites); the list is the one a full
enumeration gives.

rts: one refinement pass to a fixpoint, then synthesizing rewrites
only. Cheaper but can strand a parameter that later refinements
would have removed.

ksearch: breadth-first enumeration of all rewrite sequences up to k
steps, holes left open, deduplicated on printed form; states are then
ranked by cost and the best state whose holes are all solvable (and
whose replay passes) wins. k=0 returns the initial program.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Tuple

from . import dsl
from .dsl import BR
from .evaluator import check_psi, default_retry_bound
from .pbe import ConstraintCache, GrammarConfig, _Deadline
from .rewrites import Rewrite, RewriteContext, SynthesisSpec, enumerate_rewrites
from .traces import (
    Scalar,
    TraceSet,
    TraceValuation,
    initial_valuation,
)


class SearchError(Exception):
    pass


@dataclass
class SearchConfig:
    strategy: str = "alternating"
    k: int = 2
    cost_fn: Optional[Callable] = None  # (scored, sigma, ts) -> cost; see costs.py
    retry_bound: Optional[int] = None
    timeout: Optional[float] = None
    pbe: GrammarConfig = field(default_factory=GrammarConfig)


@dataclass
class SearchStats:
    pbe_calls: int = 0
    pbe_sat: int = 0
    # ksearch: the states it generated, the initial one included.
    # alternating and rts: the states whose rewrites were enumerated,
    # once per enumeration (refinement and synthesis count separately).
    states_seen: int = 0
    rewrites: List[dict] = field(default_factory=list)

    def log(self, rw: Rewrite, cost_before: float, cost_after: float) -> None:
        self.rewrites.append(
            {
                "rule": rw.rule,
                "site": rw.site,
                "cost_before": cost_before,
                "cost_after": cost_after,
            }
        )


@dataclass
class SearchResult:
    program: dsl.Program
    sigma: TraceValuation
    cost: float
    timed_out: bool
    stats: SearchStats


def build_initial(ts: TraceSet) -> Tuple[dsl.Program, TraceValuation]:
    """One straight-line branch per trace, selected by the br parameter;
    the last trace's branch is the unguarded else."""
    sigma = initial_valuation(ts)
    entries = dict(sigma.entries)
    counter = [0]

    def straight_line(idx: int):
        stmts = []
        for rec in ts.trace(idx):
            counter[0] += 1
            var = f"x{counter[0]}"
            args = tuple((k, dsl.Const(v)) for k, v in rec.request)
            stmts.append(dsl.LetVisible(var, rec.api, args))
            entries[(var, idx)] = Scalar(rec.response)
        return tuple(stmts)

    indices = list(ts.indices())
    body = straight_line(indices[-1])
    for idx in reversed(indices[:-1]):
        body = (dsl.Ite(dsl.ValueCheck(BR, idx), straight_line(idx), body),)
    program = dsl.Program(params=(BR,), body=body)
    dsl.validate_program(program)
    return program, TraceValuation(params=sigma.params, entries=entries)


def _close(program, specs, sigma, ts, ctx, retry_bound, deadline) -> Optional[dsl.Program]:
    """The program with every hole filled by its solution; None when a
    hole has none within the search's deadline, the filled program is
    ill-formed, or it does not replay. Each spec's examples are built
    here, when they are first read, and not for the specs after one
    that has no solution."""
    holes = list(program.holes)
    hidden_defs = list(program.hidden_defs)
    for spec in specs:
        result = ctx.cache.solve(list(spec.examples), spec.kind, ctx.pbe_cfg, deadline)
        if not result.sat:
            return None
        holes.remove(spec.hole)
        hidden_defs.append((spec.hole, result.fn_body()))
    candidate = replace(program, hidden_defs=tuple(hidden_defs), holes=tuple(holes))
    try:
        dsl.validate_program(candidate)
    except dsl.DslError:
        return None
    if not check_psi(candidate, sigma, ts, retry_bound):
        return None
    return candidate


def _improving(program, sigma, cost, kind, ts, cost_fn, ctx, stats, after=None):
    """The rewrites of kind at the state that cost less than cost, as
    (cost, rewrite, valuation), sorted by cost; the sort is stable, so
    of equal costs the first enumerated comes first. after is the
    refinement that led to the state, if the last refine enumeration
    offered it (see enumerate_rewrites)."""
    stats.states_seen += 1
    scored = []
    for rw in enumerate_rewrites(program, sigma, kind, ctx, after):
        sigma2 = rw.transform.apply(sigma)
        c = cost_fn(rw, sigma2, ts)
        if c < cost:
            scored.append((c, rw, sigma2))
    scored.sort(key=lambda t: t[0])
    return scored


def _refine_to_fixpoint(program, sigma, cost, ts, cost_fn, ctx, stats, deadline):
    """Apply the cheapest strictly-improving refinement until none is
    left. Returns (program, sigma, cost, timed_out). Each state after
    the first is enumerated from the refinement that reached it, whose
    read counts and names in use its index updates."""
    rw = None
    while True:
        if deadline.expired():
            return program, sigma, cost, True
        scored = _improving(program, sigma, cost, "refine", ts, cost_fn, ctx, stats, rw)
        if not scored:
            return program, sigma, cost, False
        c, rw, sigma2 = scored[0]
        stats.log(rw, cost, c)
        program, sigma, cost = rw.program, sigma2, c
    # unreachable


def _try_synth(program, sigma, cost, ts, cost_fn, ctx, stats, deadline, retry_bound):
    """Attempt synthesizing rewrites in order of resulting cost; apply
    the first fully solvable one that replays. Returns the new state or
    None, plus a timed-out flag."""
    for c, rw, sigma2 in _improving(program, sigma, cost, "synth", ts, cost_fn, ctx, stats):
        if deadline.expired():
            return None, True
        candidate = _close(rw.program, rw.specs, sigma2, ts, ctx, retry_bound, deadline)
        if candidate is None:
            continue
        stats.log(rw, cost, c)
        return (candidate, sigma2, c), False
    # The deadline may have cut the last candidate's PBE short.
    return None, deadline.expired()


def _start(ts: TraceSet, cfg: SearchConfig):
    """Set-up shared by the strategies: the deadline, the rewrite
    context, and the initial program, which must replay."""
    if cfg.cost_fn is None:
        raise SearchError("SearchConfig.cost_fn is required")
    retry_bound = cfg.retry_bound or default_retry_bound(ts)
    deadline = _Deadline(cfg.timeout)
    ctx = RewriteContext(ts, ConstraintCache(), cfg.pbe, deadline=deadline)
    program, sigma = build_initial(ts)
    if not check_psi(program, sigma, ts, retry_bound):
        raise SearchError("initial program does not replay its own traces")
    return program, sigma, retry_bound, deadline, ctx


def _run_phased(ts: TraceSet, cfg: SearchConfig, alternate: bool) -> SearchResult:
    cost_fn = cfg.cost_fn
    program, sigma, retry_bound, deadline, ctx = _start(ts, cfg)
    stats = SearchStats()
    cost = cost_fn(program, sigma, ts)

    program, sigma, cost, timed_out = _refine_to_fixpoint(
        program, sigma, cost, ts, cost_fn, ctx, stats, deadline
    )
    while not timed_out:
        applied, timed_out = _try_synth(
            program, sigma, cost, ts, cost_fn, ctx, stats, deadline, retry_bound
        )
        if applied is not None:
            program, sigma, cost = applied
        elif timed_out or not alternate:
            break
        else:
            # Synthesis is exhausted; its recorded failures may have
            # unlocked parameter introduction, so look at refinements
            # once more, and stop unless they lower the cost.
            before = cost
            program, sigma, cost, timed_out = _refine_to_fixpoint(
                program, sigma, cost, ts, cost_fn, ctx, stats, deadline
            )
            if timed_out or cost == before:
                break
        if alternate:
            program, sigma, cost, timed_out = _refine_to_fixpoint(
                program, sigma, cost, ts, cost_fn, ctx, stats, deadline
            )

    stats.pbe_calls = ctx.cache.pbe_calls
    stats.pbe_sat = ctx.cache.pbe_sat
    return SearchResult(program, sigma, cost, timed_out, stats)


@dataclass
class _KState:
    program: dsl.Program
    sigma: TraceValuation
    specs: Tuple[SynthesisSpec, ...]


def _digest(program: dsl.Program) -> str:
    return hashlib.sha256(dsl.pretty_print(program).encode("utf-8")).hexdigest()


def run_ksearch(ts: TraceSet, cfg: SearchConfig) -> SearchResult:
    cost_fn = cfg.cost_fn
    program, sigma, retry_bound, deadline, ctx = _start(ts, cfg)
    stats = SearchStats()
    start = _KState(program, sigma, ())
    states: List[_KState] = [start]
    seen = {_digest(program)}
    frontier = [start]
    timed_out = False
    for _ in range(cfg.k):
        if timed_out or not frontier:
            break
        next_frontier: List[_KState] = []
        for state in frontier:
            if deadline.expired():
                timed_out = True
                break
            for kind in ("refine", "synth"):
                for rw in enumerate_rewrites(state.program, state.sigma, kind, ctx):
                    d = _digest(rw.program)
                    if d in seen:
                        continue
                    seen.add(d)
                    child = _KState(
                        rw.program,
                        rw.transform.apply(state.sigma),
                        state.specs + rw.specs,
                    )
                    states.append(child)
                    next_frontier.append(child)
        frontier = next_frontier
    stats.states_seen = len(states)

    ranked = sorted(
        enumerate(states),
        key=lambda t: (cost_fn(t[1].program, t[1].sigma, ts), t[0]),
    )
    for _, state in ranked:
        if deadline.expired() and state is not start:
            timed_out = True
            continue
        candidate = _close(state.program, state.specs, state.sigma, ts, ctx, retry_bound, deadline)
        if candidate is None:
            continue
        stats.pbe_calls = ctx.cache.pbe_calls
        stats.pbe_sat = ctx.cache.pbe_sat
        cost = cost_fn(candidate, state.sigma, ts)
        return SearchResult(candidate, state.sigma, cost, timed_out, stats)
    raise SearchError("no state satisfies replay, not even the initial program")


def run_search(ts: TraceSet, cfg: SearchConfig) -> SearchResult:
    if cfg.strategy in ("alternating", "rts"):
        return _run_phased(ts, cfg, alternate=cfg.strategy == "alternating")
    if cfg.strategy == "ksearch":
        return run_ksearch(ts, cfg)
    raise SearchError(f"unknown strategy {cfg.strategy!r}")


def verify_final(
    program: dsl.Program,
    sigma: TraceValuation,
    ts: TraceSet,
    retry_bound: Optional[int] = None,
) -> bool:
    """Replay every trace against the finished program."""
    if not program.is_closed():
        return False
    dsl.validate_program(program)
    return check_psi(program, sigma, ts, retry_bound or default_retry_bound(ts))
