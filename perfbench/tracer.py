"""Per-layer tracing from outside the program.

The benchmark wraps tracesynth's public functions at the names their
callers look them up by, so src/ stays untouched:

* search.py imports enumerate_rewrites and check_psi by name;
* rewrites.py dispatches each rule through _REFINE_FNS / _SYNTH_FNS;
* search.py applies every candidate's ValuationTransform.apply;
* pbe.py looks up synthesize, mine_pools, eval_path, eval_bool and
  canonical_dumps as its own module globals, and search.py calls
  ConstraintCache.solve;
* the cost function is passed in SearchConfig, so it is wrapped there.

A span is (name, start, end, parent index), kept in memory. A span's
self time is its duration minus its direct children's durations, so the
self times of all spans add up to the traced wall time. Functions called
millions of times per search (eval_path, canonical_dumps) are counted,
not spanned.
"""

from __future__ import annotations

import time
from collections import Counter
from statistics import median
from typing import Callable, Dict, List

from tracesynth import pbe, rewrites, search, traces

RULES = tuple(rewrites.REFINE_RULES) + tuple(rewrites.SYNTH_RULES)


class Tracer:
    """Span recorder and counters for one trace set."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []

    def span(self, name: str, fn: Callable, after: Callable = None) -> Callable:
        """fn wrapped in a span; after(result) updates counters."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def wrapped(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                after(result)
            return result

        return wrapped

    def counted(self, key: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self) -> None:
        """Patch the lookup points listed in the module docstring. Meant
        for a throwaway (forked) process: nothing is restored."""
        c = self.counts

        def on_enumerate(out):
            c["rewrites.enumerate_calls"] += 1
            c["rewrites.candidates"] += len(out)

        search.enumerate_rewrites = self.span(
            "rewrites.enumerate", search.enumerate_rewrites, on_enumerate
        )
        for table in (rewrites._REFINE_FNS, rewrites._SYNTH_FNS):
            for rule, fn in list(table.items()):
                key = f"rewrites.{rule}.candidates"
                table[rule] = self.span(
                    f"rewrites.{rule}", fn, lambda out, key=key: c.update({key: len(out)})
                )

        def on_check(ok):
            c["evaluator.check_psi_calls"] += 1
            c["evaluator.check_psi_passed"] += bool(ok)

        search.check_psi = self.span("evaluator.check_psi", search.check_psi, on_check)

        def on_apply(_):
            c["traces.sigma_apply_calls"] += 1

        traces.ValuationTransform.apply = self.span(
            "traces.sigma_apply", traces.ValuationTransform.apply, on_apply
        )

        def on_solve(_):
            c["pbe.solve_calls"] += 1

        pbe.ConstraintCache.solve = self.span("pbe.solve", pbe.ConstraintCache.solve, on_solve)

        def on_synth(result):
            c["pbe.synth_calls"] += 1
            c["pbe.sat"] += result.sat
            c["pbe.timeouts"] += result.status == "timeout"
            c["pbe.enumerated"] += result.enumerated

        pbe.synthesize = self.span("pbe.synthesize", pbe.synthesize, on_synth)

        def on_mine(pools):
            c["pbe.mined_slices"] += len(pools.slices)

        pbe.mine_pools = self.span("pbe.mine", pbe.mine_pools, on_mine)
        pbe.eval_path = self.counted("hidden.eval_calls", pbe.eval_path)
        pbe.eval_bool = self.counted("hidden.eval_calls", pbe.eval_bool)
        pbe.canonical_dumps = self.counted("jsonvals.canonical_dumps_calls", pbe.canonical_dumps)

    def cost_fn(self, fn: Callable) -> Callable:
        def on_cost(_):
            self.counts["costs.eval_calls"] += 1

        return self.span("costs.eval", fn, on_cost)


def self_times(spans) -> Dict[str, float]:
    """Seconds per span name, each span counting its duration minus its
    direct children's durations."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: Dict[str, float] = Counter()
    for (name, *_), s in zip(spans, own):
        out[name] += s
    return dict(out)


def inclusive_times(spans) -> Dict[str, float]:
    out: Dict[str, float] = Counter()
    for name, start, end, _ in spans:
        out[name] += end - start
    return dict(out)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_values(self_s: Dict[str, float], incl_s: Dict[str, float], counts: Counter) -> Dict[str, float]:
    """Per-layer metric values from summed span times and counts."""
    m: Dict[str, float] = {}
    m["search.self_s"] = self_s.get("search.run", 0.0)
    m["search.verify_final_s"] = incl_s.get("search.verify_final", 0.0)
    m["search.exceptions"] = counts["search.exceptions"]
    m["rewrites.enumerate_s"] = self_s.get("rewrites.enumerate", 0.0) + sum(
        self_s.get(f"rewrites.{r}", 0.0) for r in RULES
    )
    m["rewrites.enumerate_calls"] = counts["rewrites.enumerate_calls"]
    m["rewrites.candidates"] = counts["rewrites.candidates"]
    m["rewrites.accepted"] = counts["rewrites.accepted"]
    m["rewrites.accept_ratio"] = _ratio(counts["rewrites.accepted"], counts["rewrites.candidates"])
    for r in RULES:
        m[f"rewrites.{r}.s"] = self_s.get(f"rewrites.{r}", 0.0)
        m[f"rewrites.{r}.candidates"] = counts[f"rewrites.{r}.candidates"]
    m["traces.sigma_apply_s"] = self_s.get("traces.sigma_apply", 0.0)
    m["traces.sigma_apply_calls"] = counts["traces.sigma_apply_calls"]
    m["costs.eval_s"] = self_s.get("costs.eval", 0.0)
    m["costs.eval_calls"] = counts["costs.eval_calls"]
    m["pbe.solve_calls"] = counts["pbe.solve_calls"]
    m["pbe.cache_hit_ratio"] = _ratio(
        counts["pbe.solve_calls"] - counts["pbe.synth_calls"], counts["pbe.solve_calls"]
    )
    m["pbe.synth_calls"] = counts["pbe.synth_calls"]
    m["pbe.synth_s"] = self_s.get("pbe.synthesize", 0.0) + self_s.get("pbe.solve", 0.0)
    m["pbe.sat_ratio"] = _ratio(counts["pbe.sat"], counts["pbe.synth_calls"])
    m["pbe.timeouts"] = counts["pbe.timeouts"]
    m["pbe.enumerated"] = counts["pbe.enumerated"]
    m["pbe.mine_s"] = self_s.get("pbe.mine", 0.0)
    m["pbe.mined_slices"] = counts["pbe.mined_slices"]
    m["hidden.eval_calls"] = counts["hidden.eval_calls"]
    m["jsonvals.canonical_dumps_calls"] = counts["jsonvals.canonical_dumps_calls"]
    m["evaluator.check_psi_s"] = self_s.get("evaluator.check_psi", 0.0)
    m["evaluator.check_psi_calls"] = counts["evaluator.check_psi_calls"]
    m["evaluator.replay_pass_ratio"] = _ratio(
        counts["evaluator.check_psi_passed"], counts["evaluator.check_psi_calls"]
    )
    return m


COUNT_METRICS = frozenset(
    k for k in layer_values({}, {}, Counter()) if not k.endswith(("_s", ".s", "_ratio"))
)


def unit(name: str) -> str:
    """Unit of a per-layer metric."""
    if name in COUNT_METRICS:
        return "count"
    return "s" if name.endswith(("_s", ".s")) else "ratio"


def layer_metrics(per_set) -> Dict[str, float]:
    """per_set[i] lists set i's traced samples as (spans, counts, scale),
    scale turning the sample's wall seconds into reference seconds. Each
    set contributes the median of its samples' times and its first
    sample's counts, which repeat exactly."""
    self_s: Dict[str, float] = Counter()
    incl_s: Dict[str, float] = Counter()
    counts: Counter = Counter()
    for samples in filter(None, per_set):
        for total, fn in ((self_s, self_times), (incl_s, inclusive_times)):
            timed = [{k: v * scale for k, v in fn(spans).items()} for spans, _, scale in samples]
            for name in set().union(*timed):
                total[name] += median(t.get(name, 0.0) for t in timed)
        counts.update(samples[0][1])
    return layer_values(self_s, incl_s, counts)
