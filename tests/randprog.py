"""Seeded generator of small well-formed scripts plus self-replay traces.

Programs stay within tight structural budgets: at most 8 statements,
at most 2 conditionals, at most 1 loop. Each generated program is run
against a deterministic handler to record per-trace call logs, and the
recorded bindings become the trace valuation, so the program replays
its own traces by construction.
"""

import json

from tracesynth import dsl
from tracesynth.evaluator import ExecutionRecorder, execute
from tracesynth.hidden import HiddenFnBody, Input
from tracesynth.jsonvals import ABSENT
from tracesynth.traces import PerIteration, Scalar, TraceValuation, parse_traces

SCALARS = (1, 2, "a", "b", True)
APIS = ("Alpha", "Beta", "Gamma", "Delta")

MAX_STATEMENTS = 8
MAX_CONDITIONALS = 2
MAX_LOOPS = 1


class _Gen:
    def __init__(self, rng, params, n_traces):
        self.rng = rng
        self.params = params
        self.n_traces = n_traces
        self.counter = 0
        self.remaining = rng.randint(3, MAX_STATEMENTS)
        self.conds = 0
        self.loops = 0
        self.hidden_lets = 0
        self.uses_hidden = False

    def fresh(self, prefix="x"):
        self.counter += 1
        return f"{prefix}{self.counter}"

    def pred(self):
        rng = self.rng
        choices = []
        if "br" in self.params:
            choices.append(dsl.ValueCheck("br", rng.randint(1, self.n_traces)))
        if "p1" in self.params:
            choices.append(dsl.ValueCheck("p1", rng.choice(("u1", "u2"))))
        if not choices:
            choices.append(dsl.PTrue())
        base = rng.choice(choices)
        roll = rng.random()
        if roll < 0.2:
            return dsl.PNot(base)
        if roll < 0.3 and len(choices) > 1:
            other = rng.choice(choices)
            return dsl.PAnd(base, other)
        return base

    def arg_expr(self, scope, in_loop, loop_var=None):
        rng = self.rng
        roll = rng.random()
        if loop_var is not None and roll < 0.5:
            return dsl.VarRef(loop_var)
        if roll < 0.35:
            return dsl.Const(rng.choice(SCALARS))
        if roll < 0.5 and "br" in self.params and not in_loop:
            a, b = rng.sample(SCALARS, 2)
            return dsl.Select(((dsl.ValueCheck("br", 1), dsl.Const(a)),), dsl.Const(b))
        if roll < 0.7 and scope:
            return dsl.VarRef(rng.choice(scope))
        if roll < 0.85 and self.params:
            return dsl.VarRef(rng.choice(sorted(self.params)))
        return dsl.Const(rng.choice(SCALARS))

    def visible(self, scope, in_loop, loop_var=None, api=None, args=None):
        rng = self.rng
        self.remaining -= 1
        var = self.fresh()
        if api is None:
            api = rng.choice(APIS)
        if args is None:
            n = rng.randint(0, 2)
            args = tuple(
                (f"k{j}", self.arg_expr(scope, in_loop, loop_var)) for j in range(n)
            )
        return dsl.LetVisible(var, api, args)

    def seq(self, scope, in_loop, budget, loop_var=None, top=False):
        rng = self.rng
        stmts = []
        local_scope = list(scope)
        if top:
            stmts.append(self.visible(local_scope, in_loop, loop_var))
            local_scope.append(stmts[-1].var)
        while self.remaining > 0 and budget > 0 and rng.random() < 0.75:
            kinds = ["visible"]
            if local_scope and self.hidden_lets < 2:
                kinds.append("hidden")
            if (
                self.conds < MAX_CONDITIONALS
                and self.remaining >= 2
                and budget >= 2
                and not in_loop
            ):
                kinds.extend(["ite", "ite"])
            if (
                self.loops < MAX_LOOPS
                and self.remaining >= 2
                and budget >= 2
                and not in_loop
            ):
                kinds.extend(["retry", "foreach"])
            kind = rng.choice(kinds)
            if kind == "visible":
                ins = self.visible(local_scope, in_loop, loop_var)
                stmts.append(ins)
                local_scope.append(ins.var)
                budget -= 1
            elif kind == "hidden":
                self.hidden_lets += 1
                self.uses_hidden = True
                var = self.fresh("h")
                stmts.append(dsl.LetHidden(var, "f_id", (rng.choice(local_scope),)))
                local_scope.append(var)
            elif kind == "ite":
                stmts.append(self.ite(local_scope, budget))
                budget = 0  # the conditional soaks up the rest of this block
            elif kind == "retry":
                stmts.append(self.retry(local_scope))
                budget -= 2
            elif kind == "foreach":
                stmts.append(self.foreach(local_scope))
                budget -= 2
            if rng.random() < 0.1 and self.remaining > 0:
                self.remaining -= 1
                stmts.append(dsl.Return())
                break
        return tuple(stmts), local_scope

    def ite(self, scope, budget):
        rng = self.rng
        self.conds += 1
        self.remaining -= 1
        budget -= 1
        pred = self.pred()
        then_budget = rng.randint(0, min(budget, self.remaining))
        then, _ = self.seq(scope, False, then_budget)
        els_budget = rng.randint(0, min(budget, self.remaining))
        els, _ = self.seq(scope, False, els_budget)
        if rng.random() < 0.4 and self.remaining >= 2:
            # Shared head in both branches, bait for the hoisting rules.
            api = rng.choice(APIS)
            n = rng.randint(0, 1)
            head_args = lambda: tuple(
                (f"k{j}", dsl.Const(rng.choice(SCALARS))) for j in range(n)
            )
            common = head_args()
            then = (self.visible(scope, False, api=api, args=common),) + then
            els = (self.visible(scope, False, api=api, args=common),) + els
        return dsl.Ite(pred, then, els)

    def retry(self, scope):
        rng = self.rng
        self.loops += 1
        self.remaining -= 2
        api = self.fresh("poll.Api")
        target = rng.randint(1, 3)
        call = self.visible(scope, True, api=api, args=())
        self.remaining += 1  # visible() already charged for the call
        return dsl.RetryUntil(
            self.fresh("loop_"),
            (call,),
            dsl.ValueCheck(call.var, {"tag": api, "n": target}),
        )

    def foreach(self, scope):
        rng = self.rng
        self.loops += 1
        self.remaining -= 2
        items = [rng.choice(SCALARS) for _ in range(rng.randint(1, 3))]
        u = self.fresh("u")
        call = self.visible(scope, True, loop_var=u, api=rng.choice(APIS))
        self.remaining += 1
        return dsl.Foreach(self.fresh("loop_"), u, dsl.Const(items), (call,))


def _make_handler():
    counts = {}

    def handler(api, request):
        k = counts.get(api, 0) + 1
        counts[api] = k
        return {"tag": api, "n": k}

    return handler


GENERATION_RETRY_BOUND = 4


def generate_case(rng):
    """One random program plus the traces and valuation of running it
    on every input row. Returns (program, sigma, ts)."""
    n_traces = rng.choice((2, 3))
    params = []
    if rng.random() < 0.7:
        params.append("br")
    if rng.random() < 0.4:
        params.append("p1")
    if rng.random() < 0.25:
        params.append("p2")  # deliberately never read
    g = _Gen(rng, set(params) - {"p2"}, n_traces)
    body, _ = g.seq([], False, g.remaining, top=True)
    hidden_defs = (
        (("f_id", HiddenFnBody(arity=1, body=Input(0))),) if g.uses_hidden else ()
    )
    program = dsl.Program(params=tuple(params), body=body, hidden_defs=hidden_defs)
    dsl.validate_program(program)

    rows = {}
    for i in range(1, n_traces + 1):
        row = {}
        if "br" in params:
            row["br"] = i
        if "p1" in params:
            row["p1"] = ("u1", "u2", "u1")[i - 1]
        if "p2" in params:
            row["p2"] = 0
        rows[i] = row

    loopish = set()
    payload = []
    binds = {}
    for i in range(1, n_traces + 1):
        rec = ExecutionRecorder()
        execute(program, rows[i], _make_handler(), GENERATION_RETRY_BOUND, rec)
        payload.append(
            [{"api": a, "request": r, "response": resp} for a, r, resp in rec.calls]
        )
        per_var = {}
        for var, value, in_loop in rec.bind_events:
            per_var.setdefault(var, []).append(value)
            if in_loop:
                loopish.add(var)
        binds[i] = per_var

    all_vars = set()
    stack = [body]
    while stack:
        for ins in stack.pop():
            if isinstance(ins, (dsl.LetVisible, dsl.LetHidden)):
                all_vars.add(ins.var)
            elif isinstance(ins, dsl.Ite):
                stack.extend([ins.then, ins.els])
            elif isinstance(ins, dsl.RetryUntil):
                stack.append(ins.body)
            elif isinstance(ins, dsl.Foreach):
                all_vars.add(ins.var)
                stack.append(ins.body)

    entries = {}
    for i in range(1, n_traces + 1):
        for p in params:
            entries[(p, i)] = Scalar(rows[i][p])
        for var in all_vars:
            vals = binds[i].get(var)
            if vals is None:
                entries[(var, i)] = Scalar(ABSENT)
            elif var in loopish:
                entries[(var, i)] = PerIteration(tuple(vals))
            else:
                entries[(var, i)] = Scalar(vals[-1])

    sigma = TraceValuation(params=tuple(params), entries=entries)
    ts = parse_traces(json.dumps(payload))
    return program, sigma, ts
