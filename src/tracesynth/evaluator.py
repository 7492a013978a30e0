"""Big-step execution of programs against a replay oracle.

Execution is run-to-completion: bindings persist after the block that
introduced them, a return statement stops the whole program (the trace
emitted so far is the result), and loop counters live in the local
state, reset to zero whenever a loop exits normally and left untouched
when a return leaves its body. The run walks an explicit stack of
sequences, so no nesting depth is too deep for it.

A chain of conditionals that test one variable against ints, each
else-branch exactly the next one (see dsl.ite_table: the br chain of
the initial program), is run by a table: the variable is read once,
and an int value goes straight to the branch it selects, so replaying
N traces through an N-deep chain costs O(N), not O(N^2). Any other
value runs the chain's first conditional as usual.

A retry loop executes its body at least once and at most K times,
exiting as soon as the condition holds afterwards. A foreach loop runs
zero iterations on an empty list.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

from . import dsl
from .jsonvals import JsonValue, canonical_eq, canonical_dumps
from .terms import term_evaluator
from .traces import Trace, TraceSet, TraceValuation, extract_inputs

class EvalError(Exception):
    pass


class ReplayMismatch(EvalError):
    pass


@dataclass
class LocalState:
    bindings: Dict[str, JsonValue] = field(default_factory=dict)
    loop_counters: Dict[str, int] = field(default_factory=dict)


class GlobalOracle:
    """Cursor over one recorded trace. A visible call succeeds only if
    it matches the next record's api and request exactly; the recorded
    response is returned."""

    def __init__(self, trace: Trace):
        self.trace = trace
        self.cursor = 0

    def call(self, api: str, request: dict) -> JsonValue:
        if self.cursor >= len(self.trace):
            raise ReplayMismatch(
                f"call {api} after all {len(self.trace)} recorded events were consumed"
            )
        rec = self.trace[self.cursor]
        if rec.api != api:
            raise ReplayMismatch(
                f"event {self.cursor + 1}: called {api}, recorded {rec.api}"
            )
        if not canonical_eq(rec.request_map(), request):
            raise ReplayMismatch(
                f"event {self.cursor + 1} ({api}): request "
                f"{canonical_dumps(request)} != recorded {canonical_dumps(rec.request_map())}"
            )
        self.cursor += 1
        return rec.response

    def done(self) -> bool:
        return self.cursor == len(self.trace)


VisibleHandler = Callable[[str, dict], JsonValue]


def execute(
    program: dsl.Program,
    inputs: Dict[str, JsonValue],
    visible: VisibleHandler,
    retry_bound: int,
) -> LocalState:
    """Run a closed program with the given parameter values, routing
    visible calls through the handler. Returns the final local state.
    A handler that records its calls sees what the run did, and where
    a return cut it short."""
    if not program.is_closed():
        raise EvalError(f"program has unsolved holes: {list(program.holes)}")
    if set(inputs) != set(program.params):
        raise EvalError(
            f"inputs {sorted(inputs)} do not match parameters {list(program.params)}"
        )
    if retry_bound < 1:
        raise EvalError("retry bound must be at least 1")

    hidden = program.hidden_map()
    state = LocalState(bindings=dict(inputs))
    bindings = state.bindings

    def read(var: str) -> JsonValue:
        if var not in bindings:
            raise EvalError(f"read of unbound variable {var}")
        return bindings[var]

    ev = term_evaluator(read, read, hidden, EvalError)

    # One frame per sequence being run: its instructions still to run,
    # the loop whose body it is (None for a branch or the program body),
    # and a foreach's items not yet bound, last first.
    stack = [(iter(program.body), None, None)]
    while stack:
        instrs, loop, items = stack[-1]
        ins = next(instrs, None)
        if ins is None:
            stack.pop()
            if loop is None:
                continue
            counters = state.loop_counters
            if isinstance(loop, dsl.RetryUntil):
                counters[loop.loop_id] = counters.get(loop.loop_id, 0) + 1
                again = not ev(loop.pred) and counters[loop.loop_id] < retry_bound
            elif items:
                bindings[loop.var] = items.pop()
                counters[loop.loop_id] = counters.get(loop.loop_id, 0) + 1
                again = True
            else:
                again = False
            if again:
                stack.append((iter(loop.body), loop, items))
            else:
                counters[loop.loop_id] = 0
        elif isinstance(ins, dsl.LetVisible):
            request = {name: ev(arg) for name, arg in ins.args}
            bindings[ins.var] = visible(ins.api, request)
        elif isinstance(ins, dsl.LetHidden):
            bindings[ins.var] = ev(dsl.HiddenCall(ins.fn, ins.args))
        elif isinstance(ins, dsl.Ite):
            table = dsl.ite_table(ins)
            v = None if table is None else read(table[0])
            if type(v) is int:
                branch = table[1].get(v, table[2])
            else:
                branch = ins.then if ev(ins.pred) else ins.els
            stack.append((iter(branch), None, None))
        elif isinstance(ins, dsl.RetryUntil):
            stack.append((iter(ins.body), ins, None))
        elif isinstance(ins, dsl.Foreach):
            source = ev(ins.source)
            if not isinstance(source, list):
                raise EvalError(
                    f"foreach source must be a list, got {type(source).__name__}"
                )
            # An empty body frame: its end binds the first item.
            stack.append((iter(()), ins, source[::-1]))
        elif isinstance(ins, dsl.Return):
            break
        else:
            raise EvalError(f"not an instruction: {ins!r}")
    return state


def default_retry_bound(ts: TraceSet) -> int:
    return max(len(t) for t in ts.traces) + 1


def replay_check(
    program: dsl.Program,
    inputs: Dict[str, JsonValue],
    trace: Trace,
    retry_bound: int,
) -> Tuple[bool, str]:
    """Does running the program with these inputs emit exactly this
    trace? All recorded events must be consumed."""
    oracle = GlobalOracle(trace)
    try:
        execute(program, inputs, oracle.call, retry_bound)
    except EvalError as exc:
        return False, str(exc)
    if not oracle.done():
        return False, (
            f"run ended after {oracle.cursor} of {len(trace)} recorded events"
        )
    return True, ""


def psi_failures(
    program: dsl.Program,
    sigma: TraceValuation,
    ts: TraceSet,
    retry_bound: int,
) -> List[Tuple[int, str]]:
    """Traces the program fails to reproduce, with reasons."""
    inputs = extract_inputs(sigma, ts.indices())
    failures = []
    for i in ts.indices():
        per_trace = {p: inputs[p][i] for p in sigma.params}
        ok, reason = replay_check(program, per_trace, ts.trace(i), retry_bound)
        if not ok:
            failures.append((i, reason))
    return failures


def check_psi(
    program: dsl.Program,
    sigma: TraceValuation,
    ts: TraceSet,
    retry_bound: int,
) -> bool:
    return not psi_failures(program, sigma, ts, retry_bound)
