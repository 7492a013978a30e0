"""Replay as it was before it walked an explicit stack: exec_instr and
exec_seq recurse once per nested conditional or loop and pass a CONT /
STOP status up through every return. Kept verbatim as the reference the
iterative evaluator.execute is tested against; nothing in src/ uses it."""

from __future__ import annotations

from typing import Dict, Optional

from tracesynth import dsl
from tracesynth.evaluator import EvalError, ExecutionRecorder, LocalState, VisibleHandler
from tracesynth.jsonvals import JsonValue
from tracesynth.terms import term_evaluator

CONT = "cont"
STOP = "stop"


def execute(
    program: dsl.Program,
    inputs: Dict[str, JsonValue],
    visible: VisibleHandler,
    retry_bound: int,
    recorder: Optional[ExecutionRecorder] = None,
) -> LocalState:
    """Run a closed program with the given parameter values, routing
    visible calls through the handler. Returns the final local state;
    recorder.stopped tells whether a return truncated the run."""
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
    loop_depth = 0

    def read(var: str) -> JsonValue:
        if var not in state.bindings:
            raise EvalError(f"read of unbound variable {var}")
        return state.bindings[var]

    def bind(var: str, value: JsonValue):
        state.bindings[var] = value
        if recorder:
            recorder.on_bind(var, value, loop_depth > 0)

    ev = term_evaluator(read, read, hidden, EvalError)

    def exec_instr(ins) -> str:
        nonlocal loop_depth
        if isinstance(ins, dsl.LetVisible):
            request = {name: ev(arg) for name, arg in ins.args}
            response = visible(ins.api, request)
            if recorder:
                recorder.on_call(ins.api, request, response)
            bind(ins.var, response)
            return CONT
        if isinstance(ins, dsl.LetHidden):
            bind(ins.var, ev(dsl.HiddenCall(ins.fn, ins.args)))
            return CONT
        if isinstance(ins, dsl.Ite):
            branch = ins.then if ev(ins.pred) else ins.els
            return exec_seq(branch)
        if isinstance(ins, dsl.RetryUntil):
            count = state.loop_counters.get(ins.loop_id, 0)
            loop_depth += 1
            try:
                while True:
                    status = exec_seq(ins.body)
                    if status is STOP:
                        return STOP
                    count += 1
                    state.loop_counters[ins.loop_id] = count
                    if ev(ins.pred) or count >= retry_bound:
                        state.loop_counters[ins.loop_id] = 0
                        return CONT
            finally:
                loop_depth -= 1
        if isinstance(ins, dsl.Foreach):
            items = ev(ins.source)
            if not isinstance(items, list):
                raise EvalError(
                    f"foreach source must be a list, got {type(items).__name__}"
                )
            count = state.loop_counters.get(ins.loop_id, 0)
            loop_depth += 1
            try:
                for item in items:
                    bind(ins.var, item)
                    count += 1
                    state.loop_counters[ins.loop_id] = count
                    status = exec_seq(ins.body)
                    if status is STOP:
                        return STOP
                state.loop_counters[ins.loop_id] = 0
                return CONT
            finally:
                loop_depth -= 1
        if isinstance(ins, dsl.Return):
            return STOP
        raise EvalError(f"not an instruction: {ins!r}")

    def exec_seq(seq) -> str:
        for ins in seq:
            if exec_instr(ins) is STOP:
                return STOP
        return CONT

    status = exec_seq(program.body)
    if recorder:
        recorder.stopped = status is STOP
    return state
