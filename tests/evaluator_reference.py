"""Replay as it was before it walked an explicit stack: exec_instr and
exec_seq recurse once per nested conditional or loop and pass a CONT /
STOP status up through every return. Kept verbatim as the reference the
iterative evaluator.execute is tested against; nothing in src/ uses it.

Terms are evaluated by term_evaluator as it was before dispatch tables
(kept verbatim too): a Select tests its cases in order and a
conditional evaluates its guard, so no path here shares the tables of
terms.py and evaluator.py."""

from __future__ import annotations

from typing import Callable, Dict, Optional, Type

from tracesynth import dsl
from tracesynth.evaluator import EvalError, ExecutionRecorder, LocalState, VisibleHandler
from tracesynth.hidden import HiddenEvalError, HiddenFnBody, eval_hidden
from tracesynth.jsonvals import JsonValue, canonical_eq

CONT = "cont"
STOP = "stop"


def term_evaluator(
    read: Callable[[str], JsonValue],
    read_arg: Callable[[str], JsonValue],
    hidden: Dict[str, HiddenFnBody],
    error: Type[Exception],
) -> Callable[[object], JsonValue]:
    """Evaluator of expressions and predicates. read gives a variable's
    value where a term reads it directly, read_arg where it is passed to
    a hidden function; a term that cannot be evaluated raises error."""

    def ev(t):
        if isinstance(t, dsl.Const):
            return t.value
        if isinstance(t, dsl.VarRef):
            return read(t.name)
        if isinstance(t, dsl.Select):
            for p, e in t.cases:
                if ev(p):
                    return ev(e)
            return ev(t.default)
        if isinstance(t, dsl.HiddenCall):
            body = hidden.get(t.fn_name)
            if body is None:
                raise error(f"hidden function {t.fn_name} has no definition")
            try:
                return eval_hidden(body, [read_arg(a) for a in t.args])
            except HiddenEvalError as exc:
                raise error(str(exc)) from exc
        if isinstance(t, dsl.PTrue):
            return True
        if isinstance(t, dsl.PFalse):
            return False
        if isinstance(t, dsl.PAnd):
            return ev(t.left) and ev(t.right)
        if isinstance(t, dsl.POr):
            return ev(t.left) or ev(t.right)
        if isinstance(t, dsl.PNot):
            return not ev(t.inner)
        if isinstance(t, dsl.ValueCheck):
            return canonical_eq(read(t.var), t.const)
        if isinstance(t, dsl.Compare):
            lv, rv = read(t.left), read(t.right)
            num = lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (num(lv) and num(rv)):
                raise error(f"comparison {t.op} needs numeric operands")
            return {">=": lv >= rv, ">": lv > rv, "<=": lv <= rv, "<": lv < rv}[t.op]
        raise error(f"not an expression or predicate: {t!r}")

    return ev


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
