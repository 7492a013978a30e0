"""Per-rule behavior of the rewrite catalog."""

import json
from dataclasses import replace

import pytest

import sites_reference
from tracesynth import dsl
from tracesynth.evaluator import check_psi, default_retry_bound
from tracesynth.hidden import HiddenFnBody, ConstVal, Input, Length
from tracesynth.jsonvals import ABSENT
from tracesynth.pbe import ConstraintCache, _Deadline
from tracesynth.rewrites import REFINE_RULES, SYNTH_RULES, RewriteContext, enumerate_rewrites
from tracesynth.search import build_initial
from tracesynth.traces import PerIteration, Scalar, TraceValuation, ValuationError, parse_traces


def make_ts(*traces):
    payload = [
        [{"api": api, "request": req, "response": resp} for api, req, resp in t]
        for t in traces
    ]
    return parse_traces(json.dumps(payload))


def ctx_for(ts):
    return RewriteContext(ts, ConstraintCache())


def by_rule(rws, name):
    return [r for r in rws if r.rule == name]


def apply_one(rw, sigma):
    return rw.program, rw.transform.apply(sigma)


def fill_holes(rw, ctx):
    """Solve the rewrite's synthesis specs and close the program, the
    way the search loop does before replay-checking."""
    prog = rw.program
    holes, defs = list(prog.holes), list(prog.hidden_defs)
    for spec in rw.specs:
        result = ctx.cache.solve(list(spec.examples), spec.kind, ctx.pbe_cfg)
        assert result.sat, f"spec for {spec.hole} should be solvable"
        holes.remove(spec.hole)
        defs.append((spec.hole, result.fn_body()))
    return replace(prog, hidden_defs=tuple(defs), holes=tuple(holes))


def dummy_ts(n):
    return make_ts(*([("Noop", {}, {"ok": 1})] for _ in range(n)))


# --- pull / push ---------------------------------------------------------------


def test_pull_hoists_common_head():
    ts = make_ts(
        [("Login", {"user": "u"}, {"ok": True}), ("A", {"x": 1}, {"r": 1})],
        [("Login", {"user": "u"}, {"ok": True}), ("B", {"y": 2}, {"r": 2})],
    )
    program, sigma = build_initial(ts)
    pulls = by_rule(enumerate_rewrites(program, sigma, "refine", ctx_for(ts)), "pull")
    assert len(pulls) == 1
    prog2, sigma2 = apply_one(pulls[0], sigma)
    first, ite = prog2.body
    assert isinstance(first, dsl.LetVisible) and first.api == "Login"
    assert isinstance(ite, dsl.Ite)
    assert [s.api for s in ite.then] == ["A"] and [s.api for s in ite.els] == ["B"]
    assert prog2.n_statements == program.n_statements - 1
    assert check_psi(prog2, sigma2, ts, default_retry_bound(ts))


def test_pull_merges_divergent_args_with_ternary():
    ts = make_ts(
        [("Get", {"k": "a"}, {"v": 1})],
        [("Get", {"k": "b"}, {"v": 2})],
    )
    program, sigma = build_initial(ts)
    pulls = by_rule(enumerate_rewrites(program, sigma, "refine", ctx_for(ts)), "pull")
    assert len(pulls) == 1
    prog2, sigma2 = apply_one(pulls[0], sigma)
    merged = prog2.body[0]
    assert merged.args[0][1] == dsl.Select(((dsl.ValueCheck("br", 1), dsl.Const("a")),), dsl.Const("b"))
    assert check_psi(prog2, sigma2, ts, default_retry_bound(ts))


def test_pull_requires_matching_api_and_keys():
    ts = make_ts([("A", {"x": 1}, {})], [("B", {"x": 1}, {})])
    program, sigma = build_initial(ts)
    assert not by_rule(enumerate_rewrites(program, sigma, "refine", ctx_for(ts)), "pull")

    ts2 = make_ts([("A", {"x": 1}, {})], [("A", {"y": 1}, {})])
    program2, sigma2 = build_initial(ts2)
    assert not by_rule(
        enumerate_rewrites(program2, sigma2, "refine", ctx_for(ts2)), "pull"
    )


def test_push_hoists_common_tail():
    ts = make_ts(
        [("A", {"x": 1}, {"r": 1}), ("Fin", {"f": 0}, {"done": True})],
        [("B", {"y": 2}, {"r": 2}), ("Fin", {"f": 0}, {"done": True})],
    )
    program, sigma = build_initial(ts)
    pushes = by_rule(enumerate_rewrites(program, sigma, "refine", ctx_for(ts)), "push")
    assert len(pushes) == 1
    prog2, sigma2 = apply_one(pushes[0], sigma)
    ite, last = prog2.body
    assert isinstance(ite, dsl.Ite)
    assert isinstance(last, dsl.LetVisible) and last.api == "Fin"
    assert check_psi(prog2, sigma2, ts, default_retry_bound(ts))


# --- conditional cleanup -------------------------------------------------------


def test_eliminate_empty_if_drops_hollow_conditional():
    program = dsl.Program(
        params=("br",),
        body=(
            dsl.Ite(dsl.ValueCheck("br", 1), (), ()),
            dsl.LetVisible("x1", "A", (("k", dsl.Const(1)),)),
        ),
    )
    ts = dummy_ts(2)
    sigma = TraceValuation(params=("br",), entries={("br", 1): Scalar(1), ("br", 2): Scalar(2)})
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(ts)),
        "eliminate_empty_if",
    )
    assert len(rws) == 1 and rws[0].path == (0,)
    prog2, _ = apply_one(rws[0], sigma)
    assert len(prog2.body) == 1 and prog2.body[0].api == "A"


def test_invert_empty_then_negates_guard():
    inner = dsl.LetVisible("x1", "A", (("k", dsl.Const(1)),))
    program = dsl.Program(
        params=("br",),
        body=(dsl.Ite(dsl.ValueCheck("br", 1), (), (inner,)),),
    )
    sigma = TraceValuation(params=("br",), entries={("br", 1): Scalar(1), ("br", 2): Scalar(2)})
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(2))),
        "invert_empty_then",
    )
    assert len(rws) == 1
    flipped = rws[0].program.body[0]
    assert flipped.pred == dsl.PNot(dsl.ValueCheck("br", 1))
    assert flipped.then == (inner,) and flipped.els == ()


def test_sequence_nested_splits_trailing_conditional():
    a = dsl.LetVisible("x1", "A", ())
    b = dsl.LetVisible("x2", "B", ())
    p1, p2 = dsl.ValueCheck("br", 1), dsl.ValueCheck("br", 2)
    program = dsl.Program(
        params=("br",),
        body=(dsl.Ite(p1, (a, dsl.Ite(p2, (b,), ())), ()),),
    )
    sigma = TraceValuation(params=("br",), entries={("br", 1): Scalar(1), ("br", 2): Scalar(2)})
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(2))),
        "sequence_nested",
    )
    assert len(rws) == 1
    first, second = rws[0].program.body
    assert first == dsl.Ite(p1, (a,), ())
    assert second == dsl.Ite(dsl.PAnd(p1, p2), (b,), ())


def test_sequence_nested_flattens_whole_branch():
    b = dsl.LetVisible("x1", "B", ())
    p1, p2 = dsl.ValueCheck("br", 1), dsl.ValueCheck("br", 2)
    program = dsl.Program(
        params=("br",),
        body=(dsl.Ite(p1, (dsl.Ite(p2, (b,), ()),), ()),),
    )
    sigma = TraceValuation(params=("br",), entries={("br", 1): Scalar(1), ("br", 2): Scalar(2)})
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(2))),
        "sequence_nested",
    )
    assert len(rws) == 1
    assert rws[0].program.body == (dsl.Ite(dsl.PAnd(p1, p2), (b,), ()),)


def test_merge_nested_collapses_or_chain():
    c1, c2 = dsl.ValueCheck("br", 1), dsl.ValueCheck("br", 2)
    a = dsl.LetVisible("x1", "A", (("k", dsl.Const(1)),))
    b = dsl.LetVisible("x3", "A", (("k", dsl.Const(1)),))
    program = dsl.Program(
        params=("br",),
        body=(dsl.Ite(c1, (a,), (dsl.Ite(c2, (b,), ()),)),),
    )
    sigma = TraceValuation(
        params=("br",),
        entries={
            ("br", 1): Scalar(1), ("br", 2): Scalar(2), ("br", 3): Scalar(3),
            ("x1", 1): Scalar({"r": 1}), ("x1", 2): Scalar(ABSENT), ("x1", 3): Scalar(ABSENT),
            ("x3", 1): Scalar(ABSENT), ("x3", 2): Scalar({"r": 2}), ("x3", 3): Scalar(ABSENT),
        },
    )
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(3))),
        "merge_nested",
    )
    assert len(rws) == 1
    prog2, sigma2 = apply_one(rws[0], sigma)
    merged = prog2.body[0]
    assert merged.pred == dsl.POr(c1, c2)
    assert len(merged.then) == 1 and merged.then[0].var == "x1" and not merged.els
    with pytest.raises(ValuationError):
        sigma2.lookup("x3", 1)
    assert sigma2.lookup("x1", 2).value == {"r": 2}


def test_merge_nested_collapses_or_not_chain():
    c1, c2 = dsl.ValueCheck("br", 1), dsl.ValueCheck("br", 2)
    a = dsl.LetVisible("x1", "A", ())
    b = dsl.LetVisible("x3", "A", ())
    program = dsl.Program(
        params=("br",),
        body=(dsl.Ite(c1, (a,), (dsl.Ite(c2, (), (b,)),)),),
    )
    sigma = TraceValuation(
        params=("br",),
        entries={
            ("br", 1): Scalar(1), ("br", 2): Scalar(2), ("br", 3): Scalar(3),
            ("x1", 1): Scalar({"r": 1}), ("x1", 2): Scalar(ABSENT), ("x1", 3): Scalar(ABSENT),
            ("x3", 1): Scalar(ABSENT), ("x3", 2): Scalar(ABSENT), ("x3", 3): Scalar({"r": 3}),
        },
    )
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(3))),
        "merge_nested",
    )
    assert len(rws) == 1
    assert rws[0].program.body[0].pred == dsl.POr(c1, dsl.PNot(c2))


def test_merge_nested_rejects_per_iteration_columns():
    c1, c2 = dsl.ValueCheck("br", 1), dsl.ValueCheck("br", 2)
    program = dsl.Program(
        params=("br",),
        body=(
            dsl.Ite(
                c1,
                (dsl.LetVisible("x1", "A", ()),),
                (dsl.Ite(c2, (dsl.LetVisible("x3", "A", ()),), ()),),
            ),
        ),
    )
    # Loop-produced cells cannot be folded across branches.
    sigma = TraceValuation(
        params=("br",),
        entries={
            ("br", 1): Scalar(1), ("br", 2): Scalar(2),
            ("x1", 1): PerIteration(({"r": 1},)), ("x1", 2): Scalar(ABSENT),
            ("x3", 1): Scalar(ABSENT), ("x3", 2): Scalar({"r": 9}),
        },
    )
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(2))),
        "merge_nested",
    )
    assert not rws


# --- readers of the dropped binder -----------------------------------------------


ON_1 = dsl.ValueCheck("br", 1)
CALL_X1 = dsl.LetVisible("x1", "A", (("k", dsl.Const(1)),))
CALL_X2 = dsl.LetVisible("x2", "A", (("k", dsl.Const(1)),))
P, Q = dsl.LetVisible("x3", "P", ()), dsl.LetVisible("x4", "Q", ())
# Read after the conditional: x1 on trace 1, x2 on trace 2.
READER = dsl.LetVisible(
    "x9", "Z", (("k", dsl.Select(((ON_1, dsl.VarRef("x1")),), dsl.VarRef("x2"))),)
)
# rule -> (conditional, APIs before and after A on trace 1 and trace 2)
MERGE_CASES = {
    "pull": (dsl.Ite(ON_1, (CALL_X1, P), (CALL_X2, Q)), ((), ("P",)), ((), ("Q",))),
    "push": (dsl.Ite(ON_1, (P, CALL_X1), (Q, CALL_X2)), (("P",), ()), (("Q",), ())),
    "merge_nested": (
        dsl.Ite(ON_1, (CALL_X1,), (dsl.Ite(dsl.ValueCheck("br", 2), (CALL_X2,), ()),)),
        ((), ()),
        ((), ()),
    ),
}


@pytest.mark.parametrize("rule", sorted(MERGE_CASES))
def test_merging_rules_point_readers_of_the_dropped_binder_at_the_survivor(rule):
    """x2 is read after the conditional, so the rule must rename that
    read to x1, the binder it keeps."""
    ite, (before1, after1), (before2, after2) = MERGE_CASES[rule]
    ts = make_ts(
        [*((api, {}, {}) for api in before1), ("A", {"k": 1}, "u"),
         *((api, {}, {}) for api in after1), ("Z", {"k": "u"}, {})],
        [*((api, {}, {}) for api in before2), ("A", {"k": 1}, "v"),
         *((api, {}, {}) for api in after2), ("Z", {"k": "v"}, {})],
    )
    program = dsl.Program(params=("br",), body=(ite, READER))
    entries = {
        ("br", 1): Scalar(1), ("br", 2): Scalar(2),
        ("x1", 1): Scalar("u"), ("x1", 2): Scalar(ABSENT),
        ("x2", 1): Scalar(ABSENT), ("x2", 2): Scalar("v"),
        ("x3", 1): Scalar({}), ("x3", 2): Scalar(ABSENT),
        ("x4", 1): Scalar(ABSENT), ("x4", 2): Scalar({}),
        ("x9", 1): Scalar({}), ("x9", 2): Scalar({}),
    }
    sigma = TraceValuation(params=("br",), entries=entries)
    dsl.validate_program(program)
    assert check_psi(program, sigma, ts, default_retry_bound(ts))

    rws = by_rule(enumerate_rewrites(program, sigma, "refine", ctx_for(ts)), rule)
    assert len(rws) == 1
    prog2, sigma2 = apply_one(rws[0], sigma)
    reader = prog2.body[-1]
    assert reader.var == "x9"
    assert sites_reference.seq_reads((reader,)) == ["br", "x1", "x1"]
    assert "x2" not in sites_reference.seq_reads(prog2.body)
    dsl.validate_program(prog2)
    assert check_psi(prog2, sigma2, ts, default_retry_bound(ts))


# --- parameter and hidden-let housekeeping -------------------------------------


def test_eliminate_unused_param():
    program = dsl.Program(
        params=("br", "i_1"),
        body=(dsl.LetVisible("x1", "A", (("k", dsl.VarRef("i_1")),)),),
    )
    sigma = TraceValuation(
        params=("br", "i_1"),
        entries={
            ("br", 1): Scalar(1), ("br", 2): Scalar(2),
            ("i_1", 1): Scalar("a"), ("i_1", 2): Scalar("b"),
        },
    )
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(2))),
        "eliminate_unused_param",
    )
    assert len(rws) == 1 and rws[0].site == "br"
    prog2, sigma2 = apply_one(rws[0], sigma)
    assert prog2.params == ("i_1",)
    assert sigma2.params == ("i_1",)


def test_inline_trivial_hidden_projection():
    program = dsl.Program(
        params=(),
        body=(
            dsl.LetVisible("x1", "Get", (("k", dsl.Const(1)),)),
            dsl.LetHidden("h", "f_1", ("x1",)),
            dsl.LetVisible("x2", "Put", (("n", dsl.VarRef("h")),)),
        ),
        hidden_defs=(("f_1", HiddenFnBody(arity=1, body=Input(0))),),
    )
    sigma = TraceValuation(
        params=(),
        entries={
            ("x1", 1): Scalar({"v": 1}), ("x1", 2): Scalar({"v": 2}),
            ("h", 1): Scalar({"v": 1}), ("h", 2): Scalar({"v": 2}),
            ("x2", 1): Scalar({}), ("x2", 2): Scalar({}),
        },
    )
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(2))),
        "inline_trivial_hidden",
    )
    assert len(rws) == 1
    prog2, sigma2 = apply_one(rws[0], sigma)
    assert all(not isinstance(s, dsl.LetHidden) for s in prog2.body)
    assert prog2.body[1].args[0][1] == dsl.VarRef("x1")
    assert prog2.hidden_defs == ()
    with pytest.raises(ValuationError):
        sigma2.lookup("h", 1)


def test_inline_trivial_hidden_constant_folds_guards():
    program = dsl.Program(
        params=(),
        body=(
            dsl.LetHidden("h", "f_1", ()),
            dsl.LetVisible("x1", "A", (("k", dsl.VarRef("h")),)),
            dsl.Ite(dsl.ValueCheck("h", 5), (dsl.LetVisible("x2", "B", ()),), ()),
        ),
        hidden_defs=(("f_1", HiddenFnBody(arity=0, body=ConstVal(5))),),
    )
    sigma = TraceValuation(
        params=(),
        entries={
            ("h", 1): Scalar(5), ("h", 2): Scalar(5),
            ("x1", 1): Scalar({}), ("x1", 2): Scalar({}),
            ("x2", 1): Scalar({}), ("x2", 2): Scalar({}),
        },
    )
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(2))),
        "inline_trivial_hidden",
    )
    assert len(rws) == 1
    body = rws[0].program.body
    assert body[0].args[0][1] == dsl.Const(5)
    assert isinstance(body[1].pred, dsl.PTrue)


def test_inline_rejects_hidden_var_feeding_another_hidden_call():
    program = dsl.Program(
        params=(),
        body=(
            dsl.LetHidden("h", "f_1", ()),
            dsl.LetHidden("g", "f_2", ("h",)),
            dsl.LetVisible("x1", "A", (("k", dsl.VarRef("g")),)),
        ),
        hidden_defs=(
            ("f_1", HiddenFnBody(arity=0, body=ConstVal(5))),
            ("f_2", HiddenFnBody(arity=1, body=Length(Input(0)))),
        ),
    )
    sigma = TraceValuation(params=(), entries={})
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(2))),
        "inline_trivial_hidden",
    )
    assert not rws


# --- introduce_parameter -------------------------------------------------------


def test_introduce_parameter_with_empty_scope():
    ts = make_ts(
        [("Get", {"k": "a"}, {"v": 1})],
        [("Get", {"k": "b"}, {"v": 2})],
    )
    program, sigma = build_initial(ts)
    ctx = ctx_for(ts)
    pull = by_rule(enumerate_rewrites(program, sigma, "refine", ctx), "pull")[0]
    program, sigma = apply_one(pull, sigma)
    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx), "introduce_parameter"
    )
    assert len(rws) == 1
    prog2, sigma2 = apply_one(rws[0], sigma)
    assert prog2.params == ("br", "i_1")
    assert prog2.body[0].args[0][1] == dsl.VarRef("i_1")
    assert sigma2.lookup("i_1", 1).value == "a" and sigma2.lookup("i_1", 2).value == "b"
    assert check_psi(prog2, sigma2, ts, default_retry_bound(ts))


def test_introduce_parameter_waits_for_unsat_derivation():
    ts = make_ts(
        [("Head", {"h": 1}, {"ok": 1}), ("Put", {"name": "x"}, {})],
        [("Head", {"h": 1}, {"ok": 2}), ("Put", {"name": "y"}, {})],
    )
    program, sigma = build_initial(ts)
    ctx = ctx_for(ts)
    for _ in range(2):
        pull = by_rule(enumerate_rewrites(program, sigma, "refine", ctx), "pull")[0]
        program, sigma = apply_one(pull, sigma)
    assert isinstance(program.body[1].args[0][1], dsl.Select)

    # A bound variable is in scope, so the parameter must wait until
    # deriving the argument from it is recorded as unsolvable.
    assert not by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx), "introduce_parameter"
    )

    elim = by_rule(
        enumerate_rewrites(program, sigma, "synth", ctx), "eliminate_argument"
    )
    assert len(elim) == 1
    result = ctx.cache.solve(list(elim[0].specs[0].examples), "value", ctx.pbe_cfg)
    assert result.status == "unsat"

    rws = by_rule(
        enumerate_rewrites(program, sigma, "refine", ctx), "introduce_parameter"
    )
    assert len(rws) == 1
    prog2, sigma2 = apply_one(rws[0], sigma)
    assert prog2.body[1].args[0][1] == dsl.VarRef("i_1")
    assert check_psi(prog2, sigma2, ts, default_retry_bound(ts))


# --- synthesizing rewrites -----------------------------------------------------


def test_eliminate_branch_condition_retires_spent_selector():
    ts = make_ts(
        [("Check", {"q": 1}, {"s": "go"}), ("Act", {"a": 1}, {"done": 1})],
        [("Check", {"q": 1}, {"s": "no"})],
    )
    program, sigma = build_initial(ts)
    ctx = ctx_for(ts)
    pull = by_rule(enumerate_rewrites(program, sigma, "refine", ctx), "pull")[0]
    program, sigma = apply_one(pull, sigma)

    rws = by_rule(
        enumerate_rewrites(program, sigma, "synth", ctx), "eliminate_branch_condition"
    )
    assert len(rws) == 1
    rw = rws[0]
    assert rw.specs[0].kind == "bool"
    assert [e.output for e in rw.specs[0].examples] == [True, False]

    sigma2 = rw.transform.apply(sigma)
    filled = fill_holes(rw, ctx)
    assert filled.params == ()
    assert sigma2.params == ()
    hidden_let, ite = filled.body[1], filled.body[2]
    check_var = filled.body[0].var
    assert isinstance(hidden_let, dsl.LetHidden) and hidden_let.args == (check_var,)
    assert ite.pred == dsl.ValueCheck(hidden_let.var, True)
    assert check_psi(filled, sigma2, ts, default_retry_bound(ts))


def test_eliminate_branch_condition_offers_nothing_past_the_deadline():
    ts = make_ts(
        [("Check", {"q": 1}, {"s": "go"}), ("Act", {"a": 1}, {"done": 1})],
        [("Check", {"q": 1}, {"s": "no"})],
    )
    program, sigma = build_initial(ts)
    ctx = ctx_for(ts)
    pull = by_rule(enumerate_rewrites(program, sigma, "refine", ctx), "pull")[0]
    program, sigma = apply_one(pull, sigma)
    assert by_rule(enumerate_rewrites(program, sigma, "synth", ctx), "eliminate_branch_condition")
    ctx.deadline = _Deadline(1e-9)
    assert ctx.deadline.expired()
    assert not by_rule(
        enumerate_rewrites(program, sigma, "synth", ctx), "eliminate_branch_condition"
    )


def test_eliminate_branch_condition_needs_scope():
    ts = make_ts([("A", {"x": 1}, {})], [("B", {"y": 1}, {})])
    program, sigma = build_initial(ts)
    assert not by_rule(
        enumerate_rewrites(program, sigma, "synth", ctx_for(ts)),
        "eliminate_branch_condition",
    )


def test_eliminate_argument_derives_value_from_scope():
    ts = make_ts(
        [("Get", {"k": 1}, {"v": "a"}), ("Put", {"n": "a"}, {})],
        [("Get", {"k": 1}, {"v": "b"}), ("Put", {"n": "b"}, {})],
    )
    program, sigma = build_initial(ts)
    ctx = ctx_for(ts)
    for _ in range(2):
        pull = by_rule(enumerate_rewrites(program, sigma, "refine", ctx), "pull")[0]
        program, sigma = apply_one(pull, sigma)

    rws = by_rule(
        enumerate_rewrites(program, sigma, "synth", ctx), "eliminate_argument"
    )
    assert len(rws) == 1
    rw = rws[0]
    assert rw.specs[0].kind == "value"
    assert rw.site.startswith("n at")

    sigma2 = rw.transform.apply(sigma)
    filled = fill_holes(rw, ctx)
    hidden_let = filled.body[1]
    assert isinstance(hidden_let, dsl.LetHidden)
    assert filled.body[2].args[0][1] == dsl.VarRef(hidden_let.var)
    assert sigma2.lookup(hidden_let.var, 1).value == "a"
    assert sigma2.lookup(hidden_let.var, 2).value == "b"
    assert check_psi(filled, sigma2, ts, default_retry_bound(ts))


def test_introduce_retry_rolls_up_polling():
    ts = make_ts(
        [
            ("Poll", {"q": 1}, {"st": "busy"}),
            ("Poll", {"q": 1}, {"st": "busy"}),
            ("Poll", {"q": 1}, {"st": "done"}),
        ],
        [("Poll", {"q": 1}, {"st": "done"})],
    )
    program, sigma = build_initial(ts)
    ctx = ctx_for(ts)
    pull = by_rule(enumerate_rewrites(program, sigma, "refine", ctx), "pull")[0]
    program, sigma = apply_one(pull, sigma)

    rws = by_rule(enumerate_rewrites(program, sigma, "synth", ctx), "introduce_retry")
    assert len(rws) == 1
    rw = rws[0]
    sigma2 = rw.transform.apply(sigma)
    filled = fill_holes(rw, ctx)
    assert len(filled.body) == 1
    loop = filled.body[0]
    assert isinstance(loop, dsl.RetryUntil)
    call = loop.body[0]
    assert call.api == "Poll" and call.args[0][1] == dsl.Const(1)
    assert isinstance(loop.body[-1], dsl.LetHidden)
    assert loop.pred == dsl.ValueCheck(loop.body[-1].var, True)
    cell = sigma2.lookup(call.var, 1)
    assert isinstance(cell, PerIteration) and len(cell.values) == 3
    assert check_psi(filled, sigma2, ts, default_retry_bound(ts))


def test_introduce_foreach_rolls_up_per_item_calls():
    ts = make_ts(
        [
            ("List", {"c": 1}, {"ms": ["a", "b"]}),
            ("Add", {"u": "a"}, {}),
            ("Add", {"u": "b"}, {}),
        ],
        [("List", {"c": 1}, {"ms": ["c"]}), ("Add", {"u": "c"}, {})],
    )
    program, sigma = build_initial(ts)
    ctx = ctx_for(ts)
    pull = by_rule(enumerate_rewrites(program, sigma, "refine", ctx), "pull")[0]
    program, sigma = apply_one(pull, sigma)

    rws = by_rule(enumerate_rewrites(program, sigma, "synth", ctx), "introduce_foreach")
    assert len(rws) == 1
    rw = rws[0]
    sigma2 = rw.transform.apply(sigma)
    filled = fill_holes(rw, ctx)
    source_let, loop = filled.body[1], filled.body[2]
    assert isinstance(source_let, dsl.LetHidden)
    assert isinstance(loop, dsl.Foreach)
    assert loop.source == dsl.VarRef(source_let.var)
    calls = [s for s in loop.body if isinstance(s, dsl.LetVisible)]
    assert len(calls) == 1 and calls[0].api == "Add"
    assert calls[0].args[0][1] == dsl.VarRef(loop.var)
    cell = sigma2.lookup(calls[0].var, 1)
    assert isinstance(cell, PerIteration) and len(cell.values) == 2
    assert check_psi(filled, sigma2, ts, default_retry_bound(ts))


# --- enumeration order ---------------------------------------------------------


def test_candidates_sorted_by_site_then_rule():
    program = dsl.Program(
        params=("br", "unused"),
        body=(
            dsl.Ite(dsl.ValueCheck("br", 1), (), ()),
            dsl.Ite(dsl.ValueCheck("br", 2), (), ()),
        ),
    )
    sigma = TraceValuation(
        params=("br", "unused"),
        entries={
            ("br", 1): Scalar(1), ("br", 2): Scalar(2),
            ("unused", 1): Scalar(0), ("unused", 2): Scalar(0),
        },
    )
    rws = enumerate_rewrites(program, sigma, "refine", ctx_for(dummy_ts(2)))
    order = REFINE_RULES + SYNTH_RULES
    keys = [(rw.path, order.index(rw.rule)) for rw in rws]
    assert keys == sorted(keys)
    assert rws[0].rule == "eliminate_unused_param" and rws[0].site == "unused"
    assert [rw.rule for rw in rws[1:]] == ["eliminate_empty_if", "eliminate_empty_if"]
    assert rws[1].path == (0,) and rws[2].path == (1,)
