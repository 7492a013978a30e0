"""Program AST helpers: reads, binders, renaming, validation, equivalence."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import sites_reference as reference
from tracesynth.dsl import (
    Compare,
    Const,
    DslError,
    Foreach,
    HiddenCall,
    Ite,
    LetHidden,
    LetVisible,
    PAnd,
    PFalse,
    PNot,
    POr,
    PTrue,
    Program,
    Return,
    RetryUntil,
    Select,
    ValueCheck,
    VarRef,
    equiv_mod_renaming,
    expr_reads,
    free_vars,
    map_term,
    own_reads,
    pred_reads,
    pretty_print,
    print_expr,
    rename_reads,
    seq_binders,
    seq_loop_ids,
    validate_program,
    walk,
)
from tracesynth.hidden import Child, HiddenFnBody, Input
from tracesynth.parser import parse_program
from tracesynth.terms import term_evaluator


def let(var, api="svc.Op", **kw):
    return LetVisible(var, api, tuple((k, v) for k, v in kw.items()))


def test_reads_and_binders():
    seq = (
        let("x", a=VarRef("p")),
        Ite(ValueCheck("x", 1), (let("y", b=VarRef("x")),), ()),
        RetryUntil("loop_1", (let("z", c=Const(0)),), ValueCheck("z", True)),
        Foreach("loop_2", "u", VarRef("z"), (let("w", d=VarRef("u")),)),
        Return(),
    )
    assert seq_binders(seq) == ["x", "y", "z", "u", "w"]
    reads = Counter(n for ins in walk(seq) for n in own_reads(ins))
    assert reads == Counter(x=2, p=1, u=1, z=2)
    assert seq_loop_ids(seq) == ["loop_1", "loop_2"]
    assert free_vars(seq) == {"p"}


def test_ternary_and_hidden_call_reads():
    e = Select(((ValueCheck("b", 2), VarRef("t")),), HiddenCall("f", ("a", "c")))
    assert expr_reads(e) == ["b", "t", "a", "c"]


NAMES = st.sampled_from(("a", "b", "br"))
pred_leaves = st.one_of(
    st.builds(ValueCheck, NAMES, st.integers(0, 2)),
    st.builds(Compare, NAMES, st.just(">="), NAMES),
    st.builds(PTrue),
    st.builds(PFalse),
)
preds = st.recursive(
    pred_leaves,
    lambda p: st.one_of(st.builds(PAnd, p, p), st.builds(POr, p, p), st.builds(PNot, p)),
    max_leaves=6,
)
expr_leaves = st.one_of(
    st.builds(Const, st.integers(0, 2)),
    st.builds(VarRef, NAMES),
    st.builds(HiddenCall, st.just("f_1"), st.lists(NAMES, max_size=2).map(tuple)),
)
exprs = st.recursive(
    expr_leaves,
    lambda e: st.builds(Select, st.lists(st.tuples(preds, e), min_size=1, max_size=3).map(tuple), e),
    max_leaves=8,
)


@settings(max_examples=300, deadline=None)
@given(exprs, preds)
def test_term_reads_match_the_recursive_reference(e, p):
    assert expr_reads(e) == reference.expr_reads(e)
    assert pred_reads(p) == reference.pred_reads(p)
    # A term of the wrong kind fails with the same message.
    ite_of_pred, not_of_expr = Select(((ValueCheck("a", 1), VarRef("b")),), p), PNot(e)
    for read, ref, bad in (
        (expr_reads, reference.expr_reads, ite_of_pred),
        (pred_reads, reference.pred_reads, not_of_expr),
    ):
        with pytest.raises(DslError) as got:
            read(bad)
        with pytest.raises(DslError) as want:
            ref(bad)
        assert str(got.value) == str(want.value)


def test_a_3000_case_conditional_expression_is_one_flat_node():
    """Pull merges one call per trace into one call whose argument has a
    case per trace. As one flat Select it parses, prints, maps,
    evaluates, validates and compares at the default recursion limit;
    the nested form went one frame down per case, and its parser raised
    RecursionError on this text."""
    n = 3000
    chain = "".join(f"(br == {i}) ? {i} : " for i in range(n)) + "-1"
    text = f"lambda br.\n  let x = svc.Op(k={chain})\n"
    program = parse_program(text)
    assert pretty_print(program) == text
    validate_program(program)
    e = program.body[0].args[0][1]
    assert len(e.cases) == n and e.default == Const(-1)
    # Built in one go, and built case by case the way pull nests them.
    flat = Select(tuple((ValueCheck("br", i), Const(i)) for i in range(n)), Const(-1))
    nested = Const(-1)
    for i in reversed(range(n)):
        nested = Select(((ValueCheck("br", i), Const(i)),), nested)
    for other in (flat, nested):
        assert e == other and hash(e) == hash(other) and e.n_br == other.n_br == n
    renamed = map_term(e, lambda t: ValueCheck("q", t.const) if isinstance(t, ValueCheck) else t)
    assert expr_reads(renamed) == ["q"] * n
    assert map_term(e, lambda t: t) is e
    for q, want in ((0, 0), (n - 1, n - 1), (n, -1)):
        ev = term_evaluator({"q": q}.__getitem__, None, {}, KeyError)
        assert ev(renamed) == want


@settings(max_examples=300, deadline=None)
@given(exprs)
def test_conditional_expressions_print_and_parse_back(e):
    """Case expressions that are themselves conditional, and defaults
    folded into their Select, read back as the same node."""
    text = f"lambda a, b, br.\n  let x = svc.Op(k={print_expr(e)})\nwhere\n  f_1 := (a0) -> a0\n"
    program = parse_program(text)
    assert program.body[0].args[0][1] == e
    assert pretty_print(program) == text


def test_rename_reads_leaves_binders_alone():
    seq = (
        let("x", a=VarRef("old")),
        Ite(ValueCheck("old", 1), (let("y", b=VarRef("old")),), ()),
    )
    renamed = rename_reads(seq, "old", "new")
    assert reference.seq_reads(renamed).count("old") == 0
    assert reference.seq_reads(renamed).count("new") == 3
    assert seq_binders(renamed) == ["x", "y"]


def make_program(body, params=("p",), hidden=(), holes=()):
    return Program(params=tuple(params), body=body, hidden_defs=tuple(hidden), holes=tuple(holes))


def test_validate_accepts_well_formed():
    f = HiddenFnBody(1, Child(Input(0), "k"))
    p = make_program(
        (let("x", a=VarRef("p")), LetHidden("h", "f_1", ("x",)), Return()),
        hidden=(("f_1", f),),
    )
    validate_program(p)


def test_validate_rejects_unbound_read():
    p = make_program((let("x", a=VarRef("nope")),))
    with pytest.raises(DslError):
        validate_program(p)


def test_validate_rejects_read_before_binding():
    p = make_program((let("x", a=VarRef("y")), let("y", b=Const(1))))
    with pytest.raises(DslError):
        validate_program(p)


def test_validate_rejects_duplicate_binders():
    p = make_program((let("x", a=Const(1)), let("x", b=Const(2))))
    with pytest.raises(DslError):
        validate_program(p)


def test_validate_rejects_duplicate_loop_ids():
    p = make_program(
        (
            RetryUntil("loop_1", (let("x", a=Const(1)),), PTrue()),
            RetryUntil("loop_1", (let("y", a=Const(1)),), PTrue()),
        )
    )
    with pytest.raises(DslError):
        validate_program(p)


def test_validate_rejects_undefined_hidden_fn():
    p = make_program((LetHidden("h", "f_9", ("p",)),))
    with pytest.raises(DslError):
        validate_program(p)


def test_branch_binders_are_visible_after_the_if():
    # Each run takes a single path, so a read after the conditional is
    # statically fine if some branch bound the name; rebinding the same
    # name in both branches is rejected (binders are globally unique).
    p = make_program(
        (
            Ite(ValueCheck("p", 1), (let("x", a=Const(1)),), (let("z", a=Const(2)),)),
            let("y", b=VarRef("x")),
        )
    )
    validate_program(p)
    bad = make_program(
        (
            Ite(ValueCheck("p", 1), (let("x", a=Const(1)),), (let("x", a=Const(2)),)),
        )
    )
    with pytest.raises(DslError):
        validate_program(bad)


@pytest.mark.parametrize("as_hole", [False, True])
def test_validate_rejects_hidden_name_of_a_visible_api(as_hole):
    """The script of the f_1 program reads `f_1(k=a)` as a call of the
    helper f_1, so it would not parse back."""

    def program(fn):
        body = (let("x", api="f_1", k=VarRef("a")), LetHidden("y", fn, ("x",)))
        if as_hole:
            return make_program(body, params=("a",), holes=(fn,))
        return make_program(body, params=("a",), hidden=((fn, HiddenFnBody(1, Input(0))),))

    with pytest.raises(DslError, match=r"named like a visible API: \['f_1'\]"):
        validate_program(program("f_1"))
    validate_program(program("f_2"))


def test_equiv_mod_renaming_on_variable_names():
    p1 = make_program((let("x", a=VarRef("p")), let("y", b=VarRef("x"))))
    p2 = Program(
        params=("q",),
        body=(let("m", a=VarRef("q")), let("n", b=VarRef("m"))),
        hidden_defs=(),
        holes=(),
    )
    assert equiv_mod_renaming(p1, p2)


def test_equiv_mod_renaming_requires_consistent_mapping():
    p1 = make_program((let("x", a=VarRef("p"), b=VarRef("p")),))
    p2 = Program(
        params=("q", "r"),
        body=(let("x", a=VarRef("q"), b=VarRef("r")),),
        hidden_defs=(),
        holes=(),
    )
    assert not equiv_mod_renaming(p1, p2)


def test_equiv_mod_renaming_covers_hidden_and_loops():
    f = HiddenFnBody(1, Child(Input(0), "k"))
    p1 = make_program(
        (
            LetHidden("h", "f_1", ("p",)),
            Foreach("loop_1", "u", VarRef("h"), (let("x", a=VarRef("u")),)),
        ),
        hidden=(("f_1", f),),
    )
    p2 = make_program(
        (
            LetHidden("g", "f_7", ("p",)),
            Foreach("loop_9", "v", VarRef("g"), (let("z", a=VarRef("v")),)),
        ),
        hidden=(("f_7", f),),
    )
    assert equiv_mod_renaming(p1, p2)


def test_equiv_mod_renaming_distinguishes_constants_and_structure():
    p1 = make_program((let("x", a=Const(1)),))
    p2 = make_program((let("x", a=Const(2)),))
    p3 = make_program((let("x", a=Const(1)), Return()))
    assert not equiv_mod_renaming(p1, p2)
    assert not equiv_mod_renaming(p1, p3)


def test_equiv_mod_renaming_distinguishes_hidden_bodies():
    p1 = make_program(
        (LetHidden("h", "f_1", ("p",)),),
        hidden=(("f_1", HiddenFnBody(1, Child(Input(0), "k"))),),
    )
    p2 = make_program(
        (LetHidden("h", "f_1", ("p",)),),
        hidden=(("f_1", HiddenFnBody(1, Child(Input(0), "other"))),),
    )
    assert not equiv_mod_renaming(p1, p2)


def test_pretty_print_shape():
    p = make_program(
        (
            let("x", a=VarRef("p"), b=Const(False)),
            Ite(
                PAnd(ValueCheck("x", 1), PNot(Compare("x", "<", "p"))),
                (Return(),),
                (),
            ),
        )
    )
    text = pretty_print(p)
    assert text.startswith("lambda p.")
    assert "svc.Op(a=p, b=false)" in text
    assert "if " in text and "return" in text


def test_program_helpers():
    f = HiddenFnBody(1, Input(0))
    p = make_program((LetHidden("h", "f_1", ("p",)),), hidden=(("f_1", f),), holes=("f_2",))
    assert p.hidden_map() == {"f_1": f}
    assert not p.is_closed()
    assert make_program(()).is_closed()


def test_const_and_valuecheck_equality_is_strict_typed():
    assert Const(True) != Const(1)
    assert Const(1) != Const(1.0)
    assert Const({"a": 1}) == Const({"a": 1})
    assert hash(Const({"a": 1})) == hash(Const({"a": 1}))
    assert ValueCheck("v", True) != ValueCheck("v", 1)
    assert ValueCheck("v", 2) == ValueCheck("v", 2)
    assert len({Const(True), Const(1), Const(1)}) == 2
