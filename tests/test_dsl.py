"""Program AST helpers: reads, binders, renaming, validation, equivalence."""

import pytest

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
    PNot,
    POr,
    PTrue,
    Program,
    Return,
    RetryUntil,
    Ternary,
    ValueCheck,
    VarRef,
    count_reads,
    equiv_mod_renaming,
    free_vars,
    pretty_print,
    rename_reads,
    seq_binders,
    seq_loop_ids,
    seq_reads,
    validate_program,
)
from tracesynth.hidden import Child, HiddenFnBody, Input


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
    reads = seq_reads(seq)
    assert reads.count("x") == 2
    assert "p" in reads and "u" in reads and "z" in reads
    assert seq_loop_ids(seq) == ["loop_1", "loop_2"]
    assert free_vars(seq) == {"p"}
    assert count_reads(seq, "x") == 2
    assert count_reads(seq, "u") == 1


def test_ternary_and_hidden_call_reads():
    e = Ternary(ValueCheck("b", 2), VarRef("t"), HiddenCall("f", ("a", "c")))
    seq = (let("x", arg=e),)
    assert sorted(set(seq_reads(seq))) == ["a", "b", "c", "t"]


def test_rename_reads_leaves_binders_alone():
    seq = (
        let("x", a=VarRef("old")),
        Ite(ValueCheck("old", 1), (let("y", b=VarRef("old")),), ()),
    )
    renamed = rename_reads(seq, "old", "new")
    assert count_reads(renamed, "old") == 0
    assert count_reads(renamed, "new") == 3
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
