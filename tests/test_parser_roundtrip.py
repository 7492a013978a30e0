"""Program text round-trips: parse(pretty_print(p)) == p."""

import pathlib

import pytest

from tracesynth.dsl import (
    Compare,
    Const,
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
    Ternary,
    ValueCheck,
    VarRef,
    pretty_print,
)
from tracesynth.hidden import (
    Add,
    Child,
    Concat,
    Descendants,
    Eq,
    HiddenFnBody,
    Index,
    Input,
    Not,
)
from tracesynth.parser import ParseError, parse_program

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"


def let(var, api="svc.Op", **kw):
    return LetVisible(var, api, tuple((k, v) for k, v in kw.items()))


PRED_FN = HiddenFnBody(2, Not(Eq(Index(Descendants(Input(1), "Name"), 0), "stopped")))
VALUE_FN = HiddenFnBody(1, Concat("bk-", Child(Input(0), "table")))
ADD_FN = HiddenFnBody(1, Add(1, Input(0)))

CASES = [
    Program(params=(), body=(), hidden_defs=(), holes=()),
    Program(params=("p",), body=(let("x", a=VarRef("p")), Return()), hidden_defs=(), holes=()),
    Program(
        params=("p", "q"),
        body=(
            let("x", a=Const({"k": [1, None, True, "s"]}), b=Const(-3)),
            Ite(
                PAnd(ValueCheck("x", 2), POr(PNot(PTrue()), PFalse())),
                (let("y", c=VarRef("x")),),
                (let("z", c=Const("e")),),
            ),
        ),
        hidden_defs=(),
        holes=(),
    ),
    Program(
        params=("p", "q"),
        body=(
            let("x", a=Ternary(Compare("p", ">=", "q"), VarRef("p"), Const(0))),
            Ite(Compare("x", "<", "q"), (Return(),), ()),
        ),
        hidden_defs=(),
        holes=(),
    ),
    Program(
        params=("p",),
        body=(
            LetHidden("v", "f_2", ("p",)),
            let("x", name=VarRef("v")),
            RetryUntil(
                "loop_1",
                (let("d", arg=VarRef("p")), LetHidden("s", "f_1", ("p", "d"))),
                ValueCheck("s", True),
            ),
            Foreach("loop_2", "u", VarRef("d"), (let("g", user=VarRef("u")),)),
        ),
        hidden_defs=(("f_1", PRED_FN), ("f_2", VALUE_FN)),
        holes=(),
    ),
    Program(
        params=("p",),
        body=(LetHidden("v", "f_3", ("p",)), let("x", n=VarRef("v"))),
        hidden_defs=(("f_3", ADD_FN),),
        holes=(),
    ),
    Program(
        params=("p",),
        body=(LetHidden("b", "f_1", ("p",)), Ite(ValueCheck("b", True), (Return(),), ())),
        hidden_defs=(),
        holes=("f_1",),
    ),
    Program(
        params=("p", "q", "r"),
        body=(
            Ite(
                POr(ValueCheck("p", 3), POr(ValueCheck("q", 4), PNot(ValueCheck("r", 5)))),
                (Return(),),
                (),
            ),
        ),
        hidden_defs=(),
        holes=(),
    ),
    Program(
        params=("p", "q", "r"),
        body=(
            Ite(
                PAnd(ValueCheck("p", 3), PAnd(ValueCheck("q", 4), POr(PTrue(), PFalse()))),
                (Return(),),
                (),
            ),
        ),
        hidden_defs=(),
        holes=(),
    ),
]


@pytest.mark.parametrize("program", CASES, ids=lambda p: f"{len(p.body)}stmts-{len(p.holes)}holes")
def test_round_trip(program):
    text = pretty_print(program)
    assert parse_program(text) == program


def test_frozen_goldens_round_trip():
    goldens = sorted(BENCH_DIR.glob("*/golden.txt"))
    assert len(goldens) >= 10
    for path in goldens:
        text = path.read_text()
        program = parse_program(text)
        assert pretty_print(program) == text, path.name


def test_parse_rejects_garbage():
    with pytest.raises(ParseError):
        parse_program("not a program")
    with pytest.raises(ParseError):
        parse_program("lambda p. let x = ")
    with pytest.raises(ParseError):
        parse_program("lambda p.\n  let x = svc.Op(a=p) trailing")


def test_parse_rejects_unbound_variable():
    with pytest.raises(Exception):
        parse_program("lambda p.\n  let x = svc.Op(a=nope)\n")


def test_parse_rejects_bad_where_line():
    text = "lambda p.\n  let v = f_1(p)\nwhere\n  f_1 53 nonsense\n"
    with pytest.raises(ParseError):
        parse_program(text)


def test_hidden_vs_visible_niladic_resolution():
    text = (
        "LAMBDA f_9. lambda p.\n"
        "  let v = f_9(p)\n"
        "  let x = svc.Op(a=v)\n"
    )
    program = parse_program(text)
    assert program.holes == ("f_9",)
    assert isinstance(program.body[0], LetHidden)
    assert isinstance(program.body[1], LetVisible)
