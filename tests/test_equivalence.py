"""dsl.equiv_mod_renaming and dsl.pretty_print against the recursive
matcher and printer they replaced (kept in tests/sites_reference.py):
the same verdicts and the same text, with no limit on nesting depth."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sites_reference as reference
from randprog import generate_case
from tracesynth import dsl
from tracesynth.costs import make_cost_fn
from tracesynth.hidden import Child, HiddenFnBody, Input
from tracesynth.parser import parse_program
from tracesynth.search import SearchConfig, run_search
from tracesynth.traces import parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def search(ts):
    return run_search(ts, SearchConfig(cost_fn=make_cost_fn("syn"))).program


def rename(program, name):
    """program with each name replaced by name(kind, old), kind being
    "var", "fn" or "loop"."""

    def v(n):
        return name("var", n)

    def leaf(t):
        if isinstance(t, dsl.VarRef):
            return dsl.VarRef(v(t.name))
        if isinstance(t, dsl.ValueCheck):
            return dsl.ValueCheck(v(t.var), t.const)
        if isinstance(t, dsl.HiddenCall):
            return dsl.HiddenCall(name("fn", t.fn_name), tuple(map(v, t.args)))
        if isinstance(t, dsl.Compare):
            return dsl.Compare(v(t.left), t.op, v(t.right))
        return t

    def instr(ins, _):
        ins = dsl.map_terms(ins, leaf)
        if isinstance(ins, dsl.LetVisible):
            return dsl.LetVisible(v(ins.var), ins.api, ins.args)
        if isinstance(ins, dsl.LetHidden):
            return dsl.LetHidden(v(ins.var), ins.fn, ins.args)
        if isinstance(ins, dsl.RetryUntil):
            return dsl.RetryUntil(name("loop", ins.loop_id), ins.body, ins.pred)
        if isinstance(ins, dsl.Foreach):
            return dsl.Foreach(name("loop", ins.loop_id), v(ins.var), ins.source, ins.body)
        return ins

    return dsl.Program(
        params=tuple(map(v, program.params)),
        body=dsl.map_instrs(program.body, instr),
        hidden_defs=tuple((name("fn", n), f) for n, f in program.hidden_defs),
        holes=tuple(name("fn", n) for n in program.holes),
    )


def permuted(program, rnd):
    """program renamed by a random permutation of its names of each kind."""
    body = program.body
    kinds = {
        "var": set(program.params) | set(dsl.seq_binders(body)) | set(reference.seq_reads(body)),
        "fn": {n for n, _ in program.hidden_defs} | set(program.holes) | set(dsl.called_fns(body)),
        "loop": set(dsl.seq_loop_ids(body)),
    }
    maps = {}
    for kind, names in kinds.items():
        old = sorted(names)
        new = old[:]
        rnd.shuffle(new)
        maps[kind] = dict(zip(old, new))
    return rename(program, lambda kind, n: maps[kind][n])


def map_first_leaf(program, pick):
    """program with its first term leaf t, in map_instrs order, for
    which pick(t) is not None replaced by pick(t)."""
    done = []

    def leaf(t):
        new = None if done else pick(t)
        if new is None:
            return t
        done.append(t)
        return new

    body = dsl.map_instrs(program.body, lambda ins, _: dsl.map_terms(ins, leaf))
    return dsl.Program(program.params, body, program.hidden_defs, program.holes)


def map_first_instr(program, pick):
    """program with its first instruction ins, in map_instrs order, for
    which pick(ins) is not None replaced by pick(ins)."""
    done = []

    def instr(ins, _):
        new = None if done else pick(ins)
        if new is None:
            return ins
        done.append(ins)
        return new

    body = dsl.map_instrs(program.body, instr)
    return dsl.Program(program.params, body, program.hidden_defs, program.holes)


def moved_to_else(ins):
    if isinstance(ins, dsl.Ite) and ins.then:
        return dsl.Ite(ins.pred, ins.then[:-1], ins.then[-1:] + ins.els)
    return None


def bound_apart(cls):
    """pick for map_first_instr: a cls instruction binding a fresh name,
    its readers left alone."""

    def pick(ins):
        if not isinstance(ins, cls):
            return None
        if isinstance(ins, dsl.LetVisible):
            return dsl.LetVisible("apart", ins.api, ins.args)
        if isinstance(ins, dsl.LetHidden):
            return dsl.LetHidden("apart", ins.fn, ins.args)
        return dsl.Foreach(ins.loop_id, "apart", ins.source, ins.body)

    return pick


OTHER_FN = HiddenFnBody(1, Child(Input(0), "mutated"))


def mutant_pairs(program):
    """(program, a single change of it): a constant, one read, a binder,
    an instruction moved to the other branch, a hidden body, the order
    of two hidden definitions (one is added when there are fewer), one
    more hole."""

    def with_defs(defs):
        return dsl.Program(program.params, program.body, defs, program.holes)

    const = dsl.Const(["mutated"])
    yield program, map_first_leaf(program, lambda t: const if isinstance(t, dsl.Const) else None)
    first = (program.params + tuple(dsl.seq_binders(program.body)) or ("",))[0]
    swap = dsl.VarRef(first)
    yield program, map_first_leaf(
        program, lambda t: swap if isinstance(t, dsl.VarRef) and t.name != first else None
    )
    for cls in (dsl.LetVisible, dsl.LetHidden, dsl.Foreach):
        yield program, map_first_instr(program, bound_apart(cls))
    yield program, map_first_instr(program, moved_to_else)
    defs = program.hidden_defs
    if defs:
        yield program, with_defs(((defs[0][0], OTHER_FN),) + defs[1:])
    base = program if len(defs) > 1 else with_defs(defs + (("f_extra", OTHER_FN),))
    defs = base.hidden_defs
    yield base, dsl.Program(base.params, base.body, defs[1::-1] + defs[2:], base.holes)
    yield program, dsl.Program(
        program.params, program.body, program.hidden_defs, program.holes + ("f_hole",)
    )


def assert_agree(a, b):
    want = reference.equiv_mod_renaming(a, b)
    assert dsl.equiv_mod_renaming(a, b) == want
    assert dsl.equiv_mod_renaming(b, a) == want


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**9), st.integers(0, 10**9), st.randoms(use_true_random=False))
def test_equivalence_matches_the_recursive_matcher(seed_a, seed_b, rnd):
    programs = []
    for seed in (seed_a, seed_b):
        program, _, ts = generate_case(random.Random(seed))
        programs += [program, search(ts)]
    for a in programs:
        for b in programs:
            assert_agree(a, b)
        copy = permuted(a, rnd)
        assert dsl.equiv_mod_renaming(a, copy)
        assert reference.equiv_mod_renaming(a, copy)
        for base, mutant in mutant_pairs(a):
            assert_agree(base, mutant)
            assert_agree(permuted(base, rnd), mutant)
        assert dsl.pretty_print(a) == reference.pretty_print(a)


FIXTURES = sorted(d for d in BENCH.iterdir() if (d / "golden.txt").is_file())


def test_equivalence_matches_the_recursive_matcher_on_the_fixtures():
    programs = []
    for d in FIXTURES:
        golden = parse_program((d / "golden.txt").read_text(encoding="utf-8"))
        result = search(parse_traces((d / "traces.json").read_text(encoding="utf-8")))
        assert dsl.equiv_mod_renaming(result, golden), d.name
        programs += [golden, result]
    for a in programs:
        for b in programs:
            assert_agree(a, b)
        copy = rename(a, lambda kind, n: f"{kind}_{n}")
        assert dsl.equiv_mod_renaming(a, copy)
        assert reference.equiv_mod_renaming(a, copy)
        for base, mutant in mutant_pairs(a):
            assert_agree(base, mutant)
        assert dsl.pretty_print(a) == reference.pretty_print(a)


def test_unreferenced_definitions_pair_up_in_declaration_order():
    f, g = HiddenFnBody(1, Input(0)), OTHER_FN
    body = (dsl.LetHidden("h", "f_1", ("p",)),)
    p1 = dsl.Program(("p",), body, (("f_1", f), ("f_2", f), ("f_3", g)))
    called_moved = dsl.Program(("p",), body, (("f_2", f), ("f_1", f), ("f_3", g)))
    unused_swapped = dsl.Program(("p",), body, (("f_1", f), ("f_3", g), ("f_2", f)))
    hole = dsl.Program(("p",), body, (("f_1", f), ("f_2", f)), ("f_3",))
    called_hole = dsl.Program(("p",), body, (("f_2", f), ("f_3", g)), ("f_1",))
    for other, want in [
        (called_moved, True),
        (unused_swapped, False),
        (hole, False),
        (called_hole, False),
    ]:
        assert dsl.equiv_mod_renaming(p1, other) is want
        assert_agree(p1, other)


def deep_chain(depth, deepest):
    """The shape build_initial gives depth + 1 one-call traces: depth
    conditionals on br, nested in the else branches."""
    body = (dsl.LetVisible("x0", "Api", (("k", dsl.Const(deepest)),)),)
    for n in range(1, depth + 1):
        let = dsl.LetVisible(f"x{n}", "Api", (("k", dsl.VarRef("br")),))
        body = (dsl.Ite(dsl.ValueCheck("br", n), (let,), body),)
    return dsl.Program(params=("br",), body=body)


def test_equivalence_and_printing_survive_a_2000_deep_chain():
    p = deep_chain(2000, "u")
    with pytest.raises(RecursionError):
        reference.equiv_mod_renaming(p, p)
    with pytest.raises(RecursionError):
        reference.pretty_print(p)
    assert dsl.equiv_mod_renaming(p, p)
    assert dsl.equiv_mod_renaming(p, rename(p, lambda kind, n: f"{kind}_{n}"))
    assert not dsl.equiv_mod_renaming(p, deep_chain(2000, "v"))
    text = dsl.pretty_print(p)
    lines = text.splitlines()
    assert len(lines) == 1 + 2000 * 3 + 1 + 2000
    assert lines[1 + 3 * 2000] == "  " * 2001 + 'let x0 = Api(k="u")'
    shallow = deep_chain(100, "u")
    assert dsl.pretty_print(shallow) == reference.pretty_print(shallow)
