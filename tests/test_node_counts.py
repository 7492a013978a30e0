"""The subtree counts kept on instruction nodes, the stack-based walks of
validation and the cost functions, and the rebuilds over dsl.map_instrs
(read renaming, const-inlining), against the recursive references in
tests/sites_reference.py: on programs of every shape, including
ill-formed ones, parsed ones, and every candidate the search scores on
the checked-in fixtures."""

from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sites_reference as reference
from tracesynth import dsl, rewrites, search
from tracesynth.costs import CostWeights, _visible_let_vars, cost_syn, cost_traces, make_cost_fn
from tracesynth.dsl import check_calls, free_vars, seq_binders, seq_loop_ids
from tracesynth.jsonvals import ABSENT
from tracesynth.parser import parse_program
from tracesynth.search import SearchConfig, run_search
from tracesynth.traces import PerIteration, TraceValuation, ValuationError, parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
FIXTURES = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())


def reference_cost_syn(program, w=CostWeights()):
    return (
        w.statement * reference.count_statements(program.body)
        + w.parameter * len(program.params)
        + w.br_usage * reference.count_reads(program.body, "br")
    )


def reference_cost_traces(program, sigma, ts, w=CostWeights()):
    """cost_traces over the recursive walks, looking up every visible
    binder on every trace."""
    let_vars = list(reference._visible_let_vars(program.body))
    reproduced = 0
    for v in let_vars:
        for i in ts.indices():
            try:
                cell = sigma.lookup(v, i)
            except ValuationError:
                continue
            if isinstance(cell, PerIteration):
                reproduced += sum(1 for x in cell.values if x is not ABSENT)
            else:
                reproduced += cell.value is not ABSENT
    cost = (
        sum(len(t) for t in ts.traces)
        + w.traces_statement * (len(let_vars) - reproduced)
        + w.traces_br_usage * reference.count_reads(program.body, "br")
    )
    return cost + (w.traces_br_param if "br" in program.params else 0)


def call_error(check, seq, known):
    try:
        check(seq, known)
    except dsl.DslError as exc:
        return str(exc)
    return None


def assert_walks_match_reference(body):
    """Every nested sequence and every suffix of one (whose free
    variables include the binders before it) walks as the recursive
    reference does, and every instruction's node counts equal the
    reference counters over its subtree."""
    for _, seq, _ in reference.iter_seqs(body):
        for start in range(len(seq) + 1):
            part = seq[start:]
            assert seq_binders(part) == reference.seq_binders(part)
            assert seq_loop_ids(part) == reference.seq_loop_ids(part)
            assert free_vars(part) == reference.free_vars(part)
            assert _visible_let_vars(part) == list(reference._visible_let_vars(part))
            assert dsl.Program(body=part).n_statements == reference.count_statements(part)
            assert dsl.Program(body=part).n_br == reference.count_reads(part, "br")
        fns = {ins.fn for _, ins, _ in reference.iter_instr_sites(seq) if isinstance(ins, dsl.LetHidden)}
        fns.update(e.fn_name for e in hidden_calls(seq))
        in_sources = {e.fn_name for e in hidden_calls(seq, sources=True)}
        fns |= in_sources
        for known in [fns, set()] + [fns - {f} for f in sorted(fns)]:
            if in_sources <= known:
                assert call_error(check_calls, seq, known) == call_error(reference.check_calls, seq, known)
            else:
                # The reference never looked into a loop's source.
                assert call_error(check_calls, seq, known) is not None
    assert_counts_match_reference(body)


def hidden_calls(seq, sources=False):
    """Every HiddenCall in the visible calls' arguments of seq, or with
    sources, in its loops' sources."""
    out = []
    for _, ins, _ in reference.iter_instr_sites(seq):
        terms = []
        if isinstance(ins, dsl.LetVisible) and not sources:
            terms = [e for _, e in ins.args]
        elif isinstance(ins, dsl.Foreach) and sources:
            terms = [ins.source]
        while terms:
            t = terms.pop()
            if isinstance(t, dsl.HiddenCall):
                out.append(t)
            elif isinstance(t, dsl.Select):
                terms += [e for _, e in t.cases] + [t.default]
    return out


# --- arbitrary programs over a small name pool -------------------------------------
#
# Names are drawn from a pool of three plus br, so that binders repeat,
# branches rebind what the other branch binds, and reads come before,
# inside and after the bindings: the cases where free_vars' undo log
# must agree with the reference's copied snapshots.

NAMES = st.sampled_from(("a", "b", "c", "br"))
FNS = st.sampled_from(("f", "g"))

leaf_preds = st.one_of(
    st.builds(dsl.ValueCheck, NAMES, st.integers(0, 2)),
    st.builds(dsl.Compare, NAMES, st.just(">="), NAMES),
    st.just(dsl.PTrue()),
)
preds = st.recursive(
    leaf_preds,
    lambda p: st.one_of(st.builds(dsl.PAnd, p, p), st.builds(dsl.POr, p, p), st.builds(dsl.PNot, p)),
    max_leaves=4,
)
leaf_exprs = st.one_of(
    st.builds(dsl.VarRef, NAMES),
    st.builds(dsl.Const, st.integers(0, 2)),
    st.builds(dsl.HiddenCall, FNS, st.lists(NAMES, max_size=2).map(tuple)),
)
exprs = st.recursive(
    leaf_exprs,
    lambda e: st.builds(dsl.Select, st.lists(st.tuples(preds, e), min_size=1, max_size=3).map(tuple), e),
    max_leaves=4,
)
args = st.lists(st.tuples(st.sampled_from(("k", "m")), exprs), max_size=2).map(tuple)
leaf_instrs = st.one_of(
    st.builds(dsl.LetVisible, NAMES, st.just("Api"), args),
    st.builds(dsl.LetHidden, NAMES, FNS, st.lists(NAMES, max_size=2).map(tuple)),
    st.just(dsl.Return()),
)


def _nested(seq):
    return st.one_of(
        st.builds(dsl.Ite, preds, seq, seq),
        st.builds(dsl.RetryUntil, st.sampled_from(("l1", "l2")), seq, preds),
        st.builds(dsl.Foreach, st.sampled_from(("l1", "l2")), NAMES, exprs, seq),
    )


seqs = st.recursive(
    st.lists(leaf_instrs, max_size=3).map(tuple),
    lambda seq: st.lists(st.one_of(leaf_instrs, _nested(seq)), max_size=3).map(tuple),
    max_leaves=12,
)


def inline_outcome(inline, body, var, value):
    try:
        return inline(body, var, value)
    except rewrites._InlineReject:
        return "rejected"


def assert_counts_match_reference(body):
    for _, ins, _ in reference.iter_instr_sites(body):
        assert ins.n_statements == reference.count_statements((ins,)), ins
        assert ins.n_br == reference.count_reads((ins,), "br"), ins


def assert_rebuilds_match_reference(body):
    """Renaming every name of the pool, to a name of the pool or a new
    one, and inlining every constant a guard may test for every name,
    give the reference's program and counts, and reject where it
    rejects. map_instrs shows each instruction once, with whether a loop
    encloses it, and gives back the same body when nothing changed."""
    seen = []
    assert dsl.map_instrs(body, lambda ins, in_loop: seen.append((ins, in_loop)) or ins) is body
    assert Counter(seen) == Counter((ins, loop) for _, ins, loop in reference.iter_instr_sites(body))
    for old in ("a", "b", "br"):
        for new in ("a", "c", "q"):
            renamed = dsl.rename_reads(body, old, new)
            assert renamed == reference.rename_reads(body, old, new)
            assert_counts_match_reference(renamed)
    for var in ("a", "br"):
        for value in (0, 2, "x"):
            got = inline_outcome(rewrites._inline_const, body, var, value)
            assert got == inline_outcome(reference._inline_const_seq, body, var, value)
            if got != "rejected":
                assert_counts_match_reference(got)


@settings(max_examples=300, deadline=None)
@given(seqs)
def test_walks_and_counts_match_reference_on_arbitrary_programs(body):
    assert_walks_match_reference(body)
    assert_rebuilds_match_reference(body)
    program = dsl.Program(params=("br",), body=body)
    assert cost_syn(program, CostWeights()) == reference_cost_syn(program)


def init_fields(node):
    return [f.name for f in fields(node) if f.init]


def assert_replace_recounts(ins, donor):
    """Each field of ins replaced, through dataclasses.replace, by
    donor's: the node has the counts of a fresh construction and of the
    recursive reference."""
    for name in init_fields(ins):
        new = replace(ins, **{name: getattr(donor, name)})
        fresh = type(ins)(*(getattr(new, f) for f in init_fields(ins)))
        assert new == fresh
        counts = (new.n_statements, new.n_br)
        assert counts == (fresh.n_statements, fresh.n_br)
        assert counts == (reference.count_statements((new,)), reference.count_reads((new,), "br"))


@settings(max_examples=200, deadline=None)
@given(seqs, seqs)
def test_replace_on_an_instruction_node_recounts_it(body, other):
    """pull, push and the eager rules rebuild a node with
    dataclasses.replace, which goes through the generated constructor."""
    donors = [ins for _, ins, _ in reference.iter_instr_sites(other)]
    for _, ins, _ in reference.iter_instr_sites(body):
        for donor in donors:
            if type(donor) is type(ins):
                assert_replace_recounts(ins, donor)


def test_replace_recounts_each_kind_of_instruction_node():
    br_guard = dsl.PNot(dsl.ValueCheck("br", 1))
    br_arg = dsl.Select(((br_guard, dsl.VarRef("br")),), dsl.Const(0))
    call = dsl.LetVisible("x1", "Api", (("k", br_arg),))
    hidden = dsl.LetHidden("h1", "f", ("br", "x1", "br"))
    nodes = [
        (call, dsl.LetVisible("x2", "Other", ())),
        (hidden, dsl.LetHidden("h2", "g", ())),
        (dsl.Ite(br_guard, (call, hidden), (dsl.Return(),)), dsl.Ite(dsl.PTrue(), (), (call,))),
        (dsl.RetryUntil("l1", (call,), br_guard), dsl.RetryUntil("l2", (), dsl.PTrue())),
        (dsl.Foreach("l1", "u", br_arg, (call, hidden)), dsl.Foreach("l2", "v", dsl.VarRef("a"), ())),
    ]
    assert {type(ins) for ins, _ in nodes} == {
        dsl.LetVisible, dsl.LetHidden, dsl.Ite, dsl.RetryUntil, dsl.Foreach
    }
    for ins, donor in nodes:
        assert_replace_recounts(ins, donor)
        assert_replace_recounts(donor, ins)


def test_a_hidden_call_in_a_loop_source_must_be_defined():
    source = dsl.Select(((dsl.PTrue(), dsl.VarRef("a")),), dsl.HiddenCall("f_9", ("a",)))
    loop = dsl.Foreach("loop_1", "u", source, (dsl.Return(),))
    with pytest.raises(dsl.DslError, match="f_9"):
        check_calls((loop,), {"f_1"})
    check_calls((loop,), {"f_9"})
    assert reference.check_calls((loop,), set()) is None


def test_rebuilds_survive_a_2000_deep_conditional_chain():
    """The shape build_initial gives 2,001 one-call traces: 2,000
    conditionals on br, each holding one call, nested in the else
    branches. Renaming, const-inlining and introduce_parameter's
    replacement rebuild it without recursing; the recursive renaming
    raised RecursionError."""
    arg = dsl.Select(((dsl.ValueCheck("br", 0), dsl.Const("u")),), dsl.Const("v"))
    body = (dsl.LetVisible("x0", "Api", (("k", arg),)),)
    for n in range(1, 2001):
        let = dsl.LetVisible(f"x{n}", "Api", (("k", dsl.VarRef("br")),))
        body = (dsl.Ite(dsl.ValueCheck("br", n), (let,), body),)
    with pytest.raises(RecursionError):
        reference.rename_reads(body, "br", "q")

    renamed = dsl.rename_reads(body, "br", "q")
    assert sum(ins.n_br for ins in renamed) == 0
    # Read counts from own_reads over walk: the recursive reference
    # would stop on this depth.
    reads_q = Counter(n for ins in dsl.walk(renamed) for n in dsl.own_reads(ins))
    reads_br = Counter(n for ins in dsl.walk(body) for n in dsl.own_reads(ins))
    assert reads_q["q"] == reads_br["br"] == 2 * 2000 + 1 and reads_q["br"] == 0

    inlined = rewrites._inline_const(body, "br", 2000)
    assert inlined[0].pred == dsl.PTrue() and inlined[0].els[0].pred == dsl.PFalse()
    assert inlined[0].then[0].args == (("k", dsl.Const(2000)),)
    assert sum(ins.n_br for ins in inlined) == 0

    program = dsl.Program(params=("br",), body=body)
    sigma = TraceValuation(params=("br",), entries={})
    replaced = rewrites._replace_param_occurrences(program, sigma, arg, {0: "u", 1: "v"}, "i_1", {})
    deepest = replaced
    while isinstance(deepest[0], dsl.Ite):
        deepest = deepest[0].els
    assert deepest == (dsl.LetVisible("x0", "Api", (("k", dsl.VarRef("i_1")),)),)
    assert sum(ins.n_br for ins in replaced) == sum(ins.n_br for ins in body) - 1


def test_counts_follow_a_rebuilt_ancestor():
    """A node rebuilt around a shared guard and an edited branch counts
    the guard, the edit and the untouched branch; renaming br away
    leaves no br read in the rebuilt nodes."""
    guard = dsl.POr(dsl.ValueCheck("br", 1), dsl.PNot(dsl.ValueCheck("br", 2)))
    arg = dsl.Select(((guard, dsl.VarRef("br")),), dsl.Const(0))
    let = dsl.LetVisible("x1", "Api", (("k", arg),))
    ite = dsl.Ite(guard, (let,), (dsl.LetHidden("h1", "f", ("br", "x1")),))
    assert (ite.n_statements, ite.n_br) == (2, 2 + 3 + 1)
    rebuilt = dsl.Ite(guard, ite.then + (dsl.Return(),), ())
    assert (rebuilt.n_statements, rebuilt.n_br) == (3, 2 + 3)
    renamed = dsl.rename_reads((rebuilt,), "br", "q")[0]
    assert (renamed.n_statements, renamed.n_br) == (3, 0)


# --- parsed programs -----------------------------------------------------------


@pytest.mark.parametrize("name", [n for n in FIXTURES if (BENCH / n / "golden.txt").is_file()])
def test_parsed_programs_carry_the_reference_counts(name):
    """The parser builds its conditionals and loops around unresolved
    lets first, then rebuilds them; the rebuilt nodes' counts must hold."""
    program = parse_program((BENCH / name / "golden.txt").read_text())
    assert_walks_match_reference(program.body)
    reparsed = parse_program(dsl.pretty_print(program))
    assert_walks_match_reference(reparsed.body)
    assert cost_syn(reparsed, CostWeights()) == reference_cost_syn(program)


def test_parsed_br_reads_are_counted_in_guards_arguments_and_loops():
    program = parse_program(
        "LAMBDA f_1. lambda br, p.\n"
        "  let x1 = Api(k=(br == 1 && p >= br) ? br : f_1(br, p))\n"
        "  if !(br == 2) {\n"
        "    let h1 = f_1(br, x1)\n"
        "  }\n"
        "  for loop_1 (u1) in br {\n"
        "    let x2 = Api(k=u1)\n"
        "  }\n"
        "  retry loop_2 {\n"
        "    let x3 = Api(k=br)\n"
        "  } until br == 3\n"
    )
    assert [ins.n_br for ins in program.body] == [4, 2, 1, 2]
    assert [ins.n_statements for ins in program.body] == [1, 1, 2, 2]
    assert_walks_match_reference(program.body)


# --- every candidate the search scores ------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_every_candidate_costs_what_the_full_walk_gives(name, monkeypatch):
    """Every rewrite candidate of every state the alternating search
    enumerates on a fixture: its syn and traces costs, scored from the
    candidate as the search scores it, equal the costs of its built
    program and the recursive full walk over that program."""
    ts = parse_traces((BENCH / name / "traces.json").read_text())
    enumerate_rewrites = search.enumerate_rewrites
    w = CostWeights()
    checked = []

    def checking(program, sigma, kind, ctx):
        out = enumerate_rewrites(program, sigma, kind, ctx)
        for rw in out:
            sigma2 = rw.transform.apply(sigma)
            syn, traces = cost_syn(rw, w), cost_traces(rw, sigma2, ts, w)
            built = rw.program
            assert syn == cost_syn(built, w) == reference_cost_syn(built), rw.rule
            assert traces == cost_traces(built, sigma2, ts, w) == reference_cost_traces(built, sigma2, ts), rw.rule
            for _, ins, _ in reference.iter_instr_sites(built.body):
                assert ins.n_statements == reference.count_statements((ins,))
                assert ins.n_br == reference.count_reads((ins,), "br")
        checked.append(len(out))
        return out

    monkeypatch.setattr(search, "enumerate_rewrites", checking)
    run_search(ts, SearchConfig(cost_fn=make_cost_fn("syn")))
    assert sum(checked) > 0
