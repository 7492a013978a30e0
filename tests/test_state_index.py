"""rewrites.StateIndex and the linear walks and counters against the
recursive, per-query versions they replaced (tests/sites_reference.py),
the scope order they must keep, and lazily built valuations."""

import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import sites_reference as reference
from randprog import generate_case
from test_node_counts import assert_walks_match_reference
from tracesynth import dsl, rewrites
from tracesynth.costs import _visible_let_vars
from tracesynth.dsl import free_vars, seq_binders, seq_loop_ids
from tracesynth.jsonvals import ABSENT
from tracesynth.pbe import ConstraintCache
from tracesynth.rewrites import (
    RewriteContext,
    StateIndex,
    enumerate_rewrites,
    replace_seq_at,
)
from tracesynth.search import build_initial
from tracesynth.traces import (
    PerIteration,
    Scalar,
    TraceValuation,
    ValuationError,
    ValuationTransform,
    parse_traces,
)


def make_ts(n, calls=1):
    payload = [
        [
            {"api": f"Api{c}", "request": {"k": t, "c": c}, "response": {"r": t}}
            for c in range(calls)
        ]
        for t in range(n)
    ]
    return parse_traces(json.dumps(payload))


def let(n, arg=None):
    return dsl.LetVisible(f"x{n}", "Api", (("a", arg or dsl.Const(n)),))


# --- scope order ---------------------------------------------------------------


def scopes_seen_by_eliminate_argument(body):
    """The scope at each call site, as eliminate_argument passes it to
    the hidden function it introduces, for a program whose calls all
    take a br-dependent argument."""
    names = [ins.var for _, ins, _ in reference.iter_instr_sites(body) if isinstance(ins, dsl.LetVisible)]
    entries = {}
    for i in (1, 2):
        entries[("br", i)] = Scalar(i)
        entries[("q", i)] = Scalar(f"q{i}")
        for v in names:
            entries[(v, i)] = Scalar({"r": i})
    sigma = TraceValuation(params=("br", "q"), entries=entries)
    program = dsl.Program(params=("br", "q"), body=body)
    ctx = RewriteContext(make_ts(2), ConstraintCache())
    scopes = {}
    for rw in enumerate_rewrites(program, sigma, "synth", ctx):
        if rw.rule == "eliminate_argument":
            site = rw.path[:-1]
            hidden_let = dict((p, ins) for p, ins, _ in reference.iter_instr_sites(rw.program.body))[site]
            assert isinstance(hidden_let, dsl.LetHidden)
            scopes[site] = list(hidden_let.args)
    return scopes


BR_ARG = dsl.Select(((dsl.ValueCheck("br", 1), dsl.Const("u")),), dsl.Const("v"))
GUARD = dsl.ValueCheck("q", "q1")


def test_scope_scans_whole_sequences_before_nested_ones():
    # Sites are met in the order (0,), (1,), (0,0,0), (0,0,1), (0,1,0),
    # and the scan stops at the first path >= the site, here (1,): the
    # enclosing sequence's later call cuts the nested sites' scope short.
    body = (dsl.Ite(GUARD, (let(1, BR_ARG), let(2, BR_ARG)), (let(3, BR_ARG),)), let(4, BR_ARG))
    scopes = scopes_seen_by_eliminate_argument(body)
    assert scopes[(0, 0, 1)] == ["q"]
    assert scopes[(0, 1, 0)] == ["q"]
    assert scopes[(1,)] == ["q"]


def test_scope_takes_in_binders_of_a_sibling_branch():
    body = (let(0, BR_ARG), dsl.Ite(GUARD, (let(1, BR_ARG), let(2, BR_ARG)), (let(3, BR_ARG),)))
    scopes = scopes_seen_by_eliminate_argument(body)
    assert scopes[(1, 0, 1)] == ["q", "x0", "x1"]
    assert scopes[(1, 1, 0)] == ["q", "x0", "x1", "x2"]


# --- the index against the per-query reference ---------------------------------------


def every_query_path(body):
    """Every site, every position just past a sequence's end, and a
    path past the whole program."""
    paths = [path for path, _, _ in reference.iter_instr_sites(body)]
    paths += [seq_path + (len(seq),) for seq_path, seq, _ in reference.iter_seqs(body)]
    return paths + [(len(body) + 1, 0, 0)]


def assert_index_matches_reference(program, sigma, ts, order):
    body = program.body
    reads = reference.seq_reads(body)
    assert_walks_match_reference(body)
    assert program.n_br == reference.count_reads(body, "br")

    ix = StateIndex(program, sigma, ts)
    assert list(ix.seq_by_path.items()) == [(path, seq) for path, seq, _ in reference.iter_seqs(body)]
    for kind, sites in ((dsl.Ite, ix.ites), (dsl.LetHidden, ix.hidden_lets)):
        assert sites == [site for site in reference.iter_instr_sites(body) if isinstance(site[1], kind)]
    assert ix.br_lets == [
        site
        for site in reference.iter_instr_sites(body)
        if isinstance(site[1], dsl.LetVisible) and reference.count_reads(site[1:2], "br")
    ]
    assert ix.reads == Counter(reads)
    assert ix.names == reference.used_names(program)
    for prefix in reference.FRESH_PREFIXES:
        assert ix.fresh(prefix) == reference.fresh(program, prefix), prefix
    for path in every_query_path(body):
        scope = reference.scope_before(program, path)
        assert ix.scope_before(path) == scope, path
        assert ix.has_scope(path) == bool(scope), path
    sites = [path for path, _, _ in reference.iter_instr_sites(body)]
    hidden = program.hidden_map()
    for k in order(len(sites)):
        path = sites[k]
        want = reference._ite_reaching(program, sigma, ts, path, hidden)
        assert ix.reaching(path) == want, path


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.randoms(use_true_random=False))
def test_index_matches_reference_on_random_programs(seed, rnd):
    program, sigma, ts = generate_case(random.Random(seed))
    assert_index_matches_reference(
        program, sigma, ts, lambda n: rnd.sample(range(n), n)
    )


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 60),
    st.integers(1, 3),
    st.sets(st.integers(1, 61)),
    st.randoms(use_true_random=False),
)
def test_index_matches_reference_on_br_chains(n_ites, calls, unread, rnd):
    """The initial program of an (n_ites + 1)-trace set: n_ites nested
    conditionals on br. Dropping br's cell on some traces makes their
    guards fail to evaluate, which must leave those traces out."""
    ts = make_ts(n_ites + 1, calls)
    program, sigma = build_initial(ts)
    entries = {k: v for k, v in sigma.entries.items() if not (k[0] == "br" and k[1] in unread)}
    sigma = TraceValuation(params=sigma.params, entries=entries)
    assert_index_matches_reference(
        program, sigma, ts, lambda n: rnd.sample(range(n), n)
    )


def test_index_matches_reference_on_every_instruction_kind():
    ite = dsl.Ite(dsl.ValueCheck("x2", 1), (dsl.LetVisible("x6", "F", (("f", dsl.VarRef("x2")),)),), ())
    body = (
        dsl.LetVisible(
            "x1",
            "A",
            (
                (
                    "a",
                    dsl.Select(
                        (
                            (
                                dsl.PAnd(dsl.ValueCheck("br", 1), dsl.Compare("p", ">=", "p")),
                                dsl.VarRef("p"),
                            ),
                        ),
                        dsl.HiddenCall("f_1", ("p", "br")),
                    ),
                ),
            ),
        ),
        dsl.LetHidden("h1", "f_1", ("x1", "p")),
        dsl.RetryUntil(
            "loop_1",
            (dsl.LetVisible("x2", "B", (("b", dsl.VarRef("h1")),)), ite, dsl.LetHidden("s1", "f_2", ("x2",))),
            dsl.POr(dsl.ValueCheck("s1", True), dsl.PNot(dsl.ValueCheck("x1", 1))),
        ),
        dsl.Ite(
            dsl.ValueCheck("br", 2),
            (
                dsl.Foreach("loop_2", "u1", dsl.VarRef("x1"), (dsl.LetVisible("x3", "C", (("c", dsl.VarRef("u1")),)),)),
                dsl.Return(),
            ),
            (dsl.LetVisible("x4", "D", (("d", dsl.VarRef("br")),)),),
        ),
        dsl.LetVisible("x5", "E", (("e", dsl.VarRef("x3")),)),
    )
    program = dsl.Program(params=("br", "p"), body=body)
    entries = {("p", i): Scalar(5) for i in (1, 2, 3)}
    entries.update({("br", 1): Scalar(1), ("br", 2): Scalar(2)})
    sigma = TraceValuation(params=("br", "p"), entries=entries)
    assert_index_matches_reference(program, sigma, make_ts(3), lambda n: range(n))


def test_sites_inside_loops_are_reached_by_no_trace():
    loop = dsl.Foreach("loop_1", "u1", dsl.VarRef("p"), (let(1),))
    body = (dsl.Ite(dsl.ValueCheck("p", 1), (loop,), ()),)
    program = dsl.Program(params=("p",), body=body)
    sigma = TraceValuation(params=("p",), entries={("p", 1): Scalar(1), ("p", 2): Scalar(2)})
    ix = StateIndex(program, sigma, make_ts(2))
    assert ix.reaching((0,)) == [1, 2]
    assert ix.reaching((0, 0, 0)) == [1]
    assert ix.reaching((0, 0, 0, 0, 0)) == []


# --- depth ---------------------------------------------------------------------


def index_sites(body):
    """The instruction sites (path, instruction) of a program over br
    with this body, read off its StateIndex's sequences, in site order;
    the recursive reference walk cannot reach this deep."""
    program = dsl.Program(params=("br",), body=body)
    ix = StateIndex(program, TraceValuation(params=("br",), entries={}), make_ts(2))
    return [(path + (i,), ins) for path, seq in ix.seq_by_path.items() for i, ins in enumerate(seq)]


def test_walks_survive_a_1200_deep_conditional_chain():
    """The initial program of a 1,201-trace set nests 1,200
    conditionals; the recursive walks, counters and replace_seq_at
    raised RecursionError on it."""
    body = (let(0, dsl.VarRef("br")),)
    for n in range(1, 1201):
        body = (dsl.Ite(dsl.ValueCheck("br", n), (let(n, dsl.VarRef("br")),), body),)
    sites = index_sites(body)
    assert len(sites) == 2401
    assert sites[-1][0] == (0, 1) * 1200 + (0,)
    program = dsl.Program(params=("br",), body=body)
    assert program.n_br == 2401
    assert program.n_statements == 2401
    with pytest.raises(RecursionError):
        reference.count_statements(body)
    assert seq_binders(body) == [f"x{n}" for n in range(1200, -1, -1)]
    assert free_vars(body) == {"br"}
    assert seq_loop_ids(body) == []
    assert len(_visible_let_vars(body)) == 1201
    dsl.validate_program(program)
    with pytest.raises(RecursionError):
        reference.seq_binders(body)
    replaced = index_sites(replace_seq_at(body, (0, 1) * 1200, (let(-1),)))
    assert [path for path, _ in replaced] == [path for path, _ in sites]
    assert replaced[-1][1] == let(-1)


# --- loop spans ------------------------------------------------------------------

APIS = st.sampled_from(("A", "B"))
span_leaves = st.one_of(
    st.builds(lambda api, n: dsl.LetVisible(f"x{n}", api, ()), APIS, st.integers(0, 9)),
    st.just(dsl.Return()),
)
span_trees = st.recursive(
    st.builds(dsl.Ite, st.just(GUARD), st.lists(span_leaves, max_size=2).map(tuple), st.just(())),
    lambda tree: st.builds(
        dsl.Ite,
        st.just(GUARD),
        st.lists(st.one_of(span_leaves, tree), max_size=3).map(tuple),
        st.lists(st.one_of(span_leaves, tree), max_size=3).map(tuple),
    ),
    max_leaves=10,
)


@settings(max_examples=300, deadline=None)
@given(span_trees, st.lists(st.integers(0, 3), max_size=3).map(tuple))
def test_tree_stmts_matches_the_recursive_reference(ite, path):
    """Every conditional of a tree of calls of two APIs, some trees
    holding a return, collects the statements of either API, or of its
    first call's API when none is given, as the recursive collector
    does, or fails where it fails."""
    for _, ins, _ in reference.iter_instr_sites((ite,)):
        if isinstance(ins, dsl.Ite):
            for api in ("A", "B", "C"):
                assert rewrites._tree_stmts(ins, path, api) == reference._tree_stmts(ins, path, api)
            # With no api given, the api of the tree's first call.
            first = next((i.api for i in dsl.walk((ins,)) if isinstance(i, dsl.LetVisible)), None)
            assert rewrites._tree_stmts(ins, path) == reference._tree_stmts(ins, path, first)


def test_tree_stmts_survives_a_2000_deep_single_api_chain():
    """The initial program of 2,001 one-call traces of one API nests
    2,000 conditionals in their else branches; the recursive collector
    raised RecursionError on it."""
    body = (let(0),)
    for n in range(1, 2001):
        body = (dsl.Ite(dsl.ValueCheck("br", n), (let(n),), body),)
    with pytest.raises(RecursionError):
        reference._tree_stmts(body[0], (0,), "Api")
    stmts = rewrites._tree_stmts(body[0], (0,), "Api")
    assert [ins.var for _, ins in stmts] == [f"x{n}" for n in range(2000, -1, -1)]
    assert stmts[-1][0] == (0,) + (1, 0) * 2000
    assert stmts[-2][0] == (0,) + (1, 0) * 1999 + (0, 0)
    assert rewrites._tree_stmts(body[0], (0,), "Other") is None


@pytest.mark.parametrize("n", [400, 2001])
def test_a_deep_single_api_chain_makes_one_span(n):
    """The initial program of n one-call traces of one API is one
    conditional nesting the rest in its else branches. Its calls make
    one span, at the top-level body; collecting a span at every nested
    sequence as well made 399 at 400 traces, in time cubic in the
    depth. No trace runs the span twice, so no loop span is left."""
    ts = make_ts(n)
    program, sigma = build_initial(ts)
    (span,) = rewrites._find_spans(program.body)
    assert (span.start, span.length, len(span.stmts)) == (0, 1, n)
    assert StateIndex(program, sigma, ts).loop_spans() == []


# --- lazily built valuations -------------------------------------------------------


def test_applied_transforms_copy_nothing_until_read():
    base = TraceValuation(
        params=("br",), entries={("br", 1): Scalar(1), ("x", 1): Scalar(2), ("y", 1): Scalar(3)}
    )
    t = ValuationTransform(
        drop_vars=("x",), new_entries={("z", 1): Scalar(ABSENT), ("w", 1): Scalar(4)}, params=()
    )
    sigma = t.apply(base)
    assert sigma._entries is None and sigma.params == ()
    # An Absent cell is not stored, yet z is known and reads as Absent.
    assert sigma.lookup("z", 1) == Scalar(ABSENT)
    assert sigma.entries == {("br", 1): Scalar(1), ("y", 1): Scalar(3), ("w", 1): Scalar(4)}
    assert list(sigma.entries) == [("br", 1), ("y", 1), ("w", 1)]
    with pytest.raises(ValuationError):
        sigma.lookup("x", 1)
    assert base.lookup("x", 1) == Scalar(2)


def test_a_long_chain_of_unread_valuations_builds_without_recursion():
    sigma = TraceValuation(params=(), entries={("v0", 1): Scalar(0)})
    for n in range(1, 3001):
        sigma = ValuationTransform(
            drop_vars=(f"v{n - 1}",), new_entries={(f"v{n}", 1): Scalar(n)}
        ).apply(sigma)
    assert sigma.entries == {("v3000", 1): Scalar(3000)}
    assert sigma == TraceValuation(params=(), entries={("v3000", 1): Scalar(3000)})


# --- per-variable cells against a flat model -------------------------------------------

VARS = ("a", "b", "c", "d")
TRACES = (1, 2, 3)
cells = st.one_of(
    st.integers(0, 3).map(Scalar),
    st.just(Scalar(ABSENT)),
    st.lists(st.integers(0, 3), max_size=2).map(lambda vs: PerIteration(tuple(vs))),
)
flat_entries = st.dictionaries(st.tuples(st.sampled_from(VARS), st.sampled_from(TRACES)), cells)
transforms = st.builds(
    ValuationTransform,
    drop_vars=st.lists(st.sampled_from(VARS), max_size=2).map(tuple),
    new_entries=flat_entries,
    params=st.none() | st.lists(st.sampled_from(VARS), max_size=2, unique=True).map(tuple),
    merge=st.none() | st.lists(st.sampled_from(VARS), min_size=2, max_size=2, unique=True).map(tuple),
)


def assert_matches_model(sigma, params, model):
    """The model is flat and stores Absent cells; sigma knows the same
    variables, reads the same cells, and stores only the others."""
    assert sigma.params == params
    known = {var for var, _ in model}
    for var in VARS + ("z",):
        for i in TRACES + (9,):
            if (var, i) in model:
                assert sigma.lookup(var, i) == model[(var, i)]
            elif var in known:
                assert sigma.lookup(var, i) == Scalar(ABSENT)
            else:
                with pytest.raises(ValuationError):
                    sigma.lookup(var, i)
        assert sigma.traces_with_value(var) == [
            i
            for i in TRACES
            if (var, i) in model and model[(var, i)] not in (Scalar(ABSENT), PerIteration(()))
        ]
    entries = sigma.entries
    assert entries == {k: cell for k, cell in model.items() if cell != Scalar(ABSENT)}
    order = [var for var, _ in entries]
    assert order == sorted(order, key=order.index), "entries not grouped by variable"
    assert sigma == TraceValuation(params, dict(model))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.sampled_from(VARS), max_size=2, unique=True).map(tuple),
    flat_entries,
    st.lists(transforms, max_size=6),
    st.randoms(use_true_random=False),
)
def test_per_variable_cells_match_a_flat_model(params, entries, chain, rnd):
    """Drops, merges, partial overwrites of surviving columns,
    interleaved variables and parameter changes give the same valuation
    as the flat drop-merge-update model, whatever order the chain is read in,
    and building a valuation never changes its base."""
    sigmas = [TraceValuation(params, dict(entries))]
    models = [(params, dict(entries))]
    for t in chain:
        sigmas.append(t.apply(sigmas[-1]))
        base_params, base = models[-1]
        model = {k: v for k, v in base.items() if k[0] not in t.drop_vars}
        if t.merge is not None:
            # keep's stored cell wins, else drop's; then drop goes. keep
            # is known afterwards even with no cell.
            drop, keep = t.merge
            merged = {(keep, i): cell for (var, i), cell in model.items() if var == drop}
            merged.update((k, cell) for k, cell in model.items() if k[0] == keep and cell != Scalar(ABSENT))
            model = {k: v for k, v in model.items() if k[0] not in t.merge}
            model.update(merged or {(keep, TRACES[0]): Scalar(ABSENT)})
        model.update(t.new_entries)
        models.append((base_params if t.params is None else t.params, model))
    order = rnd.sample(range(len(sigmas)), len(sigmas))
    for k in order:
        assert_matches_model(sigmas[k], *models[k])
    for sigma, model in zip(sigmas, models):
        assert_matches_model(sigma, *model)
