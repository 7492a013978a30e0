"""pull, push and merge_nested offer an unbuilt edit and a merge
transform: the rules read no σ cell and rename nothing, and each of
their candidates gives the program, counts and σ that the eager
reference (tests/merge_reference.py) gives, at every state a fixture
search enumerates and on the cases whose dropped binder is read."""

from pathlib import Path

import pytest

import merge_reference as reference
from test_rewrites import MERGE_CASES, READER, make_ts
from tracesynth import dsl, rewrites, search
from tracesynth.costs import make_cost_fn
from tracesynth.jsonvals import ABSENT
from tracesynth.pbe import ConstraintCache
from tracesynth.rewrites import Rewrite, RewriteContext, StateIndex
from tracesynth.search import SearchConfig, run_search
from tracesynth.traces import Scalar, TraceValuation, parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
FIXTURES = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())
MERGING = tuple(reference.RULES)


def spy_on_merging_rules(monkeypatch):
    """The list of σ reads and renames made while a merging rule runs,
    filled as enumerate_rewrites calls the rules."""
    calls, running = [], [False]

    def spy(owner, name):
        original = getattr(owner, name)

        def spied(*args):
            if running[0]:
                calls.append((name, args[1:2]))
            return original(*args)

        monkeypatch.setattr(owner, name, spied)

    spy(TraceValuation, "lookup")
    spy(TraceValuation, "traces_with_value")
    spy(dsl, "rename_reads")
    for rule in MERGING:
        fn = rewrites._REFINE_FNS[rule]

        def run(ix, ctx, fn=fn):
            running[0] = True
            try:
                return fn(ix, ctx)
            finally:
                running[0] = False

        monkeypatch.setitem(rewrites._REFINE_FNS, rule, run)
    return calls


def assert_same_as_reference(program, sigma, ctx, rws):
    """Each merging rule's rewrites among rws, in order, against the
    reference rule's at the state; returns how many were compared."""
    ix = StateIndex(program, sigma, ctx.ts)
    compared = 0
    for rule in MERGING:
        got = [rw for rw in rws if rw.rule == rule]
        want = sorted((Rewrite(rule, program, c) for c in reference.RULES[rule](ix, ctx)), key=lambda rw: rw.path)
        assert len(got) == len(want)
        for rw, ref in zip(got, want):
            assert (rw.path, rw.site, rw.params) == (ref.path, ref.site, ref.params)
            assert (rw.n_statements, rw.n_br) == (ref.n_statements, ref.n_br)
            assert rw.program == ref.program
            assert rw.transform.apply(sigma) == ref.transform.apply(sigma)
        compared += len(got)
    return compared


@pytest.mark.parametrize("cost", ["syn", "traces"])
@pytest.mark.parametrize("strategy", ["alternating", "rts"])
@pytest.mark.parametrize("name", FIXTURES)
def test_every_merge_of_a_fixture_search_matches_the_eager_reference(name, strategy, cost, monkeypatch):
    calls = spy_on_merging_rules(monkeypatch)
    compared = [0]
    enumerate_rewrites = search.enumerate_rewrites

    def checked(program, sigma, kind, ctx):
        out = enumerate_rewrites(program, sigma, kind, ctx)
        assert not calls, calls
        if kind == "refine":
            compared[0] += assert_same_as_reference(program, sigma, ctx, out)
        return out

    monkeypatch.setattr(search, "enumerate_rewrites", checked)
    ts = parse_traces((BENCH / name / "traces.json").read_text())
    result = run_search(ts, SearchConfig(strategy=strategy, cost_fn=make_cost_fn(cost)))
    taken = sum(entry["rule"] in MERGING for entry in result.stats.rewrites)
    assert compared[0] >= max(taken, 1)


@pytest.mark.parametrize("rule", sorted(MERGE_CASES))
def test_a_merge_that_renames_matches_the_eager_reference(rule, monkeypatch):
    """MERGE_CASES read the dropped binder after the conditional: the
    rename is made when the program is built, not when it is offered."""
    ite = MERGE_CASES[rule][0]
    ts = make_ts([("A", {"k": 1}, "u"), ("Z", {"k": "u"}, {})], [("A", {"k": 1}, "v"), ("Z", {"k": "v"}, {})])
    program = dsl.Program(params=("br",), body=(ite, READER))
    entries = {
        ("br", 1): Scalar(1), ("br", 2): Scalar(2),
        ("x1", 1): Scalar("u"), ("x1", 2): Scalar(ABSENT),
        ("x2", 1): Scalar(ABSENT), ("x2", 2): Scalar("v"),
        ("x3", 1): Scalar({}), ("x4", 2): Scalar({}),
        ("x9", 1): Scalar({}), ("x9", 2): Scalar({}),
    }
    sigma = TraceValuation(params=("br",), entries=entries)
    calls = spy_on_merging_rules(monkeypatch)
    ctx = RewriteContext(ts, ConstraintCache())
    rws = rewrites.enumerate_rewrites(program, sigma, "refine", ctx)
    assert not calls
    merges = [rw for rw in rws if rw.rule == rule]
    assert len(merges) == 1 and merges[0].transform.merge == ("x2", "x1")
    assert merges[0].program.body[-1].args[0][1].default == dsl.VarRef("x1")
    assert assert_same_as_reference(program, sigma, ctx, rws) >= 1
