"""A refine enumeration that starts from the previous state's read
counts and names in use (enumerate_rewrites with after) gives the very
list a full enumeration of the state gives, in order: rule, path, site,
built program, valuation transform and specs, at every refine state of
every fixture search and along random chains of refinements. Its
index's carried read counts and names in use equal a fresh index's."""

import json
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from randprog import generate_case
from tracesynth import rewrites, search
from tracesynth.costs import make_cost_fn
from tracesynth.pbe import ConstraintCache
from tracesynth.rewrites import RewriteContext, StateIndex, enumerate_rewrites
from tracesynth.search import SearchConfig, build_initial, run_search
from tracesynth.traces import parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
FIXTURES = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())


def assert_same_rewrites(got, want):
    assert [(rw.rule, rw.path, rw.site) for rw in got] == [(rw.rule, rw.path, rw.site) for rw in want]
    for a, b in zip(got, want):
        assert a.program == b.program, (a.rule, a.path)
        assert (a.params, a.n_statements, a.n_br) == (b.params, b.n_statements, b.n_br)
        assert a.transform == b.transform, (a.rule, a.path)
        specs = [[(s.hole, s.kind, s.examples) for s in rw.specs] for rw in (a, b)]
        assert specs[0] == specs[1], (a.rule, a.path)


def assert_carries(program, sigma, ctx, after):
    """The enumeration of (program, sigma) from after against a full
    one; returns the carried list."""
    got = enumerate_rewrites(program, sigma, "refine", ctx, after)
    want = enumerate_rewrites(program, sigma, "refine", ctx)
    assert_same_rewrites(got, want)
    if not got:
        return got
    refined, fresh = got[0]._refined, StateIndex(program, sigma, ctx.ts)
    assert refined.reads == fresh.reads
    assert refined.names == fresh._names
    return got


@pytest.mark.parametrize("cost", ["syn", "traces"])
@pytest.mark.parametrize("strategy", ["alternating", "rts"])
@pytest.mark.parametrize("name", FIXTURES)
def test_every_refine_state_of_a_search_carries_the_full_list(name, strategy, cost, monkeypatch):
    real_enumerate = search.enumerate_rewrites

    def checking(program, sigma, kind, ctx, after=None):
        if kind != "refine" or after is None:
            return real_enumerate(program, sigma, kind, ctx, after)
        return assert_carries(program, sigma, ctx, after)

    monkeypatch.setattr(search, "enumerate_rewrites", checking)
    ts = parse_traces((BENCH / name / "traces.json").read_text())
    run_search(ts, SearchConfig(strategy=strategy, cost_fn=make_cost_fn(cost)))


def test_fixture_searches_start_from_the_previous_counts(monkeypatch):
    """The differential tests above would pass with nothing carried.
    Of the 153 indexes the fixtures' alternating searches build, 62
    start from the previous refine state's counts; the others are the
    first state, synthesis states and states after a built body."""
    builds = Counter()
    real_index = rewrites.StateIndex

    def counting(program, sigma, ts, prev=None):
        builds[prev is not None] += 1
        return real_index(program, sigma, ts, prev)

    monkeypatch.setattr(rewrites, "StateIndex", counting)
    for name in FIXTURES:
        ts = parse_traces((BENCH / name / "traces.json").read_text())
        run_search(ts, SearchConfig(cost_fn=make_cost_fn("syn")))
    assert (builds[True], builds[True] + builds[False]) == (62, 153)


def walk_chain(program, sigma, ts, rnd, steps):
    """From a full enumeration of (program, sigma), take a random
    refinement, and check the state it leads to, steps times."""
    ctx = RewriteContext(ts, ConstraintCache())
    out = enumerate_rewrites(program, sigma, "refine", ctx)
    for _ in range(steps):
        if not out:
            return
        after = rnd.choice(out)
        sigma = after.transform.apply(sigma)
        out = assert_carries(after.program, sigma, ctx, after)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.randoms(use_true_random=False))
def test_random_programs_carry_the_full_list(seed, rnd):
    program, sigma, ts = generate_case(random.Random(seed))
    walk_chain(program, sigma, ts, rnd, 4)


calls = st.lists(
    st.tuples(st.sampled_from(("A", "B")), st.integers(0, 2), st.integers(0, 1)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(calls, min_size=2, max_size=6), st.randoms(use_true_random=False))
def test_initial_programs_carry_the_full_list_along_random_refinements(traces, rnd):
    """The initial program of a random trace set nests one conditional
    per trace; random refinements of it pull, push, invert, sequence,
    merge and drop conditionals at every depth."""
    payload = [
        [{"api": api, "request": {"k": k, "c": c}, "response": {"r": k}} for api, k, c in trace]
        for trace in traces
    ]
    ts = parse_traces(json.dumps(payload))
    program, sigma = build_initial(ts)
    walk_chain(program, sigma, ts, rnd, 12)
