"""A synthesizing candidate builds its examples only when the search
tries to solve it: rules build none while they enumerate, the search
forces only the candidates it hands to _close, and what they force is
what the eager rules (tests/examples_reference.py) built. Forcing never
fails, because every name in scope has a valuation column."""

import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import examples_reference as reference
from randprog import generate_case
from tracesynth import rewrites, search
from tracesynth.costs import make_cost_fn
from tracesynth.pbe import ConstraintCache
from tracesynth.rewrites import Rewrite, RewriteContext, StateIndex, enumerate_rewrites
from tracesynth.search import SearchConfig, run_search
from tracesynth.traces import parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
FIXTURES = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())


def load(name):
    return parse_traces((BENCH / name / "traces.json").read_text())


def reference_rewrites(program, sigma, ctx):
    """The synthesizing rewrites of a state as the eager rules built
    them, in enumerate_rewrites' order."""
    ix = StateIndex(program, sigma, ctx.ts)
    out = [
        Rewrite(rule, program, c)
        for rule, fn in reference.SYNTH_FNS.items()
        for c in fn(ix, ctx)
    ]
    out.sort(key=lambda rw: rw.path)
    return out


def assert_same_rewrite(rw, ref):
    assert (rw.rule, rw.site, rw.path) == (ref.rule, ref.site, ref.path)
    assert rw.transform == ref.transform
    assert rw.program == ref.program
    assert [(s.hole, s.kind) for s in rw.specs] == [(s.hole, s.kind) for s in ref.specs]
    assert [s.examples for s in rw.specs] == [s.examples for s in ref.specs]


@pytest.mark.parametrize("strategy", ["alternating", "ksearch"])
@pytest.mark.parametrize("name", FIXTURES)
def test_only_the_candidates_the_search_solves_build_their_examples(name, strategy, monkeypatch):
    enumerating = [None]  # the rule enumerating, if any
    builders = []  # the rule that was enumerating at each example built
    real_example = rewrites.IOExample
    monkeypatch.setattr(
        rewrites, "IOExample", lambda *a, **k: builders.append(enumerating[0]) or real_example(*a, **k)
    )
    for table in (rewrites._REFINE_FNS, rewrites._SYNTH_FNS):
        for rule, fn in list(table.items()):

            def wrapped(ix, ctx, rule=rule, fn=fn):
                enumerating[0] = rule
                try:
                    return fn(ix, ctx)
                finally:
                    enumerating[0] = None

            monkeypatch.setitem(table, rule, wrapped)

    pairs = []  # (synthesizing rewrite, its eager reference)
    real_enumerate = search.enumerate_rewrites

    def recording(program, sigma, kind, ctx):
        out = real_enumerate(program, sigma, kind, ctx)
        if kind == "synth":
            assert all(spec._build is not None for rw in out for spec in rw.specs)
            ref = reference_rewrites(program, sigma, ctx)
            assert len(out) == len(ref)
            pairs.extend(zip(out, ref))
        return out

    closed = set()  # ids of the specs handed to _close
    real_close = search._close

    def close(program, specs, *args):
        closed.update(id(spec) for spec in specs)
        return real_close(program, specs, *args)

    monkeypatch.setattr(search, "enumerate_rewrites", recording)
    monkeypatch.setattr(search, "_close", close)
    cfg = SearchConfig(strategy=strategy, cost_fn=make_cost_fn("syn"))
    run_search(load(name), cfg)

    # Rules build no examples; introduce_parameter reads recorded unsat
    # derivations, so it builds the examples it looks up.
    assert set(builders) - {None} <= {"introduce_parameter"}
    forced = {id(spec) for rw, _ in pairs for spec in rw.specs if spec._build is None}
    assert forced <= closed
    if strategy == "alternating":
        # One spec per candidate, each solved when its candidate is tried.
        assert forced == closed & {id(spec) for rw, _ in pairs for spec in rw.specs}
    for rw, ref in pairs:
        assert_same_rewrite(rw, ref)


def assert_every_name_in_scope_has_a_column(program, sigma, ts):
    """Every parameter but br, and every binder, is a variable σ knows:
    reading it on a trace does not fail, so neither does building an
    example's arguments from the scope."""
    names = StateIndex(program, sigma, ts).scope_before((len(program.body),))
    for name in names:
        sigma.lookup(name, next(iter(ts.indices())))


@pytest.mark.parametrize("strategy", ["alternating", "rts", "ksearch"])
@pytest.mark.parametrize("name", FIXTURES)
def test_every_searched_state_has_a_column_for_every_name_in_scope(name, strategy, monkeypatch):
    ts = load(name)
    states = []
    real_enumerate = search.enumerate_rewrites

    def recording(program, sigma, kind, ctx):
        states.append((program, sigma))
        out = real_enumerate(program, sigma, kind, ctx)
        states.extend((rw.program, rw.transform.apply(sigma)) for rw in out)
        return out

    monkeypatch.setattr(search, "enumerate_rewrites", recording)
    run_search(ts, SearchConfig(strategy=strategy, cost_fn=make_cost_fn("syn")))
    assert states
    for program, sigma in states:
        assert_every_name_in_scope_has_a_column(program, sigma, ts)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9))
def test_every_rewrite_keeps_a_column_for_every_name_in_scope(seed):
    """From a state whose names in scope all have columns, as the
    initial program's do, every candidate's successor has them too."""
    program, sigma, ts = generate_case(random.Random(seed))
    assert_every_name_in_scope_has_a_column(program, sigma, ts)
    ctx = RewriteContext(ts, ConstraintCache())
    for kind in ("refine", "synth"):
        for rw in enumerate_rewrites(program, sigma, kind, ctx):
            assert_every_name_in_scope_has_a_column(rw.program, rw.transform.apply(sigma), ts)
