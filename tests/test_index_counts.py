"""StateIndex's read counts and names in use, taken in its one walk
over the body, against the recursive reference walk
(tests/sites_reference.py) at every state a fixture search enumerates
and along random chains of refinements; and the reads a visible call
keeps on its node, from which those counts are taken."""

import json
import random
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import sites_reference as reference
from randprog import generate_case
from tracesynth import dsl, rewrites
from tracesynth.costs import make_cost_fn
from tracesynth.pbe import ConstraintCache
from tracesynth.rewrites import RewriteContext, StateIndex, enumerate_rewrites
from tracesynth.search import SearchConfig, build_initial, run_search
from tracesynth.traces import TraceValuation, parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
FIXTURES = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())


def assert_counts_match_reference(ix):
    assert ix.reads == Counter(reference.seq_reads(ix.program.body))
    assert ix.used_names() == reference.used_names(ix.program)


class CheckedIndex(StateIndex):
    """A StateIndex that checks its counts as it is built."""

    built = 0

    def __init__(self, *args):
        super().__init__(*args)
        assert_counts_match_reference(self)
        CheckedIndex.built += 1


@pytest.mark.parametrize("cost", ["syn", "traces"])
@pytest.mark.parametrize("strategy", ["alternating", "rts"])
@pytest.mark.parametrize("name", FIXTURES)
def test_every_index_of_a_fixture_search_counts_what_the_reference_does(name, strategy, cost, monkeypatch):
    monkeypatch.setattr(rewrites, "StateIndex", CheckedIndex)
    monkeypatch.setattr(CheckedIndex, "built", 0)
    ts = parse_traces((BENCH / name / "traces.json").read_text())
    result = run_search(ts, SearchConfig(strategy=strategy, cost_fn=make_cost_fn(cost)))
    assert CheckedIndex.built == result.stats.states_seen > 0


def walk_chain(program, sigma, ts, rnd, steps):
    """Check the index of (program, sigma), then take a random
    refinement and check the state it leads to, steps times."""
    ctx = RewriteContext(ts, ConstraintCache())
    for _ in range(steps + 1):
        assert_counts_match_reference(StateIndex(program, sigma, ts))
        out = enumerate_rewrites(program, sigma, "refine", ctx)
        if not out:
            return
        rw = rnd.choice(out)
        program, sigma = rw.program, rw.transform.apply(sigma)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**9), st.randoms(use_true_random=False))
def test_random_programs_count_what_the_reference_does_along_refinements(seed, rnd):
    program, sigma, ts = generate_case(random.Random(seed))
    walk_chain(program, sigma, ts, rnd, 4)


calls = st.lists(
    st.tuples(st.sampled_from(("A", "B")), st.integers(0, 2), st.integers(0, 1)),
    min_size=1,
    max_size=3,
)


@settings(max_examples=150, deadline=None)
@given(st.lists(calls, min_size=2, max_size=6), st.randoms(use_true_random=False))
def test_initial_programs_count_what_the_reference_does_along_refinements(traces, rnd):
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


# --- a visible call's kept reads ---------------------------------------------------


BR_ARG = dsl.Select(((dsl.ValueCheck("br", 1), dsl.VarRef("p")),), dsl.HiddenCall("f", ("br", "q")))


def call(*args, var="x1"):
    return dsl.LetVisible(var, "Api", tuple((f"a{k}", e) for k, e in enumerate(args)))


def test_a_rebuilt_call_reads_its_own_arguments():
    ins = call(BR_ARG, dsl.Const(1))
    assert dsl.own_reads(ins) == ("br", "p", "br", "q")
    # As eliminate_argument builds the call with a hidden let's binder.
    derived = replace(ins, args=(("a0", dsl.VarRef("v_1")),) + ins.args[1:])
    assert dsl.own_reads(derived) == ("v_1",)
    renamed = dsl.rename_reads((ins,), "br", "b")[0]
    assert dsl.own_reads(renamed) == ("b", "p", "b", "q")
    assert dsl.own_reads(ins) == ("br", "p", "br", "q")


def test_a_parameter_introduced_in_place_of_an_argument_is_read():
    """_replace_param_occurrences rebuilds each call by replace, after
    the state's index has read the calls it replaces."""
    body = (call(BR_ARG), dsl.Ite(dsl.ValueCheck("br", 2), (call(dsl.Const(3), var="x2"),), ()))
    program = dsl.Program(params=("br",), body=body)
    sigma = TraceValuation(params=("br",), entries={})
    before = Counter(n for ins in dsl.walk(body) for n in dsl.own_reads(ins))
    assert before == Counter(br=3, p=1, q=1)
    new = rewrites._replace_param_occurrences(program, sigma, BR_ARG, {}, "i_1", {})
    assert Counter(n for ins in dsl.walk(new) for n in dsl.own_reads(ins)) == Counter(br=1, i_1=1)


def test_kept_reads_take_no_part_in_equality_hashing_or_repr():
    read, fresh = call(BR_ARG), call(BR_ARG)
    dsl.own_reads(read)
    assert read == fresh and hash(read) == hash(fresh)
    assert repr(read) == repr(fresh)


def test_kept_reads_are_not_taken_from_a_dead_node():
    """Nodes built and dropped one after another reuse each other's
    memory, so reads kept anywhere but on the node would be read back
    for the wrong node."""
    for k in range(200):
        assert dsl.own_reads(call(dsl.VarRef(f"v{k}"))) == (f"v{k}",)
