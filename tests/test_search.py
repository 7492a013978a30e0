"""Strategy behavior: alternating vs rts vs bounded ksearch."""

import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from randprog import generate_case
from tracesynth import dsl, rewrites, search
from tracesynth.costs import make_cost_fn
from tracesynth.evaluator import default_retry_bound
from tracesynth.search import (
    SearchConfig,
    SearchError,
    build_initial,
    run_search,
    verify_final,
)
from tracesynth.jsonvals import ABSENT
from tracesynth.parser import parse_program
from tracesynth.traces import Scalar, ValuationError, ValuationTransform, parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"


def load(name):
    return parse_traces((BENCH / name / "traces.json").read_text())


def config(strategy, **kw):
    kw.setdefault("cost_fn", make_cost_fn("syn"))
    return SearchConfig(strategy=strategy, **kw)


def loop_nodes(body):
    found = []
    stack = [body]
    while stack:
        for ins in stack.pop():
            if isinstance(ins, dsl.Ite):
                stack.extend([ins.then, ins.els])
            elif isinstance(ins, (dsl.RetryUntil, dsl.Foreach)):
                found.append(ins)
                stack.append(ins.body)
    return found


def test_alternating_discovers_retry_loop():
    ts = load("backup_then_delete_table")
    result = run_search(ts, config("alternating"))
    assert not result.timed_out
    assert result.cost == 41.0
    loops = loop_nodes(result.program.body)
    assert len(loops) == 1 and isinstance(loops[0], dsl.RetryUntil)
    assert verify_final(result.program, result.sigma, ts)


def test_rts_strands_the_selector_parameter():
    ts = load("backup_then_delete_table")
    alternating = run_search(ts, config("alternating"))
    rts = run_search(ts, config("rts"))
    assert verify_final(rts.program, rts.sigma, ts)
    # The single refinement pass runs before synthesis failures are
    # recorded, so the unlock for parameter introduction comes too late
    # and the branch selector survives as a dead parameter.
    assert rts.cost == 42.0
    assert alternating.cost == 41.0
    assert "br" in rts.program.params
    assert "br" not in alternating.program.params


def test_ksearch_two_steps_cannot_reach_the_loop():
    ts = load("backup_then_delete_table")
    alternating = run_search(ts, config("alternating"))
    k2 = run_search(ts, config("ksearch", k=2))
    assert verify_final(k2.program, k2.sigma, ts)
    assert k2.cost > alternating.cost
    assert k2.stats.states_seen > 1


def test_ksearch_zero_steps_returns_initial_program():
    ts = load("backup_then_delete_table")
    initial, _ = build_initial(ts)
    result = run_search(ts, config("ksearch", k=0))
    assert dsl.pretty_print(result.program) == dsl.pretty_print(initial)
    assert result.stats.states_seen == 1


@pytest.mark.parametrize("strategy", ["alternating", "rts"])
def test_phased_strategies_count_every_enumerated_state(strategy, monkeypatch):
    ts = load("backup_then_delete_table")
    enumerate_rewrites = search.enumerate_rewrites
    kinds = []

    def counting(program, sigma, kind, ctx):
        kinds.append(kind)
        return enumerate_rewrites(program, sigma, kind, ctx)

    monkeypatch.setattr(search, "enumerate_rewrites", counting)
    result = run_search(ts, config(strategy))
    assert result.stats.states_seen == len(kinds)
    assert {"refine", "synth"} <= set(kinds)
    # Every accepted rewrite came from a distinct enumerated state.
    assert result.stats.states_seen > len(result.stats.rewrites)


def test_initial_program_of_1200_one_call_traces_validates():
    """The initial program nests one conditional per trace. Validation
    walks with stacks, so no depth is too deep for it; the recursive
    binder walk raised RecursionError from 600 traces on."""
    ts = parse_traces(
        json.dumps([[{"api": "Api", "request": {"k": t}, "response": {"r": t}}] for t in range(1200)])
    )
    program, sigma = build_initial(ts)
    dsl.validate_program(program)
    assert program.params == ("br",)
    assert program.body[0].n_statements == 2 * 1200 - 1
    assert program.body[0].n_br == 1199
    assert sigma.lookup("x1", 1200).value == {"r": 1199}


def test_600_one_call_traces_return_near_a_3s_deadline():
    """The first synthesis enumeration on 600 one-call traces over 7 APIs
    offers one branch-condition candidate per conditional. When each
    built its examples as it was enumerated, the scope-value tuples of
    them all (about 180,000 tuples of up to 600 values) kept the search
    from checking its 3 s deadline until 12 s had passed. Examples are
    built only for the candidates the search tries to solve."""
    apis = [f"svc.Op{a}" for a in range(7)]
    ts = parse_traces(
        json.dumps([[{"api": apis[t % 7], "request": {"k": t}, "response": {"r": t}}] for t in range(600)])
    )
    start = time.perf_counter()
    result = run_search(ts, config("alternating", timeout=3))
    assert time.perf_counter() - start < 5
    assert verify_final(result.program, result.sigma, ts)


def test_1000_one_call_traces_return_within_1s_of_a_1s_deadline():
    """eliminate_branch_condition evaluates each conditional's guard on
    every trace that reaches it, about N^2/2 evaluations on the initial
    chain of N traces. It stops at the search's deadline, and replay of
    the initial chain is linear, so a 1 s search on 1,000 traces no
    longer runs for 3.5 s."""
    apis = [f"svc.Op{a}" for a in range(7)]
    ts = parse_traces(
        json.dumps([[{"api": apis[t % 7], "request": {"k": t}, "response": {"r": t}}] for t in range(1000)])
    )
    start = time.perf_counter()
    result = run_search(ts, config("alternating", timeout=1))
    assert time.perf_counter() - start < 2
    assert result.timed_out
    assert verify_final(result.program, result.sigma, ts)


def test_initial_valuation_is_linear_in_the_traces():
    """sigma stores one br cell per trace and one cell per call: a call
    reads as Absent on every other trace without a cell of its own."""
    n = 50
    ts = parse_traces(
        json.dumps([[{"api": "Api", "request": {"k": t}, "response": {"r": t}}] for t in range(n)])
    )
    _, sigma = build_initial(ts)
    assert len(sigma.entries) == 2 * n
    assert sigma.lookup("x1", n) == Scalar({"r": n - 1})
    assert sigma.lookup("x1", 1) == Scalar(ABSENT)
    assert sigma.traces_with_value("x1") == [n]
    # Writing Absent stores nothing, yet the cell reads back as Absent.
    sigma2 = ValuationTransform(new_entries={("x1", n): Scalar(ABSENT)}).apply(sigma)
    assert len(sigma2.entries) == 2 * n - 1
    assert sigma2.lookup("x1", n) == Scalar(ABSENT)
    assert sigma2.traces_with_value("x1") == []
    # A dropped variable is unknown, not Absent.
    sigma3 = ValuationTransform(drop_vars=("x2",)).apply(sigma2)
    with pytest.raises(ValuationError):
        sigma3.lookup("x2", 1)
    assert sigma3.lookup("x1", 1) == Scalar(ABSENT)


def test_a_helper_is_never_named_as_an_api():
    """The API f_1 is the name fresh_name would give the guard's helper;
    the script then read `f_1(id=i_1)` as a call of the helper."""
    traces = []
    for n, state in ((1, "running"), (2, "stopped"), (3, "running")):
        trace = [{"api": "f_1", "request": {"id": f"i-{n}"}, "response": {"state": state}}]
        if state == "running":
            trace.append({"api": "Stop", "request": {"id": f"i-{n}"}, "response": {}})
        traces.append(trace)
    ts = parse_traces(traces)
    result = run_search(ts, config("alternating"))
    assert "f_1" not in dict(result.program.hidden_defs)
    reparsed = parse_program(dsl.pretty_print(result.program))
    assert dsl.equiv_mod_renaming(reparsed, result.program)
    assert verify_final(reparsed, result.sigma, ts)


def test_alternating_on_motivating_fixture_matches_golden():
    ts = load("stop_instances_cond")
    result = run_search(ts, config("alternating"))
    golden = (BENCH / "stop_instances_cond" / "golden.txt").read_text()
    assert dsl.pretty_print(result.program) == golden
    assert verify_final(result.program, result.sigma, ts)


def test_timeout_returns_best_effort_state():
    ts = load("backup_then_delete_table")
    result = run_search(ts, config("alternating", timeout=1e-9))
    assert result.timed_out
    # Correctness is never given up for the deadline.
    assert verify_final(result.program, result.sigma, ts)
    initial, _ = build_initial(ts)
    assert result.cost <= make_cost_fn("syn")(initial, result.sigma, ts)


def test_unknown_strategy_and_missing_cost_fn_are_rejected():
    ts = load("create_table")
    with pytest.raises(SearchError):
        run_search(ts, config("simulated-annealing"))
    with pytest.raises(SearchError):
        run_search(ts, SearchConfig(strategy="alternating", cost_fn=None))


def test_verify_final_rejects_open_holes():
    ts = load("create_table")
    result = run_search(ts, config("alternating"))
    assert verify_final(result.program, result.sigma, ts)
    opened = dsl.Program(
        params=result.program.params,
        body=result.program.body,
        hidden_defs=result.program.hidden_defs,
        holes=("f_x",),
    )
    assert not verify_final(opened, result.sigma, ts)


def test_search_is_deterministic_across_runs():
    for name in ("backup_then_delete_table", "retrieve_channel_members"):
        ts = load(name)
        a = run_search(ts, config("alternating"))
        b = run_search(ts, config("alternating"))
        assert dsl.pretty_print(a.program) == dsl.pretty_print(b.program)
        assert a.cost == b.cost
        assert a.stats.rewrites == b.stats.rewrites


def stop_instances_traces(n):
    """stop_instances_cond-shaped logs: trace t stops its own instance,
    reads its state (running, stopped, shutting-down in turn), and
    force-stops it unless it is stopped."""
    ok = {"ResponseMetadata": {"HTTPStatusCode": 200}}
    traces = []
    for t in range(n):
        ids = [f"i-{t:05d}"]
        state = ("running", "stopped", "shutting-down")[t % 3]
        trace = [
            {"api": "ec2.StopInstances", "request": {"InstanceIds": ids, "Force": False},
             "response": ok},
            {"api": "ec2.DescribeInstanceStatus", "request": {"InstanceIds": ids},
             "response": {"InstanceStatuses": [{"InstanceState": {"Name": state}}]}},
        ]
        if state != "stopped":
            trace.append(
                {"api": "ec2.StopInstances", "request": {"InstanceIds": ids, "Force": True},
                 "response": ok}
            )
        traces.append(trace)
    return parse_traces(json.dumps(traces))


@pytest.mark.parametrize("strategy", ["alternating", "rts"])
def test_ill_formed_rewrites_are_rejected_not_raised(strategy):
    # At six traces a guard rewrite reads a binder of a sibling branch;
    # the filled-in program fails validation and must only be skipped.
    ts = stop_instances_traces(6)
    result = run_search(ts, config(strategy))
    assert verify_final(result.program, result.sigma, ts)
    initial, sigma = build_initial(ts)
    assert result.cost < make_cost_fn("syn")(initial, sigma, ts)


@pytest.mark.parametrize("strategy", ["alternating", "rts"])
def test_the_overall_deadline_bounds_pbe(strategy):
    """The search's deadline reaches the enumerator, and a run it cuts
    short says so. Stopping each instance in the reverse of the order
    listed leaves the InstanceIds argument underivable, so its
    enumeration runs through every size over every slice of the
    125-item list; with only its own (unset) timeout, run_search was
    still enumerating after 300 s."""
    running = [{"Name": "instance-state-name", "Values": ["running"]}]

    def trace(ids):
        return [
            {"api": "ec2.DescribeInstances", "request": {"Filters": running},
             "response": {"Reservations": [{"Instances": [{"InstanceId": i} for i in ids]}]}},
            {"api": "ec2.StopInstances", "request": {"InstanceIds": ids[::-1]},
             "response": {"StoppingInstances": [{"InstanceId": i} for i in ids]}},
        ]

    ts = parse_traces([trace([f"i-{k:08x}" for k in range(w)]) for w in (125, 62, 31)])
    start = time.monotonic()
    result = run_search(ts, config(strategy, timeout=1))
    assert time.monotonic() - start < 30
    assert result.timed_out
    assert verify_final(result.program, result.sigma, ts)


@pytest.mark.parametrize("name", ["backup_then_delete_table", "stop_instances_cond"])
@pytest.mark.parametrize("kind", ["syn", "traces"])
def test_a_plain_function_as_cost_fn_searches_as_the_cost_fn_does(name, kind):
    """perfbench's traced runs wrap cost_fn in another function, so the
    search may only call cost_fn with (candidate, sigma, ts), each
    candidate as it is: no other attribute of cost_fn is read."""
    ts = load(name)
    cost_fn = make_cost_fn(kind)
    for strategy in ("alternating", "rts", "ksearch"):
        a = run_search(ts, config(strategy, cost_fn=cost_fn))
        b = run_search(ts, config(strategy, cost_fn=lambda *args: cost_fn(*args)))
        assert dsl.pretty_print(a.program) == dsl.pretty_print(b.program)
        assert (a.cost, a.timed_out, a.stats) == (b.cost, b.timed_out, b.stats)


# The rules that build their candidates' bodies as they enumerate them:
# renaming reads and inlining a constant walk a built body.
EAGER_RULES = {"pull", "push", "merge_nested", "inline_trivial_hidden"}
FIXTURES = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())


@pytest.mark.parametrize("name", FIXTURES)
def test_only_the_rewrites_the_search_takes_are_built(name, monkeypatch):
    """An alternating run builds the spine of a candidate's program
    (replace_seq_at) only for a candidate it takes: a refinement it
    accepts, or a synthesizing rewrite whose holes it tries to fill.
    While rules enumerate, only the eager ones build."""
    building = [None]  # the rule enumerating, if any
    builds = []  # the rule that was enumerating at each build
    real_replace = rewrites.replace_seq_at
    monkeypatch.setattr(rewrites, "replace_seq_at", lambda *a: builds.append(building[0]) or real_replace(*a))
    for table in (rewrites._REFINE_FNS, rewrites._SYNTH_FNS):
        for rule, fn in list(table.items()):

            def enumerating(ix, ctx, rule=rule, fn=fn):
                building[0] = rule
                try:
                    return fn(ix, ctx)
                finally:
                    building[0] = None

            monkeypatch.setitem(table, rule, enumerating)

    lazy = []  # the candidates enumerate_rewrites left unbuilt
    real_enumerate = search.enumerate_rewrites

    def recording(*args):
        out = real_enumerate(*args)
        lazy.extend(rw for rw in out if rw._program is None)
        return out

    taken = {}  # id -> accepted rewrite or program handed to _close, kept alive
    real_log, real_close = search.SearchStats.log, search._close

    def log(stats, rw, *args):
        taken[id(rw)] = rw
        return real_log(stats, rw, *args)

    def close(program, *args):
        taken[id(program)] = program
        return real_close(program, *args)

    monkeypatch.setattr(search, "enumerate_rewrites", recording)
    monkeypatch.setattr(search.SearchStats, "log", log)
    monkeypatch.setattr(search, "_close", close)
    run_search(load(name), config("alternating"))

    assert set(builds) - {None} <= EAGER_RULES
    built = [rw for rw in lazy if rw._program is not None]
    assert builds.count(None) == len(built)
    assert all(id(rw) in taken or id(rw.program) in taken for rw in built)


class _Stub:
    """A rewrite as the search reads it, scored at a fixed cost. Its
    program is the state's own, which replays, so synthesis can close
    every stub."""

    specs = ()
    transform = ValuationTransform()

    def __init__(self, rule, cost, program):
        self.rule, self.site, self.cost, self.program = rule, "0", cost, program


@pytest.mark.parametrize("order", [("first", "second"), ("second", "first")])
@pytest.mark.parametrize("kind", ["refine", "synth"])
def test_of_equal_cost_improving_candidates_the_first_enumerated_is_taken(kind, order, monkeypatch):
    """Refinement and synthesis rank a state's candidates through one
    stable sort: the cheapest wins, and of two at the same cost, the
    one enumerated first. Candidates no cheaper than the state are
    never taken."""
    ts = load("create_table")
    program, sigma = build_initial(ts)
    stubs = [
        _Stub("dearer", 5, program),
        _Stub(order[0], 3, program),
        _Stub("not_lower", 10, program),
        _Stub(order[1], 3, program),
    ]
    enumerated = []

    def enumerate_once(p, s, k, ctx):
        enumerated.append(k)
        return stubs if len(enumerated) == 1 else []

    monkeypatch.setattr(search, "enumerate_rewrites", enumerate_once)
    cost_fn = lambda scored, s, t: scored.cost if isinstance(scored, _Stub) else 10  # noqa: E731
    ctx = rewrites.RewriteContext(ts, search.ConstraintCache())
    stats = search.SearchStats()
    deadline = search._Deadline(None)
    if kind == "refine":
        _, _, cost, timed_out = search._refine_to_fixpoint(
            program, sigma, 10, ts, cost_fn, ctx, stats, deadline
        )
    else:
        (_, _, cost), timed_out = search._try_synth(
            program, sigma, 10, ts, cost_fn, ctx, stats, deadline, default_retry_bound(ts)
        )
    assert enumerated[0] == kind and not timed_out
    assert cost == 3
    assert [(r["rule"], r["cost_before"], r["cost_after"]) for r in stats.rewrites] == [(order[0], 10, 3)]


# --- every branch is taken -------------------------------------------------------

FIXTURES = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())


def assert_every_branch_is_taken(ts, cfg):
    """At every state the search enumerates, each branch of each
    conditional outside a loop is reached by at least one trace. So no
    sequence nested in such a conditional is entered by every trace,
    and a loop span, which every trace must enter, can only lie in the
    top-level body: rewrites._find_spans scans nothing else."""
    states = []
    real_enumerate = search.enumerate_rewrites

    def recording(program, sigma, kind, ctx):
        states.append((program, sigma))
        return real_enumerate(program, sigma, kind, ctx)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "enumerate_rewrites", recording)
        run_search(ts, cfg)
    assert states
    for program, sigma in states:
        ix = rewrites.StateIndex(program, sigma, ts)
        for path, _, in_loop in ix.ites:
            for branch in () if in_loop else (0, 1):
                assert ix.reaching(path + (branch, 0)), (dsl.pretty_print(program), path, branch)


@pytest.mark.parametrize("cost", ["syn", "traces"])
@pytest.mark.parametrize("strategy", ["alternating", "rts", "ksearch"])
@pytest.mark.parametrize("name", FIXTURES)
def test_every_branch_of_every_searched_state_is_taken(name, strategy, cost):
    assert_every_branch_is_taken(load(name), config(strategy, k=2, cost_fn=make_cost_fn(cost)))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**9),
    st.sampled_from(["alternating", "rts", "ksearch"]),
    st.sampled_from(["syn", "traces"]),
)
def test_every_branch_is_taken_on_random_trace_sets(seed, strategy, cost):
    _, _, ts = generate_case(random.Random(seed))
    assert_every_branch_is_taken(ts, config(strategy, k=2, cost_fn=make_cost_fn(cost)))
