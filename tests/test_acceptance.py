"""End-to-end acceptance checks, one test per guaranteed behavior.

Run with -v to get a single pass/fail line for each guarantee. Every
test here is self-contained: it builds its own inputs from the checked
in benchmark fixtures or from seeded random programs and asserts the
promised outcome, so a failure points directly at a broken guarantee
rather than at a unit.
"""

import json
import random
import time
from pathlib import Path

from randprog import generate_case
from test_pbe import BOOL_SETS, VALUE_SETS, oracle_solve

from tracesynth import dsl
from tracesynth.cli import main
from tracesynth.costs import make_cost_fn
from tracesynth.evaluator import check_psi, default_retry_bound, execute
from tracesynth.hidden import eval_bool, eval_path, print_hidden_fn
from tracesynth.jsonvals import canonical_eq
from tracesynth.parser import parse_program
from tracesynth.pbe import ConstraintCache, GrammarConfig, synthesize
from tracesynth.rewrites import RewriteContext, enumerate_rewrites
from tracesynth.search import SearchConfig, build_initial, run_search
from tracesynth.traces import ValuationError, parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"

NAMED_FIXTURES = (
    "create_bucket_then_folder",
    "stop_instances_cond",
    "put_object_if_not_present",
    "backup_then_delete_table",
    "retrieve_channel_members",
    "start_instances_with_tags",
)


def load(name):
    return parse_traces((BENCH / name / "traces.json").read_text())


def search(name, **kw):
    kw.setdefault("strategy", "alternating")
    kw.setdefault("cost_fn", make_cost_fn("syn"))
    return run_search(load(name), SearchConfig(**kw))


def sole_hidden_fn(program):
    [(_, body)] = program.hidden_defs
    return print_hidden_fn(body)


def test_stop_instances_script_matches_its_golden_in_under_60s():
    started = time.monotonic()
    result = search("stop_instances_cond")
    elapsed = time.monotonic() - started
    golden = parse_program((BENCH / "stop_instances_cond" / "golden.txt").read_text())
    assert elapsed < 60.0
    assert dsl.equiv_mod_renaming(result.program, golden)
    assert sole_hidden_fn(result.program) == '(a0, a1, a2) -> !(a2..Name[0] == "stopped")'


def test_two_trace_fixture_costs_descend_62_53_44_43_41():
    result = search("stop_instances_cond_2traces")
    trajectory = [result.stats.rewrites[0]["cost_before"]]
    trajectory += [r["cost_after"] for r in result.stats.rewrites]
    assert trajectory == [62.0, 53.0, 44.0, 43.0, 41.0]
    assert all(b > a for b, a in zip(trajectory, trajectory[1:]))
    assert result.stats.rewrites[0]["rule"] == "pull"
    assert trajectory[0] - trajectory[1] == 9.0


def test_every_refinement_of_1000_random_programs_replays():
    failures = []
    for seed in range(1000):
        program, sigma, ts = generate_case(random.Random(seed))
        ctx = RewriteContext(ts, ConstraintCache())
        bound = default_retry_bound(ts)
        for rw in enumerate_rewrites(program, sigma, "refine", ctx):
            try:
                sigma2 = rw.transform.apply(sigma)
            except ValuationError:
                continue
            try:
                dsl.validate_program(rw.program)
            except dsl.DslError:
                failures.append((seed, rw.rule, rw.site))
                continue
            if not check_psi(rw.program, sigma2, ts, bound):
                failures.append((seed, rw.rule, rw.site))
    assert not failures, failures[:10]


def test_enumerator_verdicts_match_brute_force_up_to_size_5():
    for kind, sets, evaluate in (
        ("value", VALUE_SETS, eval_path),
        ("bool", BOOL_SETS, eval_bool),
    ):
        for examples in sets:
            started = time.monotonic()
            result = synthesize(examples, kind, GrammarConfig(max_size=5))
            assert time.monotonic() - started < 5.0
            found, best = oracle_solve(examples, kind, 5)
            assert result.sat == found
            if found:
                assert result.size == best
                for e in examples:
                    got = evaluate(result.expr, list(e.args))
                    assert canonical_eq(got, e.output)


def test_third_trace_upgrades_the_predicate_from_input_equality():
    two = search("stop_instances_cond_2traces")
    assert sole_hidden_fn(two.program) == '(a0, a1, a2) -> a0 == ["i-09dc8"]'
    three = search("stop_instances_cond")
    assert sole_hidden_fn(three.program) == '(a0, a1, a2) -> !(a2..Name[0] == "stopped")'


def test_benchmark_suite_grades_at_least_10_fixtures_optimal(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(["bench", "--suite", str(BENCH), "--report", str(report)])
    capsys.readouterr()
    assert code == 0
    rows = json.loads(report.read_text())
    by_name = {r["benchmark"]: r for r in rows}
    optimal = [r for r in rows if r["outcome"] == "Optimal"]
    assert len(optimal) >= 10
    for name in NAMED_FIXTURES:
        assert by_name[name]["outcome"] == "Optimal", name
    assert all(r["seconds"] < 600.0 for r in rows)


def test_bounded_two_step_search_misses_the_retry_loop():
    alt = search("backup_then_delete_table")
    assert any(isinstance(i, dsl.RetryUntil) for i in alt.program.body)

    k2 = search("backup_then_delete_table", strategy="ksearch", k=2)
    assert k2.cost > alt.cost
    assert not any(isinstance(i, dsl.RetryUntil) for i in k2.program.body)

    k0 = search("backup_then_delete_table", strategy="ksearch", k=0)
    initial, _ = build_initial(load("backup_then_delete_table"))
    assert dsl.pretty_print(k0.program) == dsl.pretty_print(initial)


def test_loop_semantics_bound_counters_and_early_return():
    def let(var, api, **kw):
        return dsl.LetVisible(var, api, tuple((k, dsl.Const(v)) for k, v in kw.items()))

    def run(program, queues, bound):
        calls = []

        def handler(api, request):
            calls.append(api)
            q = queues[api]
            return q.pop(0) if len(q) > 1 else q[0]

        state = execute(program, {}, handler, retry_bound=bound)
        return state, calls

    poll_loop = dsl.Program(
        params=(),
        body=(dsl.RetryUntil("loop_1", (let("d", "svc.Poll", n=1),), dsl.ValueCheck("d", "done")),),
        hidden_defs=(),
        holes=(),
    )

    # The body runs at most K times even when the predicate never holds.
    state, calls = run(poll_loop, {"svc.Poll": ["pending"]}, bound=4)
    assert calls == ["svc.Poll"] * 4
    assert state.loop_counters["loop_1"] == 0

    # Normal exit through the predicate also resets the counter.
    state, calls = run(poll_loop, {"svc.Poll": ["pending", "done"]}, bound=9)
    assert calls == ["svc.Poll"] * 2
    assert state.loop_counters["loop_1"] == 0

    # A return inside the loop ends the whole program, keeping only the
    # calls made so far; the statement after the loop never runs.
    returning = dsl.Program(
        params=(),
        body=(
            dsl.RetryUntil(
                "loop_1",
                (let("d", "svc.Poll", n=1), dsl.Ite(dsl.ValueCheck("d", "boom"), (dsl.Return(),), ())),
                dsl.ValueCheck("d", "done"),
            ),
            let("z", "svc.After"),
        ),
        hidden_defs=(),
        holes=(),
    )
    state, calls = run(returning, {"svc.Poll": ["pending", "boom"], "svc.After": [1]}, bound=9)
    assert calls == ["svc.Poll", "svc.Poll"]
    assert "z" not in state.bindings

    # Foreach visits every item and resets its counter on exit.
    foreach = dsl.Program(
        params=(),
        body=(
            let("xs", "svc.List"),
            dsl.Foreach(
                "loop_1",
                "u",
                dsl.VarRef("xs"),
                (dsl.LetVisible("y", "svc.Each", (("item", dsl.VarRef("u")),)),),
            ),
        ),
        hidden_defs=(),
        holes=(),
    )
    state, calls = run(foreach, {"svc.List": [["a", "b"]], "svc.Each": [0]}, bound=9)
    assert calls == ["svc.List", "svc.Each", "svc.Each"]
    assert state.loop_counters["loop_1"] == 0


def test_every_fixture_run_is_deterministic(tmp_path, capsys):
    fixtures = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())
    assert len(fixtures) >= 10
    for name in fixtures:
        runs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}.txt"
            report = tmp_path / f"{name}-{tag}.json"
            code = main(
                [
                    "synth",
                    "--traces", str(BENCH / name / "traces.json"),
                    "--golden", str(BENCH / name / "golden.txt"),
                    "--out", str(out),
                    "--report", str(report),
                ]
            )
            capsys.readouterr()
            assert code == 0
            data = json.loads(report.read_text())
            data.pop("seconds")
            runs.append((out.read_bytes(), data))
        assert runs[0] == runs[1], name

        # The printed script is the one the search found: it parses back
        # to the same program, which replays every trace.
        ts = load(name)
        result = search(name)
        script = dsl.pretty_print(result.program)
        assert script.encode() == runs[0][0], name
        reparsed = parse_program(script)
        assert dsl.equiv_mod_renaming(reparsed, result.program), name
        assert check_psi(reparsed, result.sigma, ts, default_retry_bound(ts)), name
