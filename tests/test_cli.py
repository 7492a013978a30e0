"""End-to-end checks for the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path

import pytest

from tracesynth.cli import main
from tracesynth.evaluator import default_retry_bound, replay_check
from tracesynth.parser import parse_program
from tracesynth.traces import parse_traces

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = BENCH.parent / "src"

REPORT_KEYS = {
    "benchmark",
    "outcome",
    "cost",
    "seconds",
    "pbe_calls",
    "pbe_sat",
    "states_seen",
    "rewrites",
}


def fixture(name, part="traces.json"):
    return str(BENCH / name / part)


def test_synth_prints_and_writes_the_script(tmp_path, capsys):
    out = tmp_path / "out.txt"
    report = tmp_path / "report.json"
    code = main(
        [
            "synth",
            "--traces", fixture("create_table"),
            "--benchmark", "create_table",
            "--out", str(out),
            "--report", str(report),
        ]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert printed == out.read_text()
    assert printed.startswith("lambda")
    parse_program(printed)

    data = json.loads(report.read_text())
    assert set(data) == REPORT_KEYS
    assert data["benchmark"] == "create_table"
    assert data["outcome"] == "Terminated"
    assert data["cost"] == 11.0
    assert data["pbe_calls"] == 0
    for entry in data["rewrites"]:
        assert set(entry) == {"rule", "site", "cost_before", "cost_after"}


def test_synth_grades_against_a_golden_script(tmp_path, capsys):
    code = main(
        [
            "synth",
            "--traces", fixture("create_table"),
            "--golden", fixture("create_table", "golden.txt"),
            "--report", str(tmp_path / "r.json"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "r.json").read_text())["outcome"] == "Optimal"

    code = main(
        [
            "synth",
            "--traces", fixture("create_table"),
            "--golden", fixture("delete_table", "golden.txt"),
            "--report", str(tmp_path / "r2.json"),
        ]
    )
    assert code == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "r2.json").read_text())["outcome"] == "Terminated"


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["synth"])
    assert exc.value.code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["tracesynth", "tracesynth.cli"])
def test_python_dash_m_runs_the_command_line(module):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", module, "synth"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("usage: tracesynth synth")
    assert "--traces" in proc.stderr


def test_unreadable_or_invalid_inputs_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("this is not json")
    assert main(["synth", "--traces", str(bad)]) == 1
    assert capsys.readouterr().err.startswith("tracesynth:")

    assert main(["synth", "--traces", str(tmp_path / "missing.json")]) == 1
    capsys.readouterr()


@contextmanager
def recursion_limit_above_caller(frames):
    """The recursion limit set frames above the caller's stack depth."""
    depth = 0
    frame = sys._getframe(2)
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + frames)
    try:
        yield
    finally:
        sys.setrecursionlimit(limit)


def test_200_one_call_traces_synthesize_at_a_lowered_recursion_limit(tmp_path, capsys):
    """The initial program nests one conditional per trace. Replay walks
    it with an explicit stack, and pull merges the branches' calls into
    one call whose argument is one flat conditional expression with a
    case per trace, which every term walk takes in a loop. So 200
    one-call traces synthesize with 150 frames to spare; the nested form
    of that argument went a frame down per trace and stopped there."""
    traces = tmp_path / "wide.json"
    traces.write_text(
        json.dumps([[{"api": "Api", "request": {"k": t}, "response": {"r": t}}] for t in range(200)])
    )
    with recursion_limit_above_caller(150):
        code = main(["synth", "--traces", str(traces)])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "lambda i_1.\n  let x200 = Api(k=i_1)\n"
    program, ts = parse_program(captured.out), parse_traces(traces.read_text())
    for t, trace in enumerate(ts.traces):
        assert replay_check(program, {"i_1": t}, trace, default_retry_bound(ts)) == (True, "")


def test_too_deeply_nested_input_exits_1_without_a_traceback(tmp_path, capsys):
    """The JSON decoder recurses once per nested array. At a lowered
    limit, a request value nested 300 deep stops it, and the command
    reports that in one line rather than a traceback."""
    value = "leaf"
    for _ in range(300):
        value = [value]
    traces = tmp_path / "deep.json"
    traces.write_text(json.dumps([[{"api": "Api", "request": {"k": value}, "response": {}}]]))
    with recursion_limit_above_caller(150):
        code = main(["synth", "--traces", str(traces)])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("tracesynth: ")
    assert captured.err.count("\n") == 1
    assert "recursion" in captured.err and "Traceback" not in captured.err


def test_a_request_value_nested_600_deep_synthesizes_and_replays(tmp_path, capsys):
    """Replay compares each request with the recorded one through
    jsonvals.canonical_eq, which walks an explicit stack. A request
    value too deep for a recursive comparison (it stopped at about 340
    levels) still synthesizes, verifies and prints."""
    value = "leaf"
    for _ in range(600):
        value = [value]
    traces = tmp_path / "deep_request.json"
    traces.write_text(
        json.dumps([[{"api": "svc.Put", "request": {"v": value}, "response": {"ok": t}}] for t in range(2)])
    )
    assert main(["synth", "--traces", str(traces)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("lambda") and "svc.Put(v=" + "[" * 600 + '"leaf"' in captured.out


@pytest.mark.parametrize("depth", [600, 900])
def test_a_response_value_nested_deep_feeds_a_helper(depth, tmp_path, capsys):
    """PBE keys every example value, and mines its constants, off
    explicit stacks: a response too deep for the recursive walks (they
    stopped between 450 and 500 levels) still yields the helper that
    reads its id."""

    def trace(t):
        value = "leaf"
        for _ in range(depth):
            value = [value]
        return [
            {
                "api": "svc.Create",
                "request": {"name": f"n{t}"},
                "response": {"deep": value, "id": f"id-{t}"},
            },
            {"api": "svc.Get", "request": {"id": f"id-{t}"}, "response": {"ok": True}},
        ]

    traces = tmp_path / "deep_response.json"
    traces.write_text(json.dumps([trace(t) for t in range(3)]))
    assert main(["synth", "--traces", str(traces)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "f_1 := (a0, a1) -> a1.id" in captured.out


def test_an_int_too_large_for_a_float_beside_floats_synthesizes(tmp_path, capsys):
    """PBE mines the constants of int + e from output - argument
    differences; a 401-digit int minus a float overflows, so that pair
    gives no constant and the search goes on."""
    traces = tmp_path / "big_int.json"
    traces.write_text(
        json.dumps(
            [
                [
                    {"api": "A", "request": {"x": 0}, "response": {"v": 10**400}},
                    {"api": "B", "request": {"y": y}, "response": {}},
                ]
                for y in (1.5, 2.5)
            ]
        )
    )
    assert main(["synth", "--traces", str(traces)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert "B(y=(br == 1) ? 1.5 : 2.5)" in captured.out


def test_pbe_on_an_int_too_large_for_a_float_beside_floats_exits_0(tmp_path, capsys):
    examples = tmp_path / "big_int.json"
    examples.write_text(
        json.dumps(
            {"kind": "value", "examples": [{"args": [10**400], "output": 1.5}, {"args": [3], "output": 2.5}]}
        )
    )
    assert main(["pbe", "--examples", str(examples)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.strip() == "unsat"


def assert_one_error_line(err):
    assert err.startswith("tracesynth: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_non_finite_number_in_a_trace_file_exits_1(tmp_path, capsys):
    traces = tmp_path / "nan.json"
    traces.write_text(
        '[[{"api": "a.B", "request": {"k": NaN}, "response": 1}],'
        ' [{"api": "a.B", "request": {"k": 2}, "response": 1}]]'
    )
    assert main(["synth", "--traces", str(traces)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert "non-finite number: NaN" in captured.err


@pytest.mark.parametrize(
    "golden, message",
    [
        ("lambda p.\n  let v = f_1(p)\nwhere\n  f_1 := (a0) -> a0.", "expected a key at offset 53"),
        ("lambda p.\n  let x = svc.Op(k=1e)\n", "bad literal '1e' at offset 29"),
    ],
)
def test_a_malformed_golden_exits_1(golden, message, tmp_path, capsys):
    path = tmp_path / "golden.txt"
    path.write_text(golden)
    assert main(["synth", "--traces", fixture("create_table"), "--golden", str(path)]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert message in err


def test_ksearch_takes_k_0_but_not_a_negative_k(capsys):
    traces = fixture("create_table")
    assert main(["synth", "--traces", traces, "--strategy", "ksearch", "--k", "0"]) == 0
    parse_program(capsys.readouterr().out)
    assert main(["synth", "--traces", traces, "--strategy", "ksearch", "--k", "-1"]) == 1
    assert_one_error_line(capsys.readouterr().err)


def test_nonpositive_numeric_flags_exit_1(capsys):
    traces = fixture("create_table")
    assert main(["synth", "--traces", traces, "--timeout", "0"]) == 1
    assert main(["synth", "--traces", traces, "--pbe-max-size", "-3"]) == 1
    assert main(["synth", "--traces", traces, "--retry-bound", "0"]) == 1
    err = capsys.readouterr().err
    assert "must be positive" in err


@pytest.mark.parametrize("flag", ["--timeout", "--pbe-timeout"])
def test_a_nan_synth_timeout_exits_1(flag, capsys):
    """NaN is not positive: a deadline of NaN seconds would never expire."""
    assert main(["synth", "--traces", fixture("create_table"), flag, "nan"]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert f"{flag} must be positive" in err


def test_a_nan_pbe_timeout_exits_1(tmp_path, capsys):
    examples = tmp_path / "ex.json"
    examples.write_text(json.dumps({"kind": "value", "examples": [{"args": [1], "output": 1}]}))
    assert main(["pbe", "--examples", str(examples), "--timeout", "nan"]) == 1
    err = capsys.readouterr().err
    assert_one_error_line(err)
    assert "--timeout must be positive" in err


def test_timeout_exits_2_but_still_emits_a_correct_script(tmp_path, capsys):
    report = tmp_path / "r.json"
    code = main(
        [
            "synth",
            "--traces", fixture("backup_then_delete_table"),
            "--timeout", "1e-9",
            "--report", str(report),
        ]
    )
    assert code == 2
    printed = capsys.readouterr().out
    parse_program(printed)
    assert json.loads(report.read_text())["outcome"] == "Timeout"


def test_weights_flag_steers_the_search_objective(tmp_path, capsys):
    # Cheap statements make branch merging cost-neutral (every merge trades
    # a statement for a selector read), so the branchy program survives.
    report = tmp_path / "r.json"
    code = main(
        [
            "synth",
            "--traces", fixture("create_table"),
            "--weights", json.dumps({"statement": 1.0}),
            "--report", str(report),
        ]
    )
    assert code == 0
    assert "if br == 1" in capsys.readouterr().out
    assert json.loads(report.read_text())["cost"] == 8.0

    # Scaling every weight uniformly preserves the default outcome.
    code = main(
        [
            "synth",
            "--traces", fixture("create_table"),
            "--weights", json.dumps(
                {"statement": 20.0, "parameter": 2.0, "br_usage": 2.0}
            ),
            "--report", str(report),
        ]
    )
    assert code == 0
    assert "if br" not in capsys.readouterr().out
    assert json.loads(report.read_text())["cost"] == 22.0

    assert main(
        [
            "synth",
            "--traces", fixture("create_table"),
            "--weights", json.dumps({"bogus_knob": 1.0}),
        ]
    ) == 1
    assert "unknown weight names" in capsys.readouterr().err


@pytest.mark.parametrize(
    "weights",
    [
        "null",
        '{"statement": null}',
        '{"statement": true}',
        '{"statement": NaN}',
        '{"statement": -Infinity}',
        pytest.param('{"statement": 1%s}' % ("0" * 400), id="401-digit-int"),
        "[1]",
    ],
)
def test_weights_that_are_not_an_object_of_numbers_exit_1(weights, capsys):
    assert main(["synth", "--traces", fixture("create_table"), "--weights", weights]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tracesynth: ") and "weights must be" in err
    assert "Traceback" not in err


def test_synth_output_and_report_are_deterministic(tmp_path, capsys):
    runs = []
    for tag in ("one", "two"):
        out = tmp_path / f"{tag}.txt"
        report = tmp_path / f"{tag}.json"
        code = main(
            [
                "synth",
                "--traces", fixture("retrieve_channel_members"),
                "--out", str(out),
                "--report", str(report),
            ]
        )
        assert code == 0
        capsys.readouterr()
        data = json.loads(report.read_text())
        data.pop("seconds")
        runs.append((out.read_bytes(), data))
    assert runs[0] == runs[1]


def test_bench_grades_a_fixture_suite(tmp_path, capsys):
    suite = tmp_path / "suite"
    for name in ("create_table", "delete_table"):
        shutil.copytree(BENCH / name, suite / name)
    report = tmp_path / "report.json"
    code = main(["bench", "--suite", str(suite), "--report", str(report)])
    assert code == 0

    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("create_table")
    assert lines[1].startswith("delete_table")
    for line in lines:
        assert "Optimal" in line
        assert "cost=" in line and "seconds=" in line and "pbe=" in line

    data = json.loads(report.read_text())
    assert [r["benchmark"] for r in data] == ["create_table", "delete_table"]
    assert all(r["outcome"] == "Optimal" for r in data)
    for name in ("create_table", "delete_table"):
        parse_program((suite / name / "result.txt").read_text())


def test_bench_rejects_missing_or_empty_suites(tmp_path, capsys):
    assert main(["bench", "--suite", str(tmp_path / "nope")]) == 1
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main(["bench", "--suite", str(empty)]) == 1
    err = capsys.readouterr().err
    assert "suite" in err or "fixtures" in err


def test_only_synth_takes_log_rewrites(tmp_path, capsys):
    log = tmp_path / "log.json"
    assert main(["synth", "--traces", fixture("create_table"), "--log-rewrites", str(log)]) == 0
    assert [r["rule"] for r in json.loads(log.read_text())]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--suite", str(BENCH), "--log-rewrites", "x"])
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: tracesynth")
    assert "unrecognized arguments: --log-rewrites x" in err


def test_pbe_subcommand_solves_and_reports_unsat(tmp_path, capsys):
    sat = tmp_path / "sat.json"
    sat.write_text(
        json.dumps(
            {
                "kind": "value",
                "examples": [
                    {"args": [{"a": 1}], "output": 1},
                    {"args": [{"a": 5}], "output": 5},
                ],
            }
        )
    )
    assert main(["pbe", "--examples", str(sat)]) == 0
    printed = capsys.readouterr().out.strip()
    assert printed == "(a0) -> a0.a"

    unsat = tmp_path / "unsat.json"
    unsat.write_text(
        json.dumps(
            {
                "kind": "value",
                "examples": [
                    {"args": [1], "output": 2},
                    {"args": [1], "output": 3},
                ],
            }
        )
    )
    assert main(["pbe", "--examples", str(unsat), "--max-size", "3"]) == 0
    assert capsys.readouterr().out.strip() == "unsat"

    assert main(["pbe", "--examples", str(sat), "--timeout", "1e-9"]) == 2
    assert capsys.readouterr().out.strip() == "timeout"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"examples": []}))
    assert main(["pbe", "--examples", str(bad)]) == 1
    assert "kind" in capsys.readouterr().err


@pytest.mark.parametrize(
    "data",
    [
        {"kind": "value", "examples": [{"args": [1]}]},
        {"kind": "value", "examples": [{"args": 1, "output": 1}]},
        {"kind": "value", "examples": "x"},
    ],
)
def test_pbe_rejects_a_malformed_examples_file(data, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["pbe", "--examples", str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("tracesynth: examples file must be")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "text, number",
    [
        ('{"kind": "value", "examples": [{"args": [NaN], "output": NaN}, {"args": [2], "output": 2}]}', "NaN"),
        ('{"kind": "value", "examples": [{"args": [1e400], "output": 1}, {"args": [2], "output": 2}]}', "1e400"),
        ('{"kind": "bool", "examples": [{"args": [{"k": -Infinity}], "output": true}]}', "-Infinity"),
        ('{"kind": "value", "examples": [{"args": [1], "output": Infinity}]}', "Infinity"),
    ],
)
def test_pbe_rejects_a_non_finite_number_in_the_examples_file(text, number, tmp_path, capsys):
    bad = tmp_path / "nan.json"
    bad.write_text(text)
    assert main(["pbe", "--examples", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert_one_error_line(captured.err)
    assert f"examples file holds a non-finite number: {number}" in captured.err


def test_pbe_keeps_finite_floats_in_the_examples_file(tmp_path, capsys):
    ok = tmp_path / "floats.json"
    ok.write_text('{"kind": "value", "examples": [{"args": [{"x": 1.5}], "output": 1.5}, {"args": [{"x": -2e3}], "output": -2e3}]}')
    assert main(["pbe", "--examples", str(ok)]) == 0
    assert capsys.readouterr().out.strip() == "(a0) -> a0.x"
