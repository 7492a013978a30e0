"""End-to-end checks for the command-line interface."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from tracesynth.cli import main
from tracesynth.parser import parse_program

BENCH = Path(__file__).resolve().parent.parent / "benchmarks"
SRC = BENCH.parent / "src"

REPORT_KEYS = {
    "benchmark",
    "outcome",
    "cost",
    "seconds",
    "pbe_calls",
    "pbe_sat",
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


def test_nonpositive_numeric_flags_exit_1(capsys):
    traces = fixture("create_table")
    assert main(["synth", "--traces", traces, "--timeout", "0"]) == 1
    assert main(["synth", "--traces", traces, "--pbe-max-size", "-3"]) == 1
    assert main(["synth", "--traces", traces, "--retry-bound", "0"]) == 1
    err = capsys.readouterr().err
    assert "must be positive" in err


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
