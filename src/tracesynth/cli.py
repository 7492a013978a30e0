"""Command-line front end.

`tracesynth synth` runs one trace set through the selected strategy and
prints the resulting script; `tracesynth bench` grades a directory of
fixtures against their checked-in expected scripts; `tracesynth pbe`
solves a standalone hidden-function constraint set.

Exit codes: 0 success, 1 bad input or usage, 2 timeout (the best
program found so far is still emitted), 3 final replay verification
failed (nothing incorrect is ever written).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import List, Optional

from . import dsl
from .costs import CostWeights, make_cost_fn
from .parser import ParseError, parse_program
from .pbe import GrammarConfig, IOExample, synthesize
from .search import SearchConfig, SearchError, run_search, verify_final
from .traces import TraceError, TraceSet, parse_traces

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_TIMEOUT = 2
EXIT_UNSOUND = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"{self.prog}: error: {message}\n")


def build_arg_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tracesynth", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="synthesize a script from traces")
    _add_run_flags(synth)
    synth.add_argument("--traces", required=True, help="trace-set JSON file")
    synth.add_argument("--out", help="write the script here as well as stdout")
    synth.add_argument("--golden", help="expected script; grades the run Optimal on a match")
    synth.add_argument("--benchmark", help="name used in the report (default: traces file stem)")

    bench = sub.add_parser("bench", help="run a fixture suite")
    _add_run_flags(bench)
    bench.add_argument("--suite", required=True, help="directory of <name>/traces.json fixtures")

    pbe = sub.add_parser("pbe", help="solve one hidden-function constraint set")
    pbe.add_argument("--examples", required=True, help="JSON file: {kind, examples: [{args, output}]}")
    pbe.add_argument("--max-size", type=int, default=8)
    pbe.add_argument("--timeout", type=float, default=None)
    return p


def _add_run_flags(p) -> None:
    p.add_argument("--strategy", choices=("alternating", "rts", "ksearch"), default="alternating")
    p.add_argument("--k", type=int, default=2, help="rewrite budget for ksearch")
    p.add_argument("--cost", choices=("syn", "traces"), default="syn")
    p.add_argument("--retry-bound", type=int, default=None, help="loop iteration cap K")
    p.add_argument("--timeout", type=float, default=None, help="overall deadline in seconds")
    p.add_argument("--pbe-max-size", type=int, default=8)
    p.add_argument("--pbe-timeout", type=float, default=None)
    p.add_argument("--weights", help="JSON object overriding cost weights")
    p.add_argument("--report", help="write the JSON report here")
    p.add_argument("--log-rewrites", help="write the applied-rewrite log here")


def _positive(name: str, value) -> None:
    if value is not None and value <= 0:
        raise ValueError(f"--{name} must be positive")


def _search_config(args) -> SearchConfig:
    _positive("k", args.k if args.strategy == "ksearch" else 1)
    _positive("retry-bound", args.retry_bound)
    _positive("timeout", args.timeout)
    _positive("pbe-max-size", args.pbe_max_size)
    _positive("pbe-timeout", args.pbe_timeout)
    if args.strategy == "ksearch" and args.k < 0:
        raise ValueError("--k must be >= 0")
    weights = CostWeights()
    if args.weights:
        weights = CostWeights.from_dict(json.loads(args.weights))
    return SearchConfig(
        strategy=args.strategy,
        k=args.k,
        cost_fn=make_cost_fn(args.cost, weights),
        retry_bound=args.retry_bound,
        timeout=args.timeout,
        pbe=GrammarConfig(max_size=args.pbe_max_size, timeout=args.pbe_timeout),
    )


def _load_traces(path: str) -> TraceSet:
    return parse_traces(Path(path).read_text(encoding="utf-8"))


def _load_golden(path: str) -> dsl.Program:
    return parse_program(Path(path).read_text(encoding="utf-8"))


def _grade(program: dsl.Program, golden: Optional[dsl.Program], timed_out: bool) -> str:
    if timed_out:
        return "Timeout"
    if golden is not None and dsl.equiv_mod_renaming(program, golden):
        return "Optimal"
    return "Terminated"


def _run_one(name: str, ts: TraceSet, cfg: SearchConfig, golden):
    """Search one trace set and grade it. Returns (text, report, exit)."""
    started = time.monotonic()
    result = run_search(ts, cfg)
    seconds = time.monotonic() - started
    if not verify_final(result.program, result.sigma, ts, cfg.retry_bound):
        return None, {"benchmark": name, "outcome": "Unsound"}, EXIT_UNSOUND
    outcome = _grade(result.program, golden, result.timed_out)
    report = {
        "benchmark": name,
        "outcome": outcome,
        "cost": result.cost,
        "seconds": round(seconds, 3),
        "pbe_calls": result.stats.pbe_calls,
        "pbe_sat": result.stats.pbe_sat,
        "rewrites": result.stats.rewrites,
    }
    code = EXIT_TIMEOUT if result.timed_out else EXIT_OK
    return dsl.pretty_print(result.program), report, code


def _write(path: Optional[str], text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")


def cmd_synth(args) -> int:
    cfg = _search_config(args)
    ts = _load_traces(args.traces)
    golden = _load_golden(args.golden) if args.golden else None
    name = args.benchmark or Path(args.traces).stem
    text, report, code = _run_one(name, ts, cfg, golden)
    if code == EXIT_UNSOUND:
        print("final program failed replay verification", file=sys.stderr)
        return code
    sys.stdout.write(text)
    _write(args.out, text)
    _write(args.report, json.dumps(report, indent=2) + "\n")
    _write(args.log_rewrites, json.dumps(report["rewrites"], indent=2) + "\n")
    return code


def cmd_bench(args) -> int:
    suite = Path(args.suite)
    if not suite.is_dir():
        raise TraceError(f"suite directory not found: {suite}")
    fixtures = sorted(d for d in suite.iterdir() if (d / "traces.json").is_file())
    if not fixtures:
        raise TraceError(f"no <name>/traces.json fixtures under {suite}")
    reports = []
    worst = EXIT_OK
    for d in fixtures:
        cfg = _search_config(args)
        ts = _load_traces(str(d / "traces.json"))
        golden_path = d / "golden.txt"
        golden = _load_golden(str(golden_path)) if golden_path.is_file() else None
        text, report, code = _run_one(d.name, ts, cfg, golden)
        reports.append(report)
        if code == EXIT_UNSOUND:
            worst = EXIT_UNSOUND
        print(
            "{name:<32} {outcome:<10} cost={cost} seconds={seconds} pbe={calls}/{sat}".format(
                name=report["benchmark"],
                outcome=report["outcome"],
                cost=report.get("cost", "-"),
                seconds=report.get("seconds", "-"),
                calls=report.get("pbe_calls", "-"),
                sat=report.get("pbe_sat", "-"),
            )
        )
        if text is not None:
            _write(str(d / "result.txt"), text)
    _write(args.report, json.dumps(reports, indent=2) + "\n")
    return worst


def cmd_pbe(args) -> int:
    _positive("max-size", args.max_size)
    _positive("timeout", args.timeout)
    data = json.loads(Path(args.examples).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "kind" not in data or "examples" not in data:
        raise ValueError("examples file must be {kind, examples: [{args, output}]}")
    examples = [
        IOExample(args=tuple(ex["args"]), output=ex["output"])
        for ex in data["examples"]
    ]
    cfg = GrammarConfig(max_size=args.max_size, timeout=args.timeout)
    result = synthesize(examples, data["kind"], cfg)
    if result.status == "timeout":
        print("timeout")
        return EXIT_TIMEOUT
    if not result.sat:
        print("unsat")
        return EXIT_OK
    from .hidden import print_hidden_fn

    print(print_hidden_fn(result.fn_body()))
    return EXIT_OK


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_arg_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args)
        if args.command == "bench":
            return cmd_bench(args)
        return cmd_pbe(args)
    except (TraceError, ParseError, SearchError, ValueError, OSError) as exc:
        print(f"tracesynth: {exc}", file=sys.stderr)
        return EXIT_ERROR


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
