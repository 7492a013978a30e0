"""tracesynth benchmark: seeded trace sets through run_search + verify_final.

    python3 perfbench/run.py --workload loops --seed 1 --seconds 40 --trace 0

Run from anywhere; the program under test is <repo>/src/tracesynth. One
run of a workload:

1. generates the workload's trace sets from --seed (perfbench/gen.py);
2. times set-up (import tracesynth, parse_traces every set) in fresh
   interpreters, several times, and keeps the median;
3. grades every checked-in fixture under benchmarks/ against its
   golden.txt and counts the run incorrect unless all are Optimal;
4. runs the sets round-robin for --seconds, each run of a set in its
   own forked child under a per-set deadline and an address-space cap,
   with the CLI defaults (alternating strategy, syn cost, default
   GrammarConfig);
5. prints one line per set, then one JSON object as the last line. Its
   `attempted` and `failed` count sets, not runs of a set.

Load model: closed loop, one client: one set is synthesized at a time,
in this process's single worker child.

A set is solved when run_search and verify_final raise nothing, the
search returns before the deadline and verify_final passes. A set that
is not solved is charged the deadline in seconds, the memory cap in
peak RSS and 1.0 in cost ratio, so fixing it later can only improve a
metric. Each set's figures are the median over its runs.

Times are in reference seconds: each timed region is scaled by a fixed
reference loop run just before and after it in the same process (see
perfbench/refclock.py), so the shared machine's drifting speed does not
read as a change of the program.

With --trace 1 each set is run alternately untraced and traced, and the
run reports the per-layer metrics of perfbench/tracer.py instead; spans go
to perfbench/out/spans-<workload>-<seed>.jsonl.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import multiprocessing
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import mean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "benchmarks"
SPANS_DIR = HERE / "out"

# Per-set search deadline, passed as SearchConfig.timeout. The slowest
# set, cond at 48 traces, needs about 16 s once its crash is fixed.
DEADLINE_S = 30.0
# A child still running this long after its deadline is killed.
GRACE_S = 5.0
# RLIMIT_AS of each child. The widest wide set peaks near 240 MB RSS.
MEM_CAP_MB = 1024
SETUP_REPEATS = 7
# Minimum length of one visit to a set; see run_samples.
VISIT_S = 0.5
# No set starts unless it can be killed by then; keeps a run under 180 s.
RUN_LIMIT_S = 170.0

START = time.perf_counter()

_SETUP_CODE = """
import json, sys, time
sys.path.insert(0, sys.argv[2])
from refclock import normalized, reference_seconds
texts = json.loads(sys.stdin.read())
before = reference_seconds()
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import tracesynth
from tracesynth.traces import parse_traces
for text in texts:
    parse_traces(text)
wall = time.perf_counter() - t0
print(normalized(wall, before, reference_seconds()))
"""


def _fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


if not (SRC / "tracesynth" / "__init__.py").is_file():
    _fail(f"tracesynth sources not found under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from gen import WORKLOADS, generate  # noqa: E402
from refclock import normalized, reference_seconds  # noqa: E402

from tracesynth.costs import make_cost_fn  # noqa: E402
from tracesynth.dsl import equiv_mod_renaming, pretty_print  # noqa: E402
from tracesynth.evaluator import check_psi, default_retry_bound  # noqa: E402
from tracesynth.parser import parse_program  # noqa: E402
from tracesynth.search import SearchConfig, build_initial, run_search, verify_final  # noqa: E402
from tracesynth.traces import parse_traces  # noqa: E402
from tracer import Tracer, layer_metrics  # noqa: E402
from tracer import unit as layer_unit  # noqa: E402

END_TO_END_UNITS = {
    "synth_s.total": "s",
    "synth_s.p50": "s",
    "traces_per_s": "1/s",
    "solved_frac": "ratio",
    "golden_frac": "ratio",
    "cost_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def search_config() -> SearchConfig:
    """The CLI defaults, with the benchmark's per-set deadline."""
    return SearchConfig(strategy="alternating", cost_fn=make_cost_fn("syn"), timeout=DEADLINE_S)


# --- one set, in a child ------------------------------------------------------


def synth_set(ts, golden_text: str, traced: bool) -> dict:
    """Synthesize one set in this process and grade it. Only run_search
    and verify_final are timed."""
    cfg = search_config()
    initial, initial_sigma = build_initial(ts)
    initial_cost = cfg.cost_fn(initial, initial_sigma, ts)
    run, verify, tracer = run_search, verify_final, None
    if traced:
        tracer = Tracer()
        tracer.install()
        cfg.cost_fn = tracer.cost_fn(cfg.cost_fn)
        run = tracer.span("search.run", run_search)
        verify = tracer.span("search.verify_final", verify_final)
    out = {"error": None, "message": ""}
    before = reference_seconds()
    t0 = time.perf_counter()
    try:
        result = run(ts, cfg)
        verified = verify(result.program, result.sigma, ts, cfg.retry_bound)
    except Exception as exc:  # any crash is a failed set, recorded by class
        out["error"], out["message"] = type(exc).__name__, str(exc)
        result = None
        if tracer:
            tracer.counts["search.exceptions"] += 1
    out["wall_s"] = time.perf_counter() - t0
    out["seconds"] = normalized(out["wall_s"], before, reference_seconds())
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if result is not None:
        if tracer:
            tracer.counts["rewrites.accepted"] += len(result.stats.rewrites)
        if result.timed_out:
            out["error"] = "Timeout"
        elif not verified:
            out["error"] = "Unsound"
        else:
            out.update(grade(result, ts, golden_text, initial_cost))
    if tracer:
        out["spans"], out["counts"] = tracer.spans, dict(tracer.counts)
    return out


def grade(result, ts, golden_text: str, initial_cost: float) -> dict:
    """Outputs of a solved set: the printed script must parse back to the
    same program and replay every trace."""
    script = pretty_print(result.program)
    reparsed = parse_program(script)
    replays = equiv_mod_renaming(reparsed, result.program) and check_psi(
        reparsed, result.sigma, ts, default_retry_bound(ts)
    )
    return {
        "cost_ratio": result.cost / initial_cost,
        "golden": equiv_mod_renaming(result.program, parse_program(golden_text)),
        "script": script,
        "output_ok": replays,
    }


def _child(ts, golden_text, traced, conn) -> None:
    cap = MEM_CAP_MB * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    try:
        conn.send(synth_set(ts, golden_text, traced))
    finally:
        conn.close()


def run_isolated(ts, golden_text: str, traced: bool) -> dict:
    """synth_set in a forked child under the deadline and memory cap. The
    parent has no threads, and a fresh child per set makes its peak RSS
    that set's own."""
    ctx = multiprocessing.get_context("fork")
    recv_end, send_end = ctx.Pipe(duplex=False)
    proc = ctx.Process(target=_child, args=(ts, golden_text, traced, send_end))
    proc.start()
    send_end.close()
    try:
        if recv_end.poll(DEADLINE_S + GRACE_S):
            return recv_end.recv()
        return {"error": "Timeout", "message": "killed after deadline + grace"}
    except EOFError:
        proc.join()
        return {"error": "ChildDied", "message": f"exit code {proc.exitcode}"}
    finally:
        if proc.is_alive():
            proc.kill()
        proc.join()
        recv_end.close()


def charged(r: dict) -> dict:
    """A set's figures, with a failure charged the worst value."""
    ok = r["error"] is None
    return {
        "solved": ok,
        "seconds": r["seconds"] if ok else DEADLINE_S,
        "rss_mb": r["rss_mb"] if ok else float(MEM_CAP_MB),
        "cost_ratio": r["cost_ratio"] if ok else 1.0,
        "golden": ok and r["golden"],
    }


# --- a run ----------------------------------------------------------------------


def outcome_counts(per_set) -> tuple:
    """(attempted, failed) counted in sets, not in runs of a set: how many
    runs fit in --seconds depends on the machine's speed, whether a set
    fails does not. A set fails when any of its runs fails."""
    return len(per_set), sum(any(r["error"] is not None for r in rs) for rs in per_set)


def measure_setup(sets) -> float:
    """Median seconds to import tracesynth and parse every set, each
    sample in a fresh interpreter."""
    texts = json.dumps([json.dumps(s["traces"]) for s in sets])
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), str(HERE)],
            input=texts,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return median(samples)


def fixture_gate() -> list:
    """(name, outcome) for every fixture with a golden.txt."""
    rows = []
    for d in sorted(p for p in FIXTURES.iterdir() if (p / "golden.txt").is_file()):
        ts = parse_traces((d / "traces.json").read_text(encoding="utf-8"))
        golden = parse_program((d / "golden.txt").read_text(encoding="utf-8"))
        cfg = search_config()
        try:
            result = run_search(ts, cfg)
            ok = verify_final(result.program, result.sigma, ts, cfg.retry_bound)
        except Exception as exc:  # graded, not raised: the gate reports it
            rows.append((d.name, type(exc).__name__))
            continue
        if not ok:
            outcome = "Unsound"
        elif result.timed_out:
            outcome = "Timeout"
        elif equiv_mod_renaming(result.program, golden):
            outcome = "Optimal"
        else:
            outcome = "Terminated"
        rows.append((d.name, outcome))
    return rows


def run_samples(items, seconds: float, kinds) -> dict:
    """{(set index, kind): [result, ...]}. Sets are visited round-robin,
    once per kind in turn, until the next visit would overrun `seconds`
    going by its last duration; every set is visited at least once per
    kind. A visit runs its set repeatedly for at least VISIT_S, so quick
    sets get more samples. Round-robin spreads each set's samples over
    the whole window, so a slow phase of the machine does not hit one
    set only."""
    order = [(i, kind) for i in range(len(items)) for kind in kinds]
    samples = {key: [] for key in order}
    last = {}
    t0 = time.perf_counter()
    for n in itertools.count():
        key = order[n % len(order)]
        if n >= len(order) and time.perf_counter() - t0 + last[key] > seconds:
            return samples
        item = items[key[0]]
        started = time.perf_counter()
        while True:
            if time.perf_counter() - START + DEADLINE_S + GRACE_S > RUN_LIMIT_S:
                result = {"error": "Skipped", "message": "run time limit reached"}
            else:
                result = run_isolated(item["ts"], item["golden"], key[1] == "traced")
            samples[key].append(result)
            if result["error"] == "Skipped" or time.perf_counter() - started >= VISIT_S:
                break
        last[key] = time.perf_counter() - started


def end_to_end(items, samples, setup_s: float) -> dict:
    """samples[i] lists set i's untraced results. Each set contributes the
    median of its charged figures."""
    per_set = [[charged(r) for r in rs] for rs in samples]
    seconds = [median(c["seconds"] for c in cs) for cs in per_set]
    total = sum(seconds)
    solved = [mean(c["solved"] for c in cs) for cs in per_set]
    ratios = [median(c["cost_ratio"] for c in cs) for cs in per_set]
    return {
        "synth_s.total": total,
        "synth_s.p50": median(seconds),
        "traces_per_s": sum(len(it["ts"].traces) * s for it, s in zip(items, solved)) / total,
        "solved_frac": mean(solved),
        "golden_frac": mean(mean(c["golden"] for c in cs) for cs in per_set),
        "cost_ratio": math.exp(mean(math.log(r) for r in ratios)),
        "peak_rss_mb": max(median(c["rss_mb"] for c in cs) for cs in per_set),
        "setup_s": setup_s,
    }


def per_layer(items, plain, traced, spans_path: Path) -> dict:
    """Per-layer metrics from the traced samples, plus the tracing
    overhead against the untraced ones; writes every span to spans_path."""
    lines = []
    for item, rs in zip(items, traced):
        for k, r in enumerate(rs):
            for idx, (name, start, end, parent) in enumerate(r.get("spans", ())):
                lines.append(json.dumps(
                    {"set": item["name"], "sample": k, "span": idx, "name": name,
                     "start": start, "end": end, "parent": parent}
                ))
    spans_path.parent.mkdir(exist_ok=True)
    spans_path.write_text("".join(line + "\n" for line in lines))
    out = layer_metrics(
        [[(r.get("spans", []), r.get("counts", {}), r["seconds"] / r["wall_s"]) for r in rs if "wall_s" in r]
         for rs in traced]
    )

    def total(samples):
        """Sum of per-set median seconds as measured, up to a crash too,
        so that charged deadlines do not hide the tracing cost."""
        return sum(median(r.get("seconds") or DEADLINE_S for r in rs) for rs in samples)

    out["trace.overhead_frac"] = total(traced) / total(plain) - 1.0
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="tracesynth benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not FIXTURES.is_dir():
        _fail(f"fixture directory not found: {FIXTURES}")

    sets = generate(args.workload, args.seed)
    setup_s = None if args.trace else measure_setup(sets)
    items = [
        {"name": s["name"], "golden": s["golden"], "ts": parse_traces(json.dumps(s["traces"]))}
        for s in sets
    ]

    gate = fixture_gate()
    gate_ok = bool(gate) and all(outcome == "Optimal" for _, outcome in gate)
    print(f"fixture gate: {sum(o == 'Optimal' for _, o in gate)}/{len(gate)} Optimal")
    for name, outcome in gate:
        if outcome != "Optimal":
            print(f"  {name}: {outcome}")

    kinds = ("plain", "traced") if args.trace else ("plain",)
    samples = run_samples(items, args.seconds, kinds)
    plain = [samples[(i, "plain")] for i in range(len(items))]
    results = [r for rs in samples.values() for r in rs]
    attempted, failed = outcome_counts(
        [[r for kind in kinds for r in samples[(i, kind)]] for i in range(len(items))]
    )

    outputs_ok = all(r.get("output_ok", True) for r in results)
    deterministic = True
    for i, item in enumerate(items):
        rs = [r for kind in kinds for r in samples[(i, kind)]]
        deterministic &= len({r["script"] for r in rs if "script" in r}) <= 1
        cs = [charged(r) for r in plain[i]]
        errors = sorted({r["error"] for r in rs if r["error"]})
        print(
            f"{item['name']:<16} traces={len(item['ts'].traces):<3} "
            f"seconds={median(c['seconds'] for c in cs):.4f} "
            f"wall_s={median(r.get('wall_s', DEADLINE_S) for r in plain[i]):.4f} "
            f"rss_mb={median(c['rss_mb'] for c in cs):.1f} "
            f"solved={sum(c['solved'] for c in cs)}/{len(cs)} "
            f"golden={sum(c['golden'] for c in cs)}/{len(cs)} "
            f"cost_ratio={median(c['cost_ratio'] for c in cs):.4f}"
            + (f" failed={','.join(errors)}" if errors else "")
        )
        if errors:
            first = next(r for r in rs if r["error"])
            print(f"  {first['error']}: {first['message']}")
    if not outputs_ok:
        print("incorrect: a printed script does not parse back or replay its traces")
    if not deterministic:
        print("incorrect: a set's script differs between samples")

    if args.trace:
        traced = [samples[(i, "traced")] for i in range(len(items))]
        spans_path = SPANS_DIR / f"spans-{args.workload}-{args.seed}.jsonl"
        metrics = per_layer(items, plain, traced, spans_path)
        units = {k: layer_unit(k) for k in metrics}
        print(f"spans: {spans_path}")
    else:
        metrics = end_to_end(items, plain, setup_s)
        units = END_TO_END_UNITS
        print(f"synth_s.p50 is the median over {len(items)} sets")
    for k, v in metrics.items():
        print(f"  {k} = {v:.6g} {units[k]}")
    correct = gate_ok and outputs_ok and deterministic
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
