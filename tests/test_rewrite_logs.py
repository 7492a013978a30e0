"""Every fixture's search, pinned: the rewrites it applies, each as
(rule, site, cost before, cost after), and the printed script, for the
alternating and rts strategies under the syn and traces costs.

tests/data/rewrite_logs.json holds them. The fixtures have at most four
traces, so tests/data/deep_chain_logs.json also pins the alternating/syn
search of three 48-trace sets copied into tests/data/deep_chains/ (a
cond, a retry and a foreach set), whose pulls merge arguments into
conditional expressions of up to 47 cases.

A performance or simplicity change must leave both files as they are. A
change that means to alter the search's outputs regenerates them on
purpose, and says so:

    PYTHONPATH=src python tests/test_rewrite_logs.py
"""

import json
from pathlib import Path

import pytest

from tracesynth.costs import make_cost_fn
from tracesynth.dsl import pretty_print
from tracesynth.search import SearchConfig, run_search
from tracesynth.traces import parse_traces

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "benchmarks"
DATA = HERE / "data" / "rewrite_logs.json"
DEEP = HERE / "data" / "deep_chains"
DEEP_DATA = HERE / "data" / "deep_chain_logs.json"
FIXTURES = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())
STRATEGIES = ("alternating", "rts")
COSTS = ("syn", "traces")
DEEP_SETS = sorted(p.stem for p in DEEP.glob("*.json"))


def search_outputs(path, strategy, cost):
    """The rewrite log and printed script of the search of the trace set
    in path."""
    ts = parse_traces(path.read_text())
    result = run_search(ts, SearchConfig(strategy=strategy, cost_fn=make_cost_fn(cost)))
    log = [[r["rule"], r["site"], r["cost_before"], r["cost_after"]] for r in result.stats.rewrites]
    return {"rewrites": log, "script": pretty_print(result.program)}


def key(name, strategy, cost):
    return f"{name} {strategy} {cost}"


def fixture_outputs(name, strategy, cost):
    return search_outputs(BENCH / name / "traces.json", strategy, cost)


def deep_outputs(name):
    return search_outputs(DEEP / f"{name}.json", "alternating", "syn")


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_every_fixture_strategy_and_cost_is_pinned(pinned):
    assert sorted(pinned) == sorted(key(n, s, c) for n in FIXTURES for s in STRATEGIES for c in COSTS)


@pytest.mark.parametrize("cost", COSTS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", FIXTURES)
def test_search_outputs_match_the_pinned_ones(name, strategy, cost, pinned):
    assert fixture_outputs(name, strategy, cost) == pinned[key(name, strategy, cost)]


def test_every_deep_chain_set_is_pinned():
    assert DEEP_SETS == ["cond-8-n48", "foreach-n48", "retry-n48"]
    assert sorted(json.loads(DEEP_DATA.read_text())) == DEEP_SETS


@pytest.mark.parametrize("name", DEEP_SETS)
def test_deep_chain_outputs_match_the_pinned_ones(name):
    assert deep_outputs(name) == json.loads(DEEP_DATA.read_text())[name]


def _write(path, outputs):
    path.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    _write(DATA, {key(n, s, c): fixture_outputs(n, s, c) for n in FIXTURES for s in STRATEGIES for c in COSTS})
    _write(DEEP_DATA, {n: deep_outputs(n) for n in DEEP_SETS})
