"""Every fixture's search, pinned: the rewrites it applies, each as
(rule, site, cost before, cost after), and the printed script, for the
alternating and rts strategies under the syn and traces costs.

tests/data/rewrite_logs.json holds them. A performance or simplicity
change must leave them as they are. A change that means to alter the
search's outputs regenerates the file on purpose, and says so:

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
FIXTURES = sorted(d.name for d in BENCH.iterdir() if (d / "traces.json").is_file())
STRATEGIES = ("alternating", "rts")
COSTS = ("syn", "traces")


def search_outputs(name, strategy, cost):
    """The rewrite log and printed script of one fixture's search."""
    ts = parse_traces((BENCH / name / "traces.json").read_text())
    result = run_search(ts, SearchConfig(strategy=strategy, cost_fn=make_cost_fn(cost)))
    log = [[r["rule"], r["site"], r["cost_before"], r["cost_after"]] for r in result.stats.rewrites]
    return {"rewrites": log, "script": pretty_print(result.program)}


def key(name, strategy, cost):
    return f"{name} {strategy} {cost}"


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_every_fixture_strategy_and_cost_is_pinned(pinned):
    assert sorted(pinned) == sorted(key(n, s, c) for n in FIXTURES for s in STRATEGIES for c in COSTS)


@pytest.mark.parametrize("cost", COSTS)
@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", FIXTURES)
def test_search_outputs_match_the_pinned_ones(name, strategy, cost, pinned):
    assert search_outputs(name, strategy, cost) == pinned[key(name, strategy, cost)]


if __name__ == "__main__":
    DATA.parent.mkdir(exist_ok=True)
    outputs = {
        key(n, s, c): search_outputs(n, s, c) for n in FIXTURES for s in STRATEGIES for c in COSTS
    }
    DATA.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
