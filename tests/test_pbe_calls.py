"""Every PBE enumeration of the fixtures' searches, pinned: for each
`synthesize` call, in the order the search makes them, its kind, arity
and number of examples, and its status, printed helper (or null), size
and number of candidates enumerated.

tests/data/pbe_calls.json holds them, for the alternating/syn search of
each of the 13 fixtures and of the three 48-trace sets in
tests/data/deep_chains/. A change to the enumerator that keeps its
outputs must leave the file as it is, `enumerated` included, since that
count is the enumeration order made visible. A change that means to
alter them regenerates the file on purpose, and says so:

    PYTHONPATH=src python tests/test_pbe_calls.py
"""

import json
from pathlib import Path

import pytest

from tracesynth import pbe
from tracesynth.costs import make_cost_fn
from tracesynth.hidden import print_hidden_fn
from tracesynth.search import SearchConfig, run_search
from tracesynth.traces import parse_traces

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent / "benchmarks"
DEEP = HERE / "data" / "deep_chains"
DATA = HERE / "data" / "pbe_calls.json"
SETS = {d.name: d / "traces.json" for d in sorted(BENCH.iterdir()) if (d / "traces.json").is_file()}
SETS.update({p.stem: p for p in sorted(DEEP.glob("*.json"))})


def pbe_calls(path, monkeypatch):
    """The synthesize calls of the alternating/syn search of the trace
    set in path, each as one record."""
    calls = []
    real = pbe.synthesize

    def recorded(examples, kind, cfg, *args, **kwargs):
        result = real(examples, kind, cfg, *args, **kwargs)
        calls.append(
            {
                "kind": kind,
                "arity": result.arity,
                "examples": len(examples),
                "status": result.status,
                "helper": print_hidden_fn(result.fn_body()) if result.sat else None,
                "size": result.size,
                "enumerated": result.enumerated,
            }
        )
        return result

    monkeypatch.setattr(pbe, "synthesize", recorded)
    ts = parse_traces(path.read_text())
    run_search(ts, SearchConfig(strategy="alternating", cost_fn=make_cost_fn("syn")))
    return calls


@pytest.fixture(scope="module")
def pinned():
    return json.loads(DATA.read_text())


def test_every_set_is_pinned(pinned):
    assert len(SETS) == 16
    assert sorted(pinned) == sorted(SETS)


@pytest.mark.parametrize("name", sorted(SETS))
def test_pbe_calls_match_the_pinned_ones(name, pinned, monkeypatch):
    assert pbe_calls(SETS[name], monkeypatch) == pinned[name]


if __name__ == "__main__":
    patch = pytest.MonkeyPatch()
    try:
        calls = {}
        for name, path in SETS.items():
            calls[name] = pbe_calls(path, patch)
            patch.undo()
    finally:
        patch.undo()
    DATA.write_text(json.dumps(calls, indent=1, sort_keys=True) + "\n")
