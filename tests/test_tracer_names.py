"""perfbench/tracer.py wraps tracesynth functions by rebinding them at
the names their callers look them up by. Every tracesynth name it reads
or rebinds must exist, or a traced benchmark run fails."""

import ast
import importlib
import importlib.util
import json
import math
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def tracesynth_names():
    """Dotted names, such as pbe.ConstraintCache.solve, that tracer.py
    uses on a module it imports from tracesynth."""
    tree = ast.parse(TRACER.read_text())
    modules = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module == "tracesynth"
        for alias in node.names
    }
    names = set()
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.append(node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in modules:
            names.add(".".join([node.id] + chain[::-1]))
    return sorted(names)


def test_the_tracer_patches_the_pbe_lookups():
    names = tracesynth_names()
    for name in ("synthesize", "mine_pools", "eval_path", "eval_bool", "canonical_dumps"):
        assert f"pbe.{name}" in names
    assert "pbe.ConstraintCache.solve" in names


@pytest.mark.parametrize("dotted", tracesynth_names())
def test_every_name_the_tracer_uses_exists(dotted):
    module, *attrs = dotted.split(".")
    obj = importlib.import_module(f"tracesynth.{module}")
    for attr in attrs:
        assert hasattr(obj, attr), f"tracesynth.{dotted} is missing"
        obj = getattr(obj, attr)


def test_the_traced_result_line_holds_the_declared_per_layer_metrics():
    """The traced run's last line carries the tracer's layer values plus
    its overhead, under the names BENCHMARK.json declares, in order. The
    tracer names one pair per rule, so a rule deleted, renamed or moved
    changes this list; every value must also print as JSON."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    values = tracer.layer_values({}, {}, Counter())
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert list(values) + ["trace.overhead_frac"] == declared
    assert all(math.isfinite(v) for v in values.values())
