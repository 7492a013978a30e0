"""perfbench/tracer.py wraps tracesynth functions by rebinding them at
the names their callers look them up by. Every tracesynth name it reads
or rebinds must exist, or a traced benchmark run fails."""

import ast
import importlib
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
