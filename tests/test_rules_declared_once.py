"""Each rewrite rule is declared once: its name is its key in
rewrites._REFINE_FNS or _SYNTH_FNS, its order is its place there, and
enumerate_rewrites alone turns a rule's candidates into Rewrites. So no
rule restates its name, passes its number along or assembles a Rewrite
of its own."""

import ast
from pathlib import Path

from tracesynth.rewrites import REFINE_RULES, SYNTH_RULES

SRC = Path(__file__).resolve().parent.parent / "src" / "tracesynth"
MODULES = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
REWRITES = MODULES["rewrites.py"]
TABLES = ("_REFINE_FNS", "_SYNTH_FNS")


def rewrite_calls(node):
    return [
        n
        for n in ast.walk(node)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "Rewrite"
    ]


def test_only_enumerate_rewrites_builds_a_rewrite():
    enumerate_fn = next(
        n for n in REWRITES.body if isinstance(n, ast.FunctionDef) and n.name == "enumerate_rewrites"
    )
    inside = rewrite_calls(enumerate_fn)
    assert inside
    elsewhere = [
        f"{module}:{call.lineno}"
        for module, tree in MODULES.items()
        for call in rewrite_calls(tree)
        if call not in inside
    ]
    assert not elsewhere, elsewhere


def test_no_rule_is_numbered():
    """No parameter, field, method or keyword carries a rule's number:
    the table order is the only one."""
    numbered = [
        f"{module}:{n.lineno}"
        for module, tree in MODULES.items()
        for n in ast.walk(tree)
        if {getattr(n, a, None) for a in ("id", "attr", "arg", "name")} & {"rule_index", "order_key"}
    ]
    assert not numbered, numbered


def test_rule_names_appear_only_as_table_keys():
    keys = [
        key
        for n in REWRITES.body
        if isinstance(n, ast.Assign) and any(getattr(t, "id", None) in TABLES for t in n.targets)
        for key in n.value.keys
    ]
    assert [k.value for k in keys] == list(REFINE_RULES + SYNTH_RULES)
    names = set(REFINE_RULES + SYNTH_RULES)
    stray = [
        f"{module}:{n.lineno}: {n.value!r}"
        for module, tree in MODULES.items()
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value in names
        and not any(n is k for k in keys)
    ]
    assert not stray, stray
