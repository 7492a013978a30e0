"""Every top-level function and class in src/tracesynth has a caller in
src/ itself: code that only tests call is dead weight to maintain."""

import ast
from pathlib import Path

import tracesynth

SRC = Path(__file__).resolve().parent.parent / "src" / "tracesynth"

# Public API, the console-script entry point declared in pyproject, and
# hidden.expr_size, the reference the enumerator's size order is tested
# against.
ALLOWED = set(tracesynth.__all__) | {"entry", "expr_size"}


def names_used(node):
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name)
    return used


def test_every_top_level_definition_is_used_in_src():
    statements = []  # (module, top-level statement, names it uses)
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            statements.append((path.name, node, names_used(node)))
    unused = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in ALLOWED:
            continue
        # A definition's references to itself (recursion) do not count.
        if not any(node.name in used for _, other, used in statements if other is not node):
            unused.append(f"{module}:{node.name}")
    assert not unused, unused
