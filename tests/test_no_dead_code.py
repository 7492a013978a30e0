"""Every top-level function, class and module-level name in
src/tracesynth is used in src/ itself: code that only tests call, and a
constant nothing reads, is dead weight to maintain."""

import ast
from pathlib import Path

import tracesynth

SRC = Path(__file__).resolve().parent.parent / "src" / "tracesynth"

# Public API, the console-script entry point declared in pyproject, and
# hidden.expr_size, the reference the enumerator's size order is tested
# against.
ALLOWED = set(tracesynth.__all__) | {"entry", "expr_size"}
# The rule names perfbench/tracer.py reads to name its per-rule metrics.
ALLOWED_NAMES = {"REFINE_RULES", "SYNTH_RULES"}


def names_used(node):
    used = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            used.add(n.id)
        elif isinstance(n, ast.Attribute):
            used.add(n.attr)
        elif isinstance(n, ast.alias):
            used.add(n.name)
    return used


def top_level_statements():
    """(module, top-level statement, names it uses) over src/tracesynth."""
    return [
        (path.name, node, names_used(node))
        for path in sorted(SRC.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]


def test_every_top_level_definition_is_used_in_src():
    statements = top_level_statements()
    unused = []
    for module, node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name in ALLOWED:
            continue
        # A definition's references to itself (recursion) do not count.
        if not any(node.name in used for _, other, used in statements if other is not node):
            unused.append(f"{module}:{node.name}")
    assert not unused, unused


def assigned_names(node):
    """The names a top-level assignment binds; dunders such as __all__
    are read by Python itself and are left out."""
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if not (name.startswith("__") and name.endswith("__"))]


def test_every_module_level_name_is_read_in_src():
    statements = top_level_statements()
    unread = []
    for module, node, _ in statements:
        for name in assigned_names(node):
            if name in ALLOWED | ALLOWED_NAMES:
                continue
            if not any(name in used for _, other, used in statements if other is not node):
                unread.append(f"{module}:{name}")
    assert not unread, unread
