"""Every function in src/tracesynth that calls itself by name, nested
defs and methods included, against a pinned list. Each one recurses once
per level of the tree it walks, so a deep enough input raises
RecursionError in it. A new tree walk should use dsl.walk,
dsl.map_instrs or an explicit stack instead of adding to the list.
Mutual recursion (replay's exec_instr and exec_seq, the parser's
statement rules, equiv_mod_renaming's instruction and sequence checks)
is not listed: no function in it calls itself by name."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tracesynth"

# module:qualified name. Remove an entry when its function stops
# recursing; adding one is a design change to record in CHANGES.md.
PINNED = {
    # Script terms: once per nested ternary or predicate.
    "dsl.py:_equiv_expr",
    "dsl.py:_equiv_pred",
    "dsl.py:expr_reads",
    "dsl.py:map_term",
    "dsl.py:pred_reads",
    "dsl.py:print_expr",
    "dsl.py:print_pred",
    "terms.py:term_evaluator.ev",
    # Script instructions: once per nested conditional or loop.
    "dsl.py:_print_instr",
    "rewrites.py:_tree_stmts",
    # The parsers' descent.
    "hidden.py:_P.json_literal",
    "hidden.py:_P.value_expr",
    "parser.py:_Parser.expr",
    "parser.py:_Parser.json_literal",
    # Hidden-function bodies and JSON values.
    "hidden.py:_descend",
    "hidden.py:eval_bool",
    "hidden.py:eval_path",
    "hidden.py:expr_size",
    "hidden.py:expr_uses_input",
    "hidden.py:print_expr",
    "jsonvals.py:_tag",
    "jsonvals.py:canonical_eq",
    "jsonvals.py:structural_size",
    "pbe.py:_Keys.of",
    "pbe.py:_leaves",
}


def calls_itself(fn: ast.AST, name: str, method: bool) -> bool:
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if isinstance(f, ast.Name) and f.id == name and not method:
            return True
        if method and isinstance(f, ast.Attribute) and f.attr == name:
            if isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
                return True
    return False


def recursive_functions() -> set:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        # (node, qualified prefix, whether its functions are methods)
        stack = [(ast.parse(path.read_text()), "", False)]
        while stack:
            node, prefix, in_class = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualified = prefix + child.name
                    if calls_itself(child, child.name, in_class):
                        found.add(f"{path.name}:{qualified}")
                    stack.append((child, qualified + ".", False))
                elif isinstance(child, ast.ClassDef):
                    stack.append((child, prefix + child.name + ".", True))
                else:
                    stack.append((child, prefix, in_class))
    return found


def test_no_new_recursive_function():
    found = recursive_functions()
    assert found - PINNED == set(), "new recursive functions"


def test_pinned_recursive_functions_still_exist_and_recurse():
    assert PINNED - recursive_functions() == set(), "remove these from PINNED"
