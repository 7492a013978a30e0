"""Every function in src/tracesynth that recurses, directly or through
other functions of its module, against a pinned list. Each one recurses
once per level of the tree it walks, so a deep enough input raises
RecursionError in it. A new tree walk should use dsl.walk,
dsl.map_instrs or an explicit stack instead of adding to the list.

Recursion is read from each module's name-level call graph: a function
has an edge to every function of the module it names in its own body (a
bare name, resolved through the enclosing function scopes to the
module, or a self./cls. attribute, resolved to a method of the
enclosing class). Naming counts as well as calling, so a rule passed as
a callback (self.items(self.json_literal, "]")) is an edge. A function
recurses when it lies on a cycle of that graph."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "tracesynth"

# module:qualified name. Remove an entry when its function stops
# recursing; adding one is a design change to record in CHANGES.md.
PINNED = {
    # Script terms: once per conditional expression nested in a case's
    # expression, and once per nested predicate. A chain of cases is one
    # flat Select, which each of them takes in a loop.
    "dsl.py:map_term",
    "dsl.py:print_case",
    "dsl.py:print_expr",
    "dsl.py:print_pred",
    "terms.py:term_evaluator.ev",
    # The parser's descent: statements, predicates, script expressions
    # and JSON literals, and the helper-function grammar.
    "parser.py:_Parser.block",
    "parser.py:_Parser.for_stmt",
    "parser.py:_Parser.if_stmt",
    "parser.py:_Parser.retry_stmt",
    "parser.py:_Parser.stmt",
    "parser.py:_Parser.stmt_seq",
    "parser.py:_Parser.pred",
    "parser.py:_Parser.pred_and",
    "parser.py:_Parser.pred_term",
    "parser.py:_Parser.expr",
    "parser.py:_Parser.json_literal",
    "parser.py:_Parser.json_member",
    "parser.py:_Parser.bool_expr",
    "parser.py:_Parser.bool_term",
    "parser.py:_Parser.value_expr",
    "parser.py:_Parser.postfix",
    # Hidden-function bodies and JSON values.
    "hidden.py:_descend",
    "hidden.py:eval_bool",
    "hidden.py:eval_path",
    "hidden.py:expr_size",
    "hidden.py:expr_uses_input",
    "hidden.py:print_expr",
    "jsonvals.py:_tag",
}

DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def own_nodes(fn: ast.AST):
    """The nodes of fn's own body: nested defs and classes are left out
    (they are functions of their own), lambdas are kept."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, DEFS + (ast.ClassDef,)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


def call_graph(tree: ast.Module) -> dict:
    """qualified function name -> qualified names of the module's
    functions it names."""
    kinds = {}  # qualified name -> "def" or "class"
    funcs = []  # (qualified name, node, enclosing function scopes, class)
    stack = [(tree, "", [], None)]
    while stack:
        node, prefix, scopes, cls = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, DEFS):
                q = prefix + child.name
                kinds[q] = "def"
                funcs.append((q, child, scopes, cls))
                stack.append((child, q + ".", [q] + scopes, cls))
            elif isinstance(child, ast.ClassDef):
                q = prefix + child.name
                kinds[q] = "class"
                stack.append((child, q + ".", scopes, q))
            else:
                stack.append((child, prefix, scopes, cls))
    graph = {}
    for q, fn, scopes, cls in funcs:
        targets = set()
        for node in own_nodes(fn):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                for scope in [q] + scopes + [None]:
                    t = node.id if scope is None else f"{scope}.{node.id}"
                    if t in kinds:
                        if kinds[t] == "def":
                            targets.add(t)
                        break
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("self", "cls")
                and cls is not None
                and kinds.get(f"{cls}.{node.attr}") == "def"
            ):
                targets.add(f"{cls}.{node.attr}")
        graph[q] = targets
    return graph


def on_a_cycle(graph: dict) -> set:
    found = set()
    for start in graph:
        seen, stack = set(), list(graph[start])
        while stack:
            node = stack.pop()
            if node == start:
                found.add(start)
                break
            if node not in seen:
                seen.add(node)
                stack.extend(graph[node])
    return found


def recursive_functions() -> set:
    found = set()
    for path in sorted(SRC.glob("*.py")):
        graph = call_graph(ast.parse(path.read_text()))
        found |= {f"{path.name}:{q}" for q in on_a_cycle(graph)}
    return found


def test_no_new_recursive_function():
    found = recursive_functions()
    assert found - PINNED == set(), "new recursive functions"


def test_pinned_recursive_functions_still_exist_and_recurse():
    assert PINNED - recursive_functions() == set(), "remove these from PINNED"


def test_the_graph_sees_mutual_recursion_and_callbacks():
    tree = ast.parse(
        "def a(x):\n    return b(x)\n"
        "def b(x):\n    return a(x)\n"
        "def c(x):\n    return x\n"
        "class K:\n"
        "    def m(self):\n        return self.items(self.m)\n"
        "    def items(self, f):\n        return f()\n"
        "def outer():\n"
        "    def inner():\n        return inner()\n"
        "    return inner\n"
    )
    assert on_a_cycle(call_graph(tree)) == {"a", "b", "K.m", "outer.inner"}
