"""The library's public surface holds only what the pipeline reaches.

Every public function and method defined in `src/supportgen` and `bench`
must be named somewhere in those files (a Name load, an Attribute or an
import) outside the package's own re-exports in `__init__.py`. A Name load
of a variable that its enclosing function binds itself (a parameter, an
assignment, a loop target) or that a comprehension binds as its target is
not a reference, since Python resolves it to that variable. Otherwise the
scan matches names only, so a name used for anything else counts as
reached: it can miss dead code but never flags live code.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = [*sorted((ROOT / "src" / "supportgen").glob("*.py")),
           *sorted((ROOT / "bench").glob("*.py"))]

#: Unreached from src/ and bench/, and kept on purpose.
KEPT = {
    # reference semantics the tests check the planner against
    "world.simulate",
    "planner.goal_satisfied",
    # the notation the planner and acceptance tests write expected sequences in
    "permuter.expand_notation",
    "permuter.compress_notation",
    # the importer for the original environment's files, documented in README
    "dataset.import_external_record",
}


def public_definitions(tree: ast.Module, module: str) -> set[str]:
    """Module-level functions and class methods whose names do not start
    with an underscore, as 'module.name'."""
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    return {f"{module}.{fn.name}" for fn in functions if not fn.name.startswith("_")}


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def bound_names(nodes) -> tuple[set[str], set[str]]:
    """The names that `nodes` store and the names they declare global,
    not looking into nested functions, classes or comprehensions."""
    stored, declared, stack = set(), set(), list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            stored.add(node.id)
        elif isinstance(node, ast.Global):
            declared.update(node.names)
        if not isinstance(node, (*_FUNCTIONS, *_COMPREHENSIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return stored, declared


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()

    def visit(node: ast.AST, local: set[str]) -> None:
        """Collect the references under `node`, where `local` holds the
        variables of the function or comprehension it runs in."""
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in local:
                names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
        if isinstance(node, _FUNCTIONS):
            # decorators, defaults and annotations run in the enclosing scope
            args = node.args
            params = {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                          args.vararg, args.kwarg) if arg is not None}
            body = node.body if isinstance(node.body, list) else [node.body]
            stored, declared = bound_names(body)
            inner = (local | params | stored) - declared
            for child in ast.iter_child_nodes(node):
                visit(child, inner if any(child is stmt for stmt in body) else local)
        elif isinstance(node, _COMPREHENSIONS):
            # the first iterable runs in the enclosing scope
            inner = local | bound_names(gen.target for gen in node.generators)[0]
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.comprehension):
                    visit(child.target, inner)
                    visit(child.iter, local if child is node.generators[0] else inner)
                    for condition in child.ifs:
                        visit(condition, inner)
                else:
                    visit(child, inner)
        else:
            for child in ast.iter_child_nodes(node):
                visit(child, local)

    visit(tree, set())
    return names


def test_every_public_function_is_reached():
    defined, referenced = set(), set()
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= public_definitions(tree, path.stem)
        if path.name != "__init__.py":
            referenced |= referenced_names(tree)
    unreached = {name for name in defined if name.rsplit(".", 1)[-1] not in referenced}
    assert unreached == KEPT


@pytest.mark.parametrize("source,reached", [
    ("def f(score):\n    return score", False),
    ("def f(xs):\n    for score in xs:\n        print(score)", False),
    ("def f(xs):\n    return [score for score in xs]", False),
    ("def f():\n    score = 1\n    return lambda: score", False),
    ("def f():\n    return score()", True),
    ("def f():\n    global score\n    score = g()\n    return score", True),
    ("def f(xs):\n    return [x for x in score(xs)]", True),
    ("def f(xs):\n    [score for score in xs]\n    return score(xs)", True),
    ("def f(x=score):\n    return x", True),
    ("def f(score):\n    return 1\n\ndef g():\n    return score", True),
])
def test_only_local_variables_are_skipped(source, reached):
    assert ("score" in referenced_names(ast.parse(source))) is reached
