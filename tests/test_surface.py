"""The library's public surface holds only what the pipeline reaches.

Every public function and method defined in `src/supportgen` and `bench`
must be named somewhere in those files (a Name, an Attribute or an import)
outside the package's own re-exports in `__init__.py`. The scan matches
names only, so a name used for anything else counts as reached: it can
miss dead code but never flags live code.
"""

import ast
from pathlib import Path

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
    # the public PCA fit, which copies its input; the CovR build calls the
    # in-place form it wraps
    "index.pca_fit",
}


def public_definitions(tree: ast.Module, module: str) -> set[str]:
    """Module-level functions and class methods whose names do not start
    with an underscore, as 'module.name'."""
    functions = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    for cls in (node for node in tree.body if isinstance(node, ast.ClassDef)):
        functions += [node for node in cls.body if isinstance(node, ast.FunctionDef)]
    return {f"{module}.{fn.name}" for fn in functions if not fn.name.startswith("_")}


def referenced_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)
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
