"""The library's public surface holds only what the pipeline reaches.

Every public function and method defined in `src/supportgen` and `bench`
must be named somewhere in those files (a Name load, an Attribute or an
import) outside the package's own re-exports in `__init__.py`. A Name load
of a variable that its enclosing function binds itself (a parameter, an
assignment, a loop target) or that a comprehension binds as its target is
not a reference, since Python resolves it to that variable. Otherwise the
scan matches names only, so a name used for anything else counts as
reached: it can miss dead code but never flags live code.

Likewise every setting of `src/supportgen`, a defaulted parameter of a
module-level function or class method or a defaulted dataclass field, must
be set by some call in `src/supportgen` or `bench`. Calls match by the name
they call, as above, after `import ... as` aliases are resolved.
"""

import ast
from dataclasses import dataclass
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


#: Settings that no call in src/ or bench/ sets, kept on purpose.
KEPT_SETTINGS = {
    # deployment settings of the paraphrase endpoint
    "paraphrase.HttpTransport.endpoint",
    "paraphrase.HttpTransport.api_key",
    "paraphrase.HttpTransport.retries",
    "paraphrase.HttpTransport.backoff",
    "paraphrase.HttpTransport.timeout",
    # the tests pass a fake sleep to check the retry back-off
    "paraphrase.HttpTransport.sleep",
    # the test references run k-means at other settings
    "index.kmeans.iters",
    # acceptance criterion 7 fits the synthetic Zipf sample from x_min = 1
    "metrics.zipf_fit.x_min",
    # the importer for the original environment's files, documented in README
    "dataset.import_external_record.direction_map",
    "dataset.import_external_record.split",
}


@dataclass(frozen=True)
class Setting:
    """A defaulted parameter or field: `owner` is the name a call uses (the
    function, the method, or the class for __init__ and dataclass fields),
    `position` its index among the call's positional arguments, None if it
    is keyword-only."""
    qualname: str
    owner: str
    name: str
    position: int | None


@dataclass(frozen=True)
class Call:
    callee: str
    positional: int
    keywords: frozenset[str]
    starred: bool

    def sets(self, setting: Setting) -> bool:
        return self.callee == setting.owner and (
            self.starred or setting.name in self.keywords
            or setting.position is not None and setting.position < self.positional)


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(isinstance(d, ast.Name) and d.id == "dataclass"
               or isinstance(d, ast.Call) and isinstance(d.func, ast.Name)
               and d.func.id == "dataclass" for d in cls.decorator_list)


def _parameter_settings(fn: ast.FunctionDef, qualname: str, owner: str,
                        bound: bool) -> list[Setting]:
    """The defaulted parameters of `fn`; a bound method's first parameter
    (self or cls) takes no position in a call."""
    args = fn.args
    positional = [*args.posonlyargs, *args.args][1 if bound else 0:]
    defaulted = positional[len(positional) - len(args.defaults):]
    settings = [Setting(f"{qualname}.{a.arg}", owner, a.arg, positional.index(a))
                for a in defaulted]
    settings += [Setting(f"{qualname}.{a.arg}", owner, a.arg, None)
                 for a, default in zip(args.kwonlyargs, args.kw_defaults)
                 if default is not None]
    return settings


def settings_of(tree: ast.Module, module: str) -> list[Setting]:
    """Defaulted parameters of module-level functions and class methods,
    and defaulted dataclass fields, named 'module.function.param',
    'module.Class.method.param' or 'module.Class.param' (__init__ and
    fields)."""
    settings = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            settings += _parameter_settings(node, f"{module}.{node.name}", node.name, False)
        elif isinstance(node, ast.ClassDef):
            if _is_dataclass(node):
                fields = [stmt for stmt in node.body if isinstance(stmt, ast.AnnAssign)
                          and isinstance(stmt.target, ast.Name)
                          and "ClassVar" not in ast.unparse(stmt.annotation)]
                settings += [Setting(f"{module}.{node.name}.{f.target.id}", node.name,
                                     f.target.id, i)
                             for i, f in enumerate(fields) if f.value is not None]
            for fn in node.body:
                if not isinstance(fn, ast.FunctionDef):
                    continue
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in fn.decorator_list)
                if fn.name == "__init__":
                    settings += _parameter_settings(fn, f"{module}.{node.name}",
                                                    node.name, True)
                else:
                    settings += _parameter_settings(fn, f"{module}.{node.name}.{fn.name}",
                                                    fn.name, not static)
    return settings


def _callee(func: ast.expr, aliases: dict[str, str]) -> str | None:
    if isinstance(func, ast.Name):
        return aliases.get(func.id, func.id)
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def calls_in(tree: ast.Module) -> list[Call]:
    """Every call in `tree`; functools.partial(f, ...) counts as a call of
    f with the arguments it binds."""
    aliases = {alias.asname: alias.name.rsplit(".", 1)[-1]
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
               for alias in node.names if alias.asname}
    calls = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        callee, args = _callee(node.func, aliases), node.args
        if callee == "partial" and args:
            callee, args = _callee(args[0], aliases), args[1:]
        if callee is None:
            continue
        keywords = frozenset(k.arg for k in node.keywords if k.arg is not None)
        starred = (any(isinstance(a, ast.Starred) for a in args)
                   or any(k.arg is None for k in node.keywords))
        calls.append(Call(callee, len(args), keywords, starred))
    return calls


def unset_settings(sources: list[Path]) -> set[str]:
    settings, calls = [], []
    for path in sources:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.parent.name == "supportgen":
            settings += settings_of(tree, path.stem)
        calls += calls_in(tree)
    return {s.qualname for s in settings if not any(call.sets(s) for call in calls)}


def test_every_setting_has_a_caller():
    assert unset_settings(SOURCES) == KEPT_SETTINGS


@pytest.mark.parametrize("call,sets", [
    ("f(1, 2)", True),
    ("f(1)", False),
    ("f(1, b=2)", True),
    ("f(1, c=2)", False),
    ("f(*xs)", True),
    ("f(1, **kw)", True),
    ("obj.f(1, 2)", True),
    ("h(1, 2)", True),
    ("g(1, 2)", False),
    ("partial(f, 1, 2)()", True),
    ("functools.partial(f, 1)()", False),
])
def test_calls_set_a_setting_by_position_keyword_or_star(call, sets):
    """Setting b is f's second positional parameter; h is f imported as h."""
    tree = ast.parse(f"from m import f as h\n{call}")
    setting = Setting("m.f.b", "f", "b", 1)
    assert any(c.sets(setting) for c in calls_in(tree)) is sets
