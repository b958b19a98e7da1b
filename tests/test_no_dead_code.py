"""Dead-code guard: every top-level function and class of the package is
used, that is, named somewhere in `src/` or `tests/` outside its own
definition (an import in `__init__.py` counts, so the public API passes),
so is every method of a package class other than the dunder ones, every
field of a package dataclass is read, and every name a module imports is
used in that module."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ramsey_gadgets"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _mentions(node: ast.AST) -> Counter:
    out: Counter = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            out[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            out[sub.name.rsplit(".", 1)[-1]] += 1
    return out


def _names(node: ast.AST) -> set[str]:
    return set(_mentions(node))


def test_every_top_level_definition_is_referenced():
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    statements = [(path, node) for path in files
                  for node in ast.parse(path.read_text()).body]
    mentions = [_names(node) for _, node in statements]
    unused = [f"{path.name}:{node.name}"
              for i, (path, node) in enumerate(statements)
              if path.parent == PACKAGE and isinstance(node, DEFINITIONS)
              and not any(node.name in names
                          for j, names in enumerate(mentions) if j != i)]
    assert unused == []


def test_every_method_is_referenced():
    """A non-dunder method of a package class is named somewhere in `src/`
    or `tests/` outside its own body."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    everywhere = sum((_mentions(tree) for tree in trees.values()), Counter())
    unused = [f"{path.name}:{cls.name}.{meth.name}"
              for path, tree in trees.items() if path.parent == PACKAGE
              for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
              for meth in cls.body
              if isinstance(meth, (ast.FunctionDef, ast.AsyncFunctionDef))
              and not meth.name.startswith("__")
              and everywhere[meth.name] == _mentions(meth)[meth.name]]
    assert unused == []


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", "")
               == "dataclass" for d in cls.decorator_list)


def test_every_dataclass_field_is_read():
    """An annotated field of a package dataclass is read as an attribute
    (`x.field`) somewhere in `src/` or `tests/`.  The gadget specs, the
    classes with a `KIND`, are exempt: `fields()` serializes them field by
    field.  Like the guards above, this matches by name only."""
    files = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in files}
    read = {sub.attr for tree in trees.values() for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
    unread = []
    for path, tree in trees.items():
        if path.parent != PACKAGE:
            continue
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef) and _is_dataclass(cls)):
                continue
            names = [stmt.target.id for stmt in cls.body
                     if isinstance(stmt, ast.AnnAssign)
                     and isinstance(stmt.target, ast.Name)]
            if "KIND" not in names:
                unread += [f"{path.name}:{cls.name}.{name}" for name in names
                           if name not in read]
    assert unread == []


def test_every_import_is_used():
    """A name a module imports is used in that module (`__init__.py`
    re-exports, so it is exempt)."""
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = [(alias.asname or alias.name).split(".")[0]
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__"
                    for alias in node.names]
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        unused += [f"{path.name}:{name}" for name in imported
                   if name not in used]
    assert unused == []


# perfbench passes these; they go when the benchmark stops passing them
# (ROADMAP open item 1)
UNREAD_PARAMETERS = {"gadgets.py:check_robust.trials",
                     "gadgets.py:check_robust.seed"}


def _is_stub(func: ast.AST) -> bool:
    """A body that is only a docstring or `...`."""
    return all(isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
               for stmt in func.body)


def test_every_parameter_is_read():
    """Every parameter of a package function, nested ones and methods
    included, is read in its body.  Stub bodies are exempt, and so is a
    method's `self` or `cls`, which it takes whether it reads it or not."""
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text())):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or _is_stub(func):
                continue
            args = func.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      args.vararg, *args.kwonlyargs,
                                      args.kwarg) if a is not None]
            read = {sub.id for stmt in func.body for sub in ast.walk(stmt)
                    if isinstance(sub, ast.Name)
                    and isinstance(sub.ctx, ast.Load)}
            unread += [f"{path.name}:{func.name}.{p}" for p in params
                       if p not in read and p not in ("self", "cls")]
    assert sorted(set(unread) - UNREAD_PARAMETERS) == []
