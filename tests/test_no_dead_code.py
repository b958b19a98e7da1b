"""Dead-code guard: every top-level function and class of the package is
used, that is, named somewhere in `src/` or `tests/` outside its own
definition (an import in `__init__.py` counts, so the public API passes),
and every name a module imports is used in that module."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ramsey_gadgets"
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _names(node: ast.AST) -> set[str]:
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.alias):
            out.add(sub.name.rsplit(".", 1)[-1])
    return out


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
