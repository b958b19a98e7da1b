"""Dead-code guard: every top-level function and class of the package is
used, that is, named somewhere in `src/` or `tests/` outside its own
definition (an import in `__init__.py` counts, so the public API passes)."""

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
