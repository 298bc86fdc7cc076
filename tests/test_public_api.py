"""Every public function, class and method of the package is named by the
package or the benchmark somewhere other than its definition. API that only
tests use lives in the test helpers (``tests/helpers.py``), not in ``src/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "casemix"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))


def public_definitions(module: ast.Module):
    """(qualified name, name) of each public top-level function and class
    and of each public method of a top-level class. Private names and
    dunders start with an underscore and are skipped."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item.name


def names_used(module: ast.Module):
    """Every name and attribute the module reads or writes. A definition's
    own name is neither."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_no_public_name_is_used_only_by_tests():
    assert (PACKAGE / "tree.py").is_file()
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = {name for module in modules.values() for name in names_used(module)}
    unused = [
        f"{path.name}: {qualified}"
        for path, module in modules.items() if path.parent == PACKAGE
        for qualified, name in public_definitions(module) if name not in used
    ]
    assert unused == []
