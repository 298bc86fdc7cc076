"""Every function, class and method of the package, and every private
module constant, is named by the package or the benchmark somewhere other
than its definition, and every defaulted parameter of a package function is
passed by some call there.
API that only tests use lives in the test helpers (``tests/helpers.py``),
not in ``src/``; a default nothing overrides is a constant."""

import ast
from collections import defaultdict
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
    """Every name the module reads and every attribute it reads or writes.
    A definition's own name is neither, nor is a constant's assignment."""
    for node in ast.walk(module):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
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


def private_definitions(module: ast.Module):
    """(qualified name, name) of each private top-level function, class and
    module constant and of each private method of a top-level class.
    Dunders are skipped."""
    def private(name):
        return name.startswith("_") and not name.endswith("__")

    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and private(node.name):
            yield node.name, node.name
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in getattr(node, "targets", [getattr(node, "target", None)]):
                if isinstance(target, ast.Name) and private(target.id):
                    yield target.id, target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and private(item.name):
                    yield f"{node.name}.{item.name}", item.name


def test_no_private_name_is_unused():
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    used = {name for module in modules.values() for name in names_used(module)}
    unused = [
        f"{path.name}: {qualified}"
        for path, module in modules.items() if path.parent == PACKAGE
        for qualified, name in private_definitions(module) if name not in used
    ]
    assert unused == []


def functions(module: ast.Module):
    """(qualified name, name calls use, definition, leading parameters a
    call does not pass) of each top-level function and each method of a
    top-level class, private ones included. A class's ``__init__`` is
    called by the class's name; a method's first parameter is bound."""
    for node in module.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name, node, 0
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    static = any(getattr(d, "id", None) == "staticmethod" for d in item.decorator_list)
                    called_as = node.name if item.name == "__init__" else item.name
                    yield f"{node.name}.{item.name}", called_as, item, 0 if static else 1


def arguments_passed(modules) -> dict[str, set]:
    """Callee name (a called ``Name`` or attribute) -> the positions and
    keywords some call passes it; ``"*"`` when a call unpacks arguments."""
    passed = defaultdict(set)
    for module in modules:
        for call in ast.walk(module):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            passed[name].update(range(len(call.args)))
            passed[name].update(k.arg or "*" for k in call.keywords)
            if any(isinstance(a, ast.Starred) for a in call.args):
                passed[name].add("*")
    return passed


def test_every_default_is_overridden_somewhere():
    modules = {path: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    passed = arguments_passed(modules.values())
    unpassed = []
    for path, module in modules.items():
        if path.parent != PACKAGE:
            continue
        for qualified, called_as, fn, bound in functions(module):
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = [(i - bound, a) for i, a in enumerate(positional)
                         if i >= len(positional) - len(args.defaults)]
            defaulted += [(None, a) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            got = passed[called_as]
            unpassed += [
                f"{path.name}: {qualified}({a.arg})"
                for i, a in defaulted if not {"*", i, a.arg} & got
            ]
    assert unpassed == []
