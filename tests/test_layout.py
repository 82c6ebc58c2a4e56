"""Every library function and class has a caller outside the tests.

A top-level definition in `src/wwae` counts as used when a live place in
`src/`, `scripts/` or `perfbench/` names it: module-level code, a script or
benchmark file, or the body of a definition that is itself used. References
from a definition's own body and re-exports in `__init__.py` do not count,
so code that only other dead code calls is reported too.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wwae"


def _names(node: ast.AST) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
    return found


def unused_definitions() -> list[str]:
    defined: dict[str, str] = {}  # name -> module
    owned: dict[str, set[str]] = {}  # definition -> names its body uses
    roots: set[str] = set()  # names used from always-live places
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined[node.name] = path.stem
                owned.setdefault(node.name, set()).update(_names(node) - {node.name})
            else:
                roots |= _names(node)
    for folder in ("scripts", "perfbench"):
        for path in sorted((ROOT / folder).glob("**/*.py")):
            roots |= _names(ast.parse(path.read_text()))

    live = roots & defined.keys()
    frontier = list(live)
    while frontier:
        for name in owned[frontier.pop()] & defined.keys():
            if name not in live:
                live.add(name)
                frontier.append(name)
    return sorted(f"{defined[n]}.{n}" for n in defined.keys() - live)


def test_every_definition_has_a_caller():
    assert unused_definitions() == []



def _private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_name_uses() -> list[str]:
    """Each place in `src/wwae`, `scripts/` or `perfbench/` that names
    another wwae module's private name: `<module>._x`, `wwae.<module>._x`,
    or `_x` imported from `<module>`. Tests may reach into internals."""
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    files = sorted(PACKAGE.glob("*.py"))
    files += sorted(p for folder in ("scripts", "perfbench") for p in (ROOT / folder).glob("**/*.py"))
    found = []
    for path in files:
        where = path.relative_to(ROOT)
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom):
                package, _, owner = (node.module or "").rpartition(".")
                if node.level == 0 and package != "wwae":
                    continue
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute):
                value = node.value
                if isinstance(value, ast.Name):
                    owner = value.id
                elif isinstance(value, ast.Attribute) and isinstance(value.value, ast.Name):
                    owner = value.attr if value.value.id == "wwae" else None
                else:
                    continue
                names = [node.attr]
            else:
                continue
            if owner in modules and owner != path.stem:
                found += [f"{where}:{node.lineno} {owner}.{n}" for n in names if _private(n)]
    return found


def test_no_module_reads_another_modules_private_names():
    assert private_name_uses() == []
