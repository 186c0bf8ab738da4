import ast
import importlib
import pkgutil
from pathlib import Path

import procfair


def test_every_exported_name_resolves():
    # a stale __all__ entry breaks only ``from module import *``
    missing = []
    for info in pkgutil.iter_modules(procfair.__path__, "procfair."):
        module = importlib.import_module(info.name)
        missing += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing


def _unused_imports(path: Path) -> list[str]:
    """Top-level imports of ``path`` that nothing in the module reads, as a
    linter's F401 would report them; ``# noqa: F401`` on an import keeps it."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in tree.body:
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:  # a name listed in __all__ is re-exported, so used
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_has_an_unused_import():
    modules = sorted(p for p in Path(procfair.__file__).parent.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [entry for path in modules for entry in _unused_imports(path)]
    assert not unused
