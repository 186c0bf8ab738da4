import ast
import importlib
import pkgutil
import re
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


def _reads_in_program(src: Path) -> set[str]:
    """Names the package's modules read, outside ``__init__``'s re-exports,
    the ``__all__`` lists, imports and the statement that defines a name."""
    reads = set()
    for path in src.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            defined = set()
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(stmt.name)
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                defined |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            names = {n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)}
            names |= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
            reads |= names - defined
    return reads


def _words(tree: ast.AST) -> set[str]:
    """Every name, attribute, imported name and word of a string literal in
    ``tree``: perfbench's tracer names what it rebinds in strings."""
    words = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.add(node.id)
        elif isinstance(node, ast.Attribute):
            words.add(node.attr)
        elif isinstance(node, ast.alias):
            words.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            words |= set(re.findall(r"\w+", node.value))
    return words


def test_every_exported_name_is_read_outside_the_tests():
    # the package exports what the program, the study driver, the benchmark
    # and README's library code use; references only tests call live in tests/
    repo = Path(__file__).resolve().parents[1]
    reads = _reads_in_program(repo / "src" / "procfair")
    for path in [*(repo / "scripts").rglob("*.py"), *(repo / "perfbench").rglob("*.py")]:
        reads |= _words(ast.parse(path.read_text(encoding="utf-8")))
    readme = (repo / "README.md").read_text(encoding="utf-8")
    for block in re.findall(r"```python\n(.*?)```", readme, re.S):
        reads |= _words(ast.parse(block))
    unread = []
    for info in pkgutil.iter_modules(procfair.__path__, "procfair."):
        module = importlib.import_module(info.name)
        unread += [f"{info.name}.{name}" for name in getattr(module, "__all__", ()) if name not in reads]
    assert not unread, f"exported, but read only by tests: {unread}"
