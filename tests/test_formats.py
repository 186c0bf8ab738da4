import ast
from pathlib import Path

import procfair

SRC = Path(procfair.__file__).parent
OWNER = SRC / "_formats.py"


def _callee(call: ast.Call) -> str | None:
    func = call.func
    if isinstance(func, ast.Attribute):
        prefix = f"{func.value.id}." if isinstance(func.value, ast.Name) else ""
        return prefix + func.attr
    return func.id if isinstance(func, ast.Name) else None


def _format_decisions(path: Path) -> list[str]:
    """The places in ``path`` that decide an artifact's bytes or how a JSON
    document is read: calls of ``json.dump``, ``json.load`` or
    ``csv.writer``, and functions that make read-only copies (a copy, then
    ``setflags``)."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Call) and _callee(node) in ("json.dump", "json.load", "csv.writer"):
            found.append(f"{path.name}:{node.lineno} {_callee(node)}(")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            calls = {(_callee(c) or "").rsplit(".", 1)[-1] for c in ast.walk(node) if isinstance(c, ast.Call)}
            if "setflags" in calls and calls & {"array", "copy"}:
                found.append(f"{path.name}:{node.lineno} {node.name} makes a read-only copy")
    return found


def test_only_the_formats_module_decides_artifact_bytes():
    assert len(_format_decisions(OWNER)) == 4  # the guard sees what it guards
    strays = [entry for path in sorted(SRC.glob("*.py")) if path != OWNER for entry in _format_decisions(path)]
    assert not strays, f"write through procfair._formats instead: {strays}"
