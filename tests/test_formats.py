import ast
from pathlib import Path

import numpy as np

import procfair
from procfair._formats import readonly

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


def test_readonly_keeps_frozen_arrays_and_views_and_copies_the_rest():
    owner = np.arange(12.0).reshape(4, 3).copy()
    view = owner[1:3]
    view.setflags(write=False)
    # a read-only view of a writable owner could change under the record
    kept = readonly(view)
    assert kept is not view and not np.shares_memory(kept, owner)
    assert np.array_equal(kept, view) and not kept.flags.writeable
    owner.setflags(write=False)
    for frozen in (owner, owner[1:3], owner[::-1], owner[1:3][:, 0]):
        assert readonly(frozen) is frozen
    # another dtype, a writable array and a read-only foreign buffer are copied
    assert not np.shares_memory(readonly(owner, np.int64), owner)
    writable = np.arange(3.0)
    assert readonly(writable) is not writable and not readonly(writable).flags.writeable
    foreign = np.frombuffer(np.arange(3.0).tobytes())
    assert not foreign.flags.writeable and readonly(foreign) is not foreign
