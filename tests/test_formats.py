import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_write_table

import procfair
from procfair import _formats
from procfair._formats import readonly, write_table

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


FLOATS = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, 1e308, -1e308, 0.1, 1e16]), st.floats())
TEXT = st.text(st.sampled_from('ab ,"\'\n\r#\t'), max_size=6)
# the kinds a table column may hold: one kind throughout (as the toolkit's
# columns are), text with one character that csv quotes on, numpy floats (a
# float subclass whose repr is not str's), or any mix of them
COLUMN_CELLS = st.sampled_from([
    FLOATS,
    st.integers(-(2**70), 2**70),
    st.booleans(),
    TEXT,
    *(st.text(st.sampled_from(special + "ab "), max_size=3) for special in ',"\r\n'),
    FLOATS.map(np.float64),
    st.one_of(FLOATS, st.integers(), st.booleans(), TEXT, FLOATS.map(np.float64)),
])


@st.composite
def tables(draw):
    """A header, equal-length columns of Python or numpy scalars, and a
    footer; up to 9 rows, on both sides of the 4-row chunks they are written
    in."""
    width, m = draw(st.integers(1, 4)), draw(st.integers(0, 9))
    columns = [draw(st.lists(draw(COLUMN_CELLS), min_size=m, max_size=m)) for _ in range(width)]
    footer = draw(st.sampled_from(["", "# provenance: x, y\n"]))
    return [f"c{j}" for j in range(width)], columns, footer


@given(tables())
@settings(max_examples=200, deadline=None)
def test_write_table_writes_the_per_cell_writers_bytes(tmp_path_factory, table):
    header, columns, footer = table
    root = tmp_path_factory.mktemp("table")
    reference_write_table(root / "rows.csv", header, zip(*columns), footer)
    with mock.patch.object(_formats, "_CHUNK_ROWS", 4):
        write_table(root / "columns.csv", header, columns, footer)
    assert (root / "columns.csv").read_bytes() == (root / "rows.csv").read_bytes()


def test_write_table_reads_array_columns_as_python_scalars(tmp_path):
    values = np.random.default_rng(0).normal(size=(10_000, 3))
    labels = np.arange(10_000) % 2
    rows = (row.tolist() + [label] for row, label in zip(values, labels.tolist()))
    reference_write_table(tmp_path / "rows.csv", ["a", "b", "c", "y"], rows)
    write_table(tmp_path / "columns.csv", ["a", "b", "c", "y"], [*values.T, labels])
    assert (tmp_path / "columns.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()
    with pytest.raises(ValueError, match="differ in length"):
        write_table(tmp_path / "ragged.csv", ["a", "y"], [values[:, 0], labels[1:]])
