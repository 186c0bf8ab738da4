"""The one owner of procfair's artifact formats: JSON documents (written and
read), CSV tables, and the read-only arrays and integer fields that frozen
records hold. A seed's artifacts are byte-identical across runs only if their
bytes are decided in one place."""

from __future__ import annotations

import csv
import json
import operator

import numpy as np


def _frozen(arr) -> bool:
    """Whether no one can write ``arr``'s memory through numpy: it is read-only,
    and so is every array on its base chain, which ends in an array that owns
    its memory (a view of a writable array, or of a foreign buffer, is not)."""
    while isinstance(arr, np.ndarray) and not arr.flags.writeable:
        if arr.flags.owndata:
            return True
        arr = arr.base
    return False


def readonly(arr, dtype=float) -> np.ndarray:
    """``arr`` as a write-protected array of ``dtype``: ``arr`` itself when it
    is already a read-only array of that dtype that owns its memory (one that
    ``readonly`` made, or a fresh array its maker handed over read-only) or
    a read-only view of one (a split's part is a row view of the split's one
    buffer), else a write-protected copy. So a frozen record may share memory
    with another, and never with a writable array or view."""
    if isinstance(arr, np.ndarray) and arr.dtype == dtype and _frozen(arr):
        return arr
    out = np.array(arr, dtype=dtype, copy=True)
    out.setflags(write=False)
    return out


def integer_fields(record, *names: str) -> None:
    """Store each field ``names`` of the frozen dataclass ``record`` as a
    Python int, so that a numpy integer is accepted and the record
    serialises and compares as one built from Python ints. A value that
    ``operator.index`` refuses (a float such as 1.0, a string, None) is a
    ValueError that names the field."""
    for name in names:
        value = getattr(record, name)
        try:
            object.__setattr__(record, name, operator.index(value))
        except TypeError:
            raise ValueError(f"{type(record).__name__}.{name} must be an integer, got {value!r}") from None


def write_json(path, doc: dict) -> None:
    """UTF-8 JSON with a two-space indent and a trailing newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def read_json(path) -> dict:
    """The JSON object in the UTF-8 file ``path``; a file that does not decode
    or parse, or holds any other document, is a ValueError that names it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path} is not a UTF-8 JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path} holds a JSON {type(doc).__name__}, not an object")
    return doc


# Rows per slice of a table's columns that ``write_table`` formats and writes
# at a time: the memory of a write is bounded by one slice's strings.
_CHUNK_ROWS = 4096


def _cells(column) -> tuple[list[str], bool]:
    """One slice of a column as ``write_table`` writes it, each float (a
    ``float`` subclass included) by ``repr`` and anything else by ``str``,
    and whether every cell is a plain number (a ``float``, ``int`` or
    ``bool`` exactly), whose text holds no comma, quote or line break. A
    column of one kind is formatted by one ``map``."""
    if isinstance(column, np.ndarray):
        column = column.tolist()
    kinds = set(map(type, column))
    numbers = kinds <= {float, int, bool}
    if not any(issubclass(kind, float) for kind in kinds):
        return list(map(str, column)), numbers
    if kinds == {float}:
        return list(map(repr, column)), numbers
    return [repr(v) if isinstance(v, float) else str(v) for v in column], numbers


def write_table(path, header, columns, footer: str = "") -> None:
    """UTF-8 CSV: the header, then one line per row of ``columns`` (equal-length
    sequences, one per header name), then ``footer`` as is. Floats are
    written with ``repr`` (the shortest string that reads back the same
    float) and anything else with ``str``; an array column is read through
    ``.tolist()``, as Python scalars (under numpy 2 the ``repr`` of an
    ``np.float64`` is ``np.float64(...)``).

    The columns are formatted ``_CHUNK_ROWS`` rows at a time. A slice of
    plain numbers needs no quoting, so its rows are joined with commas,
    which is what ``csv.writer`` writes for them; any other slice goes to
    the one ``csv.writer``."""
    m = len(columns[0]) if columns else 0
    if any(len(column) != m for column in columns):
        raise ValueError("table columns differ in length")
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for start in range(0, m, _CHUNK_ROWS):
            cells, numbers = zip(*(_cells(column[start : start + _CHUNK_ROWS]) for column in columns))
            if all(numbers):
                fh.write("\r\n".join(map(",".join, zip(*cells))))
                fh.write("\r\n")
            else:
                writer.writerows(zip(*cells))
        fh.write(footer)
