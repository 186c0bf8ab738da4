"""The one owner of procfair's artifact formats: JSON documents (written and
read), CSV tables and the read-only arrays that frozen records hold. A seed's
artifacts are byte-identical across runs only if their bytes are decided in
one place."""

from __future__ import annotations

import csv
import json

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


def write_table(path, header, rows, footer: str = "") -> None:
    """UTF-8 CSV: the header, then one line per row, then ``footer`` as is.
    Floats are written with ``repr`` (the shortest string that reads back
    the same float) and anything else with ``str``, so rows hold Python
    scalars (a numpy row's ``.tolist()``): under numpy 2 the ``repr`` of an
    ``np.float64`` is ``np.float64(...)``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
        fh.write(footer)
