"""Deterministic CSV and JSON writers.

CSV floats use fixed 17-significant-digit formatting and JSON floats use the
shortest round-trip repr; both give byte-identical files for identical
inputs. CSVs are UTF-8 with LF line endings and a header row; JSON keys are
sorted.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, (complex, np.complexfloating)):
        return f"{format(value.real, '.17g')},{format(value.imag, '.17g')}"
    return str(value)


#: Rows of a float array that ``write_csv`` formats in one call.
CSV_BLOCK_ROWS = 1024


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Header and rows as CSV; a 2-D float array is formatted one block of
    rows per call, any other rows cell by cell with ``fmt``."""
    path = Path(path)
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.dtype == float:
        # "%.17g" gives the bytes of fmt for every float, nan and inf too
        line = ",".join(["%.17g"] * rows.shape[1])
        for i in range(0, rows.shape[0], CSV_BLOCK_ROWS):
            block = rows[i:i + CSV_BLOCK_ROWS]
            lines.append("\n".join([line] * len(block)) % tuple(block.ravel().tolist()))
        rows = ()
    for row in rows:
        lines.append(",".join(fmt(v) for v in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")
    return path


def jsonable(obj):
    """Recursively convert numpy scalars/arrays so json can serialize them."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": float(obj.real), "im": float(obj.imag)}
    return obj


def write_json(path, obj) -> Path:
    path = Path(path)
    text = json.dumps(jsonable(obj), sort_keys=True, indent=2)
    path.write_text(text + "\n", encoding="utf-8", newline="\n")
    return path


def config_hash(obj) -> str:
    canon = json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def re_im_columns(m: np.ndarray) -> np.ndarray:
    """A complex matrix as a float one with columns re0, im0, re1, im1, ..."""
    pairs = np.empty((m.shape[0], 2 * m.shape[1]))
    pairs[:, 0::2] = m.real
    pairs[:, 1::2] = m.imag
    return pairs


def matrix_to_csv(path, matrix: np.ndarray) -> Path:
    """Row-major complex matrix dump with re,im pairs per entry."""
    m = np.asarray(matrix)
    header = []
    for j in range(m.shape[1]):
        header += [f"re{j}", f"im{j}"]
    return write_csv(path, header, re_im_columns(m))
