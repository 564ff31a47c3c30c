"""Deterministic CSV and JSON writers.

CSV floats are written as Python's ``format(v, ".17g")`` writes them: 17
significant digits with trailing zeros dropped, and ``nan``, ``inf``,
``-inf`` and ``-0`` spelled as Python spells them. JSON floats use the
shortest round-trip repr. Both give byte-identical files for identical
inputs. CSVs are UTF-8 with LF line endings and a header row; JSON keys are
sorted.

A 2-D float64 array is formatted in NumPy, a block at a time
(``_csv_block``). Each value's 17 digits are the rounded long-double
product |v| * 10**(16 - X), X its decimal exponent. The product is off
from the exact one by at most about one long-double epsilon, relative, so
a value is taken from it only when its fractional part lies farther than
twice that from one half, and its integer part lies inside [1e16 + 1,
1e17 - 3], clear of a wrong X and of a carry into an 18th digit.
Every other value, and 0, -0, nan and +-inf, goes to ``format()`` itself,
so the bytes are exact either way. On x86-64 (80-bit long double) about 2 %
of values fall back. Where the long double is only a double, the margin
exceeds one half and every value falls back: still exact, but slow.
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


#: Values of a float array that ``write_csv`` formats in one block; a row
#: wider than this is one block of its own. The largest temporary of a block
#: is 50 B per value: at 2048 values every temporary stays under glibc's
#: 128 KiB mmap threshold. At 4096, formatting was 10 % faster but the
#: benchmark's large-chain peak RSS read 0.5 MB higher.
CSV_BLOCK_VALUES = 2048

#: 10**k as long doubles for k from ``_POW10_MIN``: every scale factor
#: 10**(16 - X) a finite nonzero double needs, with room for the +-1 fix of X.
_POW10_MIN = -310
_POW10 = np.array([np.longdouble(f"1e{k}") for k in range(_POW10_MIN, 346)])

#: Bound on the relative error of the long-double product (one rounding of
#: 10**k, one of the product), taken twice over.
_MARGIN = float(2 * np.finfo(np.longdouble).eps)


def _ascii_table(strings, width: int) -> np.ndarray:
    """The strings as rows of ``width`` ASCII bytes, NUL-padded."""
    return np.array(strings, dtype=f"S{width}").view(np.uint8).reshape(-1, width)


#: The four ASCII digits of 0 ... 9999, one uint32 each (built from uint8
#: grids: int64 temporaries would take 0.6 MB more at import).
_DIGITS4 = np.stack(
    np.meshgrid(*[np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)] * 4, indexing="ij"), axis=-1
).reshape(-1, 4).view(np.uint32).ravel()
#: The sign and the "0." and zeros before the digits of a value with X = -1
#: ... -4, 8 bytes each, by 5 * (v < 0) - X (X = 0 when the value has none).
_LEAD = _ascii_table(
    [sign + lead for sign in ("", "-") for lead in ("", "0.", "0.0", "0.00", "0.000")], 8
).view(np.uint64).ravel()
#: The exponent of exponent notation, "e+XX" or "e-XXX", 8 bytes each, by
#: X + 325; entry 0 is empty, for fixed notation.
_EXPONENT = _ascii_table([""] + [f"e{x:+03d}" for x in range(-324, 309)], 8).view(np.uint64).ravel()

# Columns of one value in ``_csv_block``: the sign and lead (0-7), digit j at
# 8 + 2j with a slot for the point after it, the exponent (42-46) and the
# separator (49). Columns left NUL are dropped.
_WIDTH = 50


def _csv_block(block: np.ndarray) -> bytes:
    """The CSV lines of a 2-D float64 array: each value as
    ``format(v, ".17g")``, joined by "," and each row ended by "\\n".

    Private on purpose: a tracer that times this module's public functions
    would time a public helper as a layer of its own, and the cost of
    formatting would no longer show in ``write_csv``.
    """
    n_rows, m = block.shape
    if m == 0:
        return b"\n" * n_rows
    v = block.ravel()
    n = v.size
    a = np.abs(v)
    finite = np.isfinite(a) & (a != 0)
    a = np.where(finite, a, 1.0)
    # X = floor(log10 |v|) and the 17 digits D = round(|v| * 10**(16 - X))
    x = np.floor(np.log10(a)).astype(np.int64)
    scaled = a.astype(np.longdouble) * _POW10[16 - x - _POW10_MIN]
    d = scaled.astype(np.int64)
    shift = (d >= 10**17).astype(np.int64) - (d < 10**16)
    redo = np.flatnonzero(shift)
    if redo.size:
        x[redo] += shift[redo]
        scaled[redo] = a[redo].astype(np.longdouble) * _POW10[16 - x[redo] - _POW10_MIN]
        d[redo] = scaled[redo].astype(np.int64)
    frac = (scaled - d).astype(np.float64)
    decided = (finite & (np.abs(frac - 0.5) > _MARGIN * scaled.astype(np.float64))
               & (d >= 10**16 + 1) & (d <= 10**17 - 3))
    d += frac > 0.5

    quads = np.empty((n, 5), dtype=np.uint32)
    for k in range(4, 0, -1):
        q = d // 10000
        quads[:, k] = _DIGITS4[d - 10000 * q]
        d = q
    quads[:, 0] = _DIGITS4[d]
    digits = quads.view(np.uint8)[:, 3:]

    lead = (x < 0) & (x >= -4)
    expo = (x < -4) | (x > 16)
    cells = np.zeros((n, _WIDTH), dtype=np.uint8)
    cells[:, 0:8].view(np.uint64)[:, 0] = _LEAD[np.where(lead, -x, 0) + 5 * np.signbit(v)]
    cells[:, 8:42:2] = digits
    cells[:, 42:50].view(np.uint64)[:, 0] = _EXPONENT[np.where(expo, x + 325, 0)]
    cells[:, 49] = ord(",")
    cells[m - 1::m, 49] = ord("\n")
    # trailing zeros go, except those of the integer part, and so does the
    # point when no digit follows it
    point = np.where(lead | expo, 0, x)
    last = np.full(n, 16)
    tail = np.flatnonzero(digits[:, 16] == ord("0"))
    if tail.size:
        nonzero = digits[tail, ::-1] != ord("0")
        last[tail] = np.maximum(16 - np.argmax(nonzero, axis=1), point[tail])
        cells[tail, 8:42:2] *= np.arange(17) <= last[tail, None]
    dot = np.flatnonzero((last > point) & ~lead)
    cells[dot, 9 + 2 * point[dot]] = ord(".")

    rest = np.flatnonzero(~decided)
    if rest.size:
        cells[rest, :-1] = 0
        cells[rest, :24] = _ascii_table([format(f, ".17g") for f in v[rest].tolist()], 24)
    return cells.tobytes().translate(None, b"\0")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Header and rows as CSV; a 2-D float64 array is formatted in blocks of
    about ``CSV_BLOCK_VALUES`` values, any other rows cell by cell with
    ``fmt``."""
    path = Path(path)
    with path.open("wb") as fh:
        fh.write((",".join(header) + "\n").encode("utf-8"))
        if isinstance(rows, np.ndarray) and rows.dtype == float:
            step = max(1, CSV_BLOCK_VALUES // max(rows.shape[1], 1))
            for i in range(0, rows.shape[0], step):
                fh.write(_csv_block(rows[i:i + step]))
        else:
            fh.write("".join(",".join(fmt(v) for v in row) + "\n" for row in rows).encode("utf-8"))
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
