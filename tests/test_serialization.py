import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nhlattice import serialization
from nhlattice.serialization import (
    CSV_BLOCK_VALUES,
    config_hash,
    fmt,
    jsonable,
    matrix_to_csv,
    write_csv,
    write_json,
)


def test_float_formatting_round_trips():
    for x in (0.1, 1.0 / 3.0, 6.6, -2.2e-16, 1e300):
        assert float(fmt(x)) == x


def test_fmt_handles_types():
    assert fmt(True) == "true"
    assert fmt(np.int64(3)) == "3"
    assert fmt(1 + 2j) == "1,2"


def test_csv_bytes_are_stable(tmp_path):
    rows = [[1, 0.1, "a"], [2, 2.0 / 3.0, "b"]]
    p1 = write_csv(tmp_path / "a.csv", ["i", "x", "s"], rows)
    p2 = write_csv(tmp_path / "b.csv", ["i", "x", "s"], rows)
    b1, b2 = p1.read_bytes(), p2.read_bytes()
    assert b1 == b2
    assert b1.endswith(b"\n")
    assert b"\r" not in b1


def test_json_sorted_and_numpy_safe(tmp_path):
    obj = {"b": np.float64(1.5), "a": np.arange(3), "c": {"z": np.bool_(True), "y": 1 + 1j}}
    p = write_json(tmp_path / "o.json", obj)
    text = p.read_text()
    assert text.index('"a"') < text.index('"b"') < text.index('"c"')
    loaded = json.loads(text)
    assert loaded["a"] == [0, 1, 2]
    assert loaded["c"]["y"] == {"im": 1.0, "re": 1.0}


def test_config_hash_is_key_order_independent():
    h1 = config_hash({"a": 1, "b": [1, 2]})
    h2 = config_hash({"b": [1, 2], "a": 1})
    assert h1 == h2
    assert h1 != config_hash({"a": 2, "b": [1, 2]})


def test_matrix_csv_re_im_pairs(tmp_path):
    m = np.array([[1 + 2j, 0], [0.5, -1j]])
    p = matrix_to_csv(tmp_path / "m.csv", m)
    lines = p.read_text().strip().splitlines()
    assert lines[0] == "re0,im0,re1,im1"
    first = [float(v) for v in lines[1].split(",")]
    assert first == [1.0, 2.0, 0.0, 0.0]


def test_float_rows_keep_the_bytes_of_fmt(tmp_path):
    rng = np.random.default_rng(0)
    floats = 10.0 ** rng.uniform(-300, 300, (20, 7)) * rng.choice([-1, 1], (20, 7))
    floats[0, :4] = [np.nan, np.inf, -np.inf, -0.0]
    rows = [list(r) for r in floats] + [[0.5, np.float32(0.1), np.float64(2.0)]]
    # rows of mixed cell types
    rows += [[1.5, True], [1.5, 10**20], [1.5, 1 + 2j], [1.5, np.bool_(False)], [1.5, "a"]]
    text = write_csv(tmp_path / "f.csv", ["h"], rows).read_text()
    expected = ["h"] + [",".join(fmt(v) for v in row) for row in rows]
    assert text == "\n".join(expected) + "\n"


def _fmt_lines(header, floats) -> str:
    return "".join(",".join(row) + "\n" for row in [header] + [
        [format(v, ".17g") for v in row] for row in floats.tolist()
    ])


def test_float_array_keeps_the_bytes_of_fmt(tmp_path):
    # several blocks, with nan, inf and -0.0 past the first one; then rows
    # wider than one block
    rng = np.random.default_rng(2)
    for shape in ((3 * CSV_BLOCK_VALUES // 7 + 5, 7), (3, CSV_BLOCK_VALUES + 3)):
        floats = 10.0 ** rng.uniform(-300, 300, shape) * rng.choice([-1, 1], shape)
        floats[2, :3] = [np.nan, np.inf, -0.0]
        header = [f"c{j}" for j in range(shape[1])]
        text = write_csv(tmp_path / "a.csv", header, floats).read_text()
        assert text == _fmt_lines(header, floats)


def test_float_array_without_columns_writes_empty_rows(tmp_path):
    text = write_csv(tmp_path / "e.csv", [], np.empty((3, 0))).read_text()
    assert text == "\n" * 4


# Doubles nearest a halfway point of 17 digits: a 17-digit d followed by a 5.
_halfway = st.builds(
    lambda d, k: float(f"{d}5e{k}"),
    st.integers(10**16, 10**17 - 1), st.integers(-342, 291),
)


@settings(deadline=None, max_examples=150)
@given(arrays(
    np.float64,
    st.tuples(st.integers(0, 40), st.integers(1, 30)),
    elements=st.one_of(st.floats(), _halfway),
))
# boundaries of the layouts and of the product's window
@example(np.array([[0.5, 1e-4, 1e-5, 1e16, 1e17, 9.9999999999999999e16]]))
# the smallest subnormal, the smallest normal and the largest double
@example(np.array([[5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]]))
# doubles just below a power of ten, whose 17 digits carry into an 18th
@example(np.array([[1e-14, -1e-305, 1e153], [0.0, -0.0, np.nan]]))
# doubles whose long-double product rounds to the wrong side of one half,
# found by search: without the margin they would be decided wrongly
@example(np.array([[-5.736632302678879e+280, 3.1840308524721733e-211, 1.6121981551231505e-68],
                   [-3.5467102090433724e-38, -5.4991768101597764e+47, 6.846927541353596e-68]]))
# a tie at the 18th digit, which rounds to even
@example(np.array([[1000000000000000.25, -np.inf, np.inf]]))
def test_float_array_bytes_are_those_of_format(tmp_path_factory, floats):
    path = tmp_path_factory.mktemp("csv") / "p.csv"
    header = [f"c{j}" for j in range(floats.shape[1])]
    assert write_csv(path, header, floats).read_text() == _fmt_lines(header, floats)


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps,
                    reason="the long double is a double: every value falls back")
def test_powers_of_ten_are_correctly_rounded():
    for i, p in enumerate(serialization._POW10):
        exact = Fraction(10) ** (i + serialization._POW10_MIN)
        num, den = p.as_integer_ratio()
        # p = f * 2**e with 1/2 <= f < 1 and nmant + 1 significant bits
        half_ulp = Fraction(2) ** (int(np.frexp(p)[1]) - np.finfo(np.longdouble).nmant - 2)
        assert abs(Fraction(num, den) - exact) <= half_ulp


def test_every_value_falling_back_keeps_the_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(serialization, "_MARGIN", np.inf)
    rng = np.random.default_rng(3)
    floats = 10.0 ** rng.uniform(-320, 308, (50, 9)) * rng.choice([-1, 1], (50, 9))
    floats[0, :4] = [np.nan, -np.inf, 0.0, -0.0]
    text = write_csv(tmp_path / "f.csv", ["h"] * 9, floats).read_text()
    assert text == _fmt_lines(["h"] * 9, floats)


def test_matrix_csv_matches_entrywise_pairs(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    m[0, 0] = complex(-0.0, np.nan)
    for matrix in (m, m.real, np.arange(6).reshape(2, 3)):
        lines = matrix_to_csv(tmp_path / "m.csv", matrix).read_text().splitlines()
        for row, line in zip(matrix, lines[1:]):
            pairs = [fmt(float(part(v))) for v in row for part in (np.real, np.imag)]
            assert line == ",".join(pairs)


def test_jsonable_nested():
    out = jsonable({"k": (np.int32(1), [np.float32(2.0)])})
    assert out == {"k": [1, [2.0]]}
