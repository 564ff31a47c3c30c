import json

import numpy as np

from nhlattice.serialization import (
    CSV_BLOCK_ROWS,
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


def test_float_array_keeps_the_bytes_of_fmt(tmp_path):
    # more rows than one block, with nan, inf and -0.0 in the second block
    rng = np.random.default_rng(2)
    shape = (CSV_BLOCK_ROWS + 5, 3)
    floats = 10.0 ** rng.uniform(-300, 300, shape) * rng.choice([-1, 1], shape)
    floats[CSV_BLOCK_ROWS] = [np.nan, np.inf, -0.0]
    text = write_csv(tmp_path / "a.csv", ["x", "y", "z"], floats).read_text()
    expected = ["x,y,z"] + [",".join(fmt(v) for v in row) for row in floats]
    assert text == "\n".join(expected) + "\n"


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
