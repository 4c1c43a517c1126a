"""The CSV report writer against the row-wise '%.17g' writer it replaced.

``_write_csv`` prints each value from its 17 significant digits computed
exactly as integers; every byte must be what '%.17g' prints.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from oracles import write_csv_rowwise
from pexstab.cli import CSV_CHUNK_ROWS, _digits17, _write_csv

SPECIAL = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e-5]


def table(n_rows, n_cols, seed):
    """``n_cols`` columns of ``n_rows``: one integer column, as the
    strong-stability table's ``n``, one tuple of Python floats, as a scan's
    grid, and float arrays that hold every special value and random floats
    of every magnitude."""
    rng = np.random.default_rng(seed)
    columns = []
    for k in range(n_cols):
        mantissa = rng.standard_normal(n_rows)
        values = mantissa * 10.0 ** rng.integers(-300, 300, n_rows)
        values[k % 3::3] = np.resize(SPECIAL, len(values[k % 3::3]))
        columns.append(values)
    columns[seed % n_cols] = np.arange(n_rows)
    columns[(seed + 1) % n_cols] = tuple(columns[(seed + 1) % n_cols].tolist())
    return columns


def assert_writers_agree(path, columns):
    header = ",".join("c%d" % k for k in range(len(columns)))
    _write_csv(str(path / "chunks.csv"), header, columns)
    write_csv_rowwise(str(path / "rows.csv"), header, zip(*columns))
    got = (path / "chunks.csv").read_bytes()
    assert got == (path / "rows.csv").read_bytes()
    assert got.count(b"\n") == len(columns[0]) + 1
    return got


@pytest.mark.parametrize("n_cols", [2, 3, 4])
@pytest.mark.parametrize("n_rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                    CSV_CHUNK_ROWS + 1])
def test_chunk_writer_matches_the_rowwise_writer(tmp_path, n_rows, n_cols):
    assert_writers_agree(tmp_path, table(n_rows, n_cols, seed=n_rows + n_cols))


def _decimal(sign, mantissa, exp):
    return sign * mantissa * 10.0 ** exp


# every float64, weighted towards the computed range (1e-6, 1e17) and its
# edges, where a value's digits come from integer arithmetic
csv_values = (st.floats(width=64)
              | st.floats(-1e18, 1e18)
              | st.builds(_decimal, st.sampled_from([1.0, -1.0]),
                          st.floats(1.0, 10.0), st.integers(-8, 18))
              | st.sampled_from([1e-6, 1e17, np.nextafter(1e-6, 1.0),
                                 np.nextafter(1e17, 0.0), 5e-324, -0.0]))


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv")


@settings(max_examples=120, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(0, 12), st.integers(1, 4)),
              elements=csv_values))
def test_writer_matches_the_rowwise_writer_on_any_floats(csv_dir, values):
    assert_writers_agree(csv_dir, list(values.T))


POWERS = [float("1e%d" % k) for k in range(-7, 19)]
EDGES = sorted({v for p in POWERS
                for v in (np.nextafter(p, 0.0), p, np.nextafter(p, np.inf))})


@pytest.mark.parametrize("value, text", [
    # the 17th digit rounds half to even on the exact binary value
    (1000000000000000.25, "1000000000000000.2"),
    (1000000000000000.75, "1000000000000000.8"),
    # next to a power of ten: 17 digits still tell the float below it
    # apart, and 99999999999999999.0 is the float 1e17, out of the range
    (np.nextafter(1e-4, 0.0), "9.9999999999999991e-05"),
    (99999999999999999.0, "1e+17"),
    # printf's %g switches from exponent form to fixed at E = -4 ...
    (1.2345e-5, "1.2345e-05"),
    (1.2345e-4, "0.00012344999999999999"),
    (1e-5, "1.0000000000000001e-05"),
    (1e-4, "0.0001"),
    (-2.5e-6, "-2.5000000000000002e-06"),
    (-0.5, "-0.5"),
    # ... and back to exponent form at E = 17
    (12345678901234568.0, "12345678901234568"),
    (1e16, "10000000000000000"),
    (np.nextafter(1e17, 0.0), "99999999999999984"),
    (1.2345678901234568e17, "1.2345678901234568e+17"),
    (5.0, "5"),
    (0.001, "0.001"),
    (5.001, "5.0010000000000003"),
    (-0.0, "-0"),
])
def test_edge_values_print_as_printf_does(tmp_path, value, text):
    assert "%.17g" % value == text
    got = assert_writers_agree(tmp_path, [np.array([value, -value])])
    assert got.split(b"\n")[1] == text.encode()


def test_powers_of_ten_and_their_neighbours_print_as_printf_does(tmp_path):
    values = np.array(EDGES + [-v for v in EDGES])
    got = assert_writers_agree(tmp_path, [values, values[::-1]])
    rows = got.decode().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == values.tolist()


def printf_digits(a):
    """(D, E) read off '%.16e': the 17 digits as one integer and the
    exponent."""
    mantissa, exp = ("%.16e" % a).split("e")
    return int(mantissa.replace(".", "")), int(exp)


def test_an_exponent_estimate_off_by_one_gives_the_same_digits():
    rng = np.random.default_rng(5)
    a = np.concatenate([
        [v for v in EDGES if 1e-6 < v < 1e17],
        [1000000000000000.25, 1000000000000000.75, np.nextafter(1e-4, 0.0)],
        rng.uniform(1.0, 10.0, 2000) * 10.0 ** rng.integers(-5, 17, 2000),
    ])
    exp = np.array([printf_digits(v)[1] for v in a])
    want = np.array([printf_digits(v)[0] for v in a])
    for off in (-1, 0, 1):
        digits, got_exp = _digits17(a, exp + off)
        assert digits.tolist() == want.tolist()
        assert got_exp.tolist() == exp.tolist()
