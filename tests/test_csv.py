"""The chunk-wide CSV report writer against the row-wise one it replaced."""

import numpy as np
import pytest

from oracles import write_csv_rowwise
from pexstab.cli import CSV_CHUNK_ROWS, _write_csv

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


@pytest.mark.parametrize("n_cols", [2, 3, 4])
@pytest.mark.parametrize("n_rows", [0, 1, CSV_CHUNK_ROWS - 1, CSV_CHUNK_ROWS,
                                    CSV_CHUNK_ROWS + 1])
def test_chunk_writer_matches_the_rowwise_writer(tmp_path, n_rows, n_cols):
    columns = table(n_rows, n_cols, seed=n_rows + n_cols)
    header = ",".join("c%d" % k for k in range(n_cols))
    _write_csv(str(tmp_path / "chunks.csv"), header, columns)
    write_csv_rowwise(str(tmp_path / "rows.csv"), header, zip(*columns))
    got = (tmp_path / "chunks.csv").read_bytes()
    assert got == (tmp_path / "rows.csv").read_bytes()
    assert got.count(b"\n") == n_rows + 1
