"""The CSV writer against Python's own `'%.12g'` / `'%d'` row loop, byte for byte."""

import io
import tracemalloc

import numpy as np
import pytest

from orthoglide import _table
from orthoglide._table import write_table


def chunk_rows(n_float):
    """Rows per chunk of a table with `n_float` plain float columns."""
    return _table._CHUNK_CELLS // max(1, n_float)


# rows per chunk of the grid CSV's width: three float columns beside coded
# and bool ones; tests whose chunk size is part of their parameters write
# tables of this width
GRID = chunk_rows(3)
# traj-check's profile: 13 float columns and 6 flag columns
WIDE = chunk_rows(13)


def reference(header, columns):
    """The plain row loop: `%d` for bools, `%.12g` for everything else; a
    coded column (levels, index) is expanded to levels[index] first."""
    cols = [
        np.asarray(c[0], dtype=float)[c[1]] if isinstance(c, tuple) else np.asarray(c)
        for c in columns
    ]
    row = ",".join("%d" if c.dtype == bool else "%.12g" for c in cols) + "\n"
    return header + "\n" + "".join(row % r for r in zip(*[c.tolist() for c in cols]))


def written(header, columns):
    buf = io.StringIO()
    write_table(buf, header, columns)
    return buf.getvalue()


def wide_table(rng, n):
    """A traj-check-like table of `n` rows: 13 float columns of magnitudes
    from 1e-3 to 1e5, then 6 bool columns."""
    x = rng.standard_normal((13, n)) * 10.0 ** rng.integers(-3, 6, (13, 1))
    return [*x, *(x[:6] > 0.5)]


@pytest.fixture()
def formatted_cells(monkeypatch):
    """The number of values of each `_cell_words` call, in order."""
    seen = []
    real = _table._cell_words

    def counting(x):
        seen.append(len(x))
        return real(x)

    monkeypatch.setattr(_table, "_cell_words", counting)
    return seen


def assert_same(columns, header="h"):
    got, want = written(header, columns), reference(header, columns)
    if got != want:
        bad = next(k for k, (g, w) in enumerate(zip(got.splitlines(), want.splitlines())) if g != w)
        pytest.fail(f"line {bad}: {got.splitlines()[bad]!r} != {want.splitlines()[bad]!r}")


def random_bits(rng, n):
    """Doubles from uniform random bit patterns: every exponent, subnormals,
    infinities and NaNs of many payloads."""
    return rng.integers(0, 2**64, size=n, dtype=np.uint64, endpoint=False).view(np.float64)


def fixed_notation_bits(rng, n):
    """Random mantissa bits and signs with binary exponents spanning
    2^-18 .. 2^41: the values the vectorized path formats, and its edges."""
    exponent = rng.integers(1023 - 18, 1023 + 42, size=n).astype(np.uint64)
    mantissa = rng.integers(0, 2**52, size=n, dtype=np.uint64)
    sign = rng.integers(0, 2, size=n).astype(np.uint64)
    return ((sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa).view(np.float64)


def decimal_ties(rng, per_exponent=400):
    """The doubles nearest the decimal ties m + 1/2 at the 12th significant
    digit, for decimal exponents -5 .. 12, with their neighbours one ulp
    above and below."""
    ties = []
    for e in range(-5, 13):
        m = rng.integers(10**11, 10**12, size=per_exponent)
        m[:3] = [10**11, 10**12 - 1, 999999999999]
        ties.append([float(f"{k}5e{e - 12}") for k in m.tolist()])
    t = np.array(ties).reshape(-1)
    return np.concatenate([t, np.nextafter(t, np.inf), np.nextafter(t, -np.inf)])


class TestAgainstRowLoop:
    def test_random_bit_patterns(self, rng):
        x = random_bits(rng, 2**20)
        assert np.isnan(x).any() and (np.abs(x) < np.finfo(float).tiny).any()
        assert_same(x.reshape(8, -1))

    def test_fixed_notation_range(self, rng):
        x = fixed_notation_bits(rng, 2**19)
        assert_same(x.reshape(8, -1))

    def test_decimal_ties_and_neighbours(self, rng):
        t = decimal_ties(rng)
        assert_same([t, -t])

    def test_exactly_representable_ties(self):
        # binary values exactly halfway between two 12-digit decimals
        k = np.arange(1e11, 1e11 + 64)
        assert_same([k + 0.5, (k + 0.5) / 2**20, -(k + 0.5) * 2**-37])

    def test_edges_of_fixed_notation(self):
        x = np.array(
            [
                9.999999999995e-5,
                1e-4,
                99999999999.95,
                999999999999.5,
                1e12,
                1e-5,
                np.nextafter(1e-4, 0.0),
                np.nextafter(1e12, 0.0),
                9.9999999999995e-5,
                0.00099999999999995,
                999.9999999999995,
            ]
        )
        powers = 10.0 ** np.arange(-6, 14)
        near = np.concatenate([powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)])
        assert_same([np.concatenate([x, near]), -np.concatenate([x, near])])

    def test_signed_zeros_infinities_and_nan(self):
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 1.0, -1.0])
        assert_same([special, special[::-1], np.full(8, np.nan)])
        assert written("h", [special]).splitlines()[1:] == [
            "0", "-0", "inf", "-inf", "nan", "nan", "1", "-1"
        ]

    def test_all_nan_column(self, rng):
        # unreachable grid nodes: whole NaN columns beside finite ones
        x = rng.standard_normal(3 * chunk_rows(3))
        assert_same([x, np.full_like(x, np.nan), x > 0, np.full_like(x, np.nan)])

    def test_bool_columns(self, rng):
        flags = rng.random((4, 1000)) < 0.3
        x = rng.standard_normal(1000) * 100
        assert_same([flags[0], x, flags[1], flags[2], x, flags[3]])
        assert_same([flags[0]])

    def test_integer_and_float32_columns(self, rng):
        big = rng.integers(-(2**62), 2**62, size=200)
        small = rng.integers(-20000, 20000, size=200)
        f32 = rng.standard_normal(200).astype(np.float32)
        assert_same([big, small, f32])


class TestFallback:
    """The per-cell `'%.12g'` fallback takes only the cells it must."""

    @pytest.fixture()
    def fallback_cells(self, monkeypatch):
        seen = []
        real = _table._fallback

        def counting(v):
            seen.append(len(v))
            return real(v)

        monkeypatch.setattr(_table, "_fallback", counting)
        return seen

    def test_ordinary_values_stay_vectorized(self, rng, fallback_cells):
        # only cells within 1e-3 of a tie at the 12th digit, about 0.2%,
        # leave the vectorized path
        x = rng.uniform(-1e4, 1e4, (6, 20000)) * 10.0 ** rng.integers(-3, 7, (6, 1))
        assert_same(x)
        assert sum(fallback_cells) < 0.005 * x.size

    def test_ties_and_exponent_notation_fall_back(self, rng, fallback_cells):
        assert_same([np.array([1.5e-7, 2e13, -3.25e100, 5e-324])])
        assert sum(fallback_cells) == 4
        t = decimal_ties(rng)
        assert_same([t])
        assert sum(fallback_cells) > 4 + len(t) // 3


class TestChunks:
    def test_no_rows(self):
        assert written("a,b", [np.zeros(0), np.zeros(0, dtype=bool)]) == "a,b\n"

    @pytest.mark.parametrize("n", [1, GRID - 1, GRID, GRID + 1, 2 * GRID + 1])
    def test_chunk_boundaries(self, rng, n):
        x = rng.standard_normal(n) * 1e3
        assert_same([x, x < 0, -x, x * 1e-3])

    def test_integer_groups_change_between_chunks(self, rng):
        # one float column: the first chunk's integer parts all fit in one
        # 4-digit group, the second's need three, and the other way round
        small = rng.uniform(-9999, 9999, chunk_rows(1))
        large = rng.uniform(-1e11, 1e11, chunk_rows(1))
        x = np.concatenate([small, large])
        assert_same([x, x > 0])
        assert_same([x[::-1]])

    @pytest.mark.parametrize(
        "n_float, rows", [(0, 6144), (1, 6144), (3, 2048), (6, 1024), (13, 472)]
    )
    def test_rows_per_chunk_follow_the_float_columns(self, rng, formatted_cells, n_float, rows):
        # 3 floats: the grid CSV; 6: diag-profile; 13: traj-check.  Coded
        # and bool columns do not count
        n = 2 * rows + 5
        x = rng.standard_normal(n)
        levels = rng.standard_normal(7)
        write_table(
            io.StringIO(), "h", [(levels, np.arange(n) % 7), x > 0, *[x] * n_float, x < 0]
        )
        assert formatted_cells == [len(levels), n_float * rows, n_float * rows, n_float * 5]

    def test_columns_of_different_length_are_refused(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="differ in length"):
            write_table(buf, "a,b", [np.zeros(3), np.zeros(2)])
        assert buf.getvalue() == ""

    def test_path_output_is_the_same_bytes(self, tmp_path, rng):
        x = rng.standard_normal(chunk_rows(1) + 5)
        write_table(tmp_path / "t.csv", "x,neg", [x, x < 0])
        assert (tmp_path / "t.csv").read_bytes() == reference("x,neg", [x, x < 0]).encode()


class TestWideTables:
    """traj-check's 13 float and 6 bool columns: chunks of fewer rows, and
    no `_cell_words` call above the cell budget."""

    @pytest.mark.parametrize("n", [WIDE - 1, WIDE, WIDE + 1, 2 * WIDE + 1])
    def test_chunk_boundaries(self, rng, n):
        assert_same(wide_table(rng, n))

    def test_cells_per_call_stay_in_budget(self, rng, formatted_cells):
        columns = wide_table(rng, 10_000)
        assert_same(columns)
        assert max(formatted_cells) <= _table._CHUNK_CELLS
        assert sum(formatted_cells) == 13 * 10_000

    def test_more_float_columns_than_the_budget(self, rng, formatted_cells):
        # one row per chunk, never none
        x = rng.standard_normal((_table._CHUNK_CELLS + 1, 2))
        assert_same([*x, x[0] > 0])
        assert formatted_cells == [len(x), len(x)]

    def test_memory_peak_of_a_wide_file(self, rng, tmp_path):
        # tracemalloc counts numpy's allocations, not time, so the bound does
        # not depend on the host; 2048-row chunks of 13 floats peak at about
        # 6.4 MB here, the cell budget at about 1.5 MB
        columns = wide_table(rng, 10_000)
        write_table(tmp_path / "warm.csv", "h", columns[:1])  # one-time set-up
        tracemalloc.start()
        try:
            write_table(tmp_path / "t.csv", "h", columns)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2_000_000


class TestCodedColumns:
    """A coded column (levels, index) writes the values levels[index], with
    each level formatted once."""

    def test_wide_levels_beside_narrow_floats(self, rng, formatted_cells):
        # levels of 8 words (integer parts of 10^4 and more, and small
        # levels that fill every fraction word) beside float columns of 6
        big = rng.uniform(-1e11, 1e11, 30)
        small = rng.uniform(-1.0, 1.0, 8) * 1e-3
        levels = np.concatenate([[1e4, -12345.678, 99999999999.5], big, small])
        x = rng.standard_normal(3 * chunk_rows(2))
        assert _table._cell_words(levels).shape[1] == 8
        assert _table._cell_words(x).shape[1] == 6
        index = rng.integers(0, len(levels), (2, len(x))).astype(np.uint8)
        formatted_cells.clear()
        assert_same([(levels, index[0]), x, (levels[::-1], index[1]), -x])
        # the levels once per column, the floats once per row
        assert sum(formatted_cells) == 2 * len(levels) + 2 * len(x)

    def test_levels_that_fall_back(self, rng, formatted_cells):
        ties = decimal_ties(rng, per_exponent=3)
        special = [1e-7, 1e15, 0.0, -0.0, np.nan, np.inf, -np.inf, 1.0, -2.5e-3]
        levels = np.concatenate([special, ties])
        index = np.concatenate([np.arange(len(levels)), rng.integers(0, len(levels), 500)])
        assert_same([(levels, index), rng.standard_normal(len(index))])
        assert written("h", [(np.array(special), np.arange(len(special)))]).splitlines()[1:] == [
            "1e-07", "1e+15", "0", "-0", "nan", "inf", "-inf", "1", "-0.0025"
        ]

    def test_bool_column_between_coded_and_float(self, rng):
        levels = np.linspace(-93.0893393937, 136.910660606, 41)
        index = rng.integers(0, 41, chunk_rows(1) + 7).astype(np.uint8)
        x = rng.standard_normal(len(index))
        assert_same([(levels, index), x > 0, x, x < 0, (levels, index[::-1])])

    @pytest.mark.parametrize("n", [GRID - 1, GRID, GRID + 1, 2 * GRID + 1])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_chunk_boundaries(self, rng, n, dtype):
        levels = rng.uniform(-300.0, 300.0, 121)
        index = rng.integers(0, len(levels), n).astype(dtype)
        x = rng.standard_normal(n)
        assert_same([(levels, index), x, x < 0, -x, x * 1e3])

    def test_no_rows(self):
        assert written("a,b", [(np.zeros(0), np.zeros(0, dtype=np.uint8)), np.zeros(0)]) == "a,b\n"

    def test_length_is_that_of_the_index(self):
        with pytest.raises(ValueError, match="differ in length"):
            write_table(io.StringIO(), "a,b", [(np.zeros(3), np.zeros(3, dtype=int)), np.zeros(2)])
