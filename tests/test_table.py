"""The CSV writer against Python's own `'%.12g'` / `'%d'` row loop, byte for byte."""

import io

import numpy as np
import pytest

from orthoglide import _table
from orthoglide._table import write_table

CHUNK = _table._CHUNK_ROWS


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
        x = rng.standard_normal(3 * CHUNK)
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

    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    def test_chunk_boundaries(self, rng, n):
        x = rng.standard_normal(n) * 1e3
        assert_same([x, x < 0, -x])

    def test_integer_groups_change_between_chunks(self, rng):
        # the first chunk's integer parts all fit in one 4-digit group, the
        # second's need three
        small = rng.uniform(-9999, 9999, CHUNK)
        large = rng.uniform(-1e11, 1e11, CHUNK)
        assert_same([np.concatenate([small, large]), np.concatenate([large, small])])

    def test_columns_of_different_length_are_refused(self):
        buf = io.StringIO()
        with pytest.raises(ValueError, match="differ in length"):
            write_table(buf, "a,b", [np.zeros(3), np.zeros(2)])
        assert buf.getvalue() == ""

    def test_path_output_is_the_same_bytes(self, tmp_path, rng):
        x = rng.standard_normal(CHUNK + 5)
        write_table(tmp_path / "t.csv", "x,neg", [x, x < 0])
        assert (tmp_path / "t.csv").read_bytes() == reference("x,neg", [x, x < 0]).encode()


class TestCodedColumns:
    """A coded column (levels, index) writes the values levels[index], with
    each level formatted once."""

    @pytest.fixture()
    def formatted_cells(self, monkeypatch):
        seen = []
        real = _table._cell_words

        def counting(x):
            seen.append(len(x))
            return real(x)

        monkeypatch.setattr(_table, "_cell_words", counting)
        return seen

    def test_wide_levels_beside_narrow_floats(self, rng, formatted_cells):
        # levels of 8 words (integer parts of 10^4 and more, and small
        # levels that fill every fraction word) beside float columns of 6
        big = rng.uniform(-1e11, 1e11, 30)
        small = rng.uniform(-1.0, 1.0, 8) * 1e-3
        levels = np.concatenate([[1e4, -12345.678, 99999999999.5], big, small])
        x = rng.standard_normal(3 * CHUNK)
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
        index = rng.integers(0, 41, CHUNK + 7).astype(np.uint8)
        x = rng.standard_normal(len(index))
        assert_same([(levels, index), x > 0, x, x < 0, (levels, index[::-1])])

    @pytest.mark.parametrize("n", [CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
    def test_chunk_boundaries(self, rng, n, dtype):
        levels = rng.uniform(-300.0, 300.0, 121)
        index = rng.integers(0, len(levels), n).astype(dtype)
        x = rng.standard_normal(n)
        assert_same([(levels, index), x, x < 0])

    def test_no_rows(self):
        assert written("a,b", [(np.zeros(0), np.zeros(0, dtype=np.uint8)), np.zeros(0)]) == "a,b\n"

    def test_length_is_that_of_the_index(self):
        with pytest.raises(ValueError, match="differ in length"):
            write_table(io.StringIO(), "a,b", [(np.zeros(3), np.zeros(3, dtype=int)), np.zeros(2)])
