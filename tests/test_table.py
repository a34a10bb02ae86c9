"""The CSV writer against Python's own `'%.12g'` / `'%d'` row loop, byte for byte."""

import io

import numpy as np
import pytest

from orthoglide import _table
from orthoglide._table import write_table

CHUNK = _table._CHUNK_ROWS


def reference(header, columns):
    """The plain row loop: `%d` for bools, `%.12g` for everything else."""
    cols = [np.asarray(c) for c in columns]
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
