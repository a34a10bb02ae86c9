"""Exact singular-value brackets of a float 3x3 matrix M, in integers: the
tests' reference for the float kernel.  Scaled by one power of two, M and
M^T M are integers; M^T M - tau I is symmetric, so Descartes' sign count on
its characteristic polynomial (1, -tr, E2, -det) is exact, and bisection on
the rational tau brackets each eigenvalue."""

import math
from fractions import Fraction


def gram(m) -> tuple[list[list[int]], int]:
    """(G, s): the integer matrix G = s M^T M of a finite 3x3 float matrix,
    s = 4^k for the one power of two 2^k that makes M's entries integers."""
    f = [[Fraction(float(v)) for v in row] for row in m]
    scale = max(x.denominator for row in f for x in row)
    a = [[int(x * scale) for x in row] for row in f]
    return [[sum(r[i] * r[j] for r in a) for j in range(3)] for i in range(3)], scale**2


def _shifted(g: list[list[int]], t: Fraction) -> list[list[int]]:
    """B = q G - p I, a positive multiple of G - t I for t = p / q."""
    return [[t.denominator * g[i][j] - t.numerator * (i == j) for j in range(3)] for i in range(3)]


def _coefficients(b: list[list[int]]) -> tuple[int, int, int, int]:
    """(1, -tr, E2, -det) of B: its characteristic polynomial."""
    (b00, b01, b02), (b10, b11, b12), (b20, b21, b22) = b
    e2 = b00 * b11 - b01 * b10 + b00 * b22 - b02 * b20 + b11 * b22 - b12 * b21
    det = b00 * (b11 * b22 - b12 * b21) - b01 * (b10 * b22 - b12 * b20)
    det += b02 * (b10 * b21 - b11 * b20)
    return 1, -(b00 + b11 + b22), e2, -det


def _count(g: list[list[int]], t: Fraction) -> int:
    """Eigenvalues of the integer matrix G above the rational t."""
    # a zero coefficient has no sign: Descartes skips it
    signs = [c > 0 for c in _coefficients(_shifted(g, t)) if c]
    return sum(u != v for u, v in zip(signs, signs[1:]))


def count_above(m, tau) -> int:
    """How many eigenvalues of M^T M lie above the rational `tau`."""
    g, s = gram(m)
    return _count(g, s * Fraction(tau))


def brackets(m, bits: int = 64) -> list[tuple[float, float]]:
    """Floats lo <= sigma_k <= hi around each singular value of m, ascending:
    bisection leaves hi^2 - lo^2 at most 2^-bits of lo^2 before the outward
    rounding to floats, and a zero singular value gets exactly (0.0, 0.0)."""
    g, s = gram(m)
    tr = g[0][0] + g[1][1] + g[2][2]
    out = []
    for k in range(3):
        # lambda_k, the k-th smallest eigenvalue of G, is above mid iff 3 - k
        # are; a positive one is at least 1/tr^2, as the product of G's
        # positive eigenvalues is a positive integer and each is at most tr
        lo, hi = Fraction(0), Fraction(tr)
        while hi - lo > lo / 2**bits and hi * tr * tr >= 1:
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if _count(g, mid) > 2 - k else (lo, mid)
        if hi * tr * tr < 1:
            lo = hi = Fraction(0)
        out.append((_root(lo / s, -math.inf), _root(hi / s, math.inf)))
    return out


def _root(x: Fraction, away: float) -> float:
    """The float nearest sqrt(x) on the side of `away`: outward rounding.
    x is scaled by 4^e into [1, 4) first, so x beyond the float range, as
    sigma^2 of a sigma below 1e-154 is, needs no long walk from 0 or inf."""
    e = (x.denominator.bit_length() - x.numerator.bit_length()) // 2
    r = math.ldexp(math.sqrt(x * Fraction(4) ** e), -e)
    while Fraction(r) ** 2 > x if away < 0 else Fraction(r) ** 2 < x:
        r = math.nextafter(r, away)
    return r
