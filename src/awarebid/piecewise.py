"""Exact rational CDFs for the uniform family of laws.

Uniform, trapezoid (sum of two uniforms), atom and point-mass laws with
rational parameters all have CDFs that are piecewise polynomials with
rational coefficients.  Products and rank-two combinations of such CDFs
stay piecewise polynomial, and their expected values integrate in closed
form, giving an independent exact route to the order-statistic moments that
the quadrature path computes in floating point.

Polynomials are coefficient tuples in ascending degree.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .distributions import (
    DiscreteFinite,
    DistributionError,
    PointMass,
    TrapezoidLaw,
    UniformContinuous,
    as_fraction,
)

__all__ = ["RationalCDF", "rational_cdf", "order_stat_rational", "expected_value"]


def _padd(a, b):
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
                 for i in range(n))


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


def _pscale(a, c):
    return tuple(c * x for x in a)


def _peval(a, x):
    out = Fraction(0)
    for c in reversed(a):
        out = out * x + c
    return out


def _pintegrate(a, lo, hi):
    anti = tuple(c / (i + 1) for i, c in enumerate(a))
    return _peval((Fraction(0), *anti), hi) - _peval((Fraction(0), *anti), lo)


_ZERO = (Fraction(0),)
_ONE = (Fraction(1),)


@dataclass(frozen=True)
class RationalCDF:
    """G(x) = 0 below knots[0], polys[i](x) on [knots[i], knots[i+1]),
    1 at and above knots[-1].  Jumps at knots encode atoms."""

    knots: tuple
    polys: tuple

    def __post_init__(self):
        if len(self.knots) < 1 or len(self.polys) != len(self.knots) - 1:
            raise ValueError("need k knots and k-1 pieces")
        for a, b in zip(self.knots, self.knots[1:]):
            if not a < b:
                raise ValueError("knots must be strictly increasing")

    def piece_at(self, x):
        k = bisect_right(self.knots, x)     # knots[k-1] <= x < knots[k]
        if k == 0:
            return _ZERO
        if k == len(self.knots):
            return _ONE
        return self.polys[k - 1]

    def __call__(self, x) -> Fraction:
        return _peval(self.piece_at(as_fraction(x)), as_fraction(x))


def rational_cdf(law) -> RationalCDF:
    """Exact CDF of a uniform-family law with rational parameters."""
    if isinstance(law, UniformContinuous):
        lo, hi = as_fraction(law.lo), as_fraction(law.hi)
        w = hi - lo
        return RationalCDF((lo, hi), ((-lo / w, 1 / w),))
    if isinstance(law, TrapezoidLaw):
        a, b, c, d = (as_fraction(v) for v in (law.a, law.b, law.c, law.d))
        h = 2 / ((d + c) - (a + b))
        knots = [a]
        polys = []
        if b > a:
            # h (x-a)^2 / (2(b-a))
            k = h / (2 * (b - a))
            polys.append((k * a * a, -2 * k * a, k))
            knots.append(b)
        gb = h * (b - a) / 2
        if c > b:
            polys.append(_padd((gb - h * b,), (Fraction(0), h)))
            knots.append(c)
        if d > c:
            # 1 - h (d-x)^2 / (2(d-c))
            k = h / (2 * (d - c))
            polys.append((1 - k * d * d, 2 * k * d, -k))
            knots.append(d)
        return RationalCDF(tuple(knots), tuple(polys))
    if isinstance(law, DiscreteFinite):
        vals = tuple(as_fraction(v) for v in law.values)
        cum = []
        run = Fraction(0)
        for p in law.probs[:-1]:
            run += p
            cum.append((run,))
        return RationalCDF(vals, tuple(cum))
    if isinstance(law, PointMass):
        return RationalCDF((as_fraction(law.value),), ())
    raise DistributionError(f"no rational CDF for {law!r}")


def _combine(cdfs, term_fn):
    """Piecewise combination of CDFs; term_fn maps a tuple of piece polys to
    the combined poly on that interval."""
    knots = sorted({k for c in cdfs for k in c.knots})
    out_knots = [knots[0]]
    out_polys = []
    for lo, hi in zip(knots, knots[1:]):
        pieces = tuple(c.piece_at(lo) for c in cdfs)
        out_polys.append(term_fn(pieces))
        out_knots.append(hi)
    return RationalCDF(tuple(out_knots), tuple(out_polys))


def order_stat_rational(laws, rank: int) -> RationalCDF:
    """Exact CDF of the highest (rank 1) or second-highest (rank 2) of
    independent uniform-family laws."""
    cdfs = [law if isinstance(law, RationalCDF) else rational_cdf(law) for law in laws]
    n = len(cdfs)
    if rank == 1:
        def term(pieces):
            out = _ONE
            for p in pieces:
                out = _pmul(out, p)
            return out
    elif rank == 2 and n >= 2:
        def term(pieces):
            prod = _ONE
            for p in pieces:
                prod = _pmul(prod, p)
            out = prod
            for i in range(n):
                rest = _ONE
                for j, p in enumerate(pieces):
                    if j != i:
                        rest = _pmul(rest, p)
                out = _padd(out, _pmul(_padd(_ONE, _pscale(pieces[i], -1)), rest))
            return out
    else:
        raise ValueError("rational route supports ranks 1 and 2")
    return _combine(cdfs, term)


def expected_value(g: RationalCDF) -> Fraction:
    """E[X] = top_knot - integral of G over the support (finite support)."""
    top = g.knots[-1]
    total = Fraction(0)
    for i, poly in enumerate(g.polys):
        total += _pintegrate(poly, g.knots[i], g.knots[i + 1])
    return top - total
