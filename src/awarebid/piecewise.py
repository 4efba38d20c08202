"""Exact rational CDFs for laws without a normal part.

Uniform, discrete and point-mass laws with rational parameters, and every
sum of them (``distributions.SumLaw`` without a normal part), have CDFs
that are piecewise polynomials with rational coefficients
(``distributions.sum_pieces``).  Products of such CDFs, the CDF of the
maximum of independent laws, stay piecewise polynomial, and their
expected values integrate in closed form: an independent exact route to
the expected maximum that the quadrature path computes in floating
point.

Polynomials are coefficient tuples in ascending degree.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

from .distributions import _taylor_shift, as_fraction, sum_pieces

__all__ = ["RationalCDF", "rational_cdf", "order_stat_rational", "expected_value"]


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return tuple(out)


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

    def __call__(self, x) -> Fraction:
        x = as_fraction(x)
        k = bisect_right(self.knots, x)     # knots[k-1] <= x < knots[k]
        return _peval(_ZERO if k == 0 else _ONE if k == len(self.knots) else self.polys[k - 1], x)


def rational_cdf(law) -> RationalCDF:
    """Exact CDF of a law without a normal part: ``sum_pieces`` with each
    piece re-expanded in powers of x.  Law parameters enter through
    ``as_fraction``."""
    knots, polys = sum_pieces(law)
    coefs = [list(poly) for poly in polys]
    for knot, coef in zip(knots, coefs):
        _taylor_shift(coef, -knot)
    return RationalCDF(knots, tuple(map(tuple, coefs)))


def _combine(cdfs, term_fn):
    """Piecewise combination of CDFs; term_fn maps a tuple of piece polys to
    the combined poly on that interval.  One merge sweep over the CDFs'
    sorted knot lists keeps each CDF's current piece."""
    pieces = [_ZERO] * len(cdfs)
    passed = [0] * len(cdfs)
    knots, polys = [], []
    events = heapq.merge(*([(k, i) for k in c.knots] for i, c in enumerate(cdfs)))
    for knot, group in groupby(events, key=itemgetter(0)):
        if knots:
            polys.append(term_fn(tuple(pieces)))
        for _knot, i in group:
            passed[i] += 1
            c = cdfs[i]
            pieces[i] = c.polys[passed[i] - 1] if passed[i] < len(c.knots) else _ONE
        knots.append(knot)
    return RationalCDF(tuple(knots), tuple(polys))


def order_stat_rational(laws, rank: int) -> RationalCDF:
    """Exact CDF of the highest (rank 1) of independent laws without a
    normal part: the product of their CDFs.  Other ranks are refused;
    ``orderstats._rank_cdf_terms`` gives every rank on exact columns."""
    if rank != 1:
        raise ValueError("rational route supports rank 1")
    cdfs = [law if isinstance(law, RationalCDF) else rational_cdf(law) for law in laws]

    def term(pieces):
        out = _ONE
        for p in pieces:
            out = _pmul(out, p)
        return out

    return _combine(cdfs, term)


def expected_value(g: RationalCDF) -> Fraction:
    """E[X] = top_knot - integral of G over the support (finite support)."""
    top = g.knots[-1]
    total = Fraction(0)
    for i, poly in enumerate(g.polys):
        total += _pintegrate(poly, g.knots[i], g.knots[i + 1])
    return top - total
