"""Analytic laws and moments of perceived-valuation order statistics.

A bidder's estimated valuation under a viewpoint is the sum of independent
per-characteristic contributions (the value law itself under full
information, a point mass at its mean under no information), so its law is
built by repeated convolution.  Order statistics of independent but not
identically distributed valuations have CDFs given by permanents of the
matrix whose columns repeat the individual CDFs and their complements; the
top-two ranks reduce to the familiar product and two-term formulas.

Expectations integrate the CDF: E = int_0^inf (1-G) - int_{-inf}^0 G, by
adaptive Simpson between analytic knots for closed forms, by grid trapezoid
when a grid law is involved, and by an exact sweep over a common integer
atom grid (``AtomGrid``) when every law is finitely supported.  The atom
grid is the one exact route: it also settles exact second-price auctions
(per-law surplus and 1/#ties win credit) for the engine.  The numeric
routes evaluate G on arrays: the grid in one call, adaptive Simpson level
by level with every pending interval of a level in one call (at most
``max_depth`` + 2 calls).  Both are bounded: a non-finite integrand value,
or more than ``MAX_EVALUATIONS`` points for one expectation, raises
DistributionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, combinations, permutations

import numpy as np

from .distributions import (
    GRID_POINTS,
    DiscreteFinite,
    DistributionError,
    FullInfo,
    GridLaw,
    NoInfo,
    Partition,
    PointMass,
    breakpoints,
    cdf,
    cdf_exact,
    cell_probability,
    cells,
    conditional_mean,
    convolve,
    mean,
    quantile_range,
)
from .scenario import DisclosurePolicy, Perspective, Scenario, perceive

__all__ = [
    "OrderStatLaw",
    "AtomGrid",
    "atom_grid",
    "bid_component",
    "fold_bid_law",
    "valuation_law",
    "order_cdf",
    "expected_order_stat",
    "clark_normal_max",
    "permanent",
    "SIMPSON_TOL",
    "MAX_EVALUATIONS",
]

SIMPSON_TOL = 1e-10
# Hard cap on CDF evaluations per numeric expectation.  Smooth inputs need a
# few thousand at most; a grid law needs GRID_POINTS plus its knots.
MAX_EVALUATIONS = 2 ** 18
_GENERAL_RANK_MAX = 12


def bid_component(s: Scenario, bidder: int, char: int, level):
    """Law of one characteristic's contribution to bidder's estimated
    valuation under an information level.

    Full information contributes the characteristic law itself, no
    information a point mass at its mean, and a discrete partition the law
    of cell means.  Partitions of continuous laws have no closed-form sum
    law here; estimate those through the engine instead.
    """
    base = s.law(bidder, char)
    if isinstance(level, NoInfo):
        return PointMass(mean(base))
    if isinstance(level, FullInfo):
        return base
    if isinstance(level, Partition) and isinstance(base, DiscreteFinite):
        if len(level.cells) == len(base.values):
            return base         # singleton cells reveal the value itself
        pairs = [(conditional_mean(base, level, c), cell_probability(base, c))
                 for c in cells(base, level)]
        if len({v for v, _p in pairs}) == 1:
            return PointMass(pairs[0][0])
        return DiscreteFinite.from_atoms(pairs)
    raise DistributionError(
        f"bidder {bidder} characteristic {char}: no closed-form valuation "
        "law under a continuous partition; use the engine")


def fold_bid_law(components, grid_points: int = GRID_POINTS):
    """Law of the sum of independent bid components (sum order kept)."""
    law = PointMass(0)
    for comp in components:
        law = convolve(law, comp, grid_points)
    return law


def valuation_law(s: Scenario, p: DisclosurePolicy, bidder: int,
                  view: Perspective, grid_points: int = GRID_POINTS):
    """Law of bidder's estimated valuation as seen from ``view``: the fold of
    ``bid_component`` over the characteristics the view leaves the bidder
    aware of."""
    seen = perceive(p, view)
    return fold_bid_law((bid_component(s, bidder, j, seen.level(bidder, j))
                         for j in sorted(seen.aware(bidder))), grid_points)


@dataclass(frozen=True)
class OrderStatLaw:
    """CDF of the rank-th highest of independent valuation laws (rank 1 = max)."""

    laws: tuple
    rank: int

    def __post_init__(self):
        n = len(self.laws)
        if n < 1:
            raise DistributionError("need at least one law")
        if not 1 <= self.rank <= n:
            raise DistributionError(f"rank {self.rank} outside 1..{n}")
        if n > _GENERAL_RANK_MAX and self.rank > 2:
            raise DistributionError(
                f"general rank formula limited to {_GENERAL_RANK_MAX} laws")

    def cdf(self, y):
        scalar = np.isscalar(y)
        y = np.atleast_1d(np.asarray(y, dtype=np.float64))
        # a law shifted by an exact point mass evaluates on object arrays
        G = np.vstack([cdf(law, y) for law in self.laws]).astype(np.float64, copy=False)
        out = _rank_cdf_float(G, self.rank)
        return float(out[0]) if scalar else out

    def cdf_exact(self, y) -> Fraction:
        """Exact rational CDF; components must be atom laws."""
        G = [cdf_exact(law, y) for law in self.laws]
        return _rank_cdf_terms(G, self.rank, one=Fraction(1))


def order_cdf(laws, r: int) -> OrderStatLaw:
    return OrderStatLaw(tuple(laws), r)


def _rank_cdf_float(G: np.ndarray, rank: int) -> np.ndarray:
    n = G.shape[0]
    if rank == 1:
        return np.prod(G, axis=0)
    if rank == 2:
        prod = np.prod(G, axis=0)
        out = prod.copy()
        for i in range(n):
            rest = np.prod(np.delete(G, i, axis=0), axis=0)
            out += (1.0 - G[i]) * rest
        return out
    cols = [G[i] for i in range(n)]
    return _rank_cdf_terms(cols, rank, one=1.0)


def _rank_cdf_terms(G, rank: int, one):
    """P(rank-th largest <= y) = P(at least n+1-rank of the values <= y).

    Evaluates the permanent formula by permutation classes: the permanent of
    the matrix with m columns G and n-m columns 1-G equals m!(n-m)! times
    the sum over m-subsets S of prod_{i in S} G_i prod_{i not in S} (1-G_i),
    so the factorial weights cancel and each class contributes one subset
    product.
    """
    n = len(G)
    comp = [one - g for g in G]
    total = G[0] * 0
    for m in range(n + 1 - rank, n + 1):
        for S in combinations(range(n), m):
            inS = set(S)
            total = total + math.prod(G[i] if i in inS else comp[i] for i in range(n))
    return total


def permanent(matrix):
    """Permanent of a small square matrix by direct permutation enumeration."""
    rows = list(matrix)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    total = 0
    for sigma in permutations(range(n)):
        term = 1
        for i in range(n):
            term = term * rows[i][sigma[i]]
        total = total + term
    return total


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------

def _is_atomic(law) -> bool:
    return isinstance(law, (DiscreteFinite, PointMass))


def _atoms_exact(law):
    if isinstance(law, PointMass):
        return [(Fraction(law.value), Fraction(1))]
    return [(Fraction(v), p) for v, p in zip(law.values, law.probs)]


@dataclass(frozen=True)
class AtomGrid:
    """Independent atom laws on one common integer grid.

    Grid point ``points[k]`` stands for the value ``points[k] / value_den``;
    ``mass[i][k]`` and ``cdf[i][k]`` are law i's probability at and up to
    that point times ``prob_den``, the same denominator for every law, so
    ``prob_den - cdf[i][k]`` is the complement.  Sums run in Python
    integers and divide the scales out once, as a Fraction.
    """

    points: tuple
    value_den: int
    prob_den: int
    mass: tuple
    cdf: tuple

    def _scale(self) -> int:
        """Denominator of a product of one probability per law."""
        return self.prob_den ** len(self.cdf)

    def expected(self, rank: int) -> Fraction:
        """E of the rank-th highest law: sum over k of g_k times the rank's
        CDF jump at g_k, the CDF taken from ``_rank_cdf_terms`` on whole
        columns."""
        cols = [np.array(c, dtype=object) for c in self.cdf]
        H = _rank_cdf_terms(cols, rank, one=self.prob_den)
        num = 0
        prev = 0
        for g, h in zip(self.points, H):
            num += g * (h - prev)
            prev = h
        return Fraction(num, self._scale() * self.value_den)

    def settle(self):
        """Second-price settlement of one bid per law, in expectation.

        Returns (surplus, credit), one Fraction per law: the unique winner's
        expected surplus E[(B_i - M_i) 1{B_i > M_i}], M_i the highest other
        bid, and the expected win credit with 1/#ties for tied winners.
        Surplus is sum_b P(B_i=b) sum_{g_k<b} P(M_i <= g_k)(g_{k+1} - g_k),
        read off a running prefix sum; credit is sum_b P(B_i=b) times
        int_0^1 prod_{j != i} (P(B_j<b) + t P(B_j=b)) dt, whose expansion
        in t weighs k tied rivals by 1/(k+1).  Needs at least two laws.
        """
        n = len(self.cdf)
        tie_scale = math.lcm(*range(1, n + 1))
        share = [tie_scale // (k + 1) for k in range(n)]
        widths = [b - a for a, b in zip(self.points, self.points[1:])] + [0]
        surplus, credit = [], []
        for i, mass_i in enumerate(self.mass):
            others = [j for j in range(n) if j != i]
            # P(M_i <= g_k): every other law at most g_k
            below = map(math.prod, zip(*(self.cdf[j] for j in others)))
            s_num = c_num = run = 0
            for k, (m, down, w) in enumerate(zip(mass_i, below, widths)):
                if m:
                    s_num += m * run
                    poly = [1]
                    for j in others:
                        eq = self.mass[j][k]
                        lt = self.cdf[j][k] - eq
                        poly = [a * lt + b * eq for a, b in zip(poly + [0], [0] + poly)]
                    c_num += m * sum(map(math.prod, zip(poly, share)))
                run += down * w
            surplus.append(Fraction(s_num, self._scale() * self.value_den))
            credit.append(Fraction(c_num, self._scale() * tie_scale))
        return surplus, credit


def atom_grid(laws) -> AtomGrid:
    """Put atom laws (DiscreteFinite or PointMass) on one integer grid."""
    atoms = [_atoms_exact(law) for law in laws]
    value_den = math.lcm(*(v.denominator for a in atoms for v, _p in a))
    prob_den = math.lcm(*(p.denominator for a in atoms for _v, p in a))
    scaled = [[(v.numerator * (value_den // v.denominator),
                p.numerator * (prob_den // p.denominator)) for v, p in a]
              for a in atoms]
    points = sorted({g for a in scaled for g, _w in a})
    index = {g: k for k, g in enumerate(points)}
    mass = []
    for a in scaled:
        col = [0] * len(points)
        for g, w in a:
            col[index[g]] += w
        mass.append(tuple(col))
    return AtomGrid(tuple(points), value_den, prob_den, tuple(mass),
                    tuple(tuple(accumulate(col)) for col in mass))


def expected_order_stat(os_law: OrderStatLaw):
    """E of the rank-th highest; exact Fraction when all laws are atomic."""
    if all(_is_atomic(law) for law in os_law.laws):
        return _expected_exact(os_law)
    return _expected_numeric(os_law)


def _expected_exact(os_law: OrderStatLaw) -> Fraction:
    return atom_grid(os_law.laws).expected(os_law.rank)


def _expected_numeric(os_law: OrderStatLaw) -> float:
    los, his = zip(*(quantile_range(law) for law in os_law.laws))
    lo, hi = min(los), max(his)
    lo, hi = min(lo, 0.0), max(hi, 0.0)
    evaluations = 0

    def integrand(ys):
        nonlocal evaluations
        evaluations += ys.size
        if evaluations > MAX_EVALUATIONS:
            raise DistributionError(
                f"quadrature needs more than {MAX_EVALUATIONS} CDF evaluations")
        g = os_law.cdf(ys)
        out = np.where(ys >= 0, 1.0 - g, -g)
        bad = ~np.isfinite(out)
        if bad.any():
            raise DistributionError(
                f"order-statistic CDF is not finite at y={float(ys[bad][0])!r}")
        return out

    # knots may be Fractions (a law shifted by an exact point mass); the
    # quadrature works on float arrays.
    knots = sorted({float(k) for k in (lo, hi, 0.0, *(
        k for law in os_law.laws for k in breakpoints(law) if lo < k < hi))})
    if any(isinstance(law, GridLaw) for law in os_law.laws):
        return _integrate_grid(integrand, knots)
    # summed in order, as the recursion did; np.sum and Python 3.12's sum()
    # would round differently
    total = 0.0
    for part in _simpson_by_level(integrand, np.asarray(knots), SIMPSON_TOL):
        total += part
    return total


def _integrate_grid(fn, knots) -> float:
    xs = np.unique(np.concatenate([
        np.linspace(knots[0], knots[-1], GRID_POINTS), np.asarray(knots)]))
    return float(np.trapezoid(fn(xs), xs))


def _simpson_by_level(fn, knots, tol, max_depth=48):
    """Adaptive Simpson on every interval between ``knots``, level by level.

    Each refinement level evaluates the new quarter points of all pending
    intervals in one ``fn`` call.  An interval is accepted when
    ``|left + right - whole| <= 15 tol`` (or at ``max_depth``) and split
    otherwise, each half with ``tol / 2``; the per-knot-interval results
    are then summed back up the same left-plus-right tree a depth-first
    recursion would build, so the values equal that recursion's exactly.
    Returns one float per knot interval.
    """
    a, b = knots[:-1], knots[1:]
    m = 0.5 * (a + b)
    f = fn(np.concatenate([knots, m]))
    fa, fb, fm = f[:a.size], f[1:knots.size], f[knots.size:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # per level: (accepted mask, accepted values).  The next level holds the
    # left halves of the split intervals, then their right halves.
    levels = []
    depth = max_depth
    while a.size:
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        f = fn(np.concatenate([lm, rm]))
        flm, frm = f[:a.size], f[a.size:]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        done = np.abs(err) <= 15.0 * tol if depth > 0 else np.ones(a.size, bool)
        levels.append((done, (left + right + err / 15.0)[done]))
        split = ~done
        a, m, b, fa, fm, fb, whole = np.concatenate([
            np.array([a, lm, m, fa, flm, fm, left])[:, split],
            np.array([m, rm, b, fm, frm, fb, right])[:, split]], axis=1)
        tol = tol / 2.0
        depth -= 1
    below = np.empty(0)
    for done, accepted in reversed(levels):
        values = np.empty(done.size)
        values[done] = accepted
        half = below.size // 2
        values[~done] = below[:half] + below[half:]
        below = values
    return below.tolist()


# ---------------------------------------------------------------------------
# Normal maxima (Clark)
# ---------------------------------------------------------------------------

def clark_normal_max(mu_a: float, var_a: float, mu_b: float, var_b: float) -> float:
    """E[max{A, B}] for independent normals A, B.

    E = mu_a Phi(theta) + mu_b Phi(-theta) + s phi(theta) with
    s = sqrt(var_a + var_b) and theta = (mu_a - mu_b)/s.  Degenerate
    variances are allowed; with s = 0 the max of the two constants remains.
    """
    if var_a < 0 or var_b < 0:
        raise ValueError("variances must be nonnegative")
    s = math.sqrt(var_a + var_b)
    if s == 0.0:
        return max(mu_a, mu_b)
    theta = (mu_a - mu_b) / s
    Phi = lambda z: 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))
    phi = lambda z: math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    return mu_a * Phi(theta) + mu_b * Phi(-theta) + s * phi(theta)
