"""Analytic laws and moments of perceived-valuation order statistics.

A bidder's estimated valuation under a viewpoint is the sum of independent
per-characteristic contributions.  ``bid_component`` is the one law of a
(bidder, characteristic, information level) contribution: the value law
under full information (on a discrete law, all singleton cells), a point
mass at its mean under no information (one cell), the law of cell means
under a partition; the full-information law is also that of the value an
unaware bidder omits.  ``cell_means`` is the one cell-mean rule, in integers
on a discrete law's integer form (``distributions.AtomLattice``), for these
components and the engine's Monte Carlo tables.  ``bid_lattice`` is the
one fold of a bid column's keys, on Python ints, kept per scenario; the
engine's exact backend, ``valuation_law`` and Prop 6 read it.  Fraction
atoms appear only when a law object is returned; ``valuation_law`` folds
other components by repeated convolution.

Order statistics of independent but not identically distributed
valuations have CDFs given by permanents of the matrix whose columns
repeat the individual CDFs and their complements (Bapat & Beg 1989).  One
formula (``_rank_cdf_terms``) evaluates them by permutation classes on
float, integer and Fraction columns alike; its first class is the product
of the CDFs, which is the whole of rank 1.

Expectations integrate the CDF: E = int_0^inf (1-G) - int_{-inf}^0 G, by
adaptive Simpson between analytic knots for closed forms, by grid trapezoid
when a grid law is involved, and by an exact sweep over a common integer
atom grid (``AtomGrid``) when every law is finitely supported.  The atom
grid is the one exact route: ``atom_grid`` only rescales integer forms to
common denominators and merges their supports, and the grid also settles
exact second-price auctions (per-law surplus and 1/#ties win credit) for
the engine; its results are the only Fractions it makes.  The numeric
routes evaluate G on arrays: the grid in one call, adaptive Simpson level
by level with every pending interval of a level in one call (at most
``max_depth`` + 2 calls).  The integrand jumps at 0 (from -G to 1-G) and at
every atom, all of them knots, so both routes take each knot interval's end
values one ulp inside it: the one-sided limits that interval needs.  An
expectation then takes about 10 calls (12 at most over the random mixes in
the tests) instead of refining the interval at a jump to ``max_depth``.
Both are bounded: a non-finite integrand value, or more than
``MAX_EVALUATIONS`` points for one expectation, raises DistributionError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations

import numpy as np

from .distributions import (
    GRID_POINTS,
    AtomLattice,
    DiscreteFinite,
    DistributionError,
    FullInfo,
    GridLaw,
    NoInfo,
    PointMass,
    atom_lattice,
    breakpoints,
    cdf,
    convolve,
    fold_atom_lattices,
    lattice_law,
    mean,
    quantile_range,
)
from .scenario import DisclosurePolicy, Perspective, Scenario, perceive

__all__ = [
    "OrderStatLaw",
    "AtomGrid",
    "atom_grid",
    "bid_component",
    "bid_lattice",
    "cell_means",
    "valuation_law",
    "expected_order_stat",
    "clark_normal_max",
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
    of cell means (``cell_means``: a float atom at its exact binary value).
    A discrete law keeps each of its contributions, one per level, so they
    and their integer forms are built once.  Partitions of continuous laws
    have no closed-form sum law here; estimate those through the engine.
    """
    base = s.law(bidder, char)
    if isinstance(base, DiscreteFinite):
        return _discrete_component(base, level)
    if isinstance(level, NoInfo):
        return PointMass(mean(base))
    if isinstance(level, FullInfo):
        return base
    raise DistributionError(
        f"bidder {bidder} characteristic {char}: no closed-form valuation "
        "law under a continuous partition; use the engine")


def _discrete_component(base: DiscreteFinite, level):
    kept = base.__dict__.setdefault("_components", {})
    comp = kept.get(level)
    if comp is None:
        cells = _atom_cells(base, level)
        if len(cells) == len(base.values):
            comp = base         # singleton cells reveal the value itself
        else:
            comp = lattice_law(_cell_mean_lattice(atom_lattice(base), cells))
        kept[level] = comp
    return comp


def _atom_cells(law: DiscreteFinite, level):
    """A level's cells on a discrete law, as tuples of atom indices."""
    if isinstance(level, NoInfo):
        return (tuple(range(len(law.values))),)
    if isinstance(level, FullInfo):
        return tuple((k,) for k in range(len(law.values)))
    return level.cells


def cell_means(form, cells):
    """Per cell of atom indices into an integer form, its mass (over the
    form's probability denominator) and its exact mean, as a reduced
    (numerator, denominator) pair: sum of numerators times masses over the
    value denominator times the mass."""
    for cell in cells:
        mass = sum(form.masses[k] for k in cell)
        num = sum(form.nums[k] * form.masses[k] for k in cell)
        den = form.value_den * mass
        g = math.gcd(num, den)
        yield mass, (num // g, den // g)


def _cell_mean_lattice(form, cells):
    """Integer form of the law of ``cell_means``; equal means merge."""
    merged = {}
    for mass, cell_mean in cell_means(form, cells):
        merged[cell_mean] = merged.get(cell_mean, 0) + mass
    value_den = math.lcm(*(den for _num, den in merged))
    means = sorted((num * (value_den // den), mass) for (num, den), mass in merged.items())
    g = math.gcd(form.prob_den, *(mass for _x, mass in means))
    return AtomLattice(value_den, form.prob_den // g,
                       tuple(x for x, _mass in means), tuple(mass // g for _x, mass in means))


def bid_lattice(s: Scenario, keys):
    """Integer form of one bid column's law: the fold of its (bidder,
    characteristic, level) keys' atom-law contributions (``bid_component``)
    in order, once per scenario and kept on the scenario instance."""
    forms = s.__dict__.setdefault("_bid_forms", {})
    form = forms.get(keys)
    if form is None:
        form = forms[keys] = fold_atom_lattices(
            atom_lattice(bid_component(s, *key)) for key in keys)
    return form


def valuation_law(s: Scenario, p: DisclosurePolicy, bidder: int,
                  view: Perspective):
    """Law of bidder's estimated valuation as seen from ``view``: the sum of
    ``bid_component`` over the characteristics the view leaves the bidder
    aware of, in sorted order, folded by ``bid_lattice`` when every
    component is a discrete law or a rational point mass, else by
    ``convolve`` (a float point mass, the mean of a continuous law, then
    shifts by float addition and makes no Fractions)."""
    seen = perceive(p, view)
    keys = tuple((bidder, j, seen.level(bidder, j)) for j in sorted(seen.aware(bidder)))
    components = [bid_component(s, *key) for key in keys]
    if len(components) == 1:
        return components[0]
    if all(isinstance(comp, DiscreteFinite)
           or isinstance(comp, PointMass) and not isinstance(comp.value, float)
           for comp in components):
        return lattice_law(bid_lattice(s, keys))
    return reduce(convolve, components, PointMass(0))


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
        out = _rank_cdf_terms(G, self.rank, one=1.0)
        return float(out[0]) if scalar else out


def _rank_cdf_terms(G, rank: int, one):
    """P(rank-th largest <= y) = P(fewer than rank of the values exceed y),
    for columns ``G`` of CDF values (float arrays, integer or Fraction
    columns, or scalars) and ``one``, the value of probability 1 in them.

    Evaluates the permanent formula by permutation classes: the permanent of
    the matrix with m columns G and n-m columns 1-G equals m!(n-m)! times
    the sum over m-subsets S of prod_{i in S} G_i prod_{i not in S} (1-G_i),
    so the factorial weights cancel and each class contributes one subset
    product.  Classes run from m = n (no value above y, the product of the
    G_i and all of rank 1) down to m = n+1-rank, so complements are built
    only for rank > 1.
    """
    total = math.prod(G)
    if rank > 1:
        n = len(G)
        comp = [one - g for g in G]
        for k in range(1, rank):
            for above in combinations(range(n), k):
                total = total + math.prod(comp[i] if i in above else G[i] for i in range(n))
    return total


# ---------------------------------------------------------------------------
# Expectations
# ---------------------------------------------------------------------------

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


def atom_grid(forms) -> AtomGrid:
    """Put integer forms (``AtomLattice``) on one common grid: rescale each
    to the lcm of their value and of their probability denominators, and
    merge their supports."""
    forms = list(forms)
    value_den = math.lcm(*(f.value_den for f in forms))
    prob_den = math.lcm(*(f.prob_den for f in forms))
    scaled = [([x * (value_den // f.value_den) for x in f.nums],
               [m * (prob_den // f.prob_den) for m in f.masses]) for f in forms]
    points = sorted({x for nums, _masses in scaled for x in nums})
    index = {g: k for k, g in enumerate(points)}
    mass = []
    for nums, masses in scaled:
        col = [0] * len(points)
        for g, w in zip(nums, masses):
            col[index[g]] = w
        mass.append(tuple(col))
    return AtomGrid(tuple(points), value_den, prob_den, tuple(mass),
                    tuple(tuple(accumulate(col)) for col in mass))


def expected_order_stat(os_law: OrderStatLaw):
    """E of the rank-th highest; exact Fraction when all laws are atomic."""
    if all(isinstance(law, (DiscreteFinite, PointMass)) for law in os_law.laws):
        return _expected_exact(os_law)
    return _expected_numeric(os_law)


def _expected_exact(os_law: OrderStatLaw) -> Fraction:
    return atom_grid(atom_lattice(law) for law in os_law.laws).expected(os_law.rank)


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
    """Trapezoid on a uniform grid plus the knots, in one ``fn`` call.

    Every knot interval's end values are taken one ulp inside it, so an
    interior knot appears twice, as the end of one interval and the start
    of the next; the zero-width step between the two copies adds nothing.
    """
    knots = np.asarray(knots)
    xs = np.unique(np.concatenate([
        np.linspace(knots[0], knots[-1], GRID_POINTS), knots]))
    xs = np.insert(xs, np.searchsorted(xs, knots[1:-1]), knots[1:-1])
    first = np.searchsorted(xs, knots)        # an interior knot's second copy follows
    ys = xs.copy()
    ys[first[:-1] + (np.arange(knots.size - 1) > 0)] = np.nextafter(knots[:-1], np.inf)
    ys[first[1:]] = np.nextafter(knots[1:], -np.inf)
    return float(np.trapezoid(fn(ys), xs))


def _simpson_by_level(fn, knots, tol, max_depth=48):
    """Adaptive Simpson on every interval between ``knots``, level by level.

    The first ``fn`` call takes each interval's midpoint and its two end
    values one ulp inside it, ``nextafter(a, +inf)`` and
    ``nextafter(b, -inf)``, while the weights stay on the knots: an end at a
    jump of ``fn`` (0, an atom, or a float just below an atom that a
    Fraction knot rounded to) gets its one-sided limit, so smooth pieces
    meet the tolerance within a few levels.  Each refinement level
    evaluates the new quarter points of all pending intervals in one ``fn``
    call.  An interval is accepted when
    ``|left + right - whole| <= 15 tol`` (or at ``max_depth``) and split
    otherwise, each half with ``tol / 2``; the per-knot-interval results
    are then summed back up the same left-plus-right tree a depth-first
    recursion would build, so the values equal that recursion's exactly.
    Returns one float per knot interval.
    """
    a, b = knots[:-1], knots[1:]
    m = 0.5 * (a + b)
    f = fn(np.concatenate([np.nextafter(a, np.inf), np.nextafter(b, -np.inf), m]))
    fa, fb, fm = f[:a.size], f[a.size:2 * a.size], f[2 * a.size:]
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
