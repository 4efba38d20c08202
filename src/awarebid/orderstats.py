"""Analytic laws and moments of perceived-valuation order statistics.

A bidder's estimated valuation under a viewpoint is the sum of independent
per-characteristic contributions.  ``bid_component`` is the one law of a
(bidder, characteristic, information level) contribution: the value law
under full information (on a discrete law, all singleton cells), a point
mass at its mean under no information (one cell), the law of cell means
under a partition; the full-information law is also that of the value an
unaware bidder omits.  A discrete component's atoms are its cell means
(``distributions.cell_means``).  ``bid_lattice`` is the one fold of a bid
column's keys, kept per scenario and column content (``_by_content``: the
laws' ids and canonical levels, so bidders with equal laws share it), and
names the requesting column when the fold passes its bound; the engine's
exact backend and ``valuation_law`` read it.  Fraction atoms appear only
when a law object is returned; ``valuation_law`` folds other components by
repeated convolution into a ``SumLaw``, kept per scenario and column
content like the folds.

Order statistics of independent but not identically distributed
valuations have CDFs given by permanents of the matrix whose columns
repeat the individual CDFs and their complements (Bapat & Beg 1989).  One
formula (``_rank_cdf_terms``) evaluates them by permutation classes on
float, integer and Fraction columns alike; its first class is the product
of the CDFs, which is the whole of rank 1.

Expectations integrate the CDF: E = int_0^inf (1-G) - int_{-inf}^0 G, by
adaptive Simpson between analytic knots when some law is continuous, and
on one integer grid (``AtomGrid``), the one exact route for every law
without a normal part (``law_grid``): on each grid interval a law's CDF
is an int or an integer polynomial.  Atom laws are read there as a sum
reads them, a float point mass through ``as_fraction``.  The grid also
settles exact second-price auctions on atom laws (per-law surplus and
1/#ties win credit, and from them E[first] and E[second]) for the engine;
its results are the only Fractions it makes.

The numeric route values a batch of expectations at once
(``expected_order_stats``): one adaptive Simpson, level by level, with
every pending interval of every member in one integrand call, so a batch
takes at most ``max_depth`` + 2 calls, about 10 in practice, however many
members it has.  A call evaluates each distinct law (by ``==``) once on
all of its points and the rank formula once per group of members of equal
size and rank; a law's quantile range and float breakpoints are computed
once and kept on it.  The integrand jumps at 0 (from -G to 1-G) and at
every atom, all of them knots, so it takes each knot interval's end
values one ulp inside it: the one-sided limits that interval needs, so no
interval at a jump refines to ``max_depth``.  Each member is bounded on
its own: a non-finite integrand value, or more than ``MAX_EVALUATIONS``
points beyond five per knot interval, gives that member a
DistributionError and leaves the others as they would be alone.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import accumulate, combinations, zip_longest

import numpy as np

from .distributions import (
    AtomLattice,
    DiscreteFinite,
    DistributionError,
    FullInfo,
    NoInfo,
    PieceLattice,
    PointMass,
    _atom_cells,
    _Phi,
    _phi,
    _sum_parts,
    _taylor_shift,
    atom_lattice,
    breakpoints,
    cdf,
    cell_means,
    convolve,
    fold_atom_lattices,
    lattice_law,
    mean,
    piece_lattice,
    quantile_range,
)
from .scenario import DisclosurePolicy, Perspective, Scenario, perceive

__all__ = [
    "OrderStatLaw",
    "AtomGrid",
    "atom_grid",
    "law_grid",
    "bid_component",
    "bid_lattice",
    "valuation_law",
    "expected_order_stat",
    "expected_order_stats",
    "clark_normal_max",
    "SIMPSON_TOL",
    "MAX_EVALUATIONS",
]

SIMPSON_TOL = 1e-10
# Hard cap on CDF evaluations per numeric expectation beyond the five that
# each knot interval takes; smooth inputs need a few thousand at most.
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


@contextmanager
def _naming(keys):
    """Re-raise a DistributionError naming the bid column of ``keys``."""
    try:
        yield
    except DistributionError as exc:
        raise DistributionError(f"bidder {keys[0][0]}'s bid over characteristics "
                                f"{[j for _i, j, _level in keys]}: {exc}") from exc


def _law_ids(s: Scenario):
    """Per bidder and characteristic, an id its law shares with every ``==``
    law of the scenario: laws interned once per scenario."""
    ids = s.__dict__.get("_law_ids")
    if ids is None:
        index = {}
        ids = s.__dict__.setdefault("_law_ids", [[index.setdefault(law, len(index))
                                                  for law in row] for row in s.laws])
    return ids


def _by_content(s: Scenario, memo: str, keys, build):
    """``build()`` for the column of ``keys``, kept in the scenario's ``memo``
    under the keys and under their content: per key its law's id
    (``_law_ids``) and its level, canonical on every policy (``validate``
    and the searches make it so), so bidders with ``==`` laws and levels
    share one value.  The keys are looked up first and the content key
    built only on a miss; the two kinds never collide, as a key is a triple
    and a content entry a pair."""
    kept = s.__dict__.setdefault(memo, {})
    got = kept.get(keys)
    if got is None:
        ids = _law_ids(s)
        content = tuple((ids[i - 1][j - 1], level) for i, j, level in keys)
        got = kept.get(content)
        if got is None:
            got = kept[content] = build()
        kept[keys] = got
    return got


def bid_lattice(s: Scenario, keys):
    """Integer form of one bid column's law: the fold of its (bidder,
    characteristic, level) keys' atom-law contributions (``bid_component``)
    in order, once per scenario and column content (``_by_content``); a
    fold past the bound is refused naming the requesting column."""
    def fold():
        with _naming(keys):
            return fold_atom_lattices(atom_lattice(bid_component(s, *key)) for key in keys)
    return _by_content(s, "_bid_forms", keys, fold)


def valuation_law(s: Scenario, p: DisclosurePolicy, bidder: int,
                  view: Perspective):
    """Law of bidder's estimated valuation as seen from ``view``: the sum of
    ``bid_component`` over the characteristics the view leaves the bidder
    aware of, in sorted order, folded by ``bid_lattice`` when every
    component is a discrete law or a rational point mass, else by
    ``convolve`` (a float point mass, the mean of a continuous law, shifts a
    base law by float addition and makes no Fractions).  A sum of several
    components is built once per scenario and column content
    (``_by_content``), a sum law's pieces included, so bidders with ``==``
    laws and levels get one law object; past ``_FOLD_CAP`` knots or double
    range it is refused naming the requesting column."""
    seen = perceive(p, view)
    keys = tuple((bidder, j, seen.level(bidder, j)) for j in sorted(seen.aware(bidder)))
    if len(keys) == 1:
        return bid_component(s, *keys[0])
    return _by_content(s, "_sum_laws", keys, lambda: _sum_law(s, keys))


def _sum_law(s: Scenario, keys):
    """The law ``valuation_law`` keeps for a column of several keys."""
    components = [bid_component(s, *key) for key in keys]
    if all(isinstance(comp, DiscreteFinite)
           or isinstance(comp, PointMass) and not isinstance(comp.value, float)
           for comp in components):
        form = bid_lattice(s, keys)
        with _naming(keys):
            return lattice_law(form)
    with _naming(keys):
        law = reduce(convolve, components, PointMass(0))
        breakpoints(law)            # builds and bounds a sum law's pieces
    return law


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
    for columns ``G`` of CDF values (float arrays, integer, polynomial or
    Fraction columns, or scalars) and ``one``, the value of probability 1.

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

class _Poly:
    """Integer polynomial in a grid interval's local variable, ascending
    coefficients: the column entry of a law with uniform parts.  It has the
    ``*``, ``+`` and ``one - p`` that ``_rank_cdf_terms`` uses, with ints as
    constants, and is no sequence, so an object array holds it whole."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = c

    def __mul__(self, other):
        if isinstance(other, int):
            return _Poly([a * other for a in self.c]) if other else 0
        out = [0] * (len(self.c) + len(other.c) - 1)
        for i, a in enumerate(self.c):
            for j, b in enumerate(other.c):
                out[i + j] += a * b
        return _Poly(out)

    def __add__(self, other):
        c = other.c if isinstance(other, _Poly) else (other,)
        return _Poly([a + b for a, b in zip_longest(self.c, c, fillvalue=0)])

    def __rsub__(self, one):
        return _Poly([one - self.c[0], *(-a for a in self.c[1:])])

    __rmul__, __radd__ = __mul__, __add__

    def area(self, w, lcm):
        """lcm times the integral over [0, w]; lcm is a multiple of every
        degree plus one."""
        return sum(a * w ** (l + 1) * (lcm // (l + 1)) for l, a in enumerate(self.c))


@dataclass(frozen=True)
class AtomGrid:
    """Independent laws without a normal part on one common integer grid.

    Grid point ``points[k]`` stands for the value ``points[k] / value_den``
    and holds every law's knots.  ``cdf[i][k]`` is law i's CDF on
    [points[k], points[k+1]) times ``prob_den``, the same denominator for
    every law, so ``prob_den - cdf[i][k]`` is the complement: a plain int
    where the CDF is constant there (every entry of an atom law), else a
    ``_Poly`` in u = (x - points[k]) value_den.  Sums run in Python integers
    and divide the scales out once, as a Fraction.
    """

    points: tuple
    value_den: int
    prob_den: int
    cdf: tuple

    def _scale(self) -> int:
        """Denominator of a product of one probability per law."""
        return self.prob_den ** len(self.cdf)

    def expected(self, rank: int) -> Fraction:
        """E of the rank-th highest law: the top grid value minus the
        integral of the rank's CDF, taken from ``_rank_cdf_terms`` on whole
        columns, interval by interval; on int entries the integral is the
        entry times the interval's width."""
        cols = [np.array(c, dtype=object) for c in self.cdf]
        H = _rank_cdf_terms(cols, rank, one=self.prob_den)
        lcm = math.lcm(*range(1, 1 + max((len(h.c) for h in H if isinstance(h, _Poly)),
                                         default=1)))
        area = 0
        for h, a, b in zip(H, self.points, self.points[1:]):
            area += h.area(b - a, lcm) if isinstance(h, _Poly) else h * (b - a) * lcm
        scale = self._scale() * lcm
        return Fraction(self.points[-1] * scale - area, scale * self.value_den)

    def settle(self):
        """Second-price settlement of one bid per law, in expectation; atom
        laws only.

        Returns (surplus, credit, first, second): per law, as Fractions, the
        unique winner's expected surplus E[(B_i - M_i) 1{B_i > M_i}], M_i
        the highest other bid, and the expected win credit with 1/#ties for
        tied winners; then E[first] and E[second] of the bids.  Surplus is
        sum_b P(B_i=b) sum_{g_k<b} P(M_i <= g_k)(g_{k+1} - g_k), read off a
        running prefix sum; credit is sum_b P(B_i=b) times
        int_0^1 prod_{j != i} (P(B_j<b) + t P(B_j=b)) dt, whose expansion
        in t weighs k tied rivals by 1/(k+1).  Every winner bids the first
        order statistic and the credits of a draw sum to 1, so E[first] is
        sum_i E[B_i credit_i], the same terms weighted by b; first - second
        is the unique winner's margin (0 on a tie), so E[second] is E[first]
        minus the summed surplus.  So a bundle needs no ``expected``, which
        serves order-statistic laws and Prop 6.  Needs at least two laws.
        """
        n = len(self.cdf)
        tie_scale = math.lcm(*range(1, n + 1))
        share = [tie_scale // (k + 1) for k in range(n)]
        widths = [b - a for a, b in zip(self.points, self.points[1:])] + [0]
        masses = [[b - a for a, b in zip((0, *col), col)] for col in self.cdf]
        surplus, credit = [], []
        top = margin = 0
        for i, mass_i in enumerate(masses):
            others = [j for j in range(n) if j != i]
            # P(M_i <= g_k): every other law at most g_k
            below = map(math.prod, zip(*(self.cdf[j] for j in others)))
            s_num = c_num = run = 0
            for k, (m, down, w) in enumerate(zip(mass_i, below, widths)):
                if m:
                    s_num += m * run
                    poly = [1]
                    for j in others:
                        eq = masses[j][k]
                        lt = self.cdf[j][k] - eq
                        poly = [a * lt + b * eq for a, b in zip(poly + [0], [0] + poly)]
                    c = m * sum(map(math.prod, zip(poly, share)))
                    c_num += c
                    top += c * self.points[k]
                run += down * w
            margin += s_num
            surplus.append(Fraction(s_num, self._scale() * self.value_den))
            credit.append(Fraction(c_num, self._scale() * tie_scale))
        scale = self._scale() * tie_scale * self.value_den
        return (surplus, credit, Fraction(top, scale),
                Fraction(top - margin * tie_scale, scale))


def atom_grid(forms) -> AtomGrid:
    """Put integer forms on one common grid: atom laws (``AtomLattice``) and
    the pieces of laws with uniform parts (``PieceLattice``).  Each is
    rescaled to the lcm of their value denominators and to one probability
    denominator; their knots are merged."""
    forms = list(forms)
    value_den = math.lcm(*(f.value_den for f in forms))
    # a piece form's denominator once its coefficients are in grid units
    dens = [f.prob_den if isinstance(f, AtomLattice)
            else f.prob_den * (value_den // f.value_den) ** (len(f.coefs[0]) - 1)
            for f in forms]
    prob_den = math.lcm(*dens)
    points = sorted({x * (value_den // f.value_den) for f in forms for x in f.nums})
    index = {g: k for k, g in enumerate(points)}
    cols = []
    for f, den in zip(forms, dens):
        step, up = value_den // f.value_den, prob_den // den
        if isinstance(f, AtomLattice):
            col = [0] * len(points)
            for x, m in zip(f.nums, f.masses):
                col[index[x * step]] = m * up
            cols.append(tuple(accumulate(col)))
        else:
            cols.append(tuple(_piece_column(f, points, step, up, prob_den)))
    return AtomGrid(tuple(points), value_den, prob_den, tuple(cols))


def _piece_column(f: PieceLattice, points, step: int, up: int, one: int):
    """A piece form's column on the grid: 0 below its first knot, ``one``
    from its last, and between them its piece at the grid point, u rescaled
    by ``step`` (times step^degree) and the denominator by ``up``."""
    degree = len(f.coefs[0]) - 1
    knots = [x * step for x in f.nums]
    for g in points:
        j = bisect_right(knots, g)
        if j == 0 or j == len(knots):
            yield 0 if j == 0 else one
            continue
        coef = [a * step ** (degree - l) * up for l, a in enumerate(f.coefs[j - 1])]
        _taylor_shift(coef, g - knots[j - 1])
        yield _Poly(coef) if any(coef[1:]) else coef[0]


def law_grid(laws) -> AtomGrid:
    """Laws without a normal part on one grid, read as a sum reads them: a
    discrete law by its integer form, a point mass through ``as_fraction``
    (``_sum_parts``), any other law by its pieces (``piece_lattice``)."""
    return atom_grid(_sum_parts(law)[0] if isinstance(law, (DiscreteFinite, PointMass))
                     else piece_lattice(law) for law in laws)


def expected_order_stat(os_law: OrderStatLaw):
    """E of the rank-th highest: ``expected_order_stats`` on a batch of one,
    its error raised."""
    value, = expected_order_stats([os_law])
    if isinstance(value, DistributionError):
        raise value
    return value


def expected_order_stats(os_laws) -> list:
    """E of the rank-th highest for each order-statistic law, in one pass.

    A member whose laws are all atomic gets the exact Fraction of
    ``law_grid`` (members with the same law objects share one grid); the
    others are valued together by one batched quadrature
    (``_expected_numeric``).  A member that fails gets its DistributionError
    in its place, and the other members keep their values."""
    os_laws = list(os_laws)
    out = [None] * len(os_laws)
    grids = {}
    numeric = []
    for k, os_law in enumerate(os_laws):
        if not all(isinstance(law, (DiscreteFinite, PointMass)) for law in os_law.laws):
            numeric.append(k)
            continue
        key = tuple(map(id, os_law.laws))
        try:
            if key not in grids:
                grids[key] = law_grid(os_law.laws)
            out[k] = grids[key].expected(os_law.rank)
        except DistributionError as exc:
            out[k] = exc
    for k, value in zip(numeric, _expected_numeric([os_laws[k] for k in numeric])):
        out[k] = value
    return out


def _quadrature_inputs(law):
    """A law's ``quantile_range`` and its ``breakpoints`` as a float array,
    computed once per law instance and kept on it."""
    kept = law.__dict__.get("_quadrature")
    if kept is None:
        lo, hi = quantile_range(law)
        kept = (lo, hi, np.array([float(k) for k in breakpoints(law)], dtype=np.float64))
        object.__setattr__(law, "_quadrature", kept)
    return kept


def _knots(os_law: OrderStatLaw) -> np.ndarray:
    """0, the ends of the laws' quantile ranges (widened to 0) and every
    breakpoint strictly between them, sorted, as floats.  A Fraction
    breakpoint lies strictly inside exactly when its float does or rounds
    onto an end, so reading floats keeps the knots."""
    inputs = [_quadrature_inputs(law) for law in os_law.laws]
    lo = min(min(q[0] for q in inputs), 0.0)
    hi = max(max(q[1] for q in inputs), 0.0)
    return np.unique(np.concatenate(
        [[lo, hi, 0.0], *(k[(lo < k) & (k < hi)] for _lo, _hi, k in inputs)]))


class _Batch:
    """The members of one batched quadrature.  Each distinct law (by ``==``:
    equal frozen laws have equal CDFs) gets an index, and ``lid[k, i]`` is
    the index of member k's i-th law (-1 past its last).  ``shared[d]``
    marks a law every member holds, ``column[i]`` the law every member has
    at position i (else -1).  Members of equal size and rank form one group
    for ``_rank_cdf_terms``.  Per member: its evaluation budget and count,
    and, once it leaves the batch, its error."""

    def __init__(self, os_laws, budgets):
        index = {}
        rows = [[index.setdefault(law, len(index)) for law in os_law.laws]
                for os_law in os_laws]
        self.laws = list(index)
        width = max(map(len, rows))
        self.lid = np.array([row + [-1] * (width - len(row)) for row in rows])
        held = [set(row) for row in rows]
        self.uses = np.array([[d in h for h in held] for d in range(len(index))])
        self.shared = [all(d in h for h in held) for d in range(len(index))]
        self.column = [rows[0][i] if all(row[i:i + 1] == rows[0][i:i + 1] for row in rows)
                       else -1 for i in range(width)]
        self.positions = [sorted({i for row in rows for i, e in enumerate(row) if e == d})
                          for d in range(len(index))]
        groups = {}
        self.gid = np.array([groups.setdefault((len(row), os_law.rank), len(groups))
                             for row, os_law in zip(rows, os_laws)])
        self.groups = list(groups)
        self.budgets = budgets
        self.evaluations = np.zeros(len(rows), dtype=np.int64)
        self.live = np.ones(len(rows), dtype=bool)
        self.errors = {}

    def fail(self, k: int, message: str):
        self.live[k] = False
        self.errors[k] = DistributionError(message)


def _integrand(batch: _Batch, ys, owner):
    """One quadrature call for a whole batch: ``ys`` with the member
    ``owner`` of each point.

    A live member is first charged its points; past its budget it leaves
    the batch unevaluated.  Each distinct law's CDF is then evaluated once,
    through ``cdf``, on the points of the live members that hold it, and
    per group ``_rank_cdf_terms`` gives the order statistic's CDF G; the
    integrand is 1 - G at y >= 0 and -G below.  A member with a non-finite
    value leaves the batch, naming its first such point.  Returns the
    values (0 on the points of members out of the batch) and the mask of
    live members.
    """
    batch.evaluations += np.bincount(owner, minlength=batch.live.size)
    over = batch.live & (batch.evaluations > batch.budgets)
    if over.any():
        for k in np.flatnonzero(over).tolist():
            batch.fail(k, f"quadrature needs more than {batch.budgets[k]} CDF evaluations")
    everyone = batch.live.all()
    live = None if everyone else batch.live[owner]
    G = np.zeros((batch.lid.shape[1], ys.size))
    lid = None
    for d, law in enumerate(batch.laws):
        if everyone and batch.shared[d]:
            vals = np.asarray(cdf(law, ys), dtype=np.float64)
        else:
            at = batch.uses[d][owner]
            if live is not None:
                at &= live
            if not at.any():
                continue
            if len(batch.positions[d]) == 1:
                G[batch.positions[d][0], at] = cdf(law, ys[at])
                continue
            vals = np.zeros(ys.size)
            vals[at] = cdf(law, ys[at])
        for i in batch.positions[d]:
            if everyone and batch.column[i] == d:
                G[i] = vals
            else:
                if lid is None:
                    lid = batch.lid[owner]
                here = lid[:, i] == d
                G[i, here] = vals[here]
    if len(batch.groups) == 1:
        (n, rank), = batch.groups
        g = _rank_cdf_terms(G[:n], rank, one=1.0)
        out = np.where(ys >= 0, 1.0 - g, -g)
    else:
        out = np.empty(ys.size)
        gid = batch.gid[owner]
        for j, (n, rank) in enumerate(batch.groups):
            here = gid == j
            g = _rank_cdf_terms(G[:n, here], rank, one=1.0)
            out[here] = np.where(ys[here] >= 0, 1.0 - g, -g)
    bad = ~np.isfinite(out)
    if bad.any():
        for k in np.unique(owner[bad if everyone else bad & live]).tolist():
            first = float(ys[bad & (owner == k)][0])
            batch.fail(k, f"order-statistic CDF is not finite at y={first!r}")
        out[bad] = 0.0
    return out, batch.live


def _expected_numeric(os_laws) -> list:
    """E of each order statistic by one adaptive Simpson over all of them:
    every knot interval of every member (``_knots``) in one
    ``_simpson_by_level``, so a level is one ``_integrand`` call for the
    whole batch.  Each member keeps its own budget, ``MAX_EVALUATIONS``
    plus five per knot interval, and sums its intervals' parts in order, so
    its value is the one it has alone.  A failing member's entry is its
    DistributionError."""
    out = [None] * len(os_laws)
    members, knots = [], []
    for k, os_law in enumerate(os_laws):
        try:
            knots.append(_knots(os_law))
        except DistributionError as exc:
            out[k] = exc
            continue
        members.append(k)
    if not members:
        return out
    sizes = [len(kn) - 1 for kn in knots]
    batch = _Batch([os_laws[k] for k in members],
                   np.array([MAX_EVALUATIONS + 5 * size for size in sizes]))
    # laws near double range overflow on the way: a non-finite result fails its member
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        parts = _simpson_by_level(
            lambda ys, owner: _integrand(batch, ys, owner),
            np.concatenate([kn[:-1] for kn in knots]), np.concatenate([kn[1:] for kn in knots]),
            np.repeat(np.arange(len(members)), sizes), SIMPSON_TOL)
    start = 0
    for j, (k, size) in enumerate(zip(members, sizes)):
        # summed in order, as the recursion did; np.sum and Python 3.12's
        # sum() would round differently
        total = 0.0
        for part in parts[start:start + size]:
            total += part
        out[k] = batch.errors.get(j, total if math.isfinite(total) else DistributionError(
            f"expected order statistic is not finite ({total})"))
        start += size
    return out


def _simpson_by_level(fn, a, b, owner, tol, max_depth=48):
    """Adaptive Simpson on every knot interval [a, b] of a batch, level by
    level; ``owner`` names each interval's member.

    The first ``fn`` call takes each interval's midpoint and its two end
    values one ulp inside it, ``nextafter(a, +inf)`` and
    ``nextafter(b, -inf)``, while the weights stay on the knots: an end at a
    jump of ``fn`` (0, an atom, or a float just below an atom that a
    Fraction knot rounded to) gets its one-sided limit, so smooth pieces
    meet the tolerance within a few levels.  Each refinement level
    evaluates the new quarter points of all pending intervals in one ``fn``
    call.  ``fn(ys, owners)`` returns the values and the mask of members
    still in the batch; an interval of a member out of it stops there.  An
    interval is accepted when ``|left + right - whole| <= 15 tol`` (or at
    ``max_depth``) and split otherwise, each half with ``tol / 2``; the
    per-knot-interval results are then summed back up the same
    left-plus-right tree a depth-first recursion would build, so the values
    equal that recursion's exactly.  Returns one float per knot interval.
    """
    m = 0.5 * (a + b)
    f, _live = fn(np.concatenate([np.nextafter(a, np.inf), np.nextafter(b, -np.inf), m]),
                  np.concatenate([owner, owner, owner]))
    fa, fb, fm = f[:a.size], f[a.size:2 * a.size], f[2 * a.size:]
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # per level: (accepted mask, accepted values).  The next level holds the
    # left halves of the split intervals, then their right halves.
    levels = []
    depth = max_depth
    while a.size:
        lm = 0.5 * (a + m)
        rm = 0.5 * (m + b)
        f, live = fn(np.concatenate([lm, rm]), np.concatenate([owner, owner]))
        flm, frm = f[:a.size], f[a.size:]
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        err = left + right - whole
        done = np.abs(err) <= 15.0 * tol if depth > 0 else np.ones(a.size, bool)
        if not live.all():
            done |= ~live[owner]
        levels.append((done, (left + right + err / 15.0)[done]))
        split = ~done
        a, m, b, fa, fm, fb, whole = np.concatenate([
            np.array([a, lm, m, fa, flm, fm, left])[:, split],
            np.array([m, rm, b, fm, frm, fb, right])[:, split]], axis=1)
        owner = owner[split]
        owner = np.concatenate([owner, owner])
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
    return mu_a * _Phi(theta) + mu_b * _Phi(-theta) + s * _phi(theta)
