"""Value-law algebra for per-characteristic distributions.

Three constructible laws (uniform interval, normal, finite discrete with
exact rational atom probabilities), plus the derived laws that arise when
laws are summed: point masses, trapezoids (sum of two uniforms) and numeric
grid CDFs.  Information about a realized value is modeled as a finite
measurable partition of the support; conditional expectations given a
partition cell are closed-form for every supported kind, which is what makes
bid computation exact for discrete scenarios and cheap for continuous ones.

Finitely supported laws also have an integer form (``AtomLattice``): value
numerators over one value denominator and integer masses over one
probability denominator.  Sums of such laws are convolved on those Python
ints (``fold_atom_lattices``) and turned back into Fraction atoms only when
a law object is asked for (``lattice_law``).

Sampling is inverse-CDF (``ppf``) applied to uniforms that the Monte Carlo
backend keys by (seed, draw, bidder, characteristic), so a variate does not
depend on how draws are batched across workers.  ``scipy.special`` is
imported only inside the normal-law branches that need it, so importing the
package does not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Sequence, Union

import numpy as np

__all__ = [
    "UniformContinuous",
    "Normal",
    "DiscreteFinite",
    "PointMass",
    "AtomLattice",
    "TrapezoidLaw",
    "GridLaw",
    "Distribution",
    "Law",
    "NoInfo",
    "FullInfo",
    "Partition",
    "InfoLevel",
    "SignalCell",
    "DistributionError",
    "as_fraction",
    "mean",
    "cdf",
    "cdf_exact",
    "pdf",
    "ppf",
    "support",
    "breakpoints",
    "convolve",
    "atom_lattice",
    "fold_atom_lattices",
    "lattice_law",
    "canonical_info",
    "cells",
    "cell_probability",
    "conditional_mean",
    "GRID_POINTS",
    "TAIL_EPS",
]

# Grid-convolution resolution and the quantile range the grid spans.
GRID_POINTS = 2 ** 14
TAIL_EPS = 1e-12


class DistributionError(ValueError):
    """Invalid distribution, information level, or signal cell."""


def as_fraction(x) -> Fraction:
    """Coerce a number to an exact Fraction.

    Ints, Fractions and 'p/q' / decimal strings convert losslessly; floats
    are interpreted by their shortest decimal repr (0.1 -> 1/10), which is
    the intent in scenario files.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    raise DistributionError(f"cannot interpret {x!r} as a rational number")


def _require_finite(kind: str, **params):
    """Reject NaN and infinite law parameters; rationals are always finite."""
    for name, x in params.items():
        if not isinstance(x, (int, Fraction)) and not math.isfinite(x):
            raise DistributionError(f"{kind} needs a finite {name}, got {x}")


# ---------------------------------------------------------------------------
# Law types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class UniformContinuous:
    lo: float
    hi: float

    def __post_init__(self):
        _require_finite("uniform", lo=self.lo, hi=self.hi)
        if not self.lo < self.hi:
            raise DistributionError(f"uniform needs lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class Normal:
    mean: float
    stddev: float

    def __post_init__(self):
        _require_finite("normal", mean=self.mean, stddev=self.stddev)
        if not self.stddev > 0:
            raise DistributionError(f"normal needs stddev > 0, got {self.stddev}")


@dataclass(frozen=True)
class DiscreteFinite:
    """Finite support with exact rational probabilities.

    ``values`` must be strictly increasing and hold at least two points: an
    almost-surely-constant characteristic value is not representable.
    """

    values: tuple
    probs: tuple

    def __init__(self, values: Sequence, probs: Sequence):
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "probs", tuple(as_fraction(p) for p in probs))
        self._validate()

    def _validate(self):
        if len(self.values) < 2:
            raise DistributionError("discrete law needs at least 2 support points")
        if len(self.values) != len(self.probs):
            raise DistributionError("values and probs differ in length")
        _require_finite("discrete law", **{f"values[{i}]": v for i, v in enumerate(self.values)})
        if any(p <= 0 for p in self.probs):
            raise DistributionError("atom probabilities must be positive")
        if sum(self.probs) != 1:
            raise DistributionError(f"atom probabilities sum to {sum(self.probs)}, expected 1")
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise DistributionError("support values must be strictly increasing")

    @classmethod
    def from_atoms(cls, atoms: Sequence) -> "DiscreteFinite":
        """Build from (value, prob) pairs, merging duplicate values."""
        acc: dict = {}
        for v, p in atoms:
            acc[v] = acc.get(v, Fraction(0)) + as_fraction(p)
        vals = sorted(acc)
        return cls(vals, [acc[v] for v in vals])


@dataclass(frozen=True)
class PointMass:
    """Degenerate law; not a constructible characteristic law, but sums of
    NoInfo contributions produce it."""

    value: float


class AtomLattice(NamedTuple):
    """A finitely supported law on an integer lattice: atom k sits at
    ``nums[k] / value_den`` with probability ``masses[k] / prob_den``.
    ``nums`` is strictly increasing, every mass is positive, the masses sum
    to ``prob_den``, and both denominators are the least ones that work."""

    value_den: int
    prob_den: int
    nums: tuple
    masses: tuple


def atom_lattice(law) -> AtomLattice:
    """Integer form of a DiscreteFinite or PointMass law, computed once per
    law instance and kept on it.  A float atom enters as ``Fraction(v)``,
    its exact binary value."""
    form = law.__dict__.get("_lattice")
    if form is None:
        if isinstance(law, PointMass):
            atoms = [(Fraction(law.value), Fraction(1))]
        else:
            atoms = [(Fraction(v), p) for v, p in zip(law.values, law.probs)]
        value_den = math.lcm(*(v.denominator for v, _p in atoms))
        prob_den = math.lcm(*(p.denominator for _v, p in atoms))
        form = AtomLattice(value_den, prob_den,
                           tuple(v.numerator * (value_den // v.denominator) for v, _p in atoms),
                           tuple(p.numerator * (prob_den // p.denominator) for _v, p in atoms))
        object.__setattr__(law, "_lattice", form)
    return form


def fold_atom_lattices(forms) -> AtomLattice:
    """Integer form of the sum of independent lattice laws: one convolution
    of value numerators and masses on Python ints, reduced once at the end."""
    forms = list(forms)
    value_den = math.lcm(*(f.value_den for f in forms))
    acc = {0: 1}
    prob_den = 1
    for f in forms:
        step = value_den // f.value_den
        atoms = [(x * step, m) for x, m in zip(f.nums, f.masses)]
        out: dict = {}
        for x, m in acc.items():
            for y, w in atoms:
                out[x + y] = out.get(x + y, 0) + m * w
        acc = out
        prob_den *= f.prob_den
    nums = sorted(acc)
    masses = [acc[x] for x in nums]
    gv = math.gcd(value_den, *nums)
    gp = math.gcd(prob_den, *masses)
    return AtomLattice(value_den // gv, prob_den // gp,
                       tuple(x // gv for x in nums), tuple(m // gp for m in masses))


def lattice_law(form: AtomLattice):
    """The law an integer form stands for, with Fraction atoms: a PointMass
    for one atom, else a DiscreteFinite.  The form is kept on the law."""
    values = [Fraction(x, form.value_den) for x in form.nums]
    law = PointMass(values[0]) if len(values) == 1 else DiscreteFinite(
        values, [Fraction(m, form.prob_den) for m in form.masses])
    object.__setattr__(law, "_lattice", form)
    return law


@dataclass(frozen=True)
class TrapezoidLaw:
    """Density rising linearly on [a, b], flat on [b, c], falling on [c, d].

    The sum of two independent uniforms is the symmetric case b - a == d - c.
    """

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        if not (self.a <= self.b <= self.c <= self.d) or self.a == self.d:
            raise DistributionError("trapezoid needs a <= b <= c <= d with a < d")

    @property
    def height(self) -> float:
        return 2.0 / float((self.d + self.c) - (self.a + self.b))


class GridLaw:
    """Numeric CDF on an equally spaced grid (fallback convolution output)."""

    __slots__ = ("xs", "pdf", "cdf_values")

    def __init__(self, xs: np.ndarray, pdf: np.ndarray):
        self.xs = np.asarray(xs, dtype=np.float64)
        self.pdf = np.asarray(pdf, dtype=np.float64)
        if self.xs.ndim != 1 or self.xs.shape != self.pdf.shape or self.xs.size < 8:
            raise DistributionError("grid law needs matching 1-d arrays")
        h = self.xs[1] - self.xs[0]
        cdf = np.concatenate([[0.0], np.cumsum((self.pdf[1:] + self.pdf[:-1]) * 0.5 * h)])
        total = cdf[-1]
        if not (math.isfinite(total) and total > 0):
            raise DistributionError(f"grid law mass must be finite and positive, got {total}")
        # trapezoid accumulation drifts by quadrature error; renormalize.
        self.pdf = self.pdf / total
        self.cdf_values = cdf / total

    def __repr__(self):
        return f"GridLaw(n={self.xs.size}, [{self.xs[0]:.6g}, {self.xs[-1]:.6g}])"


Distribution = Union[UniformContinuous, Normal, DiscreteFinite]
Law = Union[Distribution, PointMass, TrapezoidLaw, GridLaw]


# ---------------------------------------------------------------------------
# Information levels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NoInfo:
    pass


@dataclass(frozen=True)
class FullInfo:
    pass


@dataclass(frozen=True)
class Partition:
    """Finite measurable partition of a law's support.

    For continuous kinds the cells are the intervals between strictly
    increasing interior ``cutpoints``.  For discrete kinds ``cells`` groups
    support-point indices; groups must be disjoint and exhaustive.
    """

    cutpoints: tuple = ()
    cells: tuple = ()

    def __init__(self, cutpoints: Sequence = (), cells: Sequence = ()):
        object.__setattr__(self, "cutpoints", tuple(cutpoints))
        object.__setattr__(self, "cells", tuple(tuple(sorted(c)) for c in cells))
        if self.cutpoints and self.cells:
            raise DistributionError("partition takes cutpoints or cells, not both")
        for a, b in zip(self.cutpoints, self.cutpoints[1:]):
            if not a < b:
                raise DistributionError("cutpoints must be strictly increasing")


InfoLevel = Union[NoInfo, FullInfo, Partition]


@dataclass(frozen=True)
class SignalCell:
    """One element of an information partition; ``index`` identifies the
    cell within the canonical level."""

    dist: Distribution
    level: InfoLevel
    index: int


def canonical_info(dist: Distribution, level: InfoLevel) -> InfoLevel:
    """Canonicalize an info level relative to its distribution.

    Single-cell partitions collapse to NoInfo; FullInfo on a discrete law is
    the all-singletons partition.  Canonical levels make policies structurally
    comparable.
    """
    k = len(dist.values) if isinstance(dist, DiscreteFinite) else None
    if isinstance(level, FullInfo):
        if k is not None:
            return Partition(cells=[(i,) for i in range(k)])
        return level
    if isinstance(level, NoInfo):
        return level
    _validate_partition(dist, level)
    if isinstance(dist, DiscreteFinite):
        cells = sorted(level.cells, key=lambda c: c[0])
        if len(cells) == 1:
            return NoInfo()
        return Partition(cells=cells)
    if not level.cutpoints:
        return NoInfo()
    return Partition(cutpoints=level.cutpoints)


def _validate_partition(dist: Distribution, level: Partition):
    if isinstance(dist, DiscreteFinite):
        if level.cutpoints:
            raise DistributionError("discrete law takes cell partitions, not cutpoints")
        seen = [i for cell in level.cells for i in cell]
        if not level.cells or any(not c for c in level.cells):
            raise DistributionError("partition cells must be nonempty")
        if sorted(seen) != list(range(len(dist.values))):
            raise DistributionError("cells must partition the support indices exactly")
    else:
        if level.cells:
            raise DistributionError("continuous law takes cutpoints, not cells")
        lo, hi = support(dist)
        for c in level.cutpoints:
            if not (lo < c < hi):
                raise DistributionError(f"cutpoint {c} outside open support ({lo}, {hi})")


# ---------------------------------------------------------------------------
# Basic functionals
# ---------------------------------------------------------------------------

def mean(law: Law):
    """Exact mean; a Fraction for discrete laws with exact values."""
    if isinstance(law, UniformContinuous):
        return (law.lo + law.hi) / 2
    if isinstance(law, Normal):
        return law.mean
    if isinstance(law, DiscreteFinite):
        return sum(p * v for v, p in zip(law.values, law.probs))
    if isinstance(law, PointMass):
        return law.value
    if isinstance(law, TrapezoidLaw):
        a, b, c, d = law.a, law.b, law.c, law.d
        h = law.height
        m_rise = h * (b - a) / 2
        m_flat = h * (c - b)
        m_fall = h * (d - c) / 2
        return (m_rise * (a + 2 * (b - a) / 3)
                + m_flat * (b + c) / 2
                + m_fall * (c + (d - c) / 3))
    if isinstance(law, GridLaw):
        return float(np.trapezoid(law.xs * law.pdf, law.xs))
    raise DistributionError(f"unsupported law {law!r}")


def support(law: Law):
    if isinstance(law, UniformContinuous):
        return law.lo, law.hi
    if isinstance(law, Normal):
        return -math.inf, math.inf
    if isinstance(law, DiscreteFinite):
        return law.values[0], law.values[-1]
    if isinstance(law, PointMass):
        return law.value, law.value
    if isinstance(law, TrapezoidLaw):
        return law.a, law.d
    if isinstance(law, GridLaw):
        return float(law.xs[0]), float(law.xs[-1])
    raise DistributionError(f"unsupported law {law!r}")


def quantile_range(law: Law):
    """Finite interval carrying all mass except at most TAIL_EPS per tail."""
    lo, hi = support(law)
    if math.isinf(lo) or math.isinf(hi):
        from scipy.special import ndtri
        z = float(ndtri(TAIL_EPS))
        return law.mean + z * law.stddev, law.mean - z * law.stddev
    return float(lo), float(hi)


def breakpoints(law: Law) -> list:
    """Knots where the CDF changes analytic form (quadrature hints)."""
    if isinstance(law, UniformContinuous):
        return [law.lo, law.hi]
    if isinstance(law, Normal):
        return []
    if isinstance(law, DiscreteFinite):
        return [float(v) for v in law.values]
    if isinstance(law, PointMass):
        return [float(law.value)]
    if isinstance(law, TrapezoidLaw):
        return [law.a, law.b, law.c, law.d]
    if isinstance(law, GridLaw):
        return []
    raise DistributionError(f"unsupported law {law!r}")


def cdf(law: Law, x):
    """Right-continuous CDF; accepts scalars or arrays."""
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=np.float64)
    if isinstance(law, UniformContinuous):
        out = np.clip((x - law.lo) / (law.hi - law.lo), 0.0, 1.0)
    elif isinstance(law, Normal):
        from scipy.special import ndtr
        out = ndtr((x - law.mean) / law.stddev)
    elif isinstance(law, DiscreteFinite):
        vals = np.array([float(v) for v in law.values])
        cum = np.concatenate([[0.0], np.cumsum([float(p) for p in law.probs])])
        out = cum[np.searchsorted(vals, x, side="right")]
    elif isinstance(law, PointMass):
        out = np.where(x >= law.value, 1.0, 0.0)
    elif isinstance(law, TrapezoidLaw):
        a, b, c, d = law.a, law.b, law.c, law.d
        h = law.height
        out = np.zeros_like(x)
        if b > a:
            rise = np.clip(x, a, b)
            out += h * (rise - a) ** 2 / (2 * (b - a))
        out += h * (np.clip(x, b, c) - b)
        if d > c:
            fall = np.clip(x, c, d)
            out += h * ((fall - c) - (fall - c) ** 2 / (2 * (d - c)))
        out = np.clip(out, 0.0, 1.0)
    elif isinstance(law, GridLaw):
        out = np.interp(x, law.xs, law.cdf_values, left=0.0, right=1.0)
    else:
        raise DistributionError(f"unsupported law {law!r}")
    return float(out) if scalar else out


def cdf_exact(law, x) -> Fraction:
    """Exact rational CDF at x for discrete/point-mass laws."""
    if isinstance(law, PointMass):
        return Fraction(1) if x >= law.value else Fraction(0)
    if isinstance(law, DiscreteFinite):
        return sum((p for v, p in zip(law.values, law.probs) if v <= x), Fraction(0))
    raise DistributionError("exact CDF only defined for atom laws")


def pdf(law: Law, x):
    """Density for continuous laws (used by grid convolution)."""
    scalar = np.isscalar(x)
    x = np.asarray(x, dtype=np.float64)
    if isinstance(law, UniformContinuous):
        out = np.where((x >= law.lo) & (x <= law.hi), 1.0 / (law.hi - law.lo), 0.0)
    elif isinstance(law, Normal):
        z = (x - law.mean) / law.stddev
        out = np.exp(-0.5 * z * z) / (law.stddev * math.sqrt(2 * math.pi))
    elif isinstance(law, TrapezoidLaw):
        a, b, c, d = law.a, law.b, law.c, law.d
        h = law.height
        out = np.zeros_like(x)
        if b > a:
            out = np.where((x >= a) & (x < b), h * (x - a) / (b - a), out)
        out = np.where((x >= b) & (x <= c), h, out)
        if d > c:
            out = np.where((x > c) & (x <= d), h * (d - x) / (d - c), out)
    elif isinstance(law, GridLaw):
        out = np.interp(x, law.xs, law.pdf, left=0.0, right=0.0)
    else:
        raise DistributionError(f"no density for {law!r}")
    return float(out) if scalar else out


def ppf(d: Distribution, u):
    """Inverse CDF: F^{-1}(u) = min{x : F(x) >= u}."""
    scalar = np.isscalar(u)
    u = np.asarray(u, dtype=np.float64)
    if isinstance(d, UniformContinuous):
        out = d.lo + u * (d.hi - d.lo)
    elif isinstance(d, Normal):
        from scipy.special import ndtri
        # d.mean + d.stddev * ndtri(clip(u)), the same arithmetic on one
        # fresh buffer: clip into it, then ndtri, scale and shift in place
        out = np.clip(u, 1e-300, 1.0 - 1e-16, out=np.empty(u.shape))
        ndtri(out, out=out)
        out *= float(d.stddev)
        out += float(d.mean)
        if out.ndim == 0:
            out = out[()]             # a 0-d input gives a numpy scalar
    elif isinstance(d, DiscreteFinite):
        out = np.array([float(v) for v in d.values])[atom_index(d, u)]
    else:
        raise DistributionError(f"cannot invert {d!r}")
    return float(out) if scalar else out


def atom_index(d: DiscreteFinite, u):
    """Index of the atom selected by uniform variate(s) u under inverse CDF."""
    cum = np.cumsum([float(p) for p in d.probs])
    cum[-1] = 1.0
    return bin_index(cum, u, side="left")


def bin_index(edges, x, side: str = "left"):
    """``np.searchsorted(edges, x, side)`` for sorted float ``edges``.

    The index is the number of edges less than x (``side="left"``) or not
    greater than x (``"right"``), counted by one threshold comparison per
    edge as len(edges) minus the edges that x does not pass, so a NaN lands
    past every edge as it does in ``searchsorted``.  The cost is linear in
    the number of edges; on 2^16 draws it is 5-10x faster than bisection
    up to 16 edges and breaks even near 255.
    """
    edges = np.asarray(edges, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    stays = np.less_equal if side == "left" else np.less
    count = np.zeros(x.shape, dtype=np.min_scalar_type(edges.size))
    for e in edges:
        count += stays(x, e)
    return np.subtract(edges.size, count, dtype=np.intp)[()]


# ---------------------------------------------------------------------------
# Convolution
# ---------------------------------------------------------------------------

def _shift(law: Law, c) -> Law:
    if c == 0:
        return law
    if isinstance(law, UniformContinuous):
        return UniformContinuous(law.lo + c, law.hi + c)
    if isinstance(law, Normal):
        return Normal(law.mean + c, law.stddev)
    if isinstance(law, DiscreteFinite):
        return DiscreteFinite([v + c for v in law.values], law.probs)
    if isinstance(law, PointMass):
        return PointMass(law.value + c)
    if isinstance(law, TrapezoidLaw):
        return TrapezoidLaw(law.a + c, law.b + c, law.c + c, law.d + c)
    if isinstance(law, GridLaw):
        out = GridLaw.__new__(GridLaw)
        out.xs = law.xs + float(c)
        out.pdf = law.pdf
        out.cdf_values = law.cdf_values
        return out
    raise DistributionError(f"cannot shift {law!r}")


def convolve(a: Law, b: Law) -> Law:
    """Law of the sum of two independent laws.

    Closed forms: normal+normal, discrete+discrete (exact rational atoms,
    by ``fold_atom_lattices``), uniform+uniform (trapezoid), and any shift
    by a point mass.  Every other pairing falls back to a numeric grid CDF
    of ``GRID_POINTS`` points spanning the combined 1e-12 quantile range;
    support edges then land within one grid step, so grid-law moments and
    CDF values are accurate to O(span / GRID_POINTS), about 1e-4.
    """
    for law in (a, b):
        if not isinstance(law, (UniformContinuous, Normal, DiscreteFinite,
                                PointMass, TrapezoidLaw, GridLaw)):
            raise DistributionError(f"cannot convolve {law!r}")
    if isinstance(a, PointMass):
        return _shift(b, a.value)
    if isinstance(b, PointMass):
        return _shift(a, b.value)
    if isinstance(a, DiscreteFinite) and isinstance(b, DiscreteFinite):
        return lattice_law(fold_atom_lattices((atom_lattice(a), atom_lattice(b))))
    if isinstance(a, Normal) and isinstance(b, Normal):
        return Normal(a.mean + b.mean, math.hypot(a.stddev, b.stddev))
    if isinstance(a, UniformContinuous) and isinstance(b, UniformContinuous):
        w1 = min(a.hi - a.lo, b.hi - b.lo)
        w2 = max(a.hi - a.lo, b.hi - b.lo)
        lo = a.lo + b.lo
        return TrapezoidLaw(lo, lo + w1, lo + w2, lo + w1 + w2)
    return _grid_convolve(a, b)


def _grid_convolve(a: Law, b: Law) -> GridLaw:
    # An atom law shifts the other law's density; evaluate the mixture
    # directly on the output grid instead of smearing atoms over bins.
    if isinstance(b, DiscreteFinite) and not isinstance(a, DiscreteFinite):
        a, b = b, a
    if isinstance(a, DiscreteFinite):
        alo, ahi = float(a.values[0]), float(a.values[-1])
        blo, bhi = quantile_range(b)
        xs = np.linspace(alo + blo, ahi + bhi, GRID_POINTS)
        dens = np.zeros_like(xs)
        for v, p in zip(a.values, a.probs):
            dens += float(p) * pdf(b, xs - float(v))
        return GridLaw(xs, dens)
    alo, ahi = quantile_range(a)
    blo, bhi = quantile_range(b)
    dx = ((ahi - alo) + (bhi - blo)) / (GRID_POINTS - 1)
    na = max(int(round((ahi - alo) / dx)) + 1, 2)
    nb = max(int(round((bhi - blo) / dx)) + 1, 2)
    xa = alo + dx * np.arange(na)
    xb = blo + dx * np.arange(nb)
    pa = pdf(a, xa)
    pb = pdf(b, xb)
    # trapezoid end-weights: the grids start and end exactly on the support
    # bounds, where bounded densities jump; full weight there overcounts.
    pa[0] *= 0.5
    pa[-1] *= 0.5
    pb[0] *= 0.5
    pb[-1] *= 0.5
    dens = np.convolve(pa, pb) * dx
    xs = alo + blo + dx * np.arange(na + nb - 1)
    return GridLaw(xs, dens)


# ---------------------------------------------------------------------------
# Conditional expectations given a signal cell
# ---------------------------------------------------------------------------

def cells(d: Distribution, level: InfoLevel) -> list:
    """All signal cells of a level (not enumerable for continuous FullInfo)."""
    level = canonical_info(d, level)
    if isinstance(level, NoInfo):
        return [SignalCell(d, level, 0)]
    if isinstance(level, FullInfo):
        raise DistributionError("full information on a continuous law has no finite cell list")
    n = len(level.cells) if level.cells else len(level.cutpoints) + 1
    return [SignalCell(d, level, i) for i in range(n)]


def cell_probability(d: Distribution, cell: SignalCell):
    level = cell.level
    if isinstance(level, NoInfo):
        return Fraction(1) if isinstance(d, DiscreteFinite) else 1.0
    if isinstance(level, FullInfo):
        raise DistributionError("point cells carry zero probability")
    if isinstance(d, DiscreteFinite):
        return sum((d.probs[i] for i in level.cells[cell.index]), Fraction(0))
    lo, hi = _interval_of(d, level, cell.index)
    return float(cdf(d, hi) - cdf(d, lo)) if not math.isinf(hi) else float(1.0 - cdf(d, lo))


def _interval_of(d: Distribution, level: Partition, index: int):
    lo, hi = support(d)
    edges = [lo, *level.cutpoints, hi]
    if not 0 <= index < len(edges) - 1:
        raise DistributionError(f"cell index {index} out of range")
    return edges[index], edges[index + 1]


def conditional_mean(d: Distribution, level: InfoLevel, cell: SignalCell):
    """E[X | signal cell]; the trivial cell gives mean(d).  Full information
    on a continuous law has no cells, so it raises DistributionError."""
    level = canonical_info(d, level)
    if isinstance(level, NoInfo):
        return mean(d)
    if isinstance(level, FullInfo):
        raise DistributionError("full information on a continuous law has no cells")
    if isinstance(d, DiscreteFinite):
        idxs = level.cells[cell.index]
        massed = sum((d.probs[i] for i in idxs), Fraction(0))
        return sum((d.probs[i] * d.values[i] for i in idxs), Fraction(0)) / massed
    lo, hi = _interval_of(d, level, cell.index)
    if isinstance(d, UniformContinuous):
        return (lo + hi) / 2
    if isinstance(d, Normal):
        alpha = (lo - d.mean) / d.stddev if not math.isinf(lo) else -math.inf
        beta = (hi - d.mean) / d.stddev if not math.isinf(hi) else math.inf
        num = _phi(alpha) - _phi(beta)
        den = _Phi(beta) - _Phi(alpha)
        if den <= 0:
            raise DistributionError("empty normal cell")
        return d.mean + d.stddev * num / den
    raise DistributionError(f"unsupported law {d!r}")


def _phi(z):
    return 0.0 if math.isinf(z) else math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)


def _Phi(z):
    if math.isinf(z):
        return 0.0 if z < 0 else 1.0
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2)))

