import math
import os
import pathlib
from bisect import bisect_right
from fractions import Fraction as F
from itertools import permutations

import numpy as np
import pytest

from awarebid import engine
from awarebid.distributions import (
    DiscreteFinite,
    FullInfo,
    NoInfo,
    Normal,
    Partition,
    PointMass,
    UniformContinuous,
    atom_lattice,
    canonical_info,
    cells,
    conditional_mean,
    lattice_mean,
    mean,
    piece_lattice,
)
from awarebid.engine import _CHUNK, EstimatorConfig
from awarebid.scenario import validate

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# pytest puts src/ on this process's path (``pythonpath`` in pyproject.toml);
# the CLI subprocesses some tests start need it in their environment too
os.environ["PYTHONPATH"] = os.pathsep.join(
    [str(SCENARIO_DIR.parent / "src")]
    + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])

EXACT = EstimatorConfig(backend="exact")

# asymptotic Kolmogorov-Smirnov critical value at significance 0.001
KS_COEFF_001 = math.sqrt(-math.log(0.0005) / 2)


def ks_statistic(samples, cdf_fn, has_atoms=False):
    """sup_x |F_emp(x) - F(x)| for sorted-able samples.

    With atoms the left limits of both CDFs matter; the theoretical left
    limit is probed just below each distinct sample value (safe for atom
    spacings above 1e-6)."""
    xs = np.sort(np.asarray(samples, dtype=np.float64))
    n = xs.size
    probes = np.unique(xs)
    f_at = np.asarray(cdf_fn(probes), dtype=np.float64)
    emp_at = np.searchsorted(xs, probes, side="right") / n
    emp_before = np.searchsorted(xs, probes, side="left") / n
    if has_atoms:
        eps = 1e-7 * max(1.0, float(np.max(np.abs(probes))))
        f_before = np.asarray(cdf_fn(probes - eps), dtype=np.float64)
    else:
        f_before = f_at
    return float(max(np.max(np.abs(emp_at - f_at)),
                     np.max(np.abs(emp_before - f_before))))


def permanent(matrix):
    """Permanent of a small square matrix by direct permutation enumeration:
    the literal order-statistic formula the closed forms are checked against."""
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


def atom_cdf(law, y):
    """Exact Fraction CDF of a discrete or point-mass law at y, one point at a
    time: the oracle the library's integer and float CDF columns are checked
    against."""
    if isinstance(law, PointMass):
        return F(1) if y >= law.value else F(0)
    return sum((p for v, p in zip(law.values, law.probs) if v <= y), F(0))


def sum_pieces(law):
    """Exact CDF of a law without a normal part as (knots, polys): Fraction
    knots and, on each [knots[j], knots[j+1]), the ascending coefficients
    of the CDF in powers of x - knots[j], read off the law's integer form
    (``piece_lattice``); the CDF is 0 below the first knot and 1 from the
    last."""
    den, scale, nums, coefs = piece_lattice(law)
    return (tuple(F(n, den) for n in nums),
            tuple(tuple(F(a * den ** l, scale) for l, a in enumerate(coef))
                  for coef in coefs))


def piece_cdf(law, y):
    """Exact Fraction CDF of a law without a normal part at a rational y,
    read off its exact pieces (``sum_pieces``) by Horner's rule."""
    knots, polys = sum_pieces(law)
    j = bisect_right(knots, y)          # knots[j-1] <= y < knots[j]
    if j == 0 or j == len(knots):
        return F(0 if j == 0 else 1)
    out = F(0)
    for c in reversed(polys[j - 1]):
        out = out * (y - knots[j - 1]) + c
    return out


def sample_draws(s, seed, count):
    """Realized value matrices for draws 0..count-1 of the given seed, shape
    (count, bidders, characteristics): the inverse CDF of every entry at
    the same per-(draw, entry) uniforms as ``estimate``, so empirical
    statistics computed from these draws are the Monte Carlo backend's
    draws.  The uniforms and the inverse CDF are looked up on the engine
    module, so a test's spy on either sees these calls too.  A seed outside
    0..2**64-1 raises EstimationError."""
    EstimatorConfig(seed=seed)                # the one check of a seed's range
    n, m = s.n_bidders, s.m_characteristics
    out = np.empty((count, n, m))
    for a in range(0, count, _CHUNK):
        b = min(a + _CHUNK, count)
        U = engine._uniform_chunk(seed, a, b, n, m)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                out[a:b, i - 1, j - 1] = engine.ppf(s.law(i, j), U[:, i - 1, j - 1])
    return out


def mc_reference(s, p, draws):
    """Plain per-policy Monte Carlo reference on the engine's draws
    (``draws = sample_draws(s, seed, count)``): every bid column is summed
    in sorted characteristic order, draws are settled with 1/#ties credit,
    and each field is reduced chunk by chunk in draw order as the engine
    does, so the means must equal the engine's bit for bit.  Returns
    {field: mean} in the naming of ``bundle_means``."""
    count = draws.shape[0]
    n = s.n_bidders

    def contribution(i, j):
        law, level, x = s.law(i, j), p.level(i, j), draws[:, i - 1, j - 1]
        if isinstance(level, NoInfo):
            exact = lattice_mean(atom_lattice(law)) if isinstance(law, DiscreteFinite) else mean(law)
            return np.full(count, float(exact))
        if isinstance(law, DiscreteFinite):
            table = np.empty(len(law.values))
            for cell in cells(law, level):
                table[list(cell.level.cells[cell.index])] = float(
                    conditional_mean(law, level, cell))
            return table[np.searchsorted([float(v) for v in law.values], x)]
        if isinstance(level, FullInfo):
            return x.copy()
        means = np.array([float(conditional_mean(law, level, c)) for c in cells(law, level)])
        return means[np.searchsorted(level.cutpoints, x, side="right")]

    def settle(view):
        bids = np.zeros((n, count))
        for i in range(1, n + 1):
            for j in sorted(p.aware(i) & view):
                bids[i - 1] += contribution(i, j)
        first = bids.max(axis=0)
        second = np.sort(bids, axis=0)[-2]
        is_top = bids == first
        return first, second, is_top / is_top.sum(axis=0), np.where(is_top, first - second, 0.0)

    def reduce(data):
        total = 0.0
        for a in range(0, count, _CHUNK):
            total += float(data[a:a + _CHUNK].sum())
        return total / count

    first, second, credit_f, surplus_f = settle(s.full_set)
    out = {"first": reduce(first), "second": reduce(second)}
    revenue = second.copy()
    for i in range(1, n + 1):
        _f, _s, credit_v, surplus_v = settle(p.aware(i))
        hidden = np.zeros(count)
        for j in range(1, s.m_characteristics + 1):
            if j not in p.aware(i):
                hidden += draws[:, i - 1, j - 1]
        out[f"surplus_perc_{i}"] = reduce(surplus_v[i - 1])
        out[f"surplus_act_{i}"] = reduce(surplus_f[i - 1])
        out[f"credit_perc_{i}"] = reduce(credit_v[i - 1])
        out[f"credit_act_{i}"] = reduce(credit_f[i - 1])
        out[f"hidden_{i}"] = reduce(credit_f[i - 1] * hidden)
        revenue += surplus_v[i - 1]
    out["revenue"] = reduce(revenue)
    return out


def bundle_means(b):
    """The means of an MC bundle keyed as ``mc_reference`` keys them."""
    out = {"first": b.first_order_stat, "second": b.second_order_stat,
           "revenue": b.total_revenue}
    for i, be in enumerate(b.bidders, start=1):
        out[f"surplus_perc_{i}"] = be.perceived_surplus
        out[f"surplus_act_{i}"] = be.actual_surplus
        out[f"credit_perc_{i}"] = be.win_prob_perceived
        out[f"credit_act_{i}"] = be.win_prob_actual
        out[f"hidden_{i}"] = be.hidden_win_value
    return out


def checked_policy(s, awareness, char_info):
    """A policy built outside the program, through ``validate``: bidder i
    aware of ``awareness[i - 1]``, each aware characteristic j at
    ``char_info.get(j, FullInfo())``."""
    info = [{j: char_info.get(j, FullInfo()) for j in a} for a in awareness]
    return validate(s.n_bidders, s.m_characteristics, s.laws, awareness, info)[1]


def reference_layout(s, p):
    """A policy's layout from its definition, in (bidder, characteristic,
    level) keys: viewpoints [full set, each bidder's awareness], deduplicated
    by ``a & v`` over every awareness set a, in first-seen order; per view
    and bidder the keys of a & v in sorted characteristic order at the
    policy's levels; per bidder the unaware characteristics at canonical
    full information; the slots of the full view and each bidder's view."""
    wanted = [s.full_set, *p.awareness]
    seen = {}
    slots = [seen.setdefault(tuple(a & v for a in p.awareness), len(seen)) for v in wanted]
    views = [wanted[slots.index(k)] for k in range(len(seen))]
    columns = [tuple(tuple((i, j, p.level(i, j)) for j in sorted(a & v))
                     for i, a in enumerate(p.awareness, start=1)) for v in views]
    unaware = [[(i, j, canonical_info(s.law(i, j), FullInfo()))
                for j in range(1, s.m_characteristics + 1) if j not in a]
               for i, a in enumerate(p.awareness, start=1)]
    return columns, unaware, slots[0], slots[1:]


def decoded_layout(s, p):
    """``engine._policy_layout`` with its ids read back through the
    scenario's id table, in ``reference_layout``'s shape."""
    views, unaware, full_idx, bidder_idx = engine._policy_layout(s, p)
    items = engine._ids(s).items

    def keys(ids):
        return tuple(items[k] for k in ids)

    return ([tuple(keys(column) for column in items[v]) for v in views],
            [list(keys(ids)) for ids in unaware], full_idx, bidder_idx)


def coin(values):
    return DiscreteFinite(values, [F(1, 2), F(1, 2)])


def build_d1():
    """Two bidders; characteristic 1 uniform on {0,1}, characteristic 2
    uniform on {0,2}; bidder 1 aware of both, bidder 2 only of the first;
    full information throughout."""
    return validate(
        2, 2,
        [[coin([0, 1]), coin([0, 2])], [coin([0, 1]), coin([0, 2])]],
        [[1, 2], [1]],
        [{1: FullInfo(), 2: FullInfo()}, {1: FullInfo()}])


def build_u01():
    """Two bidders, one characteristic uniform on [0,1], full awareness."""
    u = UniformContinuous(0.0, 1.0)
    return validate(2, 1, [[u], [u]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])


def build_noinfo_tie(mean_val=F(2, 5)):
    """Symmetric no-information scenario: every bid equals the common mean."""
    d = DiscreteFinite([0, 1], [1 - mean_val, mean_val])
    return validate(2, 1, [[d], [d]], [[1], [1]],
                    [{1: NoInfo()}, {1: NoInfo()}])


def build_mixed_six_by_four():
    """6 bidders x 4 characteristics in the shape of the benchmark's mixed
    scenarios: characteristic 1 a tie-heavy discrete law read in full or
    through a cell partition, 2 normal, 3 uniform read in full or not at
    all, 4 normal read through cutpoints.  Four bidders are unaware of some
    characteristics.  Each entry has its own law object."""
    laws = [[DiscreteFinite([0, 1, 3], [F(1, 4), F(1, 2), F(1, 4)]),
             Normal(0.5 + i / 10, 1 + i / 20),
             UniformContinuous(-1 + i / 10, 2.5 + i / 5),
             Normal(-0.3 + i / 10, 0.8)] for i in range(6)]
    cells = Partition(cells=[(0, 1), (2,)])
    info = [{1: FullInfo(), 2: FullInfo(), 3: NoInfo(), 4: Partition(cutpoints=[-0.5, 0.4])},
            {1: cells, 2: FullInfo()},
            {1: FullInfo(), 3: FullInfo(), 4: Partition(cutpoints=[0.1])},
            {1: cells, 2: FullInfo(), 3: NoInfo(), 4: Partition(cutpoints=[-0.2])},
            {1: FullInfo()},
            {1: FullInfo(), 2: FullInfo()}]
    return validate(6, 4, laws, [sorted(levels) for levels in info], info)


@pytest.fixture
def d1():
    return build_d1()


@pytest.fixture
def u01():
    return build_u01()


@pytest.fixture
def scenario_dir():
    return SCENARIO_DIR
