import dataclasses
import itertools
import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from awarebid import orderstats
from awarebid.distributions import (
    DiscreteFinite,
    DistributionError,
    FullInfo,
    NoInfo,
    Normal,
    Partition,
    PointMass,
    SumLaw,
    UniformContinuous,
    atom_lattice,
    breakpoints,
    cdf,
    convolve,
    mean,
    quantile_range,
    sum_pieces,
)
from awarebid.engine import EstimatorConfig, estimate, sample_draws
from awarebid.orderstats import (
    SIMPSON_TOL,
    OrderStatLaw,
    _rank_cdf_terms,
    clark_normal_max,
    expected_order_stat,
    law_grid,
    valuation_law,
)
from awarebid.piecewise import expected_value, order_stat_rational
from awarebid.scenario import Perspective, validate
from conftest import KS_COEFF_001, atom_cdf, ks_statistic, permanent, piece_cdf


def _full_policy(laws, m):
    n = len(laws)
    return validate(n, m, laws, [list(range(1, m + 1))] * n,
                    [{j: FullInfo() for j in range(1, m + 1)} for _ in range(n)])


def test_valuation_law_example1_trapezoid():
    u1, u2 = UniformContinuous(0, 5), UniformContinuous(-6, 5)
    s, p = _full_policy([[u1, u2], [u1, u2]], 2)
    law = valuation_law(s, p, 1, Perspective(s.full_set))
    assert law == convolve(u1, u2) == SumLaw(atom_lattice(PointMass(-6)), (F(5), F(11)))
    assert sum_pieces(law)[0] == (-6, -1, 5, 10)
    # built once per column and kept on the scenario
    assert valuation_law(s, p, 1, Perspective(s.full_set)) is law


def test_valuation_law_no_info_point_mass():
    u1, u2 = UniformContinuous(0, 5), UniformContinuous(-6, 5)
    n = len([1, 2])
    s, p = validate(2, 2, [[u1, u2]] * n, [[1, 2]] * n,
                    [{1: NoInfo(), 2: NoInfo()}] * n)
    law = valuation_law(s, p, 1, Perspective(s.full_set))
    assert law == PointMass(2.0)


def test_float_point_mass_reads_one_way_on_every_route():
    # NoInfo on U(0, 0.2) and U(0.1, 0.5): the float point masses 0.1 and
    # 0.3 enter through as_fraction on the atom route as on law_grid, not
    # as their binary values (5404319552844595/18014398509481984 for 0.3)
    s, p = validate(2, 1, [[UniformContinuous(0, 0.2)], [UniformContinuous(0.1, 0.5)]],
                    [[1], [1]], [{1: NoInfo()}] * 2)
    laws = tuple(valuation_law(s, p, i, Perspective(s.full_set)) for i in (1, 2))
    assert laws == (PointMass(0.1), PointMass(0.3))
    assert expected_order_stat(OrderStatLaw(laws, 1)) == F(3, 10)
    assert law_grid(laws).expected(1) == F(3, 10)
    assert law_grid((laws[1], UniformContinuous(0, 0.2))).expected(1) == F(3, 10)


def test_valuation_law_normal_components():
    a, b = Normal(1.0, 1.0), Normal(0.5, 0.75)
    s, p = _full_policy([[a, b], [a, b]], 2)
    law = valuation_law(s, p, 1, Perspective(s.full_set))
    assert law == Normal(1.5, math.hypot(1.0, 0.75))


def test_valuation_law_discrete_partition_mixture():
    d = DiscreteFinite([0, 1, 3], [F(1, 2), F(1, 4), F(1, 4)])
    s, p = validate(2, 1, [[d], [d]], [[1], [1]],
                    [{1: Partition(cells=[[0], [1, 2]])}, {1: NoInfo()}])
    law1 = valuation_law(s, p, 1, Perspective(s.full_set))
    assert law1 == DiscreteFinite([0, 2], [F(1, 2), F(1, 2)])
    assert valuation_law(s, p, 2, Perspective(s.full_set)) == PointMass(F(1))


def test_valuation_law_respects_view_projection():
    from conftest import build_d1

    s, p = build_d1()
    # from bidder 2's viewpoint, bidder 1 is only aware of characteristic 1
    law = valuation_law(s, p, 1, Perspective(frozenset({1})))
    assert law == s.law(1, 1)
    full = valuation_law(s, p, 1, Perspective(s.full_set))
    assert full == DiscreteFinite([0, 1, 2, 3], [F(1, 4)] * 4)


def test_quadrature_matches_clark_on_normal_pairs():
    for mu_a, sa, mu_b, sb in [(1.5, 1.0, 1.0, 1.0), (-0.5, 2.0, 0.7, 0.3)]:
        got = expected_order_stat(OrderStatLaw((Normal(mu_a, sa), Normal(mu_b, sb)), 1))
        want = clark_normal_max(mu_a, sa ** 2, mu_b, sb ** 2)
        assert got == pytest.approx(want, abs=1e-9)


def test_rank_two_rational_oracle_three_laws():
    # E[second] = sum over the atoms v of v times the jump of the rank-2
    # CDF at v, that CDF taken from _rank_cdf_terms on Fraction columns
    rng = random.Random(31)
    laws = _random_atom_laws(rng, 3)
    grid = sorted({v for law in laws for v in law.values})
    H = [_rank_cdf_terms([atom_cdf(law, v) for law in laws], 2, one=F(1)) for v in grid]
    want = sum(v * (h - prev) for v, h, prev in zip(grid, H, [0] + H[:-1]))
    assert H[-1] == 1
    assert expected_order_stat(OrderStatLaw(tuple(laws), 2)) == want


def test_valuation_law_rejects_continuous_partition():
    u = UniformContinuous(0, 4)
    s, p = validate(2, 1, [[u], [u]], [[1], [1]],
                    [{1: Partition(cutpoints=[2.0])}, {1: FullInfo()}])
    with pytest.raises(DistributionError, match="engine"):
        valuation_law(s, p, 1, Perspective(s.full_set))


def test_order_cdf_uniform_pair_closed_forms():
    u = UniformContinuous(0, 1)
    top = OrderStatLaw((u, u), 1)
    second = OrderStatLaw((u, u), 2)
    ys = np.linspace(0, 1, 11)
    assert np.allclose(top.cdf(ys), ys ** 2, atol=1e-12)
    assert np.allclose(second.cdf(ys), 2 * ys - ys ** 2, atol=1e-12)
    assert np.all(second.cdf(ys) - top.cdf(ys) >= 0)


def test_order_cdf_rank_validation():
    u = UniformContinuous(0, 1)
    with pytest.raises(DistributionError):
        OrderStatLaw((u, u), 3)
    with pytest.raises(DistributionError):
        OrderStatLaw((), 1)


def _random_atom_laws(rng, n):
    laws = []
    for _ in range(n):
        k = rng.randint(2, 3)
        vals = sorted(rng.sample(range(-4, 6), k))
        den = rng.choice([4, 6, 8])
        cuts = sorted(rng.sample(range(1, den), k - 1))
        probs = [F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
        laws.append(DiscreteFinite(vals, probs))
    return laws


@pytest.mark.parametrize("seed", range(6))
def test_atom_grid_expectation_matches_the_atom_cdf_sweep(seed):
    # E[rank r] = sum over the support grid of v times the jump of the
    # exact rank-r CDF, for every rank and with point masses mixed in
    rng = random.Random(700 + seed)
    n = 2 + seed % 4
    laws = _random_atom_laws(rng, n)
    laws[seed % n] = PointMass(F(rng.randint(-3, 5), rng.choice([1, 2, 3])))
    grid = sorted({F(v) for law in laws
                   for v in (law.values if isinstance(law, DiscreteFinite) else (law.value,))})
    for r in range(1, n + 1):
        os_law = OrderStatLaw(tuple(laws), r)
        cdfs = [_rank_cdf_terms([atom_cdf(law, v) for law in laws], r, one=F(1))
                for v in grid]
        want = sum(v * (g - prev) for v, g, prev in zip(grid, cdfs, [0] + cdfs[:-1]))
        got = law_grid(laws).expected(r)
        assert isinstance(got, F) and got == want
        assert expected_order_stat(os_law) == want


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_general_rank_formula_matches_specialized_exactly(n):
    rng = random.Random(100 + n)
    laws = _random_atom_laws(rng, n)
    grid = sorted({v for law in laws for v in law.values})
    for y in grid:
        G = [atom_cdf(law, y) for law in laws]
        prod = math.prod(G)
        two = prod + sum((1 - G[i]) * math.prod(G[k] for k in range(n) if k != i)
                         for i in range(n))
        assert _rank_cdf_terms(G, 1, one=F(1)) == prod
        assert _rank_cdf_terms(G, 2, one=F(1)) == two
        # literal permanent formula for every rank
        for r in range(1, n + 1):
            total = F(0)
            for m_cols in range(n + 1 - r, n + 1):
                cols = [G] * m_cols + [[1 - g for g in G]] * (n - m_cols)
                matrix = [[col[i] for col in cols] for i in range(n)]
                total += F(1, math.factorial(m_cols) * math.factorial(n - m_cols)) \
                    * permanent(matrix)
            assert _rank_cdf_terms(G, r, one=F(1)) == total
            # the same formula on the float columns OrderStatLaw.cdf evaluates
            assert abs(OrderStatLaw(tuple(laws), r).cdf(float(y)) - total) <= 1e-15
        assert OrderStatLaw(tuple(laws), 1).cdf(float(y)) == \
            np.prod([cdf(law, float(y)) for law in laws])


def test_rank_cdfs_nondecreasing_in_rank():
    rng = random.Random(77)
    laws = _random_atom_laws(rng, 4)
    ys = np.linspace(-5, 6, 23)
    curves = [OrderStatLaw(tuple(laws), r).cdf(ys) for r in range(1, 5)]
    for lo, hi in zip(curves, curves[1:]):
        assert np.all(hi - lo >= -1e-12)
    individual = [np.asarray([float(atom_cdf(law, y)) for y in ys]) for law in laws]
    for g in individual:
        assert np.all(curves[0] <= g + 1e-12)


def test_expected_order_stat_paper_values():
    u5 = UniformContinuous(0, 5)
    assert expected_order_stat(OrderStatLaw((u5, u5), 1)) == pytest.approx(10 / 3, abs=1e-9)
    trap = convolve(u5, UniformContinuous(-6, 5))
    got = expected_order_stat(OrderStatLaw((trap, u5), 1))
    assert got == pytest.approx(505 / 132, abs=1e-9)
    # the exact route: polynomial columns on one integer grid
    assert law_grid([trap, u5]).expected(1) == F(505, 132)
    assert law_grid([u5, u5]).expected(1) == F(10, 3)
    assert law_grid([u5, u5]).expected(2) == F(5, 3)


def test_piecewise_names_read_the_grid():
    # the names the analytic-search benchmark's oracle calls
    u5 = UniformContinuous(0, 5)
    trap = convolve(u5, UniformContinuous(-6, 5))
    assert expected_value(order_stat_rational([trap, u5], 1)) == F(505, 132)
    with pytest.raises(ValueError, match="rank 1"):
        order_stat_rational([u5, u5], 2)


@pytest.mark.parametrize("law", [
    DiscreteFinite([F(-3, 2), 0, F(1, 3), 2, 5], [F(1, 10), F(1, 5), F(1, 4), F(3, 20), F(3, 10)]),
    DiscreteFinite([0, 1], [F(1, 2), F(1, 2)]),
    PointMass(F(1, 3)),
], ids=["five-atoms", "coin", "point-mass"])
def test_rational_cdf_equals_the_atom_oracle_around_every_knot(law):
    knots = list(sum_pieces(law)[0])
    probes = [knots[0] - 1, *knots, *((a + b) / 2 for a, b in zip(knots, knots[1:])),
              knots[-1] + 1]
    for y in probes:
        assert piece_cdf(law, y) == atom_cdf(law, y)


def test_rational_cdf_of_a_trapezoid_at_and_between_its_knots():
    a, b, c, d = F(-6), F(-1), F(5), F(10)
    trap = convolve(UniformContinuous(0, 5), UniformContinuous(-6, 5))
    assert sum_pieces(trap)[0] == (a, b, c, d)
    h = 2 / ((d + c) - (a + b))

    def closed_form(x):
        if x < a:
            return 0
        if x < b:
            return h * (x - a) ** 2 / (2 * (b - a))
        if x < c:
            return h * (b - a) / 2 + h * (x - b)
        if x < d:
            return 1 - h * (d - x) ** 2 / (2 * (d - c))
        return 1

    for x in [a - 1, a, (a + b) / 2, b, (b + c) / 2, c, (c + d) / 2, d, d + 1]:
        assert piece_cdf(trap, x) == closed_form(x)


def test_expected_max_of_two_iid_uniforms_closed_form():
    # E[max of two iid U(a,b)] = a + 2(b-a)/3
    for a, b in [(-6, 5), (0, 1), (0, 5)]:
        u = UniformContinuous(a, b)
        want = F(a) + F(2 * (b - a), 3)
        assert law_grid([u, u]).expected(1) == want
        assert expected_order_stat(OrderStatLaw((u, u), 1)) == pytest.approx(
            float(want), abs=1e-9)
    u01 = UniformContinuous(0, 1)
    assert law_grid([u01, u01]).expected(1) == F(2, 3)
    # the rank-2 CDF of two U(0, 1) on Fraction columns, 2y - y^2, is a
    # quadratic, which Simpson's rule integrates exactly
    H = [_rank_cdf_terms([y, y], 2, one=F(1)) for y in (F(0), F(1, 2), F(1))]
    assert H == [0, F(3, 4), 1]
    assert 1 - (H[0] + 4 * H[1] + H[2]) / 6 == F(1, 3)
    assert law_grid([u01, u01]).expected(2) == F(1, 3)


def test_expected_order_stat_point_mass_every_rank():
    pm = PointMass(F(7, 3))
    for r in (1, 2, 3):
        assert expected_order_stat(OrderStatLaw((pm, pm, pm), r)) == F(7, 3)


def _uniform_sum_cdf(sp, x, parts):
    """CDF of a sum of independent uniforms on ``parts`` (pairs of bounds)
    by symbolic convolution of their densities, then integration."""
    t = sp.Symbol("t", real=True)
    density = [sp.Piecewise((1 / (hi - lo), (x >= lo) & (x <= hi)), (0, True))
               for lo, hi in (map(sp.Rational, part) for part in parts)]
    f = density[0]
    for g in density[1:]:
        f = sp.integrate(f.subs(x, t) * g.subs(x, x - t), (t, -sp.oo, sp.oo))
    return sp.integrate(f.subs(x, t), (t, -sp.oo, x))


def _sympy_expected(sp, x, laws, rank):
    """E[rank-th highest] of sums of uniforms, rank 1 or 2: the top of the
    support minus the integral of the rank's CDF, on each interval between
    the laws' knots the polynomial through the sympy CDFs' exact values at
    degree + 1 points inside it."""
    cdfs = [_uniform_sum_cdf(sp, x, parts) for parts in laws]
    knots = sorted({sum(pick) for parts in laws
                    for pick in itertools.product(*parts)})
    total = 0
    for a, b in zip(knots, knots[1:]):
        polys = []
        for G, parts in zip(cdfs, laws):
            xs = [a + (b - a) * F(k + 1, len(parts) + 2) for k in range(len(parts) + 1)]
            polys.append(sp.interpolate([(sp.Rational(v), G.subs(x, sp.Rational(v))) for v in xs], x))
        H = sp.Mul(*polys)
        if rank == 2:
            H += sum((1 - polys[i]) * sp.Mul(*polys[:i], *polys[i + 1:]) for i in range(len(polys)))
        total += sp.integrate(sp.expand(H), (x, sp.Rational(a), sp.Rational(b)))
    return sp.Rational(knots[-1]) - total


def test_grid_equals_symbolic_convolution_of_uniform_densities():
    sp = pytest.importorskip("sympy")
    x = sp.Symbol("x", real=True)

    def grid(laws):
        return law_grid([convolve(*(UniformContinuous(*part) for part in parts))
                         if len(parts) > 1 else UniformContinuous(*parts[0]) for parts in laws])

    def exact(value):
        return F(int(value.p), int(value.q))

    trap, u5 = [(0, 5), (-6, 5)], [(0, 5)]
    assert exact(_sympy_expected(sp, x, [trap, u5], 1)) == grid([trap, u5]).expected(1) == F(505, 132)
    assert exact(_sympy_expected(sp, x, [u5, u5], 1)) == grid([u5, u5]).expected(1) == F(10, 3)
    rng = random.Random(11)
    for n in (2, 3):
        laws = []
        for _ in range(n):
            parts = []
            for _ in range(rng.randint(1, 2)):
                lo = F(rng.randint(-4, 2), 2)
                parts.append((lo, lo + F(rng.randint(2, 6), 2)))
            laws.append(parts)
        for rank in (1, 2):
            assert exact(_sympy_expected(sp, x, laws, rank)) == grid(laws).expected(rank)


def _atoms_and_uniforms(rng):
    """One to three atoms at thirds in -3..3, plus zero to three uniforms
    with bounds in tenths."""
    k = rng.randint(1, 3)
    values = sorted(rng.sample(range(-9, 10), k))
    if k == 1:
        law = PointMass(F(values[0], 3))
    else:
        weights = [rng.randint(1, 5) for _ in values]
        law = DiscreteFinite([F(v, 3) for v in values], [F(w, sum(weights)) for w in weights])
    for _ in range(rng.randint(0, 3)):
        lo = rng.randint(-30, 30)
        law = convolve(law, UniformContinuous(F(lo, 10), F(lo + rng.randint(1, 30), 10)))
    return law


@pytest.mark.parametrize("seed", range(6))
def test_grid_every_rank_matches_quadrature_on_atoms_and_uniforms(seed):
    # ten seeded mixes of two to four laws per seed; the grid's Fractions
    # against the numeric route's floats, every rank
    rng = random.Random(2024 + seed)
    for _ in range(10):
        laws = tuple(_atoms_and_uniforms(rng) for _ in range(rng.randint(2, 4)))
        grid = law_grid(laws)
        for r in range(1, len(laws) + 1):
            got = grid.expected(r)
            assert isinstance(got, F)
            assert abs(float(got) - expected_order_stat(OrderStatLaw(laws, r))) <= 1e-9


def test_clark_iid_reduction():
    for mu, sigma in [(0.0, 1.0), (0.7, 1.3), (-2.0, 0.4)]:
        want = mu + sigma / math.sqrt(math.pi)
        assert clark_normal_max(mu, sigma ** 2, mu, sigma ** 2) == pytest.approx(want, abs=1e-12)


def test_clark_two_term_display():
    Phi = lambda z: 0.5 * (1 + math.erf(z / math.sqrt(2)))
    phi = lambda z: math.exp(-z * z / 2) / math.sqrt(2 * math.pi)
    for mu1, s1, mu2, s2 in [(1.0, 1.0, 0.5, 0.75), (0.0, 2.0, -1.0, 0.5)]:
        got = clark_normal_max(mu1 + mu2, s1 ** 2 + s2 ** 2, mu1, s1 ** 2)
        t = math.sqrt(2 * s1 ** 2 + s2 ** 2)
        want = mu1 + mu2 * Phi(mu2 / t) + t * phi(mu2 / t)
        assert got == pytest.approx(want, abs=1e-12)


def test_clark_zero_mean_difference_nonnegative():
    for s1 in (0.5, 1.0, 2.0):
        for s2 in (0.0, 0.5, 1.0, 2.0):
            diff = (clark_normal_max(0.0, s1 ** 2 + s2 ** 2, 0.0, s1 ** 2)
                    - clark_normal_max(0.0, s1 ** 2, 0.0, s1 ** 2))
            if s2 == 0.0:
                assert diff == pytest.approx(0.0, abs=1e-12)
            else:
                assert diff > 0
    assert clark_normal_max(1.0, 0.0, 2.0, 0.0) == 2.0


def test_clark_monotone_in_mean_and_variance():
    base = clark_normal_max(0.2, 1.0, 0.0, 1.0)
    assert clark_normal_max(0.4, 1.0, 0.0, 1.0) > base
    assert clark_normal_max(0.0, 1.0, 0.0, 2.0) > clark_normal_max(0.0, 1.0, 0.0, 1.0)


def test_clark_matches_engine_monte_carlo():
    mu1, s1, mu2, s2 = 1.0, 1.0, -1.0, 2.0
    a, b = Normal(mu1, s1), Normal(mu2, s2)
    s, p = validate(2, 2, [[a, b], [a, b]], [[1, 2], [1]],
                    [{1: FullInfo(), 2: FullInfo()}, {1: FullInfo()}])
    est = estimate(s, p, EstimatorConfig(backend="mc", n_samples=400_000, seed=23))
    want = clark_normal_max(mu1 + mu2, s1 ** 2 + s2 ** 2, mu1, s1 ** 2)
    assert abs(est.first_order_stat - want) < 4 * est.se_first_order_stat


def test_full_info_beats_no_info_expected_max():
    rng = random.Random(21)
    for _ in range(20):
        laws = _random_atom_laws(rng, rng.randint(2, 3))
        full = expected_order_stat(OrderStatLaw(tuple(laws), 1))
        blind = expected_order_stat(OrderStatLaw(tuple(PointMass(mean(l)) for l in laws), 1))
        assert full >= blind


def _empirical_order_stats(s, policy, seed, count):
    draws = sample_draws(s, seed, count)
    n = s.n_bidders
    bids = np.zeros((count, n))
    for i in range(1, n + 1):
        for j in sorted(policy.aware(i)):
            bids[:, i - 1] += draws[:, i - 1, j - 1]
    ordered = np.sort(bids, axis=1)
    return ordered[:, -1], ordered[:, -2]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_order_cdf_matches_engine_draws(seed):
    rng = random.Random(400 + seed)
    if seed % 2 == 0:
        laws = [[UniformContinuous(rng.uniform(-2, 0), rng.uniform(1, 3))
                 for _ in range(2)] for _ in range(2)]
        atoms = False
    else:
        laws = [[law] for law in _random_atom_laws(rng, 3)]
        atoms = True
    m = len(laws[0])
    s, p = _full_policy(laws, m)
    vlaws = [valuation_law(s, p, i, Perspective(s.full_set))
             for i in range(1, s.n_bidders + 1)]
    count = 100_000
    first, second = _empirical_order_stats(s, p, seed=900 + seed, count=count)
    bound = KS_COEFF_001 / math.sqrt(count)
    for r, samples in ((1, first), (2, second)):
        law = OrderStatLaw(tuple(vlaws), r)
        assert ks_statistic(samples, law.cdf, has_atoms=atoms) < bound


def _recursive_simpson(fn, a, b, tol, max_depth=48):
    """Scalar depth-first adaptive Simpson: the reference for the array version.
    The end values are taken one ulp inside [a, b], the one-sided limits at
    a knot where the integrand jumps."""
    fa, fb = fn(np.nextafter(a, np.inf)), fn(np.nextafter(b, -np.inf))
    m = 0.5 * (a + b)
    fm = fn(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    return _recursive_simpson_step(fn, a, b, fa, fb, m, fm, whole, tol, max_depth)


def _recursive_simpson_step(fn, a, b, fa, fb, m, fm, whole, tol, depth):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = fn(lm), fn(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    err = left + right - whole
    if depth <= 0 or abs(err) <= 15.0 * tol:
        return left + right + err / 15.0
    return (_recursive_simpson_step(fn, a, m, fa, fm, lm, flm, left, tol / 2.0, depth - 1)
            + _recursive_simpson_step(fn, m, b, fm, fb, rm, frm, right, tol / 2.0,
                                      depth - 1))


def _reference_expectation(os_law):
    """E of the order statistic by scalar integrand calls and recursive Simpson."""
    los, his = zip(*(quantile_range(law) for law in os_law.laws))
    lo, hi = min(min(los), 0.0), max(max(his), 0.0)

    def integrand(y):
        g = os_law.cdf(y)
        return (1.0 - g) if y >= 0 else -g

    knots = sorted({lo, hi, 0.0, *(
        k for law in os_law.laws for k in breakpoints(law) if lo < k < hi)})
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        if b > a:
            total += _recursive_simpson(integrand, a, b, SIMPSON_TOL)
    return total


def _random_float_law(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Normal(rng.uniform(-3, 3), rng.uniform(0.1, 3))
    if kind == 1:
        lo = rng.uniform(-5, 5)
        return UniformContinuous(lo, lo + rng.uniform(0.1, 6))
    if kind == 2:
        a, w1 = rng.uniform(-5, 5), rng.uniform(0.1, 3)
        w2 = w1 + rng.uniform(0, 3)
        return convolve(UniformContinuous(a, a + w1), UniformContinuous(0.0, w2))
    return PointMass(rng.uniform(-3, 3))


def _random_float_mixes(seed, count):
    rng = random.Random(seed)
    mixes = []
    while len(mixes) < count:
        laws = [_random_float_law(rng) for _ in range(rng.randint(2, 4))]
        if not all(isinstance(law, PointMass) for law in laws):
            mixes.append(laws)
    return mixes


@pytest.mark.parametrize("seed", [0, 1])
def test_quadrature_equals_recursive_simpson_exactly(seed):
    for laws in _random_float_mixes(seed, 12):
        for r in (1, 2):
            os_law = OrderStatLaw(tuple(laws), r)
            assert expected_order_stat(os_law) == _reference_expectation(os_law)


@pytest.mark.parametrize("seed", [0, 1])
def test_batch_equals_single_runs_and_recursive_simpson(monkeypatch, seed):
    mixes = _random_float_mixes(seed, 12)
    members = [OrderStatLaw(tuple(laws), r) for laws in mixes for r in (1, 2)]
    # the same law objects again in other members, and equal copies of them
    members += [OrderStatLaw(tuple(reversed(laws)), 1) for laws in mixes[:4]]
    members += [OrderStatLaw(tuple(dataclasses.replace(law) for law in laws), 2)
                for laws in mixes[4:8]]
    members.append(OrderStatLaw((mixes[0][0], mixes[1][0], mixes[0][0]), 1))
    counts = _counting_integrand(monkeypatch)
    got = orderstats.expected_order_stats(members)
    # one Simpson level per call for the whole batch
    assert 1 <= counts[0] <= 16
    assert got == [expected_order_stat(m) for m in members]
    assert got == [_reference_expectation(m) for m in members]


def test_batch_member_failures_leave_the_others():
    # a sum law whose float pieces hold a NaN coefficient, and a uniform
    # whose rounding at 1e200 keeps it past its evaluation budget; both
    # share Normal(0, 1), and the others keep their values
    nan_law = convolve(UniformContinuous(-1.0, 2.0), UniformContinuous(0.0, 1.0))
    breakpoints(nan_law)                             # builds the float pieces
    nan_law._floats[1][0, 0] = np.nan
    failing = [OrderStatLaw((nan_law, Normal(0.0, 1.0)), 1),
               OrderStatLaw((UniformContinuous(-1e200, 1e200), Normal(0.0, 1.0)), 1)]
    good = [OrderStatLaw(tuple(laws), r) for laws in _random_float_mixes(0, 3) for r in (1, 2)]
    members = [good[0], failing[0], *good[1:4], failing[1], *good[4:]]
    got = orderstats.expected_order_stats(members)
    for member, value in zip(members, got):
        if member in failing:
            with pytest.raises(DistributionError) as alone:
                expected_order_stat(member)
            assert isinstance(value, DistributionError) and str(value) == str(alone.value)
        else:
            assert value == expected_order_stat(member)
    # the wide member's knots are -1e200, 0 and 1e200: two intervals
    assert [str(got[1]).split(" at ")[0], str(got[5])] == [
        "order-statistic CDF is not finite",
        f"quadrature needs more than {orderstats.MAX_EVALUATIONS + 5 * 2} CDF evaluations"]


def test_quadrature_evaluates_each_level_in_one_call(monkeypatch):
    counts = []
    plain = orderstats._integrand

    def counted(batch, ys, owner):
        counts[-1] += 1
        return plain(batch, ys, owner)

    monkeypatch.setattr(orderstats, "_integrand", counted)
    u5 = UniformContinuous(0, 5)
    mixes = _random_float_mixes(2, 8) + [[convolve(u5, UniformContinuous(-6, 5)), u5]]
    for laws in mixes:
        for r in (1, 2):
            counts.append(0)
            expected_order_stat(OrderStatLaw(tuple(laws), r))
            assert 1 <= counts[-1] <= 64


def _counting_integrand(monkeypatch):
    """Patch the batched quadrature integrand to count its calls, one per
    Simpson level of a batch; returns the count list."""
    counts = [0]
    plain = orderstats._integrand

    def counted(batch, ys, owner):
        counts[0] += 1
        return plain(batch, ys, owner)

    monkeypatch.setattr(orderstats, "_integrand", counted)
    return counts


def test_quadrature_work_is_bounded_on_random_mixes(monkeypatch):
    # knot intervals ending at 0 or at an atom see their one-sided limit, so
    # none of them refines to max_depth (that took max_depth + 2 = 50 calls)
    counts = _counting_integrand(monkeypatch)
    for seed in range(6):
        for laws in _random_float_mixes(seed, 12):
            for r in (1, 2):
                counts[0] = 0
                expected_order_stat(OrderStatLaw(tuple(laws), r))
                assert 1 <= counts[0] <= 16


@pytest.mark.parametrize("c", [F(1, 3), F(2, 3), F(-1, 3), 0.25], ids=str)
def test_point_mass_against_uniform_closed_form(monkeypatch, c):
    # E[max(c, U)] for U ~ U(-1, 2) and -1 <= c <= 2 is c(c+1)/3 + (4-c^2)/6.
    # A Fraction knot rounds to a float on one side of the jump; the
    # one-ulp-inside end values see the right side either way.
    counts = _counting_integrand(monkeypatch)
    got = expected_order_stat(OrderStatLaw((PointMass(c), UniformContinuous(-1, 2)), 1))
    q = F(c)
    assert got == pytest.approx(float(q * (q + 1) / 3 + (4 - q * q) / 6), abs=1e-12)
    assert 1 <= counts[0] <= 4


@pytest.mark.parametrize("mu,sigma,c", [(0.5, 1.0, 0.0), (0.3, 2.0, -1.0),
                                        (-1.0, 0.5, F(1, 3)), (1.0, 1.0, 0.5)])
def test_normal_against_point_mass_matches_clark(monkeypatch, mu, sigma, c):
    # the remaining error is Simpson's own at SIMPSON_TOL (about 1e-12 here;
    # it falls below 3e-13 at a tolerance of 1e-12), not the jump at c
    counts = _counting_integrand(monkeypatch)
    got = expected_order_stat(OrderStatLaw((Normal(mu, sigma), PointMass(c)), 1))
    assert got == pytest.approx(clark_normal_max(mu, sigma ** 2, float(c), 0.0),
                                abs=SIMPSON_TOL / 10)
    assert 1 <= counts[0] <= 16


def _fine_trapezoid(os_law, points=2_000_000):
    """E of the order statistic by a plain trapezoid on ``points`` points,
    split at 0 and at every knot, each piece's ends one ulp inside."""
    los, his = zip(*(quantile_range(law) for law in os_law.laws))
    lo, hi = min(min(los), 0.0), max(max(his), 0.0)
    knots = sorted({lo, hi, 0.0, *(float(k) for law in os_law.laws
                                   for k in breakpoints(law) if lo < k < hi)})
    total = 0.0
    for a, b in zip(knots, knots[1:]):
        xs = np.linspace(a, b, points // (len(knots) - 1))
        ys = xs.copy()
        ys[0], ys[-1] = np.nextafter(a, np.inf), np.nextafter(b, -np.inf)
        g = os_law.cdf(ys)
        total += float(np.trapezoid(1.0 - g if a >= 0 else -g, xs))
    return total


@pytest.mark.parametrize("other", [PointMass(-0.2), Normal(-0.1, 0.7)], ids=str)
def test_grid_quadrature_takes_one_sided_limits_at_knots(other):
    # a sum law with a normal part against a fine trapezoid that takes
    # one-sided limits at every knot
    law = convolve(Normal(0.3, 1.0), UniformContinuous(-1.0, 0.5))
    assert law == SumLaw(atom_lattice(PointMass(F(-7, 10))), (F(3, 2),), 1.0)
    os_law = OrderStatLaw((law, other), 1)
    assert expected_order_stat(os_law) == pytest.approx(_fine_trapezoid(os_law), abs=1e-9)


def test_exact_point_mass_shift_quadrature_runs_on_floats():
    shifted = UniformContinuous(F(1), F(6))        # U(0, 5) plus a point mass at 1
    law = OrderStatLaw((shifted, Normal(2.0, 1.0)), 1)
    assert law.cdf(np.linspace(0.0, 7.0, 5)).dtype == np.float64
    assert expected_order_stat(law) == expected_order_stat(
        OrderStatLaw((UniformContinuous(1.0, 6.0), Normal(2.0, 1.0)), 1))


def test_quadrature_rejects_nan_cdf_without_recursing(monkeypatch):
    # a sum law whose float pieces hold a NaN coefficient
    law = convolve(UniformContinuous(-1.0, 2.0), UniformContinuous(0.0, 1.0))
    breakpoints(law)                                 # builds the float pieces
    law._floats[1][0, 0] = np.nan
    with pytest.raises(DistributionError, match="not finite"):
        expected_order_stat(OrderStatLaw((law, Normal(0.0, 1.0)), 1))
    # the Simpson route stops at the first level that sees a NaN
    calls = []
    plain = orderstats.cdf

    def nan_above_one(law, y):
        calls.append(1)
        assert len(calls) < 1000, "quadrature kept evaluating a NaN integrand"
        return np.where(np.asarray(y) > 1.0, np.nan, plain(law, y))

    monkeypatch.setattr(orderstats, "cdf", nan_above_one)
    with pytest.raises(DistributionError, match="not finite"):
        expected_order_stat(OrderStatLaw((Normal(0.0, 1.0), UniformContinuous(0.0, 2.0)), 1))
    assert len(calls) == 2                           # one integrand call, two laws


def test_quadrature_evaluation_bound(monkeypatch):
    points = []
    plain = orderstats._integrand

    def guarded(batch, ys, owner):
        points.append(ys.size)
        assert len(points) < 1000 and sum(points) <= 2 * orderstats.MAX_EVALUATIONS, \
            "quadrature ran past its evaluation bound"
        return plain(batch, ys, owner)

    monkeypatch.setattr(orderstats, "_integrand", guarded)
    # finite but never within tolerance: rounding at 1e200 dominates every level
    wide = UniformContinuous(-1e200, 1e200)
    with pytest.raises(DistributionError, match="evaluations"):
        expected_order_stat(OrderStatLaw((wide, Normal(0.0, 1.0)), 1))
    assert len(points) >= 1
