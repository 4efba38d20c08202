import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

from awarebid import orderstats
from awarebid.distributions import (
    GRID_POINTS,
    DiscreteFinite,
    DistributionError,
    FullInfo,
    GridLaw,
    NoInfo,
    Normal,
    Partition,
    PointMass,
    TrapezoidLaw,
    UniformContinuous,
    breakpoints,
    cdf,
    convolve,
    mean,
    quantile_range,
)
from awarebid.engine import EstimatorConfig, estimate, sample_draws
from awarebid.orderstats import (
    SIMPSON_TOL,
    OrderStatLaw,
    _rank_cdf_terms,
    clark_normal_max,
    expected_order_stat,
    valuation_law,
)
from awarebid.piecewise import expected_value, order_stat_rational, rational_cdf
from awarebid.scenario import Perspective, validate
from conftest import KS_COEFF_001, atom_cdf, ks_statistic, permanent


def _full_policy(laws, m):
    n = len(laws)
    return validate(n, m, laws, [list(range(1, m + 1))] * n,
                    [{j: FullInfo() for j in range(1, m + 1)} for _ in range(n)])


def test_valuation_law_example1_trapezoid():
    u1, u2 = UniformContinuous(0, 5), UniformContinuous(-6, 5)
    s, p = _full_policy([[u1, u2], [u1, u2]], 2)
    law = valuation_law(s, p, 1, Perspective(s.full_set))
    assert law == TrapezoidLaw(-6, -1, 5, 10)


def test_valuation_law_no_info_point_mass():
    u1, u2 = UniformContinuous(0, 5), UniformContinuous(-6, 5)
    n = len([1, 2])
    s, p = validate(2, 2, [[u1, u2]] * n, [[1, 2]] * n,
                    [{1: NoInfo(), 2: NoInfo()}] * n)
    law = valuation_law(s, p, 1, Perspective(s.full_set))
    assert law == PointMass(2.0)


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
    rng = random.Random(31)
    laws = _random_atom_laws(rng, 3)
    assert expected_order_stat(OrderStatLaw(tuple(laws), 2)) == \
        expected_value(order_stat_rational(laws, 2))


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
def test_atom_grid_expectation_matches_cdf_exact_sweep(seed):
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
        got = orderstats._expected_exact(os_law)
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
    trap = TrapezoidLaw(-6, -1, 5, 10)
    got = expected_order_stat(OrderStatLaw((trap, u5), 1))
    assert got == pytest.approx(505 / 132, abs=1e-9)
    # independent exact route through rational piecewise polynomials
    assert expected_value(order_stat_rational([trap, u5], 1)) == F(505, 132)
    assert expected_value(order_stat_rational([u5, u5], 1)) == F(10, 3)


@pytest.mark.parametrize("law", [
    DiscreteFinite([F(-3, 2), 0, F(1, 3), 2, 5], [F(1, 10), F(1, 5), F(1, 4), F(3, 20), F(3, 10)]),
    DiscreteFinite([0, 1], [F(1, 2), F(1, 2)]),
    PointMass(F(1, 3)),
], ids=["five-atoms", "coin", "point-mass"])
def test_rational_cdf_equals_the_atom_oracle_around_every_knot(law):
    G = rational_cdf(law)
    knots = list(G.knots)
    probes = [knots[0] - 1, *knots, *((a + b) / 2 for a, b in zip(knots, knots[1:])),
              knots[-1] + 1]
    for y in probes:
        assert G(y) == atom_cdf(law, y)


def test_rational_cdf_of_a_trapezoid_at_and_between_its_knots():
    a, b, c, d = F(-6), F(-1), F(5), F(10)
    G = rational_cdf(TrapezoidLaw(-6, -1, 5, 10))
    assert G.knots == (a, b, c, d)
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
        assert G(x) == closed_form(x)


def test_expected_max_of_two_iid_uniforms_closed_form():
    # E[max of two iid U(a,b)] = a + 2(b-a)/3
    for a, b in [(-6, 5), (0, 1), (0, 5)]:
        u = UniformContinuous(a, b)
        want = F(a) + F(2 * (b - a), 3)
        assert expected_value(order_stat_rational([u, u], 1)) == want
        assert expected_order_stat(OrderStatLaw((u, u), 1)) == pytest.approx(
            float(want), abs=1e-9)
    u01 = UniformContinuous(0, 1)
    assert expected_value(order_stat_rational([u01, u01], 1)) == F(2, 3)
    assert expected_value(order_stat_rational([u01, u01], 2)) == F(1, 3)


def test_expected_order_stat_point_mass_every_rank():
    pm = PointMass(F(7, 3))
    for r in (1, 2, 3):
        assert expected_order_stat(OrderStatLaw((pm, pm, pm), r)) == F(7, 3)


def test_expected_order_stat_discrete_exact_vs_rational_oracle():
    rng = random.Random(5)
    laws = _random_atom_laws(rng, 3)
    for r in (1, 2):
        got = expected_order_stat(OrderStatLaw(tuple(laws), r))
        assert isinstance(got, F)
        if r == 1:
            assert got == expected_value(order_stat_rational(laws, 1))


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
        return TrapezoidLaw(a, a + w1, a + w2, a + w1 + w2)
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


def test_quadrature_evaluates_each_level_in_one_call(monkeypatch):
    counts = []
    plain = OrderStatLaw.cdf

    def counted(self, y):
        counts[-1] += 1
        return plain(self, y)

    monkeypatch.setattr(OrderStatLaw, "cdf", counted)
    u5 = UniformContinuous(0, 5)
    mixes = _random_float_mixes(2, 8) + [[TrapezoidLaw(-6, -1, 5, 10), u5]]
    for laws in mixes:
        for r in (1, 2):
            counts.append(0)
            expected_order_stat(OrderStatLaw(tuple(laws), r))
            assert 1 <= counts[-1] <= 64


def test_grid_quadrature_is_one_call(monkeypatch):
    calls = []
    plain = OrderStatLaw.cdf
    monkeypatch.setattr(OrderStatLaw, "cdf",
                        lambda self, y: calls.append(np.size(y)) or plain(self, y))
    grid = GridLaw(np.linspace(-1.0, 2.0, 64), np.ones(64))
    expected_order_stat(OrderStatLaw((grid, Normal(0.0, 1.0)), 1))
    assert len(calls) == 1 and calls[0] >= GRID_POINTS


def _counting_cdf(monkeypatch):
    """Patch OrderStatLaw.cdf to count its calls; returns the count list."""
    counts = [0]
    plain = OrderStatLaw.cdf

    def counted(self, y):
        counts[0] += 1
        return plain(self, y)

    monkeypatch.setattr(OrderStatLaw, "cdf", counted)
    return counts


def test_quadrature_work_is_bounded_on_random_mixes(monkeypatch):
    # knot intervals ending at 0 or at an atom see their one-sided limit, so
    # none of them refines to max_depth (that took max_depth + 2 = 50 calls)
    counts = _counting_cdf(monkeypatch)
    for seed in range(6):
        for laws in _random_float_mixes(seed, 12):
            for r in (1, 2):
                counts[0] = 0
                expected_order_stat(OrderStatLaw(tuple(laws), r))
                assert counts[0] <= 16


@pytest.mark.parametrize("c", [F(1, 3), F(2, 3), F(-1, 3), 0.25], ids=str)
def test_point_mass_against_uniform_closed_form(monkeypatch, c):
    # E[max(c, U)] for U ~ U(-1, 2) and -1 <= c <= 2 is c(c+1)/3 + (4-c^2)/6.
    # A Fraction knot rounds to a float on one side of the jump; the
    # one-ulp-inside end values see the right side either way.
    counts = _counting_cdf(monkeypatch)
    got = expected_order_stat(OrderStatLaw((PointMass(c), UniformContinuous(-1, 2)), 1))
    q = F(c)
    assert got == pytest.approx(float(q * (q + 1) / 3 + (4 - q * q) / 6), abs=1e-12)
    assert counts[0] <= 4


@pytest.mark.parametrize("mu,sigma,c", [(0.5, 1.0, 0.0), (0.3, 2.0, -1.0),
                                        (-1.0, 0.5, F(1, 3)), (1.0, 1.0, 0.5)])
def test_normal_against_point_mass_matches_clark(monkeypatch, mu, sigma, c):
    # the remaining error is Simpson's own at SIMPSON_TOL (about 1e-12 here;
    # it falls below 3e-13 at a tolerance of 1e-12), not the jump at c
    counts = _counting_cdf(monkeypatch)
    got = expected_order_stat(OrderStatLaw((Normal(mu, sigma), PointMass(c)), 1))
    assert got == pytest.approx(clark_normal_max(mu, sigma ** 2, float(c), 0.0),
                                abs=SIMPSON_TOL / 10)
    assert counts[0] <= 16


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
    grid = convolve(Normal(0.3, 1.0), UniformContinuous(-1.0, 0.5))
    assert isinstance(grid, GridLaw)
    os_law = OrderStatLaw((grid, other), 1)
    assert expected_order_stat(os_law) == pytest.approx(_fine_trapezoid(os_law), abs=1e-6)


def test_exact_point_mass_shift_quadrature_runs_on_floats():
    shifted = UniformContinuous(F(1), F(6))        # U(0, 5) plus a point mass at 1
    law = OrderStatLaw((shifted, Normal(2.0, 1.0)), 1)
    assert law.cdf(np.linspace(0.0, 7.0, 5)).dtype == np.float64
    assert expected_order_stat(law) == expected_order_stat(
        OrderStatLaw((UniformContinuous(1.0, 6.0), Normal(2.0, 1.0)), 1))


def test_quadrature_rejects_nan_cdf_without_recursing(monkeypatch):
    grid = GridLaw(np.linspace(-1.0, 2.0, 64), np.ones(64))
    grid.cdf_values[20] = np.nan                     # GridLaw itself rejects a NaN pdf
    with pytest.raises(DistributionError, match="not finite"):
        expected_order_stat(OrderStatLaw((grid, Normal(0.0, 1.0)), 1))
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
    plain = OrderStatLaw.cdf

    def guarded(self, y):
        points.append(np.size(y))
        assert len(points) < 1000 and sum(points) <= 2 * orderstats.MAX_EVALUATIONS, \
            "quadrature ran past its evaluation bound"
        return plain(self, y)

    monkeypatch.setattr(OrderStatLaw, "cdf", guarded)
    # finite but never within tolerance: rounding at 1e200 dominates every level
    wide = UniformContinuous(-1e200, 1e200)
    with pytest.raises(DistributionError, match="evaluations"):
        expected_order_stat(OrderStatLaw((wide, Normal(0.0, 1.0)), 1))
