import math
from fractions import Fraction as F

import numpy as np
from numpy.random import Generator, Philox
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awarebid.distributions import (
    DiscreteFinite,
    DistributionError,
    FullInfo,
    GridLaw,
    NoInfo,
    Normal,
    Partition,
    PointMass,
    SignalCell,
    TrapezoidLaw,
    UniformContinuous,
    atom_index,
    bin_index,
    canonical_info,
    cdf,
    cell_probability,
    cells,
    conditional_mean,
    convolve,
    mean,
    pdf,
    ppf,
    support,
)
from awarebid.engine import _uniform_chunk, sample_draws
from awarebid.scenario import validate
from conftest import KS_COEFF_001 as KS_BOUND_001
from conftest import ks_statistic


def test_mean_examples():
    assert mean(UniformContinuous(-6, 5)) == -0.5
    assert mean(Normal(3.7, 0.2)) == 3.7
    m = mean(DiscreteFinite([0, 2], [F(1, 2), F(1, 2)]))
    assert m == 1 and isinstance(m, F)


def test_constructor_invariants():
    with pytest.raises(DistributionError):
        UniformContinuous(5, 5)
    with pytest.raises(DistributionError):
        Normal(0, 0)
    with pytest.raises(DistributionError):
        DiscreteFinite([0], [F(1)])            # a.s.-constant not representable
    with pytest.raises(DistributionError):
        DiscreteFinite([0, 1], [F(1, 2), F(2, 5)])
    with pytest.raises(DistributionError):
        DiscreteFinite([1, 0], [F(1, 2), F(1, 2)])
    with pytest.raises(DistributionError):
        DiscreteFinite([0, 1], [F(3, 2), F(-1, 2)])


@pytest.mark.parametrize("build", [
    lambda x: UniformContinuous(0.0, x),
    lambda x: UniformContinuous(-x, 1.0),
    lambda x: Normal(x, 1.0),
    lambda x: Normal(0.0, x),
    lambda x: DiscreteFinite([0.0, x], [F(1, 2), F(1, 2)]),
])
@pytest.mark.parametrize("x", [math.inf, math.nan])
def test_constructors_reject_non_finite_parameters(build, x):
    with pytest.raises(DistributionError, match="finite"):
        build(x)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_grid_law_rejects_non_finite_mass(x):
    density = np.ones(16)
    density[5] = x
    with pytest.raises(DistributionError, match="finite"):
        GridLaw(np.linspace(0.0, 1.0, 16), density)


def test_grid_law_rejects_zero_mass():
    with pytest.raises(DistributionError, match="positive"):
        GridLaw(np.linspace(0.0, 1.0, 16), np.zeros(16))


def test_cdf_examples():
    assert cdf(UniformContinuous(0, 5), 2.5) == 0.5
    assert cdf(DiscreteFinite([0, 1], [F(1, 2), F(1, 2)]), 0) == 0.5
    assert cdf(Normal(0, 1), 0.0) == pytest.approx(0.5, abs=1e-15)


@pytest.mark.parametrize("law", [
    UniformContinuous(-2, 3),
    Normal(1.0, 2.0),
    DiscreteFinite([F(-1, 2), 1, F(7, 3)], [F(1, 4), F(1, 4), F(1, 2)]),
])
def test_cdf_monotone_with_limits(law):
    xs = np.linspace(-25, 25, 401)
    vals = cdf(law, xs)
    assert np.all(np.diff(vals) >= 0)
    assert vals[0] == 0.0 or isinstance(law, Normal)
    assert vals[-1] == 1.0 or isinstance(law, Normal)
    lo, hi = support(law)
    if not math.isinf(lo):
        assert cdf(law, lo - 1e-9) == 0.0
        assert cdf(law, hi) == 1.0


def test_inverse_cdf_examples():
    assert ppf(UniformContinuous(0, 5), 0.2) == pytest.approx(1.0)
    assert ppf(DiscreteFinite([0, 1], [F(1, 2), F(1, 2)]), 0.75) == 1.0
    assert ppf(DiscreteFinite([0, 1], [F(1, 2), F(1, 2)]), 0.5) == 0.0
    assert ppf(Normal(0, 1), 0.5) == pytest.approx(0.0, abs=1e-12)


def _uneven_law(k):
    """k atoms with non-dyadic, unequal probabilities."""
    weights = [3 * a + 1 for a in range(k)]
    return DiscreteFinite(range(k), [F(w, sum(weights)) for w in weights])


# bin_index counts in uint8 up to 255 edges and in uint16 from 256
EDGE_COUNTS = [2, 3, 16, 255, 256]


@pytest.mark.parametrize("k", EDGE_COUNTS)
def test_atom_index_equals_searchsorted_on_every_boundary(k):
    law = _uneven_law(k)
    cum = np.cumsum([float(p) for p in law.probs])
    cum[-1] = 1.0
    u = np.concatenate([cum[:-1], np.nextafter(cum[:-1], 0.0), np.nextafter(cum[:-1], 1.0),
                        [0.0, 1.0 - 2.0 ** -53, 5e-324]])
    want = np.searchsorted(cum, u, side="left")
    got = atom_index(law, u)
    assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(atom_index(law, np.repeat(u, 2)[::2]), want)      # strided
    for x in u:
        assert atom_index(law, float(x)) == np.searchsorted(cum, x, side="left")
    assert atom_index(law, np.asarray(u[0])) == want[0]


@pytest.mark.parametrize("k", [0, 1] + EDGE_COUNTS)
@pytest.mark.parametrize("side", ["left", "right"])
def test_bin_index_equals_searchsorted_on_edges(k, side):
    edges = np.sort(np.random.default_rng(k).normal(size=k)).round(3)
    x = np.concatenate([edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                        [-np.inf, np.inf, np.nan, 0.0, -0.0]])
    want = np.searchsorted(edges, x, side=side)
    got = bin_index(edges, x, side=side)
    assert got.dtype == want.dtype and np.array_equal(got, want)


def test_cutpoint_rule_equals_searchsorted_on_the_cuts():
    # a value exactly on a cutpoint belongs to the cell above it
    from awarebid.engine import _contribution_rule
    for law in (Normal(0.5, 1.5), UniformContinuous(-2, 3)):
        for k in [1] + EDGE_COUNTS:
            cuts = list(np.linspace(-1.9, 2.9, k))
            level = Partition(cutpoints=cuts)
            f = _contribution_rule(law, level)
            means = np.array([float(conditional_mean(law, level, c)) for c in cells(law, level)])
            x = np.concatenate([cuts, np.nextafter(cuts, -np.inf), [-1.95, 2.95]])
            # a function of the realized values, not a NoInfo constant
            assert callable(f)
            assert np.array_equal(f(x), means[np.searchsorted(cuts, x, side="right")])


@pytest.mark.parametrize("law", [Normal(0.3, 1.7), Normal(1, 2), Normal(F(1, 3), F(7, 5)),
                                 UniformContinuous(-2, 1.1), UniformContinuous(0, 5),
                                 _uneven_law(3)])
def test_ppf_scalar_zero_d_and_strided_inputs(law):
    # the closed-form inverse CDFs, bit for bit and with their input's type:
    # a Python float for a Python scalar, a numpy scalar for a 0-d array; a
    # Fraction parameter enters the closed form as its float
    from scipy.special import ndtri
    U = np.random.default_rng(3).random((40, 3))

    def reference(u):
        u = np.asarray(u, dtype=np.float64)
        if isinstance(law, Normal):
            return law.mean + law.stddev * ndtri(np.clip(u, 1e-300, 1.0 - 1e-16))
        if isinstance(law, UniformContinuous):
            return law.lo + u * (law.hi - law.lo)
        cum = np.cumsum([float(p) for p in law.probs])
        cum[-1] = 1.0
        return np.array([float(v) for v in law.values])[np.searchsorted(cum, u)]

    for u in (0.3, 0.0, 1.0 - 2.0 ** -53):
        got = ppf(law, u)
        assert type(got) is float and got == float(reference(u))
    for u in (np.asarray(0.7), np.asarray(0.0)):
        got, want = ppf(law, u), reference(u)
        assert type(got) is type(want) is np.float64 and got == want
    strided = U[::3, 1]
    got = ppf(law, strided)
    assert isinstance(got, np.ndarray) and got.shape == strided.shape
    assert np.array_equal(got, reference(strided))
    assert np.array_equal(ppf(law, [0.1, 0.5]), reference([0.1, 0.5]))


def test_stream_determinism():
    # Monte Carlo uniforms are keyed by (seed, draw, entry), not by call pattern
    a = _uniform_chunk(123, 0, 1000, 1, 1)
    assert np.array_equal(a, _uniform_chunk(123, 0, 1000, 1, 1))
    assert np.array_equal(a[8:12], _uniform_chunk(123, 8, 12, 1, 1))
    assert not np.array_equal(a, _uniform_chunk(124, 0, 1000, 1, 1))


def test_sample_uses_inverse_cdf():
    laws = [UniformContinuous(0, 5), Normal(1.0, 2.0),
            DiscreteFinite([0, 1, 3], [F(1, 2), F(1, 4), F(1, 4)])]
    s, _p = validate(1, 3, [laws], [[1, 2, 3]], [{j: FullInfo() for j in (1, 2, 3)}])
    u = _uniform_chunk(9, 0, 10, 1, 3)
    for j, d in enumerate(laws):
        assert np.array_equal(sample_draws(s, 9, 10)[:, 0, j], ppf(d, u[:, 0, j]))


# --- convolution -----------------------------------------------------------

def test_convolve_uniforms_gives_trapezoid_density():
    trap = convolve(UniformContinuous(0, 5), UniformContinuous(-6, 5))
    assert isinstance(trap, TrapezoidLaw)
    assert (trap.a, trap.b, trap.c, trap.d) == (-6, -1, 5, 10)
    for y in (-5.5, -3.0, -1.0):
        assert pdf(trap, y) == pytest.approx((6 + y) / 55, abs=1e-12)
    for y in (-0.5, 2.0, 5.0):
        assert pdf(trap, y) == pytest.approx(1 / 11, abs=1e-12)
    for y in (6.0, 8.5, 9.9):
        assert pdf(trap, y) == pytest.approx((10 - y) / 55, abs=1e-12)
    assert cdf(trap, -6) == 0.0 and cdf(trap, 10) == 1.0
    assert mean(trap) == pytest.approx(2.0, abs=1e-12)


def test_convolve_normals_closed_form():
    out = convolve(Normal(1.0, 2.0), Normal(-0.5, 1.5))
    assert isinstance(out, Normal)
    assert out.mean == 0.5
    assert out.stddev == pytest.approx(math.hypot(2.0, 1.5))


def test_convolve_discrete_exact():
    a = DiscreteFinite([0, 1], [F(1, 2), F(1, 2)])
    b = DiscreteFinite([0, 2], [F(1, 2), F(1, 2)])
    out = convolve(a, b)
    assert out.values == (0, 1, 2, 3)
    assert out.probs == (F(1, 4),) * 4
    assert sum(out.probs) == 1


def test_convolve_point_mass_shifts():
    assert convolve(PointMass(2), UniformContinuous(0, 1)) == UniformContinuous(2, 3)
    shifted = convolve(DiscreteFinite([0, 1], [F(1, 2), F(1, 2)]), PointMass(F(1, 2)))
    assert shifted.values == (F(1, 2), F(3, 2))


def test_convolve_grid_fallback_preserves_mass_and_mean():
    out = convolve(UniformContinuous(0, 1), Normal(2.0, 0.5))
    assert isinstance(out, GridLaw)
    assert cdf(out, out.xs[0]) == pytest.approx(0.0, abs=1e-9)
    assert cdf(out, out.xs[-1]) == pytest.approx(1.0, abs=1e-9)
    # documented accuracy of the 2^14-point fallback: support edges land
    # within one grid step, so moments are good to O(span / points)
    assert mean(out) == pytest.approx(2.5, abs=5e-4)
    mixed = convolve(DiscreteFinite([0, 3], [F(1, 2), F(1, 2)]), UniformContinuous(0, 1))
    assert mean(mixed) == pytest.approx(2.0, abs=1e-9)
    assert cdf(mixed, 1.0) == pytest.approx(0.5, abs=5e-4)


def test_convolve_rejects_invalid_input():
    with pytest.raises(DistributionError):
        convolve("not a law", Normal(0, 1))


# --- information levels ----------------------------------------------------

def test_conditional_mean_examples():
    u = UniformContinuous(0, 5)
    level = Partition(cutpoints=[2])
    cell = cells(u, level)[0]               # [0, 2)
    assert conditional_mean(u, level, cell) == 1.0
    assert conditional_mean(u, NoInfo(), cells(u, NoInfo())[0]) == mean(u)
    d = DiscreteFinite([0, 1, 3], [F(1, 2), F(1, 4), F(1, 4)])
    lv = Partition(cells=[[0], [1, 2]])
    got = conditional_mean(d, lv, cells(d, lv)[1])    # the cell holding 3
    assert got == 2 and isinstance(got, F)


def test_conditional_mean_full_info_is_realization():
    # on a discrete law full information is the all-singletons partition,
    # so each cell's mean is its atom; a continuous law has no cells
    d = DiscreteFinite([0, F(13, 4), 5], [F(1, 3)] * 3)
    assert conditional_mean(d, FullInfo(), cells(d, FullInfo())[1]) == 3.25
    u = UniformContinuous(0, 5)
    with pytest.raises(DistributionError):
        cells(u, FullInfo())
    with pytest.raises(DistributionError):
        conditional_mean(u, FullInfo(), SignalCell(u, FullInfo(), 0))


def test_truncated_normal_cell_mean():
    nrm = Normal(0, 1)
    level = Partition(cutpoints=[0.0])
    hi = conditional_mean(nrm, level, cells(nrm, level)[1])     # [0, inf)
    # mean of a standard normal above 0 is sqrt(2/pi)
    assert hi == pytest.approx(math.sqrt(2 / math.pi), abs=1e-12)


def test_canonicalization_rules():
    u = UniformContinuous(0, 1)
    assert canonical_info(u, Partition(cutpoints=[])) == NoInfo()
    d = DiscreteFinite([0, 1], [F(1, 2), F(1, 2)])
    assert canonical_info(d, Partition(cells=[[0, 1]])) == NoInfo()
    assert canonical_info(d, FullInfo()) == Partition(cells=[(0,), (1,)])
    assert canonical_info(u, FullInfo()) == FullInfo()


def test_partition_validation():
    d = DiscreteFinite([0, 1, 2], [F(1, 3), F(1, 3), F(1, 3)])
    with pytest.raises(DistributionError):
        canonical_info(d, Partition(cells=[[0], [1]]))       # not exhaustive
    with pytest.raises(DistributionError):
        canonical_info(d, Partition(cells=[[0, 1], [1, 2]])) # overlap
    with pytest.raises(DistributionError):
        canonical_info(UniformContinuous(0, 1), Partition(cutpoints=[2.0]))


@given(st.integers(2, 5), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_iterated_expectations_discrete_exact(k, salt):
    rng = np.random.default_rng(salt)
    den = int(rng.choice([d for d in (4, 6, 8, 12) if d >= k]))
    cuts = sorted(rng.choice(np.arange(1, den), size=k - 1, replace=False).tolist())
    probs = [F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
    values = sorted(rng.choice(np.arange(-8, 9), size=k, replace=False).tolist())
    d = DiscreteFinite(values, probs)
    labels = rng.integers(0, min(k, 3), size=k)
    labels[0] = 0
    groups = [[i for i in range(k) if labels[i] == g] for g in range(3)]
    level = canonical_info(d, Partition(cells=[g for g in groups if g]))
    total = sum(cell_probability(d, c) * conditional_mean(d, level, c)
                for c in cells(d, level))
    assert total == mean(d)


@pytest.mark.parametrize("law,cuts", [
    (UniformContinuous(-3, 4), [-1.0, 0.5, 2.0]),
    (Normal(0.7, 1.3), [-0.5, 0.7, 2.0]),
])
def test_iterated_expectations_continuous(law, cuts):
    level = Partition(cutpoints=cuts)
    total = sum(cell_probability(law, c) * conditional_mean(law, level, c)
                for c in cells(law, level))
    assert total == pytest.approx(mean(law), abs=1e-9)


# --- sampling quality ------------------------------------------------------

@pytest.mark.parametrize("law", [
    UniformContinuous(0, 5),
    Normal(-1.0, 2.0),
    DiscreteFinite([0, 1, 3], [F(1, 2), F(1, 4), F(1, 4)]),
])
def test_monte_carlo_mean_within_four_se(law):
    u = Generator(Philox(2024)).random(1_000_000)
    xs = ppf(law, u)
    se = xs.std(ddof=1) / math.sqrt(xs.size)
    assert abs(xs.mean() - float(mean(law))) < 4 * se


@pytest.mark.parametrize("law", [
    UniformContinuous(0, 5),
    Normal(0.0, 1.0),
    DiscreteFinite([0, 1, 3], [F(1, 2), F(1, 4), F(1, 4)]),
])
def test_inverse_cdf_sampling_ks(law):
    n = 100_000
    xs = ppf(law, Generator(Philox(7)).random(n))
    d_stat = ks_statistic(xs, lambda q: cdf(law, q),
                          has_atoms=isinstance(law, DiscreteFinite))
    assert d_stat < KS_BOUND_001 / math.sqrt(n)
