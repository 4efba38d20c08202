"""Closed-form sum laws: CDFs against a 30-digit reference, the exact
pieces against the float CDF, and the knot bound."""

import itertools
import json
import random
import time
from fractions import Fraction as F

import numpy as np
import pytest

from awarebid import disclosure, distributions
from awarebid.cli import main, parse_scenario
from awarebid.distributions import (
    DiscreteFinite,
    DistributionError,
    FullInfo,
    Normal,
    PointMass,
    SumLaw,
    UniformContinuous,
    _sum_parts,
    breakpoints,
    cdf,
    convolve,
    quantile_range,
)
from awarebid.engine import EstimatorConfig
from awarebid.fees import revenue
from awarebid.orderstats import expected_order_stat, valuation_law
from awarebid.scenario import Perspective, validate
from conftest import SCENARIO_DIR, checked_policy, piece_cdf, sum_pieces


def _random_sum(rng, uniforms, normal):
    """An atom law (one to three rational atoms, at least two under fewer
    than two uniforms, so that the sum is no base law) plus ``uniforms``
    uniforms with decimal bounds, plus a normal when ``normal``; seven or
    more uniforms sit on one atom to keep the reference's term count
    small."""
    law = PointMass(F(rng.randint(-20, 20), 7))
    atoms = 1 if uniforms >= 7 else rng.randint(1 if uniforms >= 2 else 2, 3)
    if atoms > 1:
        values = sorted(rng.sample(range(-30, 30), atoms))
        weights = [rng.randint(1, 5) for _ in values]
        law = DiscreteFinite([F(v, 3) for v in values], [F(w, sum(weights)) for w in weights])
    for _ in range(uniforms):
        lo = round(rng.uniform(-3, 3), 2)
        law = convolve(law, UniformContinuous(lo, lo + round(rng.uniform(0.2, 3), 2)))
    if normal:
        law = convolve(law, Normal(round(rng.uniform(-2, 2), 2), round(rng.uniform(0.05, 2), 2)))
    return law


def _sample():
    """36 seeded sums: 0 to 8 uniforms, each count with and without a normal
    part (a normal always when there is no uniform)."""
    rng = random.Random(7)
    laws = []
    for i in range(36):
        uniforms = i % 9
        laws.append(_random_sum(rng, uniforms, normal=uniforms == 0 or i // 9 % 2 == 1))
    return laws


def _probes(law, count):
    lo, hi = quantile_range(law)
    return np.linspace(lo - 0.5, hi + 0.5, count)


def _reference_cdf(mp, law, x):
    """The sum law's CDF at x in mpmath: sum over atoms d and width subsets S
    of (-1)^|S| p_d E[(x - d - sum_S w + sigma Z)_+^k] / (k! prod w), the
    normal moments int_a^inf z^j phi(z) dz by their recursion."""
    form, widths, sigma = _sum_parts(law)
    atoms = [(mp.mpf(n) / form.value_den, mp.mpf(m) / form.prob_den)
             for n, m in zip(form.nums, form.masses)]
    ws = [mp.mpf(w.numerator) / w.denominator for w in widths]
    k = len(ws)
    s = mp.mpf(sigma)
    total = mp.mpf(0)
    for subset in itertools.product((0, 1), repeat=k):
        shift = mp.fsum(w for w, bit in zip(ws, subset) if bit)
        sign = -1 if sum(subset) % 2 else 1
        for d, p in atoms:
            y = mp.mpf(x) - d - shift
            if not sigma:
                total += sign * p * (y ** k if y >= 0 else 0)
                continue
            a = -y / s
            moments = [1 - mp.ncdf(a), mp.npdf(a)]
            for j in range(2, k + 1):
                moments.append(a ** (j - 1) * mp.npdf(a) + (j - 1) * moments[j - 2])
            total += sign * p * mp.fsum(mp.binomial(k, j) * y ** (k - j) * s ** j * moments[j]
                                        for j in range(k + 1))
    return total / (mp.factorial(k) * mp.fprod(ws))


def test_sum_law_cdfs_match_mpmath_at_30_digits():
    mp = pytest.importorskip("mpmath")
    laws = _sample()
    assert all(isinstance(law, SumLaw) for law in laws)
    assert {(len(law.widths), bool(law.sigma)) for law in laws} >= {
        (k, normal) for k in range(1, 9) for normal in (False, True)}
    with mp.workdps(30):
        for law in laws:
            xs = _probes(law, 9 if len(law.widths) < 7 else 5)
            for x, g in zip(xs, cdf(law, xs)):
                assert abs(g - float(_reference_cdf(mp, law, x))) <= 1e-12, (law, x)


def test_rational_cdf_of_each_sum_equals_its_float_cdf():
    laws = [law for law in _sample() if not law.sigma]
    assert len(laws) >= 15
    for law in laws:
        knots = [float(k) for k in sum_pieces(law)[0]]
        xs = np.concatenate([_probes(law, 25), knots, np.nextafter(knots, -np.inf)])
        for x, g in zip(xs, cdf(law, xs)):
            assert abs(float(piece_cdf(law, F(x))) - g) <= 1e-14, (law, x)


def test_smoothed_cdf_is_the_same_float_alone_and_in_any_batch():
    # each block of points sums its pieces in order; numpy's sum once added
    # a one-point block pairwise, so about half of these points read an ulp
    # apart alone (a scalar or a one-point call) and in one call
    law = DiscreteFinite([F(k, 7) for k in range(40)], [F(1, 40)] * 40)
    law = convolve(convolve(law, UniformContinuous(0, 0.33)), Normal(0, 0.4))
    xs = _probes(law, 2001)
    batch = cdf(law, xs)
    assert [float(cdf(law, float(x))) for x in xs] == batch.tolist()
    assert [cdf(law, xs[k:k + 1])[0] for k in range(len(xs))] == batch.tolist()
    # a call whose last block holds one point
    step = distributions._SMOOTH_BLOCK // len(distributions._float_pieces(law)[0])
    assert step + 1 < len(xs)
    assert cdf(law, xs[:step + 1]).tolist() == batch[:step + 1].tolist()


def test_sum_law_knots_are_bounded_on_both_sides():
    # atoms at the even integers plus U(0, 1): two knots per atom, none shared
    cap = distributions._FOLD_CAP
    unit = UniformContinuous(0, 1)
    atoms = cap // 2
    at_cap = convolve(DiscreteFinite(range(0, 2 * atoms, 2), [F(1, atoms)] * atoms), unit)
    assert len(breakpoints(at_cap)) == cap
    past = convolve(DiscreteFinite(range(0, 2 * atoms + 2, 2), [F(1, atoms + 1)] * (atoms + 1)),
                    unit)
    with pytest.raises(DistributionError, match=f"more than {cap} knots"):
        breakpoints(past)


def test_valuation_law_past_the_knot_bound_names_the_column(monkeypatch):
    monkeypatch.setattr(distributions, "_FOLD_CAP", 6)
    coin = DiscreteFinite([0, 2], [F(1, 2), F(1, 2)])
    u1, u2 = UniformContinuous(0, 5), UniformContinuous(-6, 5)
    s, p = validate(1, 3, [[u1, coin, u2]], [[1, 2, 3]], [{j: FullInfo() for j in (1, 2, 3)}])
    s2, p2 = validate(1, 2, [[u1, coin]], [[1, 2]], [{1: FullInfo(), 2: FullInfo()}])
    assert len(breakpoints(valuation_law(s2, p2, 1, Perspective(s2.full_set)))) == 4
    with pytest.raises(DistributionError) as err:
        valuation_law(s, p, 1, Perspective(s.full_set))
    assert str(err.value) == ("bidder 1's bid over characteristics [1, 2, 3]: "
                              "a sum law has more than 6 knots")


def test_search_scores_a_sum_past_the_knot_bound_by_monte_carlo(monkeypatch):
    # prop4_demo: common awareness of {1, 3} or {1, 2} gives 4 knots, of
    # {1, 2, 3} 8; with the bound at 6 only the last is scored by Monte Carlo
    monkeypatch.setattr(distributions, "_FOLD_CAP", 6)
    s, _p, _cfg = parse_scenario(str(SCENARIO_DIR / "prop4_demo.json"))
    config = EstimatorConfig(backend="mc", n_samples=20_000, seed=3)
    values = dict(disclosure.optimize(s, "public-full-info", config).trace)
    info = {j: FullInfo() for j in (1, 2, 3)}
    for chars in ([1, 3], [1, 2]):
        assert values[f"common={chars}"] == pytest.approx(
            float(expected_order_stat(disclosure._common_awareness_max(
                s, checked_policy(s, [chars] * 2, info)))), abs=1e-15)
    policy = checked_policy(s, [{1, 2, 3}] * 2, info)
    assert values["common=[1, 2, 3]"] == revenue(s, policy, config).total_revenue
    monkeypatch.setattr(distributions, "_FOLD_CAP", 8)
    assert dict(disclosure.optimize(s, "public-full-info", config).trace)[
        "common=[1, 2, 3]"] == expected_order_stat(disclosure._common_awareness_max(s, policy))


def test_orderstats_past_the_knot_bound_exits_one_promptly(capsysbinary, tmp_path):
    # 200 x 200 atoms with distinct sums, plus U(0, 1/2): 80,000 knots
    def atoms(step):
        return {"kind": "discrete",
                "atoms": [[k * step, "1/200"] for k in range(200)]}

    uniform = {"kind": "uniform", "lo": 0, "hi": 0.5}
    doc = {"bidders": 2,
           "characteristics": [{"distributions": [law, law]}
                               for law in (atoms(1), atoms(200), uniform)],
           "awareness": [[1, 2, 3], [1, 2, 3]],
           "info": [{"1": "full", "2": "full", "3": "full"}] * 2}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    start = time.perf_counter()
    status = main(["orderstats", "--scenario", str(path)])
    elapsed = time.perf_counter() - start
    captured = capsysbinary.readouterr()
    assert status == 1 and captured.out == b""
    assert captured.err == (b"error: bidder 1's bid over characteristics [1, 2, 3]: "
                            b"a sum law has more than 65536 knots\n")
    assert elapsed < 1.0
