import random
from fractions import Fraction as F
from itertools import chain, combinations

import pytest

from awarebid import engine
from awarebid.cli import parse_scenario
from awarebid.disclosure import CorpusConfig, random_discrete_scenario
from awarebid.distributions import (
    DiscreteFinite,
    FullInfo,
    NoInfo,
    Partition,
    UniformContinuous,
    mean,
)
from awarebid.engine import (
    _CHUNK,
    FIELDS,
    REVENUE_FIELDS,
    EstimationError,
    EstimatorConfig,
    estimate,
)
from awarebid.fees import CURSE_FIELDS, FEE_FIELDS, curse_gap, entry_fees, revenue
from awarebid.scenario import lattice, validate
from conftest import EXACT, SCENARIO_DIR, build_mixed_six_by_four, build_noinfo_tie, coin


def test_d1_fee_schedule(d1):
    s, p = d1
    sched = entry_fees(s, p, EXACT)
    assert sched.fees == (F(9, 8), F(1, 4))
    assert sched.fees_fullview == (F(9, 8), F(1, 8))
    assert sched.rents == (F(0), F(1, 8))


def test_d1_revenue_both_routes(d1):
    s, p = d1
    rep = revenue(s, p, EXACT)
    assert rep.total_revenue == F(7, 4)
    assert (rep.expected_first_order_stat + rep.fee_schedule.total_rents) == F(7, 4)
    assert rep.consistency_residual == 0
    assert rep.expected_first_order_stat == F(13, 8)
    assert rep.expected_second_order_stat == F(3, 8)


def test_symmetric_uniform_fees(u01):
    s, p = u01
    sched = entry_fees(s, p, EstimatorConfig(backend="mc", n_samples=300_000, seed=8))
    for fee, se in zip(sched.fees, sched.se_fees):
        assert abs(fee - 1 / 6) < 4 * se
    # equal awareness: fee and full-view fee are the same estimator, so the
    # rents are exactly zero even under Monte Carlo
    assert sched.rents == (0.0, 0.0)


def test_noinfo_tie_scenario_fees_zero():
    s, p = build_noinfo_tie()
    sched = entry_fees(s, p, EXACT)
    assert sched.fees == (0, 0)
    assert sched.rents == (0, 0)


def test_single_bidder_rejected():
    u = UniformContinuous(0, 1)
    s, p = validate(1, 1, [[u]], [[1]], [{1: FullInfo()}])
    with pytest.raises(EstimationError):
        revenue(s, p, EstimatorConfig(backend="mc", n_samples=100))


def _random_policy(s, rng):
    sets = lattice(s.m_characteristics)
    awareness, info = [], []
    for i in range(1, s.n_bidders + 1):
        aset = rng.choice(sets)
        levels = {}
        for j in sorted(aset):
            k = len(s.law(i, j).values)
            pick = rng.random()
            if pick < 0.4:
                levels[j] = FullInfo()
            elif pick < 0.7:
                levels[j] = NoInfo()
            else:
                split = rng.randint(1, k - 1)
                levels[j] = Partition(cells=[list(range(split)), list(range(split, k))])
        awareness.append(aset)
        info.append(levels)
    return validate(s.n_bidders, s.m_characteristics, s.laws, awareness, info)[1]


def test_revenue_identity_on_randomized_corpus():
    """Both revenue routes agree exactly, fees are nonnegative, fully aware
    bidders earn no rent, and the curse gap factors into hidden means times
    win probability - on 100+ random scenarios with random policies."""
    cfg = CorpusConfig(count=100, seed=1234)
    rng = random.Random(99)
    for index in range(cfg.count):
        _sid, s = random_discrete_scenario(cfg, index)
        p = _random_policy(s, rng)
        bundle = estimate(s, p, EXACT)
        rep = revenue(s, p, EXACT, bundle=bundle)
        assert rep.consistency_residual == 0
        assert rep.total_revenue == (rep.expected_first_order_stat
                                     + rep.fee_schedule.total_rents)
        for i in range(1, s.n_bidders + 1):
            fee = rep.fee_schedule.fees[i - 1]
            assert fee >= 0
            if p.aware(i) == s.full_set:
                assert rep.fee_schedule.rents[i - 1] == 0
        curse = curse_gap(s, p, EXACT, bundle=bundle)
        for i in range(1, s.n_bidders + 1):
            hidden_mu = sum((mean(s.law(i, j)) for j in s.full_set - p.aware(i)), F(0))
            assert curse.gaps[i - 1] == hidden_mu * bundle.bidders[i - 1].win_prob_actual


def test_equal_awareness_revenue_is_first_order_stat():
    cfg = CorpusConfig(count=20, seed=55)
    rng = random.Random(3)
    for index in range(cfg.count):
        _sid, s = random_discrete_scenario(cfg, index)
        aset = rng.choice(lattice(s.m_characteristics))
        pol = validate(s.n_bidders, s.m_characteristics, s.laws,
                       [aset] * s.n_bidders,
                       [{j: FullInfo() for j in sorted(aset)}] * s.n_bidders)[1]
        rep = revenue(s, pol, EXACT)
        assert rep.fee_schedule.rents == (F(0),) * s.n_bidders
        assert rep.total_revenue == rep.expected_first_order_stat


def test_curse_hidden_mean_times_win_probability():
    # both bidders unaware of a characteristic with mean -1; symmetric
    d1 = coin([0, 1])
    dh = coin([-2, 0])
    s, p = validate(2, 2, [[d1, dh], [d1, dh]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])
    rep = curse_gap(s, p, EXACT)
    assert rep.win_probs == (F(1, 2), F(1, 2))
    assert rep.gaps == (F(-1, 2), F(-1, 2))
    # conditional on winning the gap equals the hidden mean
    assert rep.gaps[0] / rep.win_probs[0] == -1


def test_curse_no_hidden_characteristics_zero(d1):
    s, _ = d1
    p_full = validate(2, 2, s.laws, [[1, 2], [1, 2]],
                      [{1: FullInfo(), 2: FullInfo()}] * 2)[1]
    rep = curse_gap(s, p_full, EXACT)
    assert rep.gaps == (F(0), F(0))
    assert rep.actual_payoffs == (F(0), F(0))


def test_curse_zero_mean_hidden_within_four_se():
    d1 = coin([0, 1])
    dh = coin([-1, 1])
    s, p = validate(2, 2, [[d1, dh], [d1, dh]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])
    rep = curse_gap(s, p, EstimatorConfig(backend="mc", n_samples=200_000, seed=77))
    for gap, se in zip(rep.gaps, rep.se_gaps):
        assert abs(gap) < 4 * se


def test_mc_residual_within_rounding(d1):
    s, p = d1
    rep = revenue(s, p, EstimatorConfig(backend="mc", n_samples=100_000, seed=6))
    # shared draws make the residual pure float rounding
    assert abs(rep.consistency_residual) < 1e-12


# --- each report estimates only the fields it reads -------------------------

READERS = [(entry_fees, FEE_FIELDS), (revenue, REVENUE_FIELDS), (curse_gap, CURSE_FIELDS)]


def _scenario(name):
    if name == "mixed":
        return build_mixed_six_by_four()
    return parse_scenario(str(SCENARIO_DIR / f"{name}.json"))[:2]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["example1", "example2", "hiding_demo", "mixed"])
def test_each_report_is_its_reading_of_the_full_bundle(name, workers):
    # every report == the same report on the bundle of every field, and a
    # bundle estimated for a set is None, value and SE, outside it alone
    s, p = _scenario(name)
    cfg = EstimatorConfig(backend="mc", n_samples=3 * _CHUNK + 5, seed=31, workers=workers)
    full = estimate(s, p, cfg)
    for report, fields in READERS:
        assert report(s, p, cfg) == report(s, p, cfg, bundle=full)
        b = estimate(s, p, cfg, fields)
        for field in FIELDS:
            owners = [b] if hasattr(b, field) else b.bidders
            for value in chain(*((getattr(o, field), getattr(o, "se_" + field))
                                 for o in owners)):
                assert (value is None) == (field not in fields), (report.__name__, field)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["example1", "hiding_demo", "prop5_demo", "mixed"])
def test_every_one_and_two_field_set_reads_the_full_bundle(name, workers):
    # each of the 36 sets of one or two fields holds the full bundle's
    # value and SE in its fields and None elsewhere, also a set that names
    # an actual field of a bidder whose own view is not the full view
    s, p = _scenario(name)
    cfg = EstimatorConfig(backend="mc", n_samples=2 * _CHUNK + 3, seed=17, workers=workers)
    full = estimate(s, p, cfg)
    sets = [set(c) for size in (1, 2) for c in combinations(sorted(FIELDS), size)]
    assert len(sets) == 36
    for fields in sets:
        b = estimate(s, p, cfg, fields)
        for field in FIELDS:
            pairs = [(b, full)] if hasattr(b, field) else list(zip(b.bidders, full.bidders))
            for got, want in pairs:
                for attr in (field, "se_" + field):
                    if field in fields:
                        assert getattr(got, attr) == getattr(want, attr), (fields, attr)
                    else:
                        assert getattr(got, attr) is None, (fields, attr)


@pytest.mark.parametrize("name, draws, counts", [
    # the benchmark's draw counts; inverse CDFs per revenue, entry_fees and
    # curse_gap call
    ("mixed", 1 << 18, (32, 32, 64)),
    ("example1", 1 << 19, (24, 24, 32)),
    ("example2", 1 << 19, (24, 24, 32)),
])
def test_only_the_curse_report_inverts_entries_read_as_hidden_values(monkeypatch, name,
                                                                     draws, counts):
    s, p = _scenario(name)
    cfg = EstimatorConfig(backend="mc", n_samples=draws, seed=7)
    hidden_only = [s.law(i, j) for i in range(1, s.n_bidders + 1)
                   for j in s.full_set - p.aware(i)]
    inverted = []
    stock = engine._invert

    def spy(law, u):
        inverted.append(law)
        return stock(law, u)

    monkeypatch.setattr(engine, "_invert", spy)
    for report, count in zip((revenue, entry_fees, curse_gap), counts):
        inverted.clear()
        report(s, p, cfg)
        assert sum(not isinstance(law, DiscreteFinite) for law in inverted) == count
        if name == "mixed":           # one law object per entry
            assert any(law is h for law in inverted for h in hidden_only) == (
                report is curse_gap)


def test_a_report_refuses_a_bundle_without_a_field_it_reads():
    s, p = build_mixed_six_by_four()
    cfg = EstimatorConfig(backend="mc", n_samples=1000, seed=3)
    b = estimate(s, p, cfg, REVENUE_FIELDS)
    with pytest.raises(EstimationError, match="lacks 'hidden_win_value'"):
        curse_gap(s, p, cfg, bundle=b)
    with pytest.raises(EstimationError, match="lacks 'first_order_stat'"):
        revenue(s, p, cfg, bundle=estimate(s, p, cfg, FEE_FIELDS))
    assert entry_fees(s, p, cfg, bundle=b) == entry_fees(s, p, cfg)
    with pytest.raises(EstimationError, match="unknown bundle fields"):
        estimate(s, p, cfg, {"price"})


def test_exact_bundles_hold_every_field_whatever_the_set(d1):
    s, p = d1
    assert estimate(s, p, EXACT, FEE_FIELDS) == estimate(s, p, EXACT)
