import math
import random
import sys
import threading
import time
import tracemalloc
from collections import Counter
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest
from numpy.random import Generator, Philox

from awarebid import disclosure, engine
from awarebid._kernels import second_price_stats, top_two
from awarebid.distributions import (
    DiscreteFinite,
    FullInfo,
    NoInfo,
    Normal,
    Partition,
    UniformContinuous,
    atom_index,
    canonical_info,
    cells,
    conditional_mean,
    mean,
    ppf,
)
from awarebid.cli import parse_scenario
from awarebid.disclosure import CorpusConfig, check_tradeoff, optimize, verify_suite
from awarebid.engine import (
    FIELDS,
    REVENUE_FIELDS,
    BidderEstimate,
    EstimateBundle,
    EstimationError,
    EstimatorConfig,
    estimate,
    exact_cap_check,
    _CHUNK,
    _uniform_chunk,
)
from awarebid.fees import revenue
from awarebid.scenario import Scenario, validate
from conftest import (
    EXACT,
    SCENARIO_DIR,
    build_d1,
    build_noinfo_tie,
    build_u01,
    bundle_means,
    coin,
    decoded_layout,
    mc_reference,
    reference_layout,
    sample_draws,
)


def test_sample_draws_inverse_cdf_and_determinism():
    u = UniformContinuous(0, 5)
    s, _p = validate(1, 1, [[u]], [[1]], [{1: FullInfo()}])
    draws = sample_draws(s, seed=5, count=100)
    assert draws.shape == (100, 1, 1)
    assert np.allclose(draws[:, 0, 0], 5 * _uniform_chunk(5, 0, 100, 1, 1)[:, 0, 0])
    assert np.array_equal(sample_draws(s, seed=5, count=100), draws)
    assert not np.array_equal(sample_draws(s, seed=6, count=100), draws)


def test_sample_draws_match_uniform_chunks_across_chunk_boundary():
    s, _p = build_d1()
    count = _CHUNK + 10
    batch = sample_draws(s, seed=11, count=count)
    assert np.array_equal(batch[:4], sample_draws(s, seed=11, count=4))
    U = _uniform_chunk(11, _CHUNK - 3, count, 2, 2)
    for i in (1, 2):
        for j in (1, 2):
            assert np.array_equal(batch[_CHUNK - 3:, i - 1, j - 1],
                                  ppf(s.law(i, j), U[:, i - 1, j - 1]))


def test_draws_support_membership():
    s, _p = build_d1()
    draws = sample_draws(s, seed=3, count=500)
    assert set(np.unique(draws[:, :, 0])) <= {0.0, 1.0}
    assert set(np.unique(draws[:, :, 1])) <= {0.0, 2.0}


def test_uniform_chunk_is_chunking_invariant():
    whole = _uniform_chunk(9, 0, 100, 2, 3)
    parts = np.concatenate([_uniform_chunk(9, 0, 37, 2, 3),
                            _uniform_chunk(9, 37, 100, 2, 3)])
    assert np.array_equal(whole, parts)


def test_bids_full_info_sums_and_no_info_means(d1):
    # d1: bidder 1 aware of {1, 2}, bidder 2 of {1}; one chunk of draws, so
    # the estimates are plain means over the same realized values
    s, p = d1
    count = 5000
    x = sample_draws(s, seed=1, count=count)
    b = estimate(s, p, EstimatorConfig(backend="mc", n_samples=count, seed=1))
    # full view: bidder 1 bids x11 + x12, bidder 2 bids x21
    full = np.column_stack([x[:, 0, 0] + x[:, 0, 1], x[:, 1, 0]])
    assert b.first_order_stat == float(full.max(axis=1).sum()) / count
    assert b.second_order_stat == float(full.min(axis=1).sum()) / count
    # bidder 2's own view {1}: both bidders bid their first characteristic
    own = np.column_stack([x[:, 0, 0], x[:, 1, 0]])
    credit = (own[:, 1] == own.max(axis=1)) / (own == own.max(axis=1)[:, None]).sum(axis=1)
    assert b.bidders[1].win_prob_perceived == float(credit.sum()) / count
    surplus = np.where(own[:, 1] > own[:, 0], own[:, 1] - own[:, 0], 0.0)
    assert b.bidders[1].perceived_surplus == float(surplus.sum()) / count

    # no information: every bid is the common mean, so every draw is a tie
    s2, p2 = build_noinfo_tie()
    b2 = estimate(s2, p2, EstimatorConfig(backend="mc", n_samples=count, seed=2))
    assert b2.first_order_stat == pytest.approx(0.4, abs=1e-12)
    assert b2.second_order_stat == b2.first_order_stat
    for be in b2.bidders:
        assert be.perceived_surplus == be.actual_surplus == 0.0


def test_settle_examples():
    # second-price settlement of single draws through the kernel
    for row, (first, price, credit) in [
            ((3.0, 1.0), (3.0, 1.0, (1.0, 0.0))),
            ((1.0, 5.0, 4.0), (5.0, 4.0, (0.0, 1.0, 0.0))),
            ((2.0, 2.0), (2.0, 2.0, (0.5, 0.5)))]:
        f, s, c, sp = second_price_stats(np.array([row]))
        assert (f[0], s[0], tuple(c[0])) == (first, price, credit)
        assert sp[0].sum() == first - price
    with pytest.raises(ValueError):
        second_price_stats(np.array([[1.0]]))


def test_settle_tie_breaks_roughly_uniform():
    # a tie splits the win evenly: fractional credit 1/#ties, no random break
    s, p = build_noinfo_tie()
    b = estimate(s, p, EstimatorConfig(backend="mc", n_samples=2000, seed=7))
    assert [be.win_prob_actual for be in b.bidders] == [0.5, 0.5]
    assert [be.win_prob_perceived for be in b.bidders] == [0.5, 0.5]


def test_exact_cap_check(d1):
    s, p = d1
    assert exact_cap_check(s, p) == 8
    d3 = DiscreteFinite([0, 1, 2], [F(1, 3)] * 3)
    s3, p3 = validate(3, 2, [[d3, d3]] * 3, [[1, 2]] * 3,
                      [{1: FullInfo(), 2: FullInfo()}] * 3)
    assert exact_cap_check(s3, p3) == 729
    su, pu = build_u01()
    assert exact_cap_check(su, pu) is None
    with pytest.raises(EstimationError):
        estimate(su, pu, EXACT)


def _enumerate_bundle(s, p):
    """Reference for the exact backend: enumerate the product of every
    bidder's outcomes, each a tuple of bids (one per deduplicated view), on
    a common integer grid, and settle each combination with 1/#ties credit.
    Plain Python; its cost is the product of support sizes."""
    views, full_idx, bidder_idx = engine._effective_views(s, p)
    nv = len(views)
    n = s.n_bidders

    # Per bidder: weighted support of the tuple (bid under each view).
    combos_by_bidder = []
    weight_den = []
    for i in range(1, n + 1):
        entries = []
        for j in sorted(p.aware(i)):
            law = s.law(i, j)
            level = p.level(i, j)
            if isinstance(level, NoInfo):
                contribs = [(F(mean(law)), prob) for prob in law.probs]
            else:
                cell_mean = {a: F(conditional_mean(law, level, cell))
                             for cell in cells(law, level)
                             for a in cell.level.cells[cell.index]}
                contribs = [(cell_mean[a], prob) for a, prob in enumerate(law.probs)]
            entries.append((tuple(j in view for view in views), contribs))
        table = {}
        for choice in product(*[range(len(c)) for _inc, c in entries]):
            w = F(1)
            bid = [F(0)] * nv
            for (include, contribs), a in zip(entries, choice):
                c, prob = contribs[a]
                w *= prob
                for v in range(nv):
                    if include[v]:
                        bid[v] += c
            key = tuple(bid)
            table[key] = table.get(key, F(0)) + w
        den = math.lcm(*[w.denominator for w in table.values()])
        combos_by_bidder.append([(key, int(w * den)) for key, w in sorted(table.items())])
        weight_den.append(den)

    bid_den = math.lcm(*[b.denominator for combos in combos_by_bidder
                         for key, _w in combos for b in key])
    scaled = [[(tuple(int(b * bid_den) for b in key), w) for key, w in combos]
              for combos in combos_by_bidder]
    tie_scale = math.lcm(*range(1, n + 1))
    acc_first = acc_second = 0
    acc_surplus = [[0] * n for _ in range(nv)]
    acc_credit = [[0] * n for _ in range(nv)]
    for combo in product(*scaled):
        w = math.prod(wn for _key, wn in combo)
        for v in range(nv):
            bids = [key[v] for key, _wn in combo]
            m1 = max(bids)
            tops = [k for k, b in enumerate(bids) if b == m1]
            if len(tops) == 1:
                m2 = max(b for k, b in enumerate(bids) if k != tops[0])
                acc_surplus[v][tops[0]] += w * (m1 - m2)
            else:
                m2 = m1
            for k in tops:
                acc_credit[v][k] += w * (tie_scale // len(tops))
            if v == full_idx:
                acc_first += w * m1
                acc_second += w * m2

    total_w = math.prod(weight_den)

    def val(acc):
        return F(acc, total_w * bid_den)

    def prob(acc):
        return F(acc, total_w * tie_scale)

    bidders = []
    for i in range(1, n + 1):
        vi = bidder_idx[i - 1]
        win_actual = prob(acc_credit[full_idx][i - 1])
        hidden = sum(F(mean(s.law(i, j))) for j in sorted(s.full_set - p.aware(i)))
        bidders.append(BidderEstimate(
            perceived_surplus=val(acc_surplus[vi][i - 1]),
            actual_surplus=val(acc_surplus[full_idx][i - 1]),
            win_prob_perceived=prob(acc_credit[vi][i - 1]),
            win_prob_actual=win_actual,
            hidden_win_value=hidden * win_actual if hidden else F(0)))
    revenue = acc_second + sum(acc_surplus[bidder_idx[i]][i] for i in range(n))
    return EstimateBundle(val(acc_first), val(acc_second), tuple(bidders), "exact",
                          total_revenue=val(revenue))


def test_exact_sweep_matches_enumeration_on_verify_corpus(monkeypatch):
    # every exact bundle the suite makes, whichever route asks for it
    seen = []
    stock = engine._exact_bundle

    def recording(s, p, config):
        out = stock(s, p, config)
        seen.append((s, p, out))
        return out

    monkeypatch.setattr(engine, "_exact_bundle", recording)
    assert verify_suite(CorpusConfig(count=20)).all_pass
    distinct = {(s, p.awareness, tuple(tuple(sorted(lv.items())) for lv in p.info))
                for s, p, _out in seen}
    assert len(distinct) >= 154
    for s, p, got in seen:
        assert got == _enumerate_bundle(s, p)


def test_exact_sweep_matches_enumeration_on_ties_and_mixed_levels():
    # every law on one support with equal probabilities: ties everywhere
    c = DiscreteFinite([0, 1, 2], [F(1, 3)] * 3)
    tied = validate(4, 2, [[c, c]] * 4, [[1, 2], [1, 2], [1], [1, 2]],
                    [{1: FullInfo(), 2: FullInfo()}, {1: FullInfo(), 2: FullInfo()},
                     {1: FullInfo()}, {1: NoInfo(), 2: FullInfo()}])
    # no information, cell partitions and unaware characteristics mixed
    a = DiscreteFinite([-1, 0, 2], [F(1, 4), F(1, 2), F(1, 4)])
    b = DiscreteFinite([0, F(1, 2), 3], [F(1, 6), F(1, 3), F(1, 2)])
    d = DiscreteFinite([0, 4], [F(3, 4), F(1, 4)])
    mixed = validate(
        3, 3, [[a, b, d], [b, a, d], [a, a, d]],
        [[1, 2, 3], [1, 3], [1, 2]],
        [{1: Partition(cells=[(0, 1), (2,)]), 2: NoInfo(), 3: FullInfo()},
         {1: FullInfo(), 3: NoInfo()},
         {1: NoInfo(), 2: Partition(cells=[(0,), (1, 2)])}])
    for s, p in (tied, mixed):
        assert len(engine._effective_views(s, p)[0]) > 1
        assert estimate(s, p, EXACT) == _enumerate_bundle(s, p)


def build_eight_by_four():
    """8 bidders x 4 characteristics, awareness of 2 to 4 characteristics,
    full information, a two-cell partition and no information mixed.  Every
    value, probability and cell mass is dyadic, so Monte Carlo bids are
    exact sums in floating point and tie exactly when the exact bids do."""
    supports = [[0, 1, 3], [0, F(1, 2), 2], [-1, 0, 2], [0, 2, 5]]
    probs = [(F(1, 4), F(1, 4), F(1, 2)), (F(1, 8), F(3, 8), F(1, 2)),
             (F(3, 8), F(1, 8), F(1, 2)), (F(1, 16), F(7, 16), F(1, 2))]
    laws = [[DiscreteFinite(vals, probs[(i + j) % 4]) for j, vals in enumerate(supports)]
            for i in range(8)]
    awareness = [[1, 2, 3, 4], [1, 2, 3], [1, 2, 4], [1, 3, 4],
                 [1, 4], [1, 2, 4], [1, 2, 3, 4], [1, 4]]
    levels = [FullInfo(), Partition(cells=[(0, 1), (2,)]), NoInfo(), FullInfo()]
    return validate(8, 4, laws, awareness,
                    [{j: levels[(i + j) % 4] for j in a} for i, a in enumerate(awareness)])


def test_exact_sweep_solves_eight_bidders_four_characteristics():
    # the joint outcome space has 2.8e11 points; the sweep never visits it
    s, p = build_eight_by_four()
    assert exact_cap_check(s, p) > 10 ** 11
    exact = estimate(s, p, EXACT)
    mc = estimate(s, p, EstimatorConfig(backend="mc", n_samples=100_000, seed=3))
    pairs = [(exact.first_order_stat, mc.first_order_stat, mc.se_first_order_stat),
             (exact.second_order_stat, mc.second_order_stat, mc.se_second_order_stat),
             (exact.total_revenue, mc.total_revenue, mc.se_total_revenue)]
    for want, got in zip(exact.bidders, mc.bidders):
        for field in ("perceived_surplus", "actual_surplus", "win_prob_perceived",
                      "win_prob_actual", "hidden_win_value"):
            pairs.append((getattr(want, field), getattr(got, field),
                          getattr(got, "se_" + field)))
    for want, got, se in pairs:
        assert isinstance(want, F)
        assert abs(got - float(want)) <= 4 * se      # se 0: both exactly 0
    assert sum(be.win_prob_actual for be in exact.bidders) == 1


def test_d1_exact_bundle(d1):
    s, p = d1
    b = estimate(s, p, EXACT)
    assert b.first_order_stat == F(13, 8)
    assert b.second_order_stat == F(3, 8)
    assert b.bidders[0].perceived_surplus == F(9, 8)
    assert b.bidders[0].actual_surplus == F(9, 8)
    assert b.bidders[1].perceived_surplus == F(1, 4)
    assert b.bidders[1].actual_surplus == F(1, 8)
    # bidder 2's hidden characteristic has mean 1 and he wins 1/4 of the time
    assert b.bidders[1].win_prob_actual == F(1, 4)
    assert b.bidders[1].hidden_win_value == F(1, 4)


def test_exact_hidden_value_on_float_atoms_is_the_bids_rational():
    # a float atom enters the bids as its exact binary value; the hidden mean
    # must be the same rational, not the float-rounded sum of p * v
    law = DiscreteFinite([0.1, 0.7, 2.3], [F(1, 5), F(1, 2), F(3, 10)])
    exact_mean = sum(F(v) * q for v, q in zip(law.values, law.probs))
    assert mean(law) == exact_mean
    s, p = validate(2, 2, [[coin([0, 1]), law]] * 2, [[1, 2], [1]],
                    [{1: FullInfo(), 2: FullInfo()}, {1: FullInfo()}])
    b = estimate(s, p, EXACT)
    hidden = b.bidders[1]
    assert hidden.win_prob_actual > 0
    assert hidden.hidden_win_value == exact_mean * hidden.win_prob_actual


def test_u01_analytic_values(u01):
    s, p = u01
    b = estimate(s, p, EstimatorConfig(backend="mc", n_samples=400_000, seed=31))
    assert abs(b.first_order_stat - 2 / 3) < 4 * b.se_first_order_stat
    assert abs(b.second_order_stat - 1 / 3) < 4 * b.se_second_order_stat
    for be in b.bidders:
        assert abs(be.perceived_surplus - 1 / 6) < 4 * be.se_perceived_surplus
        # full awareness: perceived and actual are the same numbers exactly
        assert be.perceived_surplus == be.actual_surplus
        assert be.hidden_win_value == 0.0


def test_noinfo_tie_scenario_is_degenerate():
    s, p = build_noinfo_tie()
    b = estimate(s, p, EXACT)
    assert b.first_order_stat == F(2, 5)
    assert b.second_order_stat == F(2, 5)
    for be in b.bidders:
        assert be.perceived_surplus == 0
        assert be.actual_surplus == 0
        assert be.win_prob_actual == F(1, 2)


def test_exact_matches_mc_within_four_se(d1):
    s, p = d1
    exact = estimate(s, p, EXACT)
    mc = estimate(s, p, EstimatorConfig(backend="mc", n_samples=300_000, seed=5))
    assert abs(mc.first_order_stat - float(exact.first_order_stat)) < 4 * mc.se_first_order_stat
    assert abs(mc.second_order_stat - float(exact.second_order_stat)) < 4 * mc.se_second_order_stat
    def close(est, truth, se):
        return abs(est - float(truth)) < 4 * se if se else est == truth

    for got, want in zip(mc.bidders, exact.bidders):
        assert close(got.perceived_surplus, want.perceived_surplus, got.se_perceived_surplus)
        assert close(got.actual_surplus, want.actual_surplus, got.se_actual_surplus)
        assert close(got.win_prob_actual, want.win_prob_actual, got.se_win_prob_actual)
        assert close(got.hidden_win_value, want.hidden_win_value, got.se_hidden_win_value)


@pytest.mark.xfail(strict=True, reason="ROADMAP Defect A: Monte Carlo sums bids in floating "
                   "point, so 1/10 + 1/5 outbids 3/10 instead of tying with it")
def test_mc_splits_ties_of_non_dyadic_bids():
    # bidder 1's 1/10 + 1/5 ties bidder 2's 3/10 + 0 as rationals; the exact
    # backend splits that tie, Monte Carlo (0.498725 at these draws) does not
    half = [F(1, 2)] * 2
    laws = [[DiscreteFinite([F(1, 10), 5], half), DiscreteFinite([F(1, 5), 6], half)],
            [DiscreteFinite([F(3, 10), 5], half), DiscreteFinite([0, 7], half)]]
    s, p = validate(2, 2, laws, [[1, 2]] * 2, [{1: FullInfo(), 2: FullInfo()}] * 2)
    exact = estimate(s, p, EXACT).bidders[0].win_prob_actual
    assert exact == F(15, 32)
    mc = estimate(s, p, EstimatorConfig(backend="mc", n_samples=200_000, seed=1)).bidders[0]
    assert abs(mc.win_prob_actual - float(exact)) < 4 * mc.se_win_prob_actual


def test_exact_matches_mc_on_random_corpus_scenarios():
    import random as _random

    from awarebid.disclosure import CorpusConfig, random_discrete_scenario
    from awarebid.scenario import lattice

    rng = _random.Random("engine-corpus")
    for index in range(5):
        _sid, s = random_discrete_scenario(CorpusConfig(count=5, seed=321), index)
        awareness = [rng.choice(lattice(s.m_characteristics))
                     for _ in range(s.n_bidders)]
        p = validate(s.n_bidders, s.m_characteristics, s.laws, awareness,
                     [{j: FullInfo() for j in sorted(a)} for a in awareness])[1]
        exact = estimate(s, p, EXACT)
        mc = estimate(s, p, EstimatorConfig(backend="mc", n_samples=150_000,
                                            seed=1000 + index))

        def close(est, truth, se):
            return abs(est - float(truth)) < 4 * se if se else est == truth

        assert close(mc.first_order_stat, exact.first_order_stat, mc.se_first_order_stat)
        assert close(mc.second_order_stat, exact.second_order_stat, mc.se_second_order_stat)
        for got, want in zip(mc.bidders, exact.bidders):
            assert close(got.perceived_surplus, want.perceived_surplus,
                         got.se_perceived_surplus)
            assert close(got.actual_surplus, want.actual_surplus, got.se_actual_surplus)
            assert close(got.win_prob_perceived, want.win_prob_perceived,
                         got.se_win_prob_perceived)
            assert close(got.win_prob_actual, want.win_prob_actual, got.se_win_prob_actual)
            assert close(got.hidden_win_value, want.hidden_win_value,
                         got.se_hidden_win_value)


@pytest.mark.parametrize("workers", [0, -3])
def test_config_rejects_nonpositive_workers(workers):
    with pytest.raises(EstimationError, match="workers"):
        EstimatorConfig(backend="mc", n_samples=1000, workers=workers)


@pytest.mark.parametrize("seed", [-1, -5, 1 << 64, (1 << 64) + 3])
def test_config_rejects_seeds_outside_u64(seed):
    # a seed outside 0..2^64-1 once keyed Philox by its low 64 bits, so -5
    # drew the draws of 2^64 - 5 and 2^64 + 3 those of 3
    with pytest.raises(EstimationError, match="seed"):
        EstimatorConfig(backend="mc", n_samples=1000, seed=seed)


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_sample_draws_rejects_seeds_outside_u64(d1, seed):
    # numpy's Philox key once raised OverflowError here
    with pytest.raises(EstimationError, match="seed must be in 0..2\\*\\*64-1"):
        sample_draws(d1[0], seed, 10)


def test_config_accepts_both_ends_of_u64(d1):
    s, p = d1
    for seed in (0, (1 << 64) - 1):
        b = estimate(s, p, EstimatorConfig(backend="mc", n_samples=1000, seed=seed))
        assert math.isfinite(b.total_revenue)


def test_mc_worker_count_invariance(d1):
    s, p = d1
    one = estimate(s, p, EstimatorConfig(backend="mc", n_samples=200_000, seed=42, workers=1))
    four = estimate(s, p, EstimatorConfig(backend="mc", n_samples=200_000, seed=42, workers=4))
    assert one == four


def _second_price_rows(bids):
    """Per-row reference for `second_price_stats`: plain Python, same conventions."""
    bids = np.asarray(bids, dtype=np.float64)
    S, n = bids.shape
    first = np.empty(S)
    second = np.empty(S)
    credit = np.zeros((S, n))
    surplus = np.zeros((S, n))
    for s in range(S):
        row = [float(b) for b in bids[s]]
        top = max(row)
        winners = [k for k, b in enumerate(row) if b == top]
        if len(winners) > 1:
            price = top
        else:
            price = max(b for k, b in enumerate(row) if k != winners[0])
            surplus[s, winners[0]] = top - price
        first[s], second[s] = top, price
        for k in winners:
            credit[s, k] = 1.0 / len(winners)
    return first, second, credit, surplus


def _top_two_rows(cols):
    """Reference for `top_two` built from the per-row settlement reference."""
    first, second, credit, _surplus = _second_price_rows(np.column_stack(cols))
    return first, second, np.count_nonzero(credit, axis=1), (credit != 0).T


def build_four_bidder_views():
    """Four bidders, three characteristics: a tie-heavy coin, a uniform one
    partitioned at a cutpoint and a normal one; four distinct viewpoints
    and every bidder but the first unaware of something."""
    c = DiscreteFinite([0, 1], [F(1, 2), F(1, 2)])
    u = UniformContinuous(0, 2)
    g = Normal(1.0, 0.5)
    return validate(
        4, 3, [[c, u, g]] * 4,
        [[1, 2, 3], [1, 2], [1], [1, 3]],
        [{1: FullInfo(), 2: Partition(cutpoints=[1.0]), 3: NoInfo()},
         {1: FullInfo(), 2: Partition(cutpoints=[1.0])},
         {1: FullInfo()},
         {1: FullInfo(), 3: NoInfo()}])


def test_mc_kernel_backend_invariance(d1, monkeypatch):
    # the kernel agrees bit for bit with the per-row reference, ties included
    tied = np.array([[3.0, 3.0, 1.0, 3.0, 2.0],
                     [2.0, 5.0, 5.0, 1.0, 5.0],
                     [4.0, 1.0, 4.0, 4.0, 4.0],
                     [1.0, 2.0, 2.0, 0.5, 0.5],
                     [0.0, 0.0, 0.0, 0.0, 0.0],
                     [7.0, 1.0, 2.0, 2.0, 0.5],
                     [-1.0, -2.0, -1.0, -3.0, -2.0]])
    rng = np.random.default_rng(4)
    bids = np.vstack([tied, rng.integers(0, 3, size=(200, 5)).astype(float)])
    for got, want in zip(second_price_stats(bids), _second_price_rows(bids)):
        assert np.array_equal(got, want)

    # so an MC estimate does not depend on how the top-two pass is implemented
    s4, p4 = build_four_bidder_views()
    assert len(engine._effective_views(s4, p4)[0]) == 4
    cases = [(d1, EstimatorConfig(backend="mc", n_samples=100_000, seed=9)),
             ((s4, p4), EstimatorConfig(backend="mc", n_samples=20_000, seed=13))]
    stock = [estimate(s, p, cfg) for (s, p), cfg in cases]
    calls = []

    def reference(cols):
        calls.append(len(cols))
        return _top_two_rows(cols)

    monkeypatch.setattr(engine, "top_two", reference)
    for ((s, p), cfg), want in zip(cases, stock):
        assert estimate(s, p, cfg) == want
    assert calls and max(calls) == 4


@pytest.mark.parametrize("n", range(2, 9))
def test_top_two_matches_sorting_reference(n):
    rng = np.random.default_rng(100 + n)
    bids = rng.integers(-1, 3, size=(500, n)).astype(float)
    bids[:20] = 1.0                                  # all-tied rows
    first, second, n_top, masks = top_two(list(bids.T.copy()))
    ordered = np.sort(bids, axis=1)
    assert np.array_equal(first, ordered[:, -1])
    assert np.array_equal(second, ordered[:, -2])
    assert np.array_equal(masks, (bids == ordered[:, -1:]).T)
    assert np.array_equal(n_top, masks.sum(axis=0))
    assert n_top.min() >= 1 and (n_top == n).any() and (n_top == 1).any()


def test_top_two_counts_ties_past_one_byte():
    # 300 tied columns: the tie count must not wrap around in 8 bits
    first, second, n_top, masks = top_two([np.full(5, 2.5) for _ in range(300)])
    assert np.array_equal(n_top, [300] * 5)
    assert masks.shape == (300, 5) and masks.all()
    assert np.array_equal(first, second) and (first == 2.5).all()


def test_common_random_numbers_across_policies():
    s, _ = build_d1()
    # same seed, policies differing in bidder 2's awareness: same draws
    assert np.array_equal(sample_draws(s, 17, 64), sample_draws(s, 17, 64))
    p_aware = validate(2, 2, s.laws, [[1, 2], [1, 2]],
                       [{1: FullInfo(), 2: FullInfo()}] * 2)[1]
    b_low = estimate(s, build_d1()[1], EXACT)
    b_high = estimate(s, p_aware, EXACT)
    # the raised policy prices bidder 1's extra component into the stats
    assert b_high.first_order_stat == F(17, 8)
    assert b_low.first_order_stat == F(13, 8)


def test_estimate_rejects_single_bidder():
    u = UniformContinuous(0, 1)
    s, p = validate(1, 1, [[u]], [[1]], [{1: FullInfo()}])
    with pytest.raises(EstimationError):
        estimate(s, p, EstimatorConfig(backend="mc", n_samples=10))


def test_mixed_continuous_partition_runs_through_mc():
    u = UniformContinuous(0, 4)
    from awarebid.distributions import Partition
    s, p = validate(2, 1, [[u], [u]], [[1], [1]],
                    [{1: Partition(cutpoints=[2.0])}, {1: FullInfo()}])
    b = estimate(s, p, EstimatorConfig(backend="mc", n_samples=200_000, seed=3))
    # bidder 1 bids the cell midpoint (1 or 3), bidder 2 the value itself;
    # E[max{cell(U), V}] with U, V iid U[0,4]: each cell case integrates to
    # E[max{1,V}]/2 + E[max{3,V}]/2 = (1*1/4 + E[V|V>1]*3/4)/2 + ...
    want = 0.5 * (1 * 0.25 + 2.5 * 0.75) + 0.5 * (3 * 0.75 + 3.5 * 0.25)
    assert abs(b.first_order_stat - want) < 4 * b.se_first_order_stat


def mixed_candidates():
    """Three bidders, four characteristics (uniform, normal, a discrete law
    with non-dyadic atoms, uniform or normal) and four policies mixing
    discrete cell partitions, NoInfo, continuous cutpoint partitions, full
    information and unaware characteristics.  Bidders sum up to four
    non-dyadic contributions, so the order of a column sum shows in the
    last bits."""
    d3 = DiscreteFinite([F(-1, 3), F(2, 7), F(5, 3)], [F(1, 3), F(1, 6), F(1, 2)])
    d4 = DiscreteFinite([0, 1, 3], [F(1, 4), F(1, 4), F(1, 2)])
    laws = [[UniformContinuous(0, 5), Normal(0.3, 1.7), d3, UniformContinuous(-2, 1.1)],
            [Normal(1, 2), UniformContinuous(-1, 3), d3, Normal(-0.2, 0.9)],
            [UniformContinuous(0, 4), Normal(0.1, 1.3), d4, UniformContinuous(-3, 2)]]
    full = {1: FullInfo(), 2: FullInfo(), 3: FullInfo(), 4: FullInfo()}
    specs = [
        ([[1, 2, 3, 4]] * 3,
         [{1: FullInfo(), 2: Partition(cutpoints=[0.0, 1.0]),
           3: Partition(cells=[[0, 2], [1]]), 4: NoInfo()}] * 3),
        ([[1, 2, 3], [1, 2], [1, 4]],
         [{1: FullInfo(), 2: FullInfo(), 3: NoInfo()},
          {1: NoInfo(), 2: Partition(cutpoints=[0.5])},
          {1: FullInfo(), 4: FullInfo()}]),
        ([[1], [1, 3], [1, 2, 3, 4]],
         [{1: FullInfo()}, {1: FullInfo(), 3: FullInfo()},
          {1: Partition(cutpoints=[1.0, 2.0]), 2: FullInfo(),
           3: Partition(cells=[[0], [1, 2]]), 4: Partition(cutpoints=[-1.0])}]),
        ([[1, 2, 3, 4], [1, 2, 3, 4], [1]], [full, full, {1: NoInfo()}]),
    ]
    policies = [validate(3, 4, laws, aw, info)[1] for aw, info in specs]
    return validate(3, 4, laws, *specs[0])[0], policies


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_policies_equals_per_policy_estimate(monkeypatch, workers):
    # every batched bundle is == the one-policy estimate of its policy and
    # == a plain per-policy reference on the same draws, across chunk
    # boundaries and for any worker count; each chunk is drawn once
    s, policies = mixed_candidates()
    cfg = EstimatorConfig(backend="mc", n_samples=3 * _CHUNK + 5, seed=99, workers=workers)
    starts = []
    stock = engine._uniform_chunk

    def counting(seed, start, stop, n, m):
        starts.append(start)
        return stock(seed, start, stop, n, m)

    monkeypatch.setattr(engine, "_uniform_chunk", counting)
    batch = engine.estimate_policies(s, policies, cfg)
    assert sorted(starts) == [0, _CHUNK, 2 * _CHUNK, 3 * _CHUNK]
    monkeypatch.setattr(engine, "_uniform_chunk", stock)
    assert batch == tuple(estimate(s, p, cfg) for p in policies)
    draws = sample_draws(s, cfg.seed, cfg.n_samples)
    for p, b in zip(policies, batch):
        assert bundle_means(b) == mc_reference(s, p, draws)
    # the policies differ in what they hide, so sharing one policy's hidden
    # sums with another would show
    hidden = {tuple(be.hidden_win_value for be in b.bidders) for b in batch}
    assert len(hidden) == len(batch)


@pytest.mark.parametrize("workers", [1, 2])
def test_scores_are_reported_revenue_from_one_pass(monkeypatch, workers):
    # every score is == the revenue report of its policy alone and the
    # bundles are == estimate_policies, for any worker count; scores and
    # bundles share one pass, so each chunk is drawn once
    s, policies = mixed_candidates()
    cfg = EstimatorConfig(backend="mc", n_samples=3 * _CHUNK + 5, seed=99, workers=workers)
    starts = []
    stock = engine._uniform_chunk

    def counting(seed, start, stop, n, m):
        starts.append(start)
        return stock(seed, start, stop, n, m)

    monkeypatch.setattr(engine, "_uniform_chunk", counting)
    scores, bundles, _settle = engine.score_policies(s, policies, cfg, bundled=policies[:1])
    assert sorted(starts) == [0, _CHUNK, 2 * _CHUNK, 3 * _CHUNK]
    monkeypatch.setattr(engine, "_uniform_chunk", stock)
    assert scores == tuple(revenue(s, p, cfg).total_revenue for p in policies)
    assert bundles == engine.estimate_policies(s, policies[:1], cfg)
    assert engine.score_policies(s, (), cfg) == ((), (), None)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_picked_policy_is_settled_on_the_scoring_pass(monkeypatch, workers):
    # one pass's handle settles every scored policy in turn: each bundle is
    # == its own estimate of the revenue fields, summed on the pass's kept
    # last chunk plus a redraw of every chunk before it for that policy alone
    s, policies = mixed_candidates()
    cfg = EstimatorConfig(backend="mc", n_samples=3 * _CHUNK + 5, seed=99, workers=workers)
    chunks = [0, _CHUNK, 2 * _CHUNK, 3 * _CHUNK]
    starts = []
    stock = engine._uniform_chunk

    def counting(seed, start, stop, n, m):
        starts.append(start)
        return stock(seed, start, stop, n, m)

    monkeypatch.setattr(engine, "_uniform_chunk", counting)
    scores, bundles, settle = engine.score_policies(s, policies, cfg)
    assert sorted(starts) == chunks and bundles == ()
    for k, p in enumerate(policies):
        starts.clear()
        monkeypatch.setattr(engine, "_uniform_chunk", counting)
        bundle = settle(k)
        assert sorted(starts) == chunks[:-1]
        monkeypatch.setattr(engine, "_uniform_chunk", stock)
        assert bundle == estimate(s, p, cfg, REVENUE_FIELDS)
        assert revenue(s, p, cfg, bundle=bundle).total_revenue == scores[k]
    assert settle(0) == estimate(s, policies[0], cfg, REVENUE_FIELDS)  # it settles again
    # the exact backend reads the settled policy's bundle off its views
    s, p = build_d1()
    _scores, _bundles, settle = engine.score_policies(s, [p], EXACT)
    assert settle(0) == estimate(s, p, EXACT)


def test_a_picked_pass_with_more_workers_than_cores_finishes(monkeypatch):
    # every chunk of a pass runs alike in the pool, the last one keeping
    # its columns for the handle; with more workers than cores and a short
    # switch interval, every worker count finishes with the one-worker result
    s, policies = mixed_candidates()
    results = {}

    def run(workers):
        cfg = EstimatorConfig(backend="mc", n_samples=3 * _CHUNK + 5, seed=3, workers=workers)
        scores, bundles, settle = engine.score_policies(s, policies[1:], cfg,
                                                        bundled=policies[:1])
        results[workers] = scores, bundles, settle(2)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(w,), daemon=True) for w in (1, 2, 4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results[2] == results[4] == results[1]
    assert results[1][2] == estimate(s, policies[3], EstimatorConfig(
        backend="mc", n_samples=3 * _CHUNK + 5, seed=3), REVENUE_FIELDS)


def test_scoring_inverts_no_entry_read_only_as_a_hidden_value(monkeypatch):
    # the third policy hides characteristic 2 from bidder 1, whose normal
    # law no bid column of that policy reads: scoring it draws no inverse
    # CDF there, estimating it in full does
    s, policies = mixed_candidates()
    cfg = EstimatorConfig(backend="mc", n_samples=4099, seed=7)
    hidden_law = s.law(1, 2)
    inverted = []
    stock = engine.ppf

    def spy(law, u):
        inverted.append(law)
        return stock(law, u)

    monkeypatch.setattr(engine, "ppf", spy)
    engine.score_policies(s, policies[2:3], cfg)
    assert inverted and not any(law is hidden_law for law in inverted)
    engine.estimate_policies(s, policies[2:3], cfg)
    assert any(law is hidden_law for law in inverted)


def bit_identity_corpus():
    """Seeded mixed-law scenarios, three policies each.

    Characteristic 1 is discrete with 2, 3 or 17 atoms, 2 normal, 3
    uniform, 4 discrete or normal.  Levels mix full information, no information on
    continuous and on discrete laws, discrete cell partitions and cutpoint
    partitions on normal and uniform laws; the first policy gives every
    bidder the same awareness set, the others split it, so some bidders
    are unaware of some characteristics."""
    rng = random.Random(20261018)

    def discrete(k):
        values = sorted(rng.sample(range(-20, 40), k))
        weights = [rng.randint(1, 7) for _ in range(k)]
        return DiscreteFinite([F(v, 3) for v in values], [F(w, sum(weights)) for w in weights])

    def level(law):
        kind = rng.choice(["full", "none", "split"])
        if kind == "full":
            return FullInfo()
        if kind == "none":
            return NoInfo()
        if isinstance(law, DiscreteFinite):
            idx = list(range(len(law.values)))
            rng.shuffle(idx)
            cut = rng.randint(1, len(idx) - 1)
            return Partition(cells=[idx[:cut], idx[cut:]])
        lo, hi = (law.lo, law.hi) if isinstance(law, UniformContinuous) else (
            law.mean - 2 * law.stddev, law.mean + 2 * law.stddev)
        return Partition(cutpoints=sorted({round(rng.uniform(lo, hi), 2)
                                           for _ in range(rng.randint(1, 3))}))

    corpus = []
    for atoms in (2, 3, 17):
        n, m = 3, 4
        laws = [[discrete(atoms),
                 Normal(round(rng.uniform(0, 2), 2), round(rng.uniform(0.5, 2), 2)),
                 UniformContinuous(round(rng.uniform(-2, 0), 1), round(rng.uniform(1, 4), 1)),
                 discrete(rng.choice([2, 3, 17])) if i % 2 else Normal(-0.3, 1.1)]
                for i in range(n)]
        awareness = [[[1, 2, 3, 4]] * n,
                     [[1, 2, 3, 4], [1, 3], [1, 2, 4]],
                     [[1], [1, 2, 3, 4], [1, 4]]]
        policies = []
        for aw in awareness:
            info = [{j: level(laws[i][j - 1]) for j in aw[i]} for i in range(n)]
            policies.append(validate(n, m, laws, aw, info)[1])
        corpus.append((validate(n, m, laws, awareness[0],
                                [{j: FullInfo() for j in a} for a in awareness[0]])[0], policies))
    return corpus


BIT_IDENTITY_SAMPLES = 2 * _CHUNK + 4099       # two chunk ends, a partial sub-block


@pytest.fixture(scope="module")
def referenced_corpus():
    """The corpus with the plain per-policy reference means of every policy."""
    out = []
    for s, policies in bit_identity_corpus():
        draws = sample_draws(s, 31, BIT_IDENTITY_SAMPLES)
        out.append((s, policies, [mc_reference(s, p, draws) for p in policies]))
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_estimate_policies_bit_identical_on_mixed_corpus(referenced_corpus, workers):
    # every field of every batched bundle is == the plain per-policy
    # reference and == the one-policy estimate
    cfg = EstimatorConfig(backend="mc", n_samples=BIT_IDENTITY_SAMPLES, seed=31, workers=workers)
    for s, policies, references in referenced_corpus:
        batch = engine.estimate_policies(s, policies, cfg)
        for p, b, want in zip(policies, batch, references):
            assert b == estimate(s, p, cfg)
            assert bundle_means(b) == want


def normal_individual_batch():
    """A 3 x 3 normal scenario and its 64 individual-regime policies: each
    bidder aware of characteristic 1 and of any subset of 2 and 3, with
    full information on every aware pair."""
    laws = [[Normal(1.2, 0.8), Normal(-0.3, 1.1), Normal(-0.7, 0.6)],
            [Normal(0.9, 1.3), Normal(0.2, 0.7), Normal(-0.4, 0.9)],
            [Normal(1.5, 0.6), Normal(-0.1, 1.4), Normal(-0.9, 0.5)]]
    subsets = [[1], [1, 2], [1, 3], [1, 2, 3]]
    policies = [validate(3, 3, laws, list(aw), [{j: FullInfo() for j in a} for a in aw])[1]
                for aw in product(subsets, repeat=3)]
    return validate(3, 3, laws, [[1]] * 3, [{1: FullInfo()}] * 3)[0], policies


class _YieldingDict(dict):
    """A dict that lets another thread run inside every ``setdefault``."""

    def setdefault(self, key, default=None):
        time.sleep(0)
        return super().setdefault(key, default)


def test_threads_sharing_a_scenario_intern_consistent_ids():
    # more threads than cores lay out the same policies on each of many
    # fresh scenarios at once, each table yielding inside every intern, and
    # half the tables first created inside the racing threads: every thread
    # gets the one table of a scenario, every interned item keeps the id it
    # was given, ids are dense, and every layout decodes to its reference
    base, policies = mixed_candidates()
    scenarios = [Scenario(base.n_bidders, base.m_characteristics, base.laws)
                 for _ in range(20)]
    for s in scenarios[::2]:
        table = engine._ids(s)
        table._ids = _YieldingDict(table._ids)
    layouts, tables = {}, {}
    start = threading.Barrier(4)

    def run(k):
        start.wait(timeout=60)
        tables[k] = [engine._ids(s) for s in scenarios]
        layouts[k] = [[decoded_layout(s, p) for p in policies[k:] + policies[:k]]
                      for s in scenarios]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(k,), daemon=True) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for n, s in enumerate(scenarios):
        table = engine._ids(s)
        assert all(got[n] is table for got in tables.values())
        assert sorted(table._ids.values()) == list(range(len(table.items)))
        assert all(table.items[k] == item for item, k in table._ids.items())
    for k, got in layouts.items():
        order = policies[k:] + policies[:k]
        assert got == [[reference_layout(s, p) for p in order] for s in scenarios]


NORMAL_BATCH_SAMPLES = _CHUNK + 7


@pytest.fixture(scope="module")
def referenced_normal_batch():
    s, policies = normal_individual_batch()
    draws = sample_draws(s, 8, NORMAL_BATCH_SAMPLES)
    return s, policies, [mc_reference(s, p, draws) for p in policies]


@pytest.mark.parametrize("workers", [1, 2])
def test_policy_batch_builds_each_column_once_per_chunk(referenced_normal_batch, monkeypatch,
                                                        workers):
    # the 64 policies share one chunk's bid columns and settled views: each
    # distinct (bidder, contributions) column is built once per chunk, each
    # distinct view settled by one top-two pass per chunk, and every bundle
    # is still == its own estimate and the plain per-policy reference
    s, policies, references = referenced_normal_batch
    cfg = EstimatorConfig(backend="mc", n_samples=NORMAL_BATCH_SAMPLES, seed=8, workers=workers)
    builds, settles = [], []
    stock, stock_top_two = engine._bid_column, engine.top_two

    def counting(L, keys, contribs):
        builds.append((L, keys))
        return stock(L, keys, contribs)

    def settling(cols):
        settles.append(len(cols[0]))
        return stock_top_two(cols)

    monkeypatch.setattr(engine, "_bid_column", counting)
    monkeypatch.setattr(engine, "top_two", settling)
    batch = engine.estimate_policies(s, policies, cfg)
    monkeypatch.undo()
    views = {view for p in policies for view in engine._policy_layout(s, p)[0]}
    distinct = {keys for view in views for keys in engine._ids(s).items[view]}
    # per bidder, 4 awareness sets meet the views in 4 ways
    assert (len(policies), len(distinct)) == (64, 12)
    assert Counter(builds) == Counter((L, keys) for L in (_CHUNK, 7) for keys in distinct)
    assert Counter(settles) == {_CHUNK: len(views), 7: len(views)}
    for p, b, want in zip(policies, batch, references):
        assert b == estimate(s, p, cfg)
        assert bundle_means(b) == want


@pytest.mark.parametrize("workers", [1, 2])
def test_a_pass_walks_its_chunks_lazily(monkeypatch, workers):
    # 2**36 draws are 2**20 chunks: a pass stopped at its first chunk has
    # started at most one batch of two chunks per worker, and held no list
    # of every chunk's range
    s, policies = mixed_candidates()
    cfg = EstimatorConfig(backend="mc", n_samples=2 ** 36, seed=1, workers=workers)
    starts = []

    class Stop(Exception):
        pass

    def stop(s, rules, entries, seed, start, stop):
        starts.append(start)
        raise Stop

    monkeypatch.setattr(engine, "_chunk_contributions", stop)
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            engine.score_policies(s, policies, cfg, bundled=policies[:1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20
    assert sorted(starts) == [k * _CHUNK for k in range(len(starts))]
    assert len(starts) == 1 if workers == 1 else len(starts) <= 2 * workers


def test_a_surplus_copy_is_dropped_once_its_revenue_has_added_it():
    # bidder 2 sees the full view, so each policy's surplus 2 is settled
    # before surplus 1, on bidder 1's own view, and is held until then;
    # each policy past the first adds two columns kept for the chunk (its
    # partition's contribution and bidder 1's bid column) and no held
    # copy, where keeping every copy to the chunk's end adds a third
    laws = [[Normal(0.0, 1.0), Normal(0.5, 1.0)], [Normal(0.2, 1.0), Normal(0.1, 1.0)]]
    awareness = [[1], [1, 2]]
    s = validate(2, 2, laws, awareness, [{1: FullInfo()}, {1: FullInfo(), 2: FullInfo()}])[0]
    cfg = EstimatorConfig(backend="mc", n_samples=_CHUNK, seed=3)
    column = _CHUNK * np.dtype(float).itemsize

    def peak(count):
        policies = [validate(2, 2, laws, awareness, [{1: Partition(cutpoints=[k / 8])},
                                                     {1: FullInfo(), 2: FullInfo()}])[1]
                    for k in range(count)]
        engine.estimate_policies(s, policies, cfg, REVENUE_FIELDS)     # warm the caches
        tracemalloc.start()
        try:
            engine.estimate_policies(s, policies, cfg, REVENUE_FIELDS)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(16) - peak(8) < 8 * 2.5 * column


def four_by_two_tradeoff():
    # a 4 x 2 base where bidder 1 alone is aware of characteristic 2:
    # raising bidder 2 shares the base's own view of bidders 3 and 4
    laws = [[Normal(0.2 * i, 1.0), UniformContinuous(-1.0, 1.5 + 0.1 * i)] for i in range(4)]
    awareness = [[1, 2], [1], [1], [1]]
    s, base = validate(4, 2, laws, awareness, [{j: FullInfo() for j in a} for a in awareness])
    cfg = EstimatorConfig(backend="mc", n_samples=4099, seed=3)
    return s, lambda: check_tradeoff(s, base, 2, 2, cfg)


def prop5_search():
    # the analytic best ({1}, {1}) is bundled in the pass that scores the
    # two split policies, whose bidders aware of {1} read its view
    s, _p, _cfg = parse_scenario(str(SCENARIO_DIR / "prop5_demo.json"))
    return s, lambda: optimize(s, "individual", EstimatorConfig(backend="mc", n_samples=4099,
                                                                 seed=3))


@pytest.mark.parametrize("case", [four_by_two_tradeoff, prop5_search],
                         ids=["tradeoff-4x2", "individual-prop5"])
def test_a_pass_settles_each_distinct_view_once(monkeypatch, case):
    # a trade-off's two bundled policies, and a search's scored policies
    # with its bundled analytic best, share views; each distinct view is
    # settled by one top-two pass on the pass's one chunk (a search's
    # winner is settled again afterwards, on its own)
    s, run = case()
    settles, passes = [], []
    stock_top_two = engine.top_two
    stock_estimate, stock_score = disclosure.estimate_policies, disclosure.score_policies

    def settling(cols):
        settles.append(len(cols[0]))
        return stock_top_two(cols)

    def settled(policies):
        views = {view for p in policies for view in engine._policy_layout(s, p)[0]}
        passes.append((len(settles), len(views)))

    def estimating(s, policies, config, fields=FIELDS):
        out = stock_estimate(s, policies, config, fields)
        settled(policies)
        return out

    def scoring(s, policies, config, bundled=(), fields=FIELDS):
        out = stock_score(s, policies, config, bundled, fields)
        settled([*policies, *bundled])
        return out

    monkeypatch.setattr(engine, "top_two", settling)
    monkeypatch.setattr(disclosure, "estimate_policies", estimating)
    monkeypatch.setattr(disclosure, "score_policies", scoring)
    run()
    assert passes == [(3, 3)]


def test_inverse_cdf_runs_only_where_a_policy_reads(monkeypatch):
    # a continuous entry that every policy reads under no information, and a
    # discrete one likewise, get no inverse CDF; sample_draws still gets
    # every value
    c = DiscreteFinite([0, 1, 3], [F(1, 4), F(1, 4), F(1, 2)])
    u, g = UniformContinuous(0, 2), Normal(1.0, 0.5)
    laws = [[c, u, g], [c, u, g]]
    s, p = validate(2, 3, laws, [[1, 2, 3], [1, 2]],
                    [{1: NoInfo(), 2: NoInfo(), 3: FullInfo()}, {1: FullInfo(), 2: NoInfo()}])
    p2 = validate(2, 3, laws, [[1, 2], [1, 2, 3]],
                  [{1: NoInfo(), 2: NoInfo()},
                   {1: FullInfo(), 2: NoInfo(), 3: Partition(cutpoints=[1.0])}])[1]
    ppf_calls, atom_calls = [], []
    stock_ppf, stock_atoms = engine.ppf, engine.atom_index

    def counting_ppf(law, x):
        ppf_calls.append(law)
        return stock_ppf(law, x)

    def counting_atoms(law, x):
        atom_calls.append(law)
        return stock_atoms(law, x)

    monkeypatch.setattr(engine, "ppf", counting_ppf)
    monkeypatch.setattr(engine, "atom_index", counting_atoms)
    cfg = EstimatorConfig(backend="mc", n_samples=_CHUNK + 7, seed=5)
    engine.estimate_policies(s, (p, p2), cfg)
    chunks = 2
    # (1, 2) and (2, 2) are only ever NoInfo: no ppf on the uniform law; the
    # normal law is read at (1, 3) and (2, 3) (full information, hidden,
    # cutpoints); the discrete law (1, 1) is NoInfo only, (2, 1) is not
    assert all(law is not u for law in ppf_calls)
    assert len(ppf_calls) == 2 * chunks and all(law is g for law in ppf_calls)
    assert len(atom_calls) == chunks
    ppf_calls.clear(), atom_calls.clear()
    sample_draws(s, 5, 100)
    # one inverse CDF per entry, in (bidder, characteristic) order; a
    # discrete entry's atom index is found inside ppf
    assert ppf_calls == [c, u, g, c, u, g] and not atom_calls


@pytest.mark.parametrize("values", [[F(1, 10), F(7, 10), 2], [0.1, 0.7, 2.3]])
def test_hidden_column_is_the_full_information_contribution(values):
    # bidder 1 is unaware of a discrete characteristic that bidder 2 sees
    # under full information: the hidden entry is keyed at that level, and
    # its column, the full-information contribution and sample_draws' value
    # are one array of atom values, on rational and on float atoms (where a
    # cell-mean table (p*v)/p would miss 0.1 by an ulp)
    law = DiscreteFinite(values, [F(1, 5), F(1, 2), F(3, 10)])
    count, seed = 5000, 12
    for first in (Normal(0.4, 1.2), DiscreteFinite([0, 1], [F(1, 2)] * 2)):
        s, p = validate(2, 2, [[first, law], [first, law]], [[1], [1, 2]],
                        [{1: FullInfo()}, {1: FullInfo(), 2: FullInfo()}])
        _columns, unaware, _full, _slots = decoded_layout(s, p)
        assert unaware == [[(1, 2, canonical_info(law, FullInfo()))], []]
        assert unaware[0][0][2] == p.level(2, 2)
        rule = engine._contribution_rule(law, p.level(2, 2))
        U = _uniform_chunk(seed, 0, count, 2, 2)
        draws = sample_draws(s, seed, count)
        for i in (1, 2):
            column = rule(atom_index(law, U[:, i - 1, 1]))
            assert np.array_equal(column, draws[:, i - 1, 1])
            assert set(column.tolist()) == {float(v) for v in law.values}
        # the engine's hidden value reads that column: bids summed from 0.0
        # in characteristic order, settled with 1/#ties credit
        b1 = 0.0 + draws[:, 0, 0]
        b2 = 0.0 + draws[:, 1, 0] + draws[:, 1, 1]
        credit = (b1 > b2) + 0.5 * (b1 == b2)
        mc = estimate(s, p, EstimatorConfig(backend="mc", n_samples=count, seed=seed))
        assert mc.bidders[0].hidden_win_value == float((credit * draws[:, 0, 1]).sum()) / count
        assert mc.bidders[1].hidden_win_value == 0.0
        if isinstance(first, DiscreteFinite):
            # the exact backend takes its hidden mean from the same key's
            # integer form: on float atoms, the mean of their binary values
            ex = estimate(s, p, EXACT).bidders[0]
            exact_mean = sum(F(v) * q for v, q in zip(law.values, law.probs))
            assert ex.hidden_win_value == exact_mean * ex.win_prob_actual


@pytest.mark.parametrize("n, m, count",
                         [(1, 1, 10), (2, 3, 4096 + 17), (6, 4, 3 * 4096), (3, 5, 9000)])
def test_uniform_chunk_columns_are_contiguous_philox_blocks(n, m, count):
    # each draw owns whole Philox blocks (counter = draw index x blocks per
    # draw); every (bidder, characteristic) column is one contiguous run
    start, seed = 123, 77
    per_draw = n * m
    bpd = -(-per_draw // 4)
    gen = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64), counter=start * bpd))
    want = gen.random(count * 4 * bpd).reshape(count, 4 * bpd)[:, :per_draw].reshape(count, n, m)
    U = _uniform_chunk(seed, start, start + count, n, m)
    assert U.shape == (count, n, m) and np.array_equal(U, want)
    for i in range(n):
        for j in range(m):
            assert U[:, i, j].flags.c_contiguous
