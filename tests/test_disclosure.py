import collections
import csv
import io
import json
import math
import pathlib
import random
from fractions import Fraction as F

import numpy as np
import pytest

from awarebid import disclosure, engine
from awarebid.cli import main
from awarebid.disclosure import (
    CorpusConfig,
    PolicyRegime,
    check_tradeoff,
    counterexample_search,
    optimize,
    policy_with_info,
    random_discrete_scenario,
    verify_suite,
)
from awarebid.distributions import DiscreteFinite, FullInfo, Normal, UniformContinuous
from awarebid.engine import _CHUNK, EstimatorConfig, estimate, sample_draws
from awarebid.fees import revenue
from awarebid.scenario import Scenario, ScenarioError, validate
from conftest import EXACT, bundle_means, coin, mc_reference

MC = EstimatorConfig(backend="mc", n_samples=200_000, seed=17)
GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def example1_scenario():
    u1, u2 = UniformContinuous(0, 5), UniformContinuous(-6, 5)
    return validate(2, 2, [[u1, u2], [u1, u2]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])[0]


def example1_discretized():
    third = [F(1, 3)] * 3
    x1 = DiscreteFinite([F(5, 6), F(5, 2), F(25, 6)], third)
    x2 = DiscreteFinite([F(-25, 6), F(-1, 2), F(19, 6)], third)
    return Scenario(2, 2, ((x1, x2), (x1, x2)))


def test_optimize_public_no_info_keeps_negative_mean():
    s = example1_scenario()
    res = optimize(s, PolicyRegime.PUBLIC_NO_INFO, MC)
    assert all(a == frozenset({1}) for a in res.policy.awareness)


def test_optimize_public_no_info_raises_positive_mean():
    u1 = UniformContinuous(0, 5)
    dpos = coin([0, 2])     # mean +1
    s, _ = validate(2, 2, [[u1, dpos], [u1, dpos]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])
    res = optimize(s, PolicyRegime.PUBLIC_NO_INFO, MC)
    assert all(a == frozenset({1, 2}) for a in res.policy.awareness)


def test_optimize_public_no_info_boundary_mean_zero_keeps():
    zero = coin([-1, 1])
    base = coin([0, 1])
    s, _ = validate(2, 2, [[base, zero], [base, zero]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])
    res = optimize(s, PolicyRegime.PUBLIC_NO_INFO, EXACT)
    revs = dict(res.trace)
    assert revs["common=[1, 2]"] == revs["common=[1]"]   # exact zero shift
    assert all(a == frozenset({1}) for a in res.policy.awareness)


def test_optimize_public_full_info_uniform_raise():
    # disclosing the U(-6,5) characteristic pays because E[max] = 4/3 > 0
    s = example1_scenario()
    res = optimize(s, PolicyRegime.PUBLIC_FULL_INFO, MC)
    assert all(a == frozenset({1, 2}) for a in res.policy.awareness)
    revs = dict(res.trace)
    assert revs["common=[1, 2]"] > revs["common=[1]"]


def test_optimize_public_full_info_keep_when_max_negative():
    uneg = UniformContinuous(-8, 1)       # E[max of two] = -2 < 0
    u1 = UniformContinuous(0, 5)
    s, _ = validate(2, 2, [[u1, uneg], [u1, uneg]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])
    res = optimize(s, PolicyRegime.PUBLIC_FULL_INFO, MC)
    assert all(a == frozenset({1}) for a in res.policy.awareness)


def test_optimize_common_free_info_full_information_is_maximal():
    d = coin([0, 1])
    s, _ = validate(2, 1, [[d], [d]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])
    res = optimize(s, PolicyRegime.COMMON_FREE_INFO, EXACT)
    # full information achieves the maximum (3/4, vs 1/2 under no info), but
    # E[max{X, 1/2}] = 3/4 ties it here, so the optimizer's less-disclosure
    # tie rule returns the coarser of the revenue-equal policies.
    assert res.report.total_revenue == F(3, 4)
    values = [v for _d, v in res.trace]
    assert F(1, 2) in values and max(values) == F(3, 4)
    assert sum(1 for v in values if v == F(3, 4)) == 3
    kinds = sorted(type(levels[1]).__name__ for levels in res.policy.info)
    assert kinds == ["NoInfo", "Partition"]


def test_optimize_individual_on_d1(d1):
    s, _p = d1
    res = optimize(s, PolicyRegime.INDIVIDUAL, EXACT)
    assert res.report.total_revenue == F(17, 8)
    assert all(a == frozenset({1, 2}) for a in res.policy.awareness)
    assert res.exhaustive


def test_optimize_exhaustive_is_argmax_of_trace():
    cfg = CorpusConfig(count=6, seed=42)
    for index in range(cfg.count):
        _sid, s = random_discrete_scenario(cfg, index)
        res = optimize(s, PolicyRegime.INDIVIDUAL, EXACT)
        best = res.report.total_revenue
        for _desc, val in res.trace:
            assert best >= val


def test_optimize_greedy_agrees_with_exhaustive_on_small_corpus():
    from awarebid.disclosure import _optimize_greedy

    cfg = CorpusConfig(count=6, seed=9)
    log = []
    for index in range(cfg.count):
        sid, s = random_discrete_scenario(cfg, index)
        full = optimize(s, PolicyRegime.INDIVIDUAL, EXACT)
        greedy = _optimize_greedy(s, EXACT, {}, PolicyRegime.INDIVIDUAL)
        log.append((sid, full.report.total_revenue, greedy.report.total_revenue))
        assert greedy.report.total_revenue == full.report.total_revenue, log[-1]
    assert len(log) == cfg.count


def test_optimize_cap_requires_greedy_flag():
    d = coin([0, 1])
    laws = [[d] * 7] * 3                      # 3 * 6 = 18 awareness bits
    s, _ = validate(3, 7, laws, [[1]] * 3, [{1: FullInfo()}] * 3)
    with pytest.raises(ScenarioError, match="greedy"):
        optimize(s, PolicyRegime.INDIVIDUAL, EXACT)
    res = optimize(s, PolicyRegime.INDIVIDUAL, EXACT, allow_greedy=True)
    assert not res.exhaustive


def test_public_regimes_cap_the_awareness_space(capsysbinary, tmp_path):
    # 18 characteristics: 2^17 common awareness sets, one bit over the cap
    d = coin([0, 1])
    s, _ = validate(2, 18, [[d] * 18] * 2, [[1]] * 2, [{1: FullInfo()}] * 2)
    for regime in (PolicyRegime.PUBLIC_NO_INFO, PolicyRegime.PUBLIC_FULL_INFO,
                   PolicyRegime.COMMON_FREE_INFO):
        with pytest.raises(ScenarioError, match="17 bits exceeds the exhaustive cap$"):
            optimize(s, regime, EXACT, allow_greedy=True)
    dist = {"kind": "discrete", "atoms": [[0, "1/2"], [1, "1/2"]]}
    doc = {"bidders": 2, "characteristics": [{"distributions": [dist, dist]}] * 18,
           "awareness": [[1], [1]], "info": [{"1": "full"}, {"1": "full"}],
           "estimator": {"backend": "exact", "samples": 1000, "seed": 1}}
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    status = main(["optimize", "--scenario", str(path), "--regime", "public-full-info",
                   "--greedy"])
    captured = capsysbinary.readouterr()
    assert status == 1
    assert captured.out == b""
    assert captured.err.startswith(b"error: awareness space of 17 bits")


def test_free_info_cap_bounds_the_partition_enumeration(monkeypatch):
    # characteristic 2 has 13 atoms, Bell(13) = 27,644,437 partitions; under
    # a cap of 16 only the 2 x 2 assignments of {1} fit, and the search must
    # find that without listing the 13-atom law's partitions
    stock = disclosure._set_partitions
    yielded = [0]

    def bounded(k):
        for cells in stock(k):
            yielded[0] += 1
            if yielded[0] > 300:
                raise AssertionError("partitions enumerated past the cap")
            yield cells

    monkeypatch.setattr(disclosure, "_set_partitions", bounded)
    wide = DiscreteFinite(list(range(13)), [F(1, 13)] * 13)
    s = Scenario(2, 2, ((coin([0, 1]), wide), (coin([0, 1]), wide)))
    res = optimize(s, PolicyRegime.COMMON_FREE_INFO, EXACT, partition_cap=16)
    assert len(res.trace) == 4
    assert all(a == frozenset({1}) for a in res.policy.awareness)


def test_tradeoff_d1_extended(d1):
    s, p = d1
    td = check_tradeoff(s, p, 2, 2, EXACT)
    assert td.delta_first_order_stat == F(1, 2)
    assert td.delta_rents_remaining_unaware == 0
    assert td.lost_rent_newly_aware == F(1, 8)
    assert td.decision == "raise"
    assert td.revenue_after == F(17, 8)


def test_tradeoff_nobody_left_to_raise(d1):
    s, _p = d1
    p_full = validate(2, 2, s.laws, [[1, 2], [1, 2]],
                      [{1: FullInfo(), 2: FullInfo()}] * 2)[1]
    td = check_tradeoff(s, p_full, None, 2, EXACT)
    assert td.delta_first_order_stat == 0
    assert td.lost_rent_newly_aware == 0
    assert td.decision == "keep"
    assert td.revenue_before == td.revenue_after


def test_tradeoff_rejects_malformed_base():
    d = coin([0, 1])
    s, p = validate(3, 3, [[d, d, d]] * 3,
                    [[1, 2], [1, 3], [1]],
                    [{1: FullInfo(), 2: FullInfo()},
                     {1: FullInfo(), 3: FullInfo()},
                     {1: FullInfo()}])
    with pytest.raises(ScenarioError, match="common set"):
        check_tradeoff(s, p, 3, 2, EXACT)
    with pytest.raises(ScenarioError, match="already aware"):
        check_tradeoff(s, p, 1, 2, EXACT)


def test_tradeoff_decision_consistent_with_revenue_on_corpus():
    cfg = CorpusConfig(count=25, seed=77)
    rng = random.Random("tradeoff")
    for index in range(cfg.count):
        _sid, s = random_discrete_scenario(cfg, index)
        k = rng.randint(1, s.n_bidders - 1)
        mprime = s.full_set - {2}
        info = {j: FullInfo() for j in range(1, s.m_characteristics + 1)}
        base = policy_with_info(
            s, [mprime | {2}] * k + [mprime] * (s.n_bidders - k), info)
        td = check_tradeoff(s, base, k + 1, 2, EXACT)
        assert (td.decision == "raise") == (td.revenue_after > td.revenue_before)
        identity = (td.revenue_after - td.revenue_before) - \
            (td.lhs - td.lost_rent_newly_aware)
        assert identity == 0
        if td.delta_first_order_stat != 0:
            assert td.delta_first_order_stat > 0     # mean of char 2 is positive


def test_verify_suite_small_corpus_all_pass():
    rep = verify_suite(CorpusConfig(count=20, seed=0))
    assert rep.all_pass
    assert not rep.failures
    for claim in ("Prop2", "Lem3", "Lem5", "Lem7", "Prop3", "Cor1", "Prop6"):
        assert rep.checked(claim), f"no hypothesis-satisfied instances of {claim}"
    # the full-information assignment is among the rechecked ones, with
    # exact margin 0, and no assignment beats it
    assert all(r.margin == 0 for r in rep.checked("Prop6"))


def test_verify_suite_claims_match_golden():
    # every ClaimResult of the 20-scenario corpus in suite order, its margin
    # as an exact p/q, so any change in how claims share policy evaluations
    # must leave each row, its order and its types unchanged
    buf = io.StringIO()
    rows = csv.writer(buf, lineterminator="\n")
    rows.writerow(["claim", "scenario", "hypothesis", "holds", "margin", "note"])
    for r in verify_suite(CorpusConfig(count=20)).results:
        assert type(r.hypothesis_satisfied) is bool and type(r.holds) is bool
        assert type(r.margin) is F
        rows.writerow([r.claim, r.scenario_id, r.hypothesis_satisfied, r.holds,
                       f"{r.margin.numerator}/{r.margin.denominator}", r.note])
    assert buf.getvalue() == (GOLDEN_DIR / "verify-claims-20.csv").read_text()


def test_counterexample_search_outputs_are_pinned():
    cfg = CorpusConfig(count=60, seed=3)
    prop2 = counterexample_search("prop2-converse", cfg)
    prop5 = counterexample_search("prop5-converse", cfg)
    assert prop2 == [{"scenario": "corpus-3-34", "char": 3,
                      "gain": F(2197973, 1179648), "mean": F(-4, 3)}]
    assert prop5 == [
        {"scenario": "corpus-3-28", "char": 3, "kind": "negative-mean-raise",
         "gain": F(1133531, 2985984), "e_max": F(85, 144)},
        {"scenario": "corpus-3-30", "char": 3, "kind": "negative-mean-raise",
         "gain": F(229, 576), "e_max": F(19, 36)},
        {"scenario": "corpus-3-34", "char": 3, "kind": "negative-mean-raise",
         "gain": F(17458625, 5308416), "e_max": F(104, 27)}]
    assert all(type(v) is F for f in prop2 + prop5 for k, v in f.items()
               if k in ("gain", "mean", "e_max"))


def test_prop5_converse_evaluates_full_awareness_once_per_scenario(monkeypatch):
    full = collections.Counter()
    stock = engine._exact_bundle

    def counting(s, p, config):
        if all(a == s.full_set for a in p.awareness):
            full[s] += 1
        return stock(s, p, config)

    monkeypatch.setattr(engine, "_exact_bundle", counting)
    cfg = CorpusConfig(count=10, seed=3)
    counterexample_search("prop5-converse", cfg)
    scenarios = [random_discrete_scenario(cfg, i)[1] for i in range(cfg.count)]
    assert any(s.m_characteristics >= 3 for s in scenarios)
    assert full == collections.Counter(scenarios)


def test_tradeoff_claims_evaluate_each_policy_once(monkeypatch):
    # the Lem5-7 and Prop3 rows of a scenario cost two exact bundles, the
    # base split and the raised one; the base report is not evaluated again
    policies = collections.Counter()
    stock = engine._exact_bundle

    def counting(s, p, config):
        policies[repr(p.awareness)] += 1
        return stock(s, p, config)

    monkeypatch.setattr(engine, "_exact_bundle", counting)
    cfg = CorpusConfig(count=6, seed=1)
    for index in range(cfg.count):
        sid, s = random_discrete_scenario(cfg, index)
        policies.clear()
        rows = disclosure._claims_tradeoff(sid, s, random.Random(index))
        assert [r.claim for r in rows] == ["Lem5", "Lem6", "Lem7", "Prop3"]
        assert sorted(policies.values()) == [1, 1]


def test_prop4_shift_is_exactly_the_mean():
    base = coin([0, 1])
    extra = DiscreteFinite([F(-1, 2), 2], [F(1, 3), F(2, 3)])
    s, _ = validate(2, 2, [[base, extra], [base, extra]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])
    from awarebid.distributions import NoInfo, mean
    without = revenue(s, policy_with_info(s, [frozenset({1})] * 2,
                                          {1: FullInfo()}), EXACT)
    withp = revenue(s, policy_with_info(s, [frozenset({1, 2})] * 2,
                                        {1: FullInfo(), 2: NoInfo()}), EXACT)
    assert withp.total_revenue - without.total_revenue == mean(extra)


def test_counterexample_search_finds_discretized_example1():
    found = counterexample_search("prop5-converse", CorpusConfig(count=0, seed=0),
                                  extra_scenarios=[example1_discretized()])
    kinds = {(f["scenario"], f.get("kind")) for f in found}
    assert ("extra-0", "negative-mean-raise") in kinds
    gain = [f for f in found if f["scenario"] == "extra-0"][0]["gain"]
    assert gain > 0


def test_counterexample_search_empty_corpus():
    assert counterexample_search("prop2-converse", CorpusConfig(count=0, seed=0)) == []
    with pytest.raises(ValueError):
        counterexample_search("bogus", CorpusConfig(count=0, seed=0))


def test_counterexample_search_positive_means_find_nothing():
    # characteristic 2 has positive means by construction, so on scenarios
    # with m = 2 the negative-mean hunt has nothing to find
    cfg = CorpusConfig(count=15, seed=5)
    two = [s for _sid, s in (random_discrete_scenario(cfg, i) for i in range(cfg.count))
           if s.m_characteristics == 2]
    assert two
    found = counterexample_search("prop2-converse", CorpusConfig(count=0), two)
    assert found == []


def test_tradeoff_rejects_out_of_range_target_and_char(d1):
    s, p = d1
    for target, char in ((0, 2), (3, 2), (-1, 2), (2, 1), (2, 3)):
        with pytest.raises(ScenarioError, match="outside"):
            check_tradeoff(s, p, target, char, EXACT)


def test_corpus_rejects_negative_count_and_verify_an_empty_one():
    with pytest.raises(ScenarioError, match="nonnegative"):
        CorpusConfig(count=-1)
    with pytest.raises(ScenarioError, match="at least 1"):
        verify_suite(CorpusConfig(count=0))


def test_unflatten_follows_the_screen_index_order():
    # Prop6 rechecks the assignment at a flat index of the screen's ij grid
    from awarebid.disclosure import _unflatten

    variants = [["a0", "a1"], ["b0", "b1", "b2"], ["c0", "c1"]]
    idx = np.meshgrid(*[np.arange(len(v)) for v in variants], indexing="ij")
    for flat, picks in enumerate(zip(*(ix.ravel() for ix in idx))):
        assert _unflatten(flat, variants) == [v[k] for v, k in zip(variants, picks)]


# --- batched Monte Carlo scoring ------------------------------------------

def three_char_scenario(n_bidders):
    """Uniform and normal laws with non-dyadic parameters on three
    characteristics, so a bid column sums three inexact terms; the MC
    individual-regime winner is not a common-awareness policy."""
    rows = [(UniformContinuous(0, 5), Normal(0.3, 1.7), UniformContinuous(-2, 1.1)),
            (Normal(1, 2), UniformContinuous(-1, 3), Normal(-0.2, 0.9)),
            (UniformContinuous(0, 4), Normal(-0.1, 1.3), UniformContinuous(-1.5, 2.5))]
    return Scenario(n_bidders, 3, tuple(rows[:n_bidders]))


MC_BATCH = EstimatorConfig(backend="mc", n_samples=_CHUNK + 7, seed=23)


def _per_policy_loop(s, policies, config):
    return tuple(estimate(s, p, config) for p in policies)


def _batched_and_per_policy(monkeypatch, run):
    """``run()`` on the batched route, recording every batched call and the
    start of every uniform chunk drawn, then ``run()`` again with each batch
    replaced by a plain per-policy loop over ``estimate``.  Every recorded
    bundle is checked against ``estimate`` of its policy alone and against
    the plain reference on the same draws."""
    calls, starts = [], []
    stock, stock_chunk = disclosure.estimate_policies, engine._uniform_chunk

    def spy(s, policies, config):
        out = stock(s, policies, config)
        calls.append((s, tuple(policies), config, out))
        return out

    def counting(seed, start, stop, n, m):
        starts.append(start)
        return stock_chunk(seed, start, stop, n, m)

    monkeypatch.setattr(disclosure, "estimate_policies", spy)
    monkeypatch.setattr(engine, "_uniform_chunk", counting)
    got = run()
    monkeypatch.setattr(engine, "_uniform_chunk", stock_chunk)
    monkeypatch.setattr(disclosure, "estimate_policies", _per_policy_loop)
    want = run()
    for s, policies, config, out in calls:
        assert len(out) == len(policies)
        draws = sample_draws(s, config.seed, config.n_samples)
        for p, b in zip(policies, out):
            assert b == estimate(s, p, config)
            assert bundle_means(b) == mc_reference(s, p, draws)
    return got, want, calls, starts


@pytest.mark.parametrize("n_bidders,config", [
    (2, MC_BATCH), (3, EstimatorConfig(backend="mc", n_samples=4099, seed=23))],
    ids=["16-candidates", "64-candidates"])
def test_mc_optimize_individual_matches_per_policy_loop(monkeypatch, n_bidders, config):
    s = three_char_scenario(n_bidders)
    got, want, calls, starts = _batched_and_per_policy(
        monkeypatch, lambda: optimize(s, PolicyRegime.INDIVIDUAL, config))
    assert got == want          # policy, report, trace and tie-break
    assert len(got.trace) == 4 ** n_bidders
    # one batched call scores every candidate without an analytic value
    # (all but the 4 common-awareness ones) plus the best analytic one, so
    # the report reuses the winner's bundle and every chunk is drawn once
    assert [len(c[1]) for c in calls] == [4 ** n_bidders - 3]
    assert len(set(got.policy.awareness)) > 1
    assert starts == list(range(0, config.n_samples, _CHUNK))
    assert len(starts) == math.ceil(config.n_samples / _CHUNK)
    assert got.report == revenue(s, got.policy, config)


def test_mc_greedy_matches_per_policy_loop(monkeypatch):
    s = three_char_scenario(3)
    got, want, calls, _starts = _batched_and_per_policy(
        monkeypatch, lambda: disclosure._optimize_greedy(
            s, MC_BATCH, {}, PolicyRegime.INDIVIDUAL))
    assert got == want
    # one call per sweep of 6, 5, ... trials; the common start joins the
    # first, where it is the one analytic policy and is scored with them
    sizes = [len(c[1]) for c in calls]
    assert len(sizes) > 1
    assert sizes == [7] + [6 - k for k in range(1, len(sizes))]
    assert len(got.trace) == sum(sizes)     # the start, then every trial


def test_mc_greedy_draws_each_chunk_once_per_pass(monkeypatch):
    # example1: the common start wins, so its value is analytic; it is
    # scored in the one sweep's batch and the report reuses that bundle
    s = example1_scenario()
    config = EstimatorConfig(backend="mc", n_samples=4 * _CHUNK, seed=5)
    starts, batches = [], []
    stock, stock_chunk = disclosure.estimate_policies, engine._uniform_chunk

    def spy(s, policies, config):
        batches.append(len(policies))
        return stock(s, policies, config)

    def counting(seed, start, stop, n, m):
        starts.append(start)
        return stock_chunk(seed, start, stop, n, m)

    monkeypatch.setattr(disclosure, "estimate_policies", spy)
    monkeypatch.setattr(engine, "_uniform_chunk", counting)
    got = disclosure._optimize_greedy(s, config, {}, PolicyRegime.INDIVIDUAL)
    monkeypatch.setattr(engine, "_uniform_chunk", stock_chunk)
    assert got.policy.awareness == (frozenset({1}),) * 2
    assert batches == [3]               # 2 trials plus the analytic start
    assert starts == list(range(0, config.n_samples, _CHUNK))
    assert got.report == revenue(s, got.policy, config)


def test_mc_tradeoff_matches_per_policy_loop(monkeypatch):
    s = three_char_scenario(3)
    base = policy_with_info(s, [{1, 2, 3}, {1, 3}, {1, 3}], {})
    got, want, calls, starts = _batched_and_per_policy(
        monkeypatch, lambda: check_tradeoff(s, base, 2, 2, MC_BATCH))
    assert got == want
    assert [len(c[1]) for c in calls] == [2]
    assert starts == list(range(0, MC_BATCH.n_samples, _CHUNK))
    assert got.revenue_before == revenue(s, base, MC_BATCH).total_revenue
