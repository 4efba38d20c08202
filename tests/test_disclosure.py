import collections
import csv
import io
import itertools
import json
import math
import pathlib
import random
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from awarebid import disclosure, engine, orderstats, scenario
from awarebid.cli import main, parse_scenario
from awarebid.disclosure import (
    CorpusConfig,
    PolicyRegime,
    check_tradeoff,
    counterexample_search,
    optimize,
    random_discrete_scenario,
    verify_suite,
)
from awarebid.distributions import (
    DiscreteFinite,
    DistributionError,
    FullInfo,
    NoInfo,
    Normal,
    Partition,
    UniformContinuous,
)
from awarebid.engine import _CHUNK, FIELDS, REVENUE_FIELDS, EstimatorConfig, estimate
from awarebid.fees import curse_gap, revenue
from awarebid.scenario import Scenario, ScenarioError, validate
from conftest import (
    EXACT,
    SCENARIO_DIR,
    bundle_means,
    checked_policy,
    coin,
    decoded_layout,
    mc_reference,
    reference_layout,
    sample_draws,
)

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


def test_search_scores_a_candidate_whose_quadrature_fails(monkeypatch):
    # prop4_demo's public-full-info candidates are valued in one batch; a
    # non-finite CDF on the laws of common awareness {1, 2, 3} sends that
    # candidate alone to Monte Carlo scoring
    s, _p, _cfg = parse_scenario(str(SCENARIO_DIR / "prop4_demo.json"))
    config = EstimatorConfig(backend="mc", n_samples=20_000, seed=3)
    clean = dict(optimize(s, "public-full-info", config).trace)
    policy = checked_policy(s, [{1, 2, 3}] * 2, {})
    broken = disclosure._common_awareness_max(s, policy).laws
    plain = orderstats.cdf
    monkeypatch.setattr(orderstats, "cdf", lambda law, y: np.full(np.shape(y), np.nan)
                        if law in broken else plain(law, y))
    values = dict(optimize(s, "public-full-info", config).trace)
    assert list(values) == list(clean) and len(values) == 4
    for desc in values:
        if desc != "common=[1, 2, 3]":
            assert values[desc] == clean[desc]
    assert values["common=[1, 2, 3]"] == revenue(s, policy, config).total_revenue
    assert values["common=[1, 2, 3]"] != clean["common=[1, 2, 3]"]


def test_free_info_search_values_its_candidates_in_one_quadrature(monkeypatch):
    # example2: 18 analytic expectations, each about 11 Simpson levels alone,
    # take one integrand call per level for the whole batch
    calls = []
    plain = orderstats._integrand

    def counted(batch, ys, owner):
        calls.append(batch.live.size)
        return plain(batch, ys, owner)

    monkeypatch.setattr(orderstats, "_integrand", counted)
    s, _p, _cfg = parse_scenario(str(SCENARIO_DIR / "example2.json"))
    res = optimize(s, "common-free-info", EstimatorConfig(backend="mc", n_samples=20_000, seed=1))
    assert len(res.trace) == 20
    assert 1 <= len(calls) <= 16 and max(calls) == 18


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
        base = checked_policy(
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
    without = revenue(s, checked_policy(s, [frozenset({1})] * 2,
                                        {1: FullInfo()}), EXACT)
    withp = revenue(s, checked_policy(s, [frozenset({1, 2})] * 2,
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
    # Prop 6 rechecks the assignment at a flat index of the screen: exact
    # unflattens it bidder-major, each bidder's variants in
    # itertools.product order, as the screen lays them out.  Three bidders
    # with 10, 4 and 10 variants make a transposed index read another
    # assignment; all 400 are checked against whole folds.
    from awarebid.distributions import atom_lattice, fold_atom_lattices

    d2 = DiscreteFinite([0, 1], [F(1, 3), F(2, 3)])
    d3 = DiscreteFinite([-1, F(1, 2), 2], [F(1, 4), F(1, 2), F(1, 4)])
    s = Scenario(3, 2, ((d3, d2), (d2, d2), (d2, d3)))
    _aw, entries = next(disclosure._assignments(s, [s.full_set], disclosure._PARTITION_CAP))
    screen, exact = disclosure._assignment_lattice("order", s, entries)
    per_char = [[atom_lattice(orderstats.bid_component(s, i, j, lvl)) for lvl in levels]
                for (i, j), levels in entries]
    variants = [[fold_atom_lattices(combo) for combo in itertools.product(*per_char[k:k + 2])]
                for k in range(0, 6, 2)]
    assert [len(v) for v in variants] == [10, 4, 10] and len(screen) == 400
    for flat, forms in enumerate(itertools.product(*variants)):
        ref = orderstats.atom_grid(forms).expected(1)
        assert exact(flat) == ref and abs(screen[flat] - float(ref)) <= 1e-12


@pytest.mark.parametrize("rows, bound", [
    # probabilities over two large primes: each bidder's product of
    # probability denominators passes 2^53
    ([[DiscreteFinite([0, 1], [F(1, 134217689), F(134217688, 134217689)]),
       DiscreteFinite([0, 1], [F(1, 134217649), F(134217648, 134217649)])]] * 2, "2\\^53"),
    # values over two large primes: the value 1 sits at the lcm of both,
    # past 2^63
    ([[DiscreteFinite([F(1, 4294967291), 1], [F(1, 2), F(1, 2)])],
      [DiscreteFinite([F(1, 4294967279), 1], [F(1, 2), F(1, 2)])]], "2\\^63"),
])
def test_prop6_lattice_refuses_what_it_cannot_hold_exactly(rows, bound):
    # a count in float64 or a position in int64 that would round or wrap
    # raises, naming the scenario and the bound
    s = Scenario(2, len(rows[0]), tuple(map(tuple, rows)))
    with pytest.raises(DistributionError, match=f"big-primes: .*{bound}"):
        disclosure._claim_full_info_optimal("big-primes", s)


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


def _per_policy_loop(s, policies, config, fields=FIELDS):
    return tuple(estimate(s, p, config, fields) for p in policies)


def _per_policy_scores(s, policies, config, bundled=(), fields=FIELDS):
    scores = tuple(revenue(s, p, config).total_revenue for p in policies)
    return (scores, _per_policy_loop(s, bundled, config, fields),
            lambda k: estimate(s, policies[k], config, REVENUE_FIELDS))


def _spied(monkeypatch, run, route, reference):
    """``run()`` on the batched route ``disclosure.<route>``, recording every
    call's (arguments, result) and the start of every uniform chunk drawn,
    then ``run()`` again with the route replaced by ``reference``, a plain
    per-policy loop."""
    calls, starts = [], []
    stock, stock_chunk = getattr(disclosure, route), engine._uniform_chunk

    def spy(*args, **kwargs):
        out = stock(*args, **kwargs)
        calls.append((args, kwargs, out))
        return out

    def counting(seed, start, stop, n, m):
        starts.append(start)
        return stock_chunk(seed, start, stop, n, m)

    monkeypatch.setattr(disclosure, route, spy)
    monkeypatch.setattr(engine, "_uniform_chunk", counting)
    got = run()
    monkeypatch.setattr(engine, "_uniform_chunk", stock_chunk)
    monkeypatch.setattr(disclosure, route, reference)
    want = run()
    return got, want, calls, starts


def _check_bundles(s, policies, config, out, fields):
    """Every batched bundle is ``estimate`` of its policy alone for
    ``fields`` and, in those fields, the plain reference on the same
    draws."""
    assert len(out) == len(policies)
    draws = sample_draws(s, config.seed, config.n_samples)
    for p, b in zip(policies, out):
        assert b == estimate(s, p, config, fields)
        means = {k: v for k, v in bundle_means(b).items() if v is not None}
        ref = mc_reference(s, p, draws)
        assert means == {k: ref[k] for k in means}


def _batched_and_per_policy(monkeypatch, run):
    """``_spied`` on ``estimate_policies``; returns (got, want, [(scenario,
    policies, config)] per call, chunk starts)."""
    got, want, calls, starts = _spied(monkeypatch, run, "estimate_policies",
                                      _per_policy_loop)
    for (s, policies, config), kwargs, out in calls:
        _check_bundles(s, policies, config, out, kwargs.get("fields", FIELDS))
    return got, want, [args for args, _kwargs, _out in calls], starts


def _scored_and_per_policy(monkeypatch, run):
    """``_spied`` on ``score_policies``, whose handle records each policy
    it settles; every score is checked against
    ``revenue(...).total_revenue`` of its policy alone, and every bundle,
    the settled policy's too, as ``_check_bundles`` does.  Returns (got,
    want, [(scored, bundled, settled index or None)] per call, chunk
    starts)."""
    stock = disclosure.score_policies

    def recording(s, policies, config, bundled=(), fields=FIELDS):
        scores, bundles, settle = stock(s, policies, config, bundled, fields)

        def handle(k):
            bundle = settle(k)
            handle.settled.append((k, bundle))
            return bundle

        handle.settled = []
        return scores, bundles, handle

    monkeypatch.setattr(disclosure, "score_policies", recording)
    got, want, calls, starts = _spied(monkeypatch, run, "score_policies",
                                      _per_policy_scores)
    out = []
    for (s, policies, config), kwargs, (scores, bundles, handle) in calls:
        policies, bundled = tuple(policies), tuple(kwargs.get("bundled", ()))
        assert scores == tuple(revenue(s, p, config).total_revenue for p in policies)
        _check_bundles(s, bundled, config, bundles, kwargs.get("fields", FIELDS))
        assert len(handle.settled) <= 1
        for k, bundle in handle.settled:
            _check_bundles(s, [policies[k]], config, [bundle], REVENUE_FIELDS)
        out.append((policies, bundled, handle.settled[0][0] if handle.settled else None))
    return got, want, out, starts


@pytest.mark.parametrize("n_bidders,config", [
    (2, MC_BATCH), (3, EstimatorConfig(backend="mc", n_samples=4099, seed=23))],
    ids=["16-candidates", "64-candidates"])
def test_mc_optimize_individual_matches_per_policy_loop(monkeypatch, n_bidders, config):
    s = three_char_scenario(n_bidders)
    got, want, calls, starts = _scored_and_per_policy(
        monkeypatch, lambda: optimize(s, PolicyRegime.INDIVIDUAL, config))
    assert got == want          # policy, report, trace and tie-break
    assert len(got.trace) == 4 ** n_bidders
    # one batched call scores every candidate without an analytic value
    # (all but the 4 common-awareness ones) and estimates the best analytic
    # one's revenue fields
    assert [len(scored) + len(bundled) for scored, bundled, _k in calls] == [4 ** n_bidders - 3]
    assert [len(bundled) for _scored, bundled, _k in calls] == [1]
    # the winner is scored in that call, whose handle settles it on the
    # last chunk's kept bid columns: its report redraws every chunk but the
    # last, so a one-chunk search (64 candidates) draws its chunk once
    assert len(set(got.policy.awareness)) > 1
    scored, _bundled, k = calls[0]
    assert scored[k] == got.policy
    chunks = list(range(0, config.n_samples, _CHUNK))
    assert starts == chunks + chunks[:-1]
    assert len(starts) == 2 * math.ceil(config.n_samples / _CHUNK) - 1
    assert got.report == revenue(s, got.policy, config)


def test_mc_greedy_matches_per_policy_loop(monkeypatch):
    s = three_char_scenario(3)
    got, want, calls, _starts = _scored_and_per_policy(
        monkeypatch, lambda: disclosure._optimize_greedy(
            s, MC_BATCH, {}, PolicyRegime.INDIVIDUAL))
    assert got == want
    # one call per sweep of 6, 5, ... trials; the common start joins the
    # first, where it is the one analytic policy and is estimated
    sizes = [len(scored) + len(bundled) for scored, bundled, _k in calls]
    assert len(sizes) > 1
    assert sizes == [7] + [6 - k for k in range(1, len(sizes))]
    assert len(got.trace) == sum(sizes)     # the start, then every trial
    assert got.report == revenue(s, got.policy, MC_BATCH)


# characteristic 2 is read without information and 3 through a partition,
# so no bid column reads a hidden value of either at full information
HIDING = {2: NoInfo(), 3: Partition(cutpoints=[0.0])}


def test_mc_greedy_draws_each_chunk_once_per_pass(monkeypatch):
    # example1: the common start wins, so its value is analytic; it is
    # estimated in the one sweep's batch and the report reuses that bundle
    s = example1_scenario()
    config = EstimatorConfig(backend="mc", n_samples=4 * _CHUNK, seed=5)
    starts, batches = [], []
    stock, stock_chunk = disclosure.score_policies, engine._uniform_chunk

    def spy(s, policies, config, bundled=(), fields=FIELDS):
        batches.append((len(policies), len(bundled)))
        return stock(s, policies, config, bundled, fields)

    def counting(seed, start, stop, n, m):
        starts.append(start)
        return stock_chunk(seed, start, stop, n, m)

    monkeypatch.setattr(disclosure, "score_policies", spy)
    monkeypatch.setattr(engine, "_uniform_chunk", counting)
    got = disclosure._optimize_greedy(s, config, {}, PolicyRegime.INDIVIDUAL)
    monkeypatch.setattr(engine, "_uniform_chunk", stock_chunk)
    assert got.policy.awareness == (frozenset({1}),) * 2
    assert batches == [(2, 1)]          # 2 trials plus the analytic start
    assert starts == list(range(0, config.n_samples, _CHUNK))
    assert got.report == revenue(s, got.policy, config)
    # a scored winner, the first sweep's step: each sweep's pass draws every
    # chunk once and the report makes one more pass, over the winner alone
    s = three_char_scenario(2)
    config = EstimatorConfig(backend="mc", n_samples=4 * _CHUNK, seed=23)
    starts.clear()
    batches.clear()
    monkeypatch.setattr(engine, "_uniform_chunk", counting)
    got = disclosure._optimize_greedy(s, config, HIDING, PolicyRegime.INDIVIDUAL)
    monkeypatch.setattr(engine, "_uniform_chunk", stock_chunk)
    assert got.policy.awareness == (frozenset({1}), frozenset({1, 2}))
    assert batches == [(4, 1), (2, 1)]
    chunks = list(range(0, config.n_samples, _CHUNK))
    assert starts == chunks * 3
    assert got.report == revenue(s, got.policy, config)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n_samples", [1 << 14, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 7])
@pytest.mark.parametrize("search", ["individual", "greedy"])
def test_mc_search_report_matches_per_policy_loop(monkeypatch, search, n_samples, workers):
    s = three_char_scenario(2)
    config = EstimatorConfig(backend="mc", n_samples=n_samples, seed=23, workers=workers)
    if search == "individual":
        def run():
            return optimize(s, PolicyRegime.INDIVIDUAL, config, char_info=HIDING)
    else:
        def run():
            return disclosure._optimize_greedy(s, config, HIDING, PolicyRegime.INDIVIDUAL)
    got, want, calls, starts = _scored_and_per_policy(monkeypatch, run)
    assert got == want          # policy, report, trace and tie-break
    # the winner hides characteristics 2 and 3 from bidder 1 and 3 from
    # bidder 2, so its hidden values read draws no bid column reads
    assert got.policy.awareness == (frozenset({1}), frozenset({1, 2}))
    assert got.report == revenue(s, got.policy, config)
    # each scoring pass draws every chunk once.  The individual search
    # settles its winner through its one call's handle, so the report
    # redraws every chunk but the last; the greedy search settles no step,
    # and its report is one more pass over every chunk
    chunks = list(range(0, n_samples, _CHUNK))
    if search == "individual":
        assert [scored[k] for scored, _b, k in calls] == [got.policy]
        want_starts = chunks + chunks[:-1]
    else:
        assert [k for _s, _b, k in calls] == [None, None]
        want_starts = chunks * 3
    if workers > 1:
        starts, want_starts = sorted(starts), sorted(want_starts)
    assert starts == want_starts


@pytest.mark.parametrize("workers", [1, 2])
def test_mc_search_and_tradeoff_hold_and_invert_no_hidden_only_entry(monkeypatch, workers):
    # a search's report and a trade-off read no hidden value, so no chunk
    # of either call takes a key read only as a hidden value into its
    # rules or inverts its entry.  Characteristic 2 is read only under no
    # information in both calls, and in the trade-off nobody is aware of 3;
    # the search's winner hides 2 from bidder 1
    config = EstimatorConfig(backend="mc", n_samples=3 * _CHUNK + 7, seed=23,
                             workers=workers)
    chunks, inverted = [], []
    stock_chunk, stock_invert = engine._chunk_contributions, engine._invert

    def chunk(s, rules, entries, seed, start, stop):
        chunks.append((start, [engine._ids(s).items[k] for k in rules], set(entries)))
        return stock_chunk(s, rules, entries, seed, start, stop)

    def invert(law, u):
        inverted.append(law)
        return stock_invert(law, u)

    def read_no(s, chars):
        hidden_only = {(i, j) for i in range(1, s.n_bidders + 1) for j in chars}
        for _start, keys, entries in chunks:
            assert all(isinstance(level, NoInfo) for i, j, level in keys if j in chars)
            assert entries and not entries & hidden_only
        assert inverted and not any(law is s.law(i, j) for law in inverted
                                    for i, j in hidden_only)
        chunks.clear()
        inverted.clear()

    monkeypatch.setattr(engine, "_chunk_contributions", chunk)
    monkeypatch.setattr(engine, "_invert", invert)
    s = three_char_scenario(2)
    res = optimize(s, PolicyRegime.INDIVIDUAL, config, char_info=HIDING)
    assert res.policy.awareness == (frozenset({1}), frozenset({1, 2}))
    # the scoring pass, then the report's redraw of every chunk but the last
    assert sorted(start for start, _k, _e in chunks) == [0, 0, _CHUNK, _CHUNK, 2 * _CHUNK,
                                                         2 * _CHUNK, 3 * _CHUNK]
    read_no(s, {2})
    s3 = three_char_scenario(3)
    base = checked_policy(s3, [{1, 2}, {1}, {1}], {2: NoInfo()})
    check_tradeoff(s3, base, 2, 2, config)
    assert sorted(start for start, _k, _e in chunks) == [0, _CHUNK, 2 * _CHUNK, 3 * _CHUNK]
    read_no(s3, {2, 3})
    monkeypatch.undo()
    assert res.report == revenue(s, res.policy, config)


def test_mc_search_inverts_no_hidden_only_entry_and_the_winners_curse_gap_does(monkeypatch):
    # bidder 1's characteristic 2 is hidden by the winner and read by no bid
    # column; bidder 2's is hidden only by losing candidates.  Neither the
    # search's scoring pass nor its report inverts either entry, while the
    # winner's curse report, which reads hidden values, inverts bidder 1's
    # once on each of its two chunks and bidder 2's never
    s = three_char_scenario(2)
    config = EstimatorConfig(backend="mc", n_samples=_CHUNK + 1, seed=23)
    inverted = []
    stock = engine._invert

    def spy(law, u):
        inverted.append(law)
        return stock(law, u)

    monkeypatch.setattr(engine, "_invert", spy)
    res = optimize(s, PolicyRegime.INDIVIDUAL, config, char_info=HIDING)
    assert res.policy.awareness == (frozenset({1}), frozenset({1, 2}))
    assert inverted
    assert not any(law is s.law(i, 2) for law in inverted for i in (1, 2))
    inverted.clear()
    curse_gap(s, res.policy, config)
    assert sum(law is s.law(1, 2) for law in inverted) == 2
    assert not any(law is s.law(2, 2) for law in inverted)


def test_mc_tradeoff_matches_per_policy_loop(monkeypatch):
    s = three_char_scenario(3)
    base = checked_policy(s, [{1, 2, 3}, {1, 3}, {1, 3}], {})
    got, want, calls, starts = _batched_and_per_policy(
        monkeypatch, lambda: check_tradeoff(s, base, 2, 2, MC_BATCH))
    assert got == want
    assert [len(c[1]) for c in calls] == [2]
    assert starts == list(range(0, MC_BATCH.n_samples, _CHUNK))
    assert got.revenue_before == revenue(s, base, MC_BATCH).total_revenue


# --- search scores are the reported revenue --------------------------------

_QUARTERS = st.integers(-8, 8).map(lambda k: F(k, 4))


@st.composite
def _search_law(draw, discrete_only):
    kind = "discrete" if discrete_only else draw(st.sampled_from(["discrete", "normal", "uniform"]))
    if kind == "discrete":
        values = sorted(draw(st.lists(_QUARTERS, min_size=2, max_size=3, unique=True)))
        weights = draw(st.lists(st.integers(1, 4), min_size=len(values), max_size=len(values)))
        return DiscreteFinite(values, [F(w, sum(weights)) for w in weights])
    lo = float(draw(_QUARTERS))
    width = draw(st.integers(1, 8)) / 4
    return Normal(lo, width) if kind == "normal" else UniformContinuous(lo, lo + width)


@st.composite
def _search_case(draw, discrete_only):
    """A 2-3 bidder, 2-3 characteristic scenario and the exogenous info
    levels of a search on it (no information on some characteristics)."""
    n, m = draw(st.integers(2, 3)), draw(st.integers(2, 3))
    s = Scenario(n, m, tuple(tuple(draw(_search_law(discrete_only)) for _j in range(m))
                             for _i in range(n)))
    hidden = draw(st.sets(st.integers(2, m)))
    return s, {j: NoInfo() for j in hidden}


def _scored_traces(s, config, info):
    """Every (policy, value) the exhaustive and the greedy individual
    searches put in their traces, in trace order."""
    seen = []
    stock = disclosure._revenue_values

    def spy(s, policies, config):
        out = stock(s, policies, config)
        seen.extend(zip(policies, out[0]))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(disclosure, "_revenue_values", spy)
        searches = [optimize(s, PolicyRegime.INDIVIDUAL, config, char_info=info),
                    disclosure._optimize_greedy(s, config, info, PolicyRegime.INDIVIDUAL)]
    assert [v for _p, v in seen] == [v for res in searches for _d, v in res.trace]
    return seen


@given(_search_case(discrete_only=False), st.sampled_from([4099, _CHUNK + 7]),
       st.integers(0, 1 << 32))
@settings(max_examples=12, deadline=None)
def test_mc_search_values_are_reported_revenue(case, n_samples, seed):
    # every value the engine scored (all but the analytic common-awareness
    # ones) is the revenue report of its own policy
    s, info = case
    config = EstimatorConfig(backend="mc", n_samples=n_samples, seed=seed)
    for p, value in _scored_traces(s, config, info):
        if len(set(p.awareness)) > 1:
            assert value == revenue(s, p, config).total_revenue


@given(_search_case(discrete_only=True))
@settings(max_examples=12, deadline=None)
def test_exact_search_values_are_reported_revenue(case):
    # on the exact backend the analytic common-awareness values are the
    # exact revenue too, so every trace value is its policy's report
    s, info = case
    seen = _scored_traces(s, EXACT, info)
    assert seen
    for p, value in seen:
        assert value == revenue(s, p, EXACT).total_revenue


# the level each regime's candidates read on an aware characteristic j,
# before canonicalization, given the search's char_info and the candidate's
# own level (common-free-info chooses its levels itself)
REGIME_LEVEL = {
    PolicyRegime.INDIVIDUAL: lambda info, j, own: info.get(j, FullInfo()),
    PolicyRegime.PUBLIC_NO_INFO:
        lambda info, j, own: info.get(1, FullInfo()) if j == 1 else NoInfo(),
    PolicyRegime.PUBLIC_FULL_INFO: lambda info, j, own: FullInfo(),
    PolicyRegime.COMMON_FREE_INFO: lambda info, j, own: own,
}


def _file_char_info(s, p):
    """The exogenous levels the CLI passes: the file policy's level of j
    when every bidder aware of j has the same one."""
    info = {}
    for j in range(1, s.m_characteristics + 1):
        levels = [p.level(i, j) for i in range(1, s.n_bidders + 1) if j in p.aware(i)]
        if levels and all(lvl == levels[0] for lvl in levels):
            info[j] = levels[0]
    return info


def _searched(monkeypatch, s, regime, config, **kwargs):
    """The candidates an ``optimize`` call values, and how many times it
    calls ``validate``."""
    searched, checks = [], []
    stock_values, stock_validate = disclosure._revenue_values, scenario.validate

    def values_spy(s_, policies, config_):
        searched.extend(policies)
        return stock_values(s_, policies, config_)

    def validate_spy(*args):
        checks.append(args)
        return stock_validate(*args)

    with monkeypatch.context() as mp:
        mp.setattr(disclosure, "_revenue_values", values_spy)
        for module in (scenario, disclosure):
            mp.setattr(module, "validate", validate_spy)
        optimize(s, regime, config, **kwargs)
    return searched, len(checks)


def _check_candidates(s, candidates, regime, info):
    """Each candidate is ``validate``'s policy for its awareness sets at the
    regime's levels, and its id layout decodes to the reference layout."""
    level = REGIME_LEVEL[PolicyRegime(regime)]
    for cand in candidates:
        raw = [{j: level(info, j, cand.level(i, j)) for j in a}
               for i, a in enumerate(cand.awareness, start=1)]
        assert cand == validate(s.n_bidders, s.m_characteristics, s.laws,
                                cand.awareness, raw)[1]
        assert decoded_layout(s, cand) == reference_layout(s, cand)


@pytest.mark.parametrize("regime", list(PolicyRegime))
def test_every_candidate_is_the_validated_policy_with_the_reference_layout(monkeypatch,
                                                                           regime):
    # every bundled scenario, with the levels the CLI takes from its file
    config = EstimatorConfig(backend="mc", n_samples=512, seed=1)
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        s, p, _cfg = parse_scenario(str(path))
        info = _file_char_info(s, p)
        searched, checks = _searched(monkeypatch, s, regime, config, char_info=info)
        assert searched and checks == 0
        _check_candidates(s, searched, regime, info)


def test_capped_free_info_and_greedy_candidates_are_validated_policies(monkeypatch):
    s, _p, _cfg = parse_scenario(str(SCENARIO_DIR / "prop4_demo.json"))
    config = EstimatorConfig(backend="mc", n_samples=512, seed=1)
    searched, checks = _searched(monkeypatch, s, "common-free-info", config, partition_cap=16)
    assert (len(searched), checks) == (36, 0)
    _check_candidates(s, searched, "common-free-info", {})
    # past a cap of one assignment, {1} alone is searched, at full information
    s, _p, _cfg = parse_scenario(str(SCENARIO_DIR / "d1.json"))
    searched, checks = _searched(monkeypatch, s, "common-free-info", EXACT, partition_cap=1)
    assert (len(searched), checks) == (1, 0)
    _check_candidates(s, searched, "public-full-info", {})
    # 3 bidders x 7 characteristics: 18 awareness bits, past the exhaustive
    # cap, searched greedily on the exact backend
    rng = random.Random(18)
    laws = [[DiscreteFinite(sorted(rng.sample(range(-3, 6), 2)), [F(1, 4), F(3, 4)])
             for _j in range(7)] for _i in range(3)]
    s = Scenario(3, 7, tuple(map(tuple, laws)))
    info = {2: NoInfo(), 3: Partition(cells=[[1], [0]])}
    searched, checks = _searched(monkeypatch, s, "individual", EXACT, char_info=info,
                                 allow_greedy=True)
    assert len(searched) > 18 and checks == 0
    _check_candidates(s, searched, "individual", info)


def _misfit_scenario(char):
    """Two bidders who see characteristic ``char`` through laws of three
    and of two atoms; the other characteristic is a coin."""
    three = DiscreteFinite([0, 1, 2], [F(1, 4), F(1, 4), F(1, 2)])
    laws = [[coin([0, 1]), coin([0, 2])] for _ in range(2)]
    laws[0][char - 1], laws[1][char - 1] = three, coin([0, 3])
    return Scenario(2, 2, tuple(map(tuple, laws)))


@pytest.mark.parametrize("regime, char, cells, named", [
    # the partition fits bidder 1's three atoms, not bidder 2's two
    ("individual", 2, [[0, 1], [2]], "bidder 2 characteristic 2"),
    ("public-no-info", 1, [[0, 1], [2]], "bidder 2 characteristic 1"),
    # it fits neither: the levels are checked bidder-major, once per search
    ("individual", 2, [[0, 1, 2, 3]], "bidder 1 characteristic 2"),
])
def test_an_invalid_exogenous_level_names_its_bidder_and_characteristic(regime, char, cells,
                                                                        named):
    s = _misfit_scenario(char)
    with pytest.raises(ScenarioError) as err:
        optimize(s, regime, MC, char_info={char: Partition(cells=cells)})
    assert str(err.value).startswith(named + ": ")


def test_cli_optimize_with_a_misfit_partition_exits_one_with_one_line(capsysbinary, tmp_path):
    # the file's only level on characteristic 2 is bidder 1's partition of
    # three atoms; the search reads it on bidder 2's two-atom law too
    three = {"kind": "discrete", "atoms": [[0, "1/4"], [1, "1/4"], [2, "1/2"]]}
    coin_law = {"kind": "discrete", "atoms": [[0, "1/2"], [1, "1/2"]]}
    doc = {"bidders": 2,
           "characteristics": [{"distributions": [coin_law, coin_law]},
                               {"distributions": [three, coin_law]}],
           "awareness": [[1, 2], [1]],
           "info": [{"1": "full", "2": {"cells": [[0, 1], [2]]}}, {"1": "full"}],
           "estimator": {"backend": "exact"}}
    path = tmp_path / "misfit.json"
    path.write_text(json.dumps(doc))
    status = main(["optimize", "--scenario", str(path), "--regime", "individual"])
    captured = capsysbinary.readouterr()
    assert status == 1 and captured.out == b""
    assert captured.err.startswith(b"error: bidder 2 characteristic 2: ")
    assert captured.err.count(b"\n") == 1
