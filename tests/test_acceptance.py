"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line when its criterion holds at the stated
tolerance; run with `pytest -s tests/test_acceptance.py` to see them.
"""

import math
import random
import time
from fractions import Fraction as F

import numpy as np

from awarebid.disclosure import CorpusConfig, check_tradeoff, verify_suite
from awarebid.distributions import (
    DiscreteFinite,
    FullInfo,
    Normal,
    UniformContinuous,
)
from awarebid.engine import EstimatorConfig, estimate
from awarebid.fees import curse_gap, revenue
from awarebid.orderstats import (
    OrderStatLaw,
    _rank_cdf_terms,
    clark_normal_max,
    expected_order_stat,
    valuation_law,
)
from awarebid.scenario import Perspective, validate
from conftest import (
    EXACT,
    KS_COEFF_001,
    atom_cdf,
    build_d1,
    coin,
    ks_statistic,
    permanent,
    sample_draws,
)


def _report(num, label):
    print(f"ACCEPTANCE {num}: PASS - {label}")


def _full_info_policy(s, awareness):
    return validate(s.n_bidders, s.m_characteristics, s.laws, awareness,
                    [{j: FullInfo() for j in a} for a in awareness])[1]


def test_criterion_1_example1_values():
    t0 = time.perf_counter()
    u5 = UniformContinuous(0, 5)
    un = UniformContinuous(-6, 5)
    s, p = validate(2, 2, [[u5, un], [u5, un]], [[1, 2], [1]],
                    [{1: FullInfo(), 2: FullInfo()}, {1: FullInfo()}])

    base = expected_order_stat(OrderStatLaw((u5, u5), 1))
    assert abs(base - 10 / 3) < 1e-9
    laws = [valuation_law(s, p, i, Perspective(s.full_set)) for i in (1, 2)]
    raised = expected_order_stat(OrderStatLaw(tuple(laws), 1))
    assert abs(raised - 505 / 132) < 1e-9

    cfg = EstimatorConfig(backend="mc", n_samples=1_000_000, seed=101)
    mc = estimate(s, p, cfg)
    assert abs(mc.first_order_stat - 505 / 132) < 4 * mc.se_first_order_stat
    p_base = _full_info_policy(s, [[1], [1]])
    mc_base = estimate(s, p_base, cfg)
    assert abs(mc_base.first_order_stat - 10 / 3) < 4 * mc_base.se_first_order_stat

    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"Example 1: 10/3 and 505/132 to 1e-9, MC within 4 SE "
               f"({elapsed:.1f}s)")


def test_criterion_2_example2_clark():
    t0 = time.perf_counter()
    for mu1 in (-1.0, 0.0, 1.5):
        for s1 in (0.5, 1.0, 2.0):
            iid = clark_normal_max(mu1, s1 ** 2, mu1, s1 ** 2)
            assert abs(iid - (mu1 + s1 / math.sqrt(math.pi))) < 1e-12
            for mu2 in (-1.0, 0.0, 1.0):
                for s2 in (0.5, 1.0, 2.0):
                    got = clark_normal_max(mu1 + mu2, s1 ** 2 + s2 ** 2, mu1, s1 ** 2)
                    t = math.sqrt(2 * s1 ** 2 + s2 ** 2)
                    Phi = 0.5 * (1 + math.erf(mu2 / t / math.sqrt(2)))
                    phi = math.exp(-0.5 * (mu2 / t) ** 2) / math.sqrt(2 * math.pi)
                    assert abs(got - (mu1 + mu2 * Phi + t * phi)) < 1e-12

    mu1 = 1.0
    cells = 0
    for mu2 in (-1.0, 0.0, 1.0):
        for s1 in (0.5, 1.0, 2.0):
            for s2 in (0.5, 1.0, 2.0):
                a, b = Normal(mu1, s1), Normal(mu2, s2)
                s, p = validate(2, 2, [[a, b], [a, b]], [[1, 2], [1]],
                                [{1: FullInfo(), 2: FullInfo()}, {1: FullInfo()}])
                mc = estimate(s, p, EstimatorConfig(
                    backend="mc", n_samples=1_000_000, seed=7000 + cells))
                want = clark_normal_max(mu1 + mu2, s1 ** 2 + s2 ** 2, mu1, s1 ** 2)
                assert abs(mc.first_order_stat - want) < 4 * mc.se_first_order_stat
                cells += 1
    elapsed = time.perf_counter() - t0
    assert cells == 27 and elapsed < 120.0
    _report(2, f"Example 2: Clark identities to 1e-12, 27-cell MC grid within "
               f"4 SE ({elapsed:.1f}s)")


def test_criterion_3_d1_exact_oracle():
    s, p = build_d1()
    rep = revenue(s, p, EXACT)
    sched = rep.fee_schedule
    assert sched.fees == (F(9, 8), F(1, 4))
    assert sched.fees_fullview[1] == F(1, 8)
    assert sched.rents == (F(0), F(1, 8))
    assert rep.expected_first_order_stat == F(13, 8)
    assert rep.expected_second_order_stat == F(3, 8)
    assert rep.total_revenue == F(7, 4)
    assert rep.expected_first_order_stat + sched.total_rents == F(7, 4)
    assert rep.consistency_residual == 0
    assert isinstance(rep.consistency_residual, F)
    _report(3, "D1 exact: e1=9/8 e2=1/4 (e2)^M=1/8 rent=1/8 E1=13/8 E2=3/8 "
               "revenue=7/4 both routes, residual 0")


def test_criterion_4_tradeoff_d1_extended():
    s, p = build_d1()
    td = check_tradeoff(s, p, 2, 2, EXACT)
    assert td.delta_first_order_stat == F(1, 2)
    assert td.lost_rent_newly_aware == F(1, 8)
    assert td.decision == "raise"
    assert td.revenue_after == F(17, 8)
    _report(4, "trade-off on D1-extended: delta=1/2, lost rent=1/8, raise, "
               "post-raise revenue 17/8")


def test_criterion_5_proposition_suite():
    t0 = time.perf_counter()
    cfg = CorpusConfig(count=100, seed=0)
    rep = verify_suite(cfg)
    elapsed = time.perf_counter() - t0
    failures = rep.failures
    assert not failures, [(r.claim, r.scenario_id, str(r.margin)) for r in failures]
    claims = ("Prop2", "Lem3", "Lem4", "Prop3", "Lem5", "Lem6", "Lem7",
              "Prop4", "Prop5", "Prop6", "Cor1")
    counts = {c: len(rep.checked(c)) for c in claims}
    assert all(counts[c] > 0 for c in claims), counts
    assert elapsed < 300.0
    _report(5, f"proposition suite: {len(rep.results)} claim instances on "
               f"{cfg.count} exact scenarios, 0 failures ({elapsed:.1f}s); "
               f"hypothesis-satisfied counts {counts}")


def _order_stat_scenario(seed):
    rng = random.Random(f"acc6:{seed}")
    kind = seed % 3
    if kind == 0:
        laws = [[UniformContinuous(rng.uniform(-2, 0), rng.uniform(1, 3)),
                 UniformContinuous(rng.uniform(-1, 0), rng.uniform(1, 2))]
                for _ in range(2)]
        atoms = False
    elif kind == 1:
        laws = [[Normal(rng.uniform(-1, 1), rng.uniform(0.5, 2))]
                for _ in range(rng.choice((2, 3)))]
        atoms = False
    else:
        laws = []
        for _ in range(rng.choice((2, 3))):
            vals = sorted(rng.sample(range(-4, 7), rng.choice((2, 3))))
            den = rng.choice((4, 6, 8))
            cuts = sorted(rng.sample(range(1, den), len(vals) - 1))
            probs = [F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]
            laws.append([DiscreteFinite(vals, probs)])
        atoms = True
    m = len(laws[0])
    n = len(laws)
    s, p = validate(n, m, laws, [list(range(1, m + 1))] * n,
                    [{j: FullInfo() for j in range(1, m + 1)} for _ in range(n)])
    return s, p, atoms


def test_criterion_6_order_stat_laws():
    count = 100_000
    bound = KS_COEFF_001 / math.sqrt(count)
    worst = 0.0
    for seed in range(10):
        s, p, atoms = _order_stat_scenario(seed)
        vlaws = [valuation_law(s, p, i, Perspective(s.full_set))
                 for i in range(1, s.n_bidders + 1)]
        draws = sample_draws(s, seed=5000 + seed, count=count)
        bids = draws.sum(axis=2)
        ordered = np.sort(bids, axis=1)
        for rank, col in ((1, ordered[:, -1]), (2, ordered[:, -2])):
            law = OrderStatLaw(tuple(vlaws), rank)
            stat = ks_statistic(col, law.cdf, has_atoms=atoms)
            worst = max(worst, stat)
            assert stat < bound, (seed, rank, stat, bound)

    # the permanent-class formula, on exact Fraction columns, equals the
    # specialized formulas exactly, n <= 6
    rng = random.Random("acc6perm")
    for n in range(2, 7):
        laws = []
        for _ in range(n):
            vals = sorted(rng.sample(range(-4, 7), 2))
            laws.append(DiscreteFinite(vals, [F(1, 3), F(2, 3)]))
        grid = sorted({v for law in laws for v in law.values})
        for y in grid:
            G = [atom_cdf(law, y) for law in laws]
            prod = math.prod(G)
            two = prod + sum(
                (1 - G[i]) * math.prod(G[k] for k in range(n) if k != i)
                for i in range(n))
            assert _rank_cdf_terms(G, 1, one=F(1)) == prod
            assert _rank_cdf_terms(G, 2, one=F(1)) == two
            cols = [G] * (n - 1) + [[1 - g for g in G]]
            per = permanent([[col[i] for col in cols] for i in range(n)])
            assert _rank_cdf_terms(G, 2, one=F(1)) == \
                prod + F(1, math.factorial(n - 1)) * per
    _report(6, f"order statistics: 10 scenarios x 2 ranks within KS 0.001 bound "
               f"(worst {worst:.4f} < {bound:.4f}); permanent path exact for n<=6")


def test_criterion_7_determinism(scenario_dir):
    import subprocess
    import sys

    # identical flags, fresh process each time: byte-identical output
    for args in (["revenue", "--scenario", str(scenario_dir / "d1.json")],
                 ["fees", "--scenario", str(scenario_dir / "example1.json"),
                  "--samples", "50000"],
                 ["orderstats", "--scenario", str(scenario_dir / "example2.json")],
                 ["fees", "--scenario", str(scenario_dir / "d1.json"),
                  "--backend", "mc", "--samples", "30000", "--seed", "12"]):
        cmd = [sys.executable, "-m", "awarebid.cli", *args]
        runs = [subprocess.run(cmd, capture_output=True, check=True).stdout
                for _ in range(2)]
        assert runs[0] == runs[1] and runs[0].startswith(b"field,value")

    s, p = build_d1()
    runs = [estimate(s, p, EstimatorConfig(backend="mc", n_samples=300_000,
                                           seed=13, workers=w))
            for w in (1, 2, 5)]
    assert runs[0] == runs[1] == runs[2]
    _report(7, "byte-identical fresh-process reruns for four commands; "
               "Monte Carlo invariant to worker count 1/2/5")


def test_criterion_8_winners_curse():
    hidden = DiscreteFinite([-2, 0], [F(1, 2), F(1, 2)])     # mean -1
    base = coin([0, 1])
    s, p = validate(2, 2, [[base, hidden], [base, hidden]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])
    rep = curse_gap(s, p, EXACT)
    for i in (0, 1):
        assert rep.win_probs[i] == F(1, 2)
        assert rep.gaps[i] == F(-1) * rep.win_probs[i]
        assert rep.gaps[i] == F(-1, 2)
    _report(8, "winner's curse: gap equals hidden mean times win probability "
               "exactly (-1 x 1/2)")
