"""The benchmark's workloads: seeded inputs, the ops that use them, and an
oracle for every op.

Each workload is built from its name and a seed.  Building it parses the
bundled scenario files and generates the seeded inputs; that is the set-up
the benchmark times.  ``cycle(k)`` then lists the ops of the k-th round of
the closed loop.  An op calls awarebid's public API only, always looking
functions up on their modules at call time, so a traced run sees the
wrapped versions.  Its oracle raises ``Mismatch`` on a wrong output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from awarebid import _kernels, cli, disclosure, fees, orderstats, piecewise, scenario
from awarebid import distributions as dist
from awarebid.engine import EstimatorConfig

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

EXAMPLE_DRAWS = 1 << 19              # per estimate on example1 and example2
MC_ESTIMATE_DRAWS = 1 << 18          # per estimate on generated scenarios
SEARCH_DRAWS = 1 << 14               # per MC estimate inside a policy search
KERNEL_ROWS = 1 << 17
KERNEL_BIDDERS = (2, 4, 8)
CORPUS_COUNT = 3                     # scenarios per verify_suite call
# Every round verifies one corpus from each band of a cost proxy, so rounds
# of different seeds carry the same mix of small and large scenarios.  The
# proxy sums 2^(support points) over a corpus' scenarios: verification time
# roughly doubles with each support point a scenario adds.  The edges are the
# deciles of the proxy over random corpus seeds at the default sizes.
CORPUS_COST_EDGES = (128, 176, 224, 288, 336, 384, 448, 560, 672)
# The corpora repeat every CORPUS_ROUNDS rounds, fewer than a run finishes,
# so a run's peak memory and op mix do not depend on how many rounds it got
# through.
CORPUS_ROUNDS = 8
PROP4_PARTITION_CAP = 16             # 36 of the 100 common-free-info candidates


class Mismatch(Exception):
    """An op's output disagrees with its oracle."""


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


def within_4se(value, se, ref, what: str) -> None:
    """The Monte Carlo convention of tests/test_acceptance.py."""
    expect(se is not None and math.isfinite(se) and se > 0, f"{what}: bad SE {se!r}")
    expect(abs(float(value) - float(ref)) < 4 * se,
           f"{what}: {float(value)!r} is not within 4 SE ({se!r}) of {float(ref)!r}")


def close(a, b, tol: float, what: str) -> None:
    expect(abs(float(a) - float(b)) < tol, f"{what}: {float(a)!r} != {float(b)!r}")


@dataclass(frozen=True)
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    work: float = 0.0                # the workload's work units this op does


def load(name: str):
    return cli.parse_scenario(str(SCENARIOS / f"{name}.json"))


def mc_config(n_samples: int, seed: int) -> EstimatorConfig:
    return EstimatorConfig(n_samples=n_samples, seed=seed, backend="mc", workers=1)


def full_info(laws, awareness):
    """Validated scenario and policy, full information on every aware pair."""
    return scenario.validate(len(laws), len(laws[0]), laws, awareness,
                             [{j: dist.FullInfo() for j in a} for a in awareness])


# ---------------------------------------------------------------------------
# Seeded input generators
# ---------------------------------------------------------------------------

def _probs(rng: random.Random, k: int):
    den = rng.choice([4, 8])
    cuts = sorted(rng.sample(range(1, den), k - 1))
    return [Fraction(b - a, den) for a, b in zip([0] + cuts, cuts + [den])]


def _normal(rng, lo, hi):
    return dist.Normal(round(rng.uniform(lo, hi), 2), round(rng.uniform(0.5, 1.5), 2))


def _uniform(rng):
    lo = round(rng.uniform(-2.0, 1.0), 1)
    return dist.UniformContinuous(lo, lo + round(rng.uniform(2.0, 5.0), 1))


def mixed_scenario(rng: random.Random):
    """6 bidders x 4 characteristics for single-policy MC estimation.

    Characteristic 1 is a tie-heavy discrete law (three small integers),
    2 normal, 3 uniform, 4 normal revealed through cutpoints.  The awareness
    sets are a fixed multiset in seeded order, so every seed needs the same
    four bid profiles (full view plus three narrower views).
    """
    n, m = 6, 4
    support = sorted(rng.sample(range(5), 3))
    laws = [[dist.DiscreteFinite(support, _probs(rng, 3)), _normal(rng, 0.0, 2.0),
             _uniform(rng), _normal(rng, -1.0, 1.0)] for _ in range(n)]
    awareness = [{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2}, {1, 2}, {1, 3, 4}, {1}]
    rng.shuffle(awareness)
    info = []
    for i, aware in enumerate(awareness):
        levels = {}
        for j in aware:
            law = laws[i][j - 1]
            if j == 1:
                levels[j] = rng.choice([dist.FullInfo(), dist.Partition(cells=[(0, 1), (2,)])])
            elif j == 3:
                levels[j] = rng.choice([dist.FullInfo(), dist.NoInfo()])
            elif j == 4:
                cuts = sorted({round(law.mean + law.stddev * rng.uniform(-1, 1), 2)
                               for _ in range(rng.randint(1, 2))})
                levels[j] = dist.Partition(cutpoints=cuts)
            else:
                levels[j] = dist.FullInfo()
        info.append(levels)
    return scenario.validate(n, m, laws, [sorted(a) for a in awareness], info)


def normal_search_scenario(rng: random.Random):
    """3 bidders x 3 normal characteristics: 64 individual-regime candidates,
    common-awareness ones on the closed-form normal route."""
    laws = [[_normal(rng, 0.5, 2.0), _normal(rng, -0.5, 1.0), _normal(rng, -1.0, 0.5)]
            for _ in range(3)]
    return full_info(laws, [[1]] * 3)[0]


def paired_search_scenario(rng: random.Random):
    """4 bidders x 2 characteristics, normal pairs and uniform pairs
    alternating: 16 candidates whose common-awareness laws are normal or
    trapezoid (Simpson route, no grid law)."""
    laws = [[_normal(rng, 0.5, 2.0), _normal(rng, -0.5, 1.0)] if i % 2 == 0
            else [_uniform(rng), _uniform(rng)] for i in range(4)]
    return full_info(laws, [[1]] * 4)[0]


def uniform_family_scenario(rng: random.Random):
    """3 bidders x 2 uniform characteristics, two bidders aware of both:
    two trapezoid valuation laws and one uniform, which the piecewise
    oracle covers."""
    laws = [[_uniform(rng), _uniform(rng)] for _ in range(3)]
    return full_info(laws, [[1, 2], [1, 2], [1]])


def normal_pair_scenario(rng: random.Random):
    """2 bidders x 2 normal characteristics, one bidder aware of both;
    Clark's formula is the oracle."""
    laws = [[_normal(rng, 0.0, 2.0), _normal(rng, -1.0, 1.0)] for _ in range(2)]
    return full_info(laws, [[1, 2], [1]])


def tie_heavy_bids(rng: np.random.Generator, rows: int, bidders: int) -> np.ndarray:
    """Normal bids on a 0.1 lattice (frequent ties at the top), plus 1 % of
    rows where bidder 2 copies bidder 1."""
    bids = np.round(rng.normal(size=(rows, bidders)), 1)
    rows_tied = rng.integers(0, rows, size=rows // 100)
    bids[rows_tied, 1] = bids[rows_tied, 0]
    return bids


def corpus_seed_in_band(rng: random.Random, band: int) -> int:
    """First seeded corpus seed whose cost proxy falls in the given band of
    CORPUS_COST_EDGES.  Corpus laws share their support across bidders."""
    edges = (0, *CORPUS_COST_EDGES, math.inf)
    while True:
        cfg = disclosure.CorpusConfig(count=CORPUS_COUNT, seed=rng.randrange(1 << 31))
        cost = 0
        for i in range(cfg.count):
            s = disclosure.random_discrete_scenario(cfg, i)[1]
            cost += 2 ** sum(len(s.law(1, j).values) for j in range(1, s.m_characteristics + 1))
        if edges[band] <= cost < edges[band + 1]:
            return cfg.seed


# ---------------------------------------------------------------------------
# References the oracles compare against (computed outside the timed ops)
# ---------------------------------------------------------------------------

def _cell_atoms(law, level):
    cells = dist.cells(law, level)
    values = [dist.conditional_mean(law, level, c) for c in cells]
    if isinstance(law, dist.DiscreteFinite):
        probs = [dist.cell_probability(law, c) for c in cells]
    else:
        probs = [Fraction(float(dist.cell_probability(law, c))).limit_denominator(10 ** 12)
                 for c in cells[:-1]]
        probs.append(1 - sum(probs))
        values = [float(v) for v in values]
    return dist.DiscreteFinite.from_atoms(list(zip(values, probs)))


def full_view_bid_law(s, p, bidder: int):
    """Law of a bidder's bid under full awareness, cutpoint partitions
    included (each contributes the law of its cell means)."""
    law = dist.PointMass(0.0)
    for j in sorted(p.aware(bidder)):
        base, level = s.law(bidder, j), p.level(bidder, j)
        if isinstance(level, dist.NoInfo):
            comp = dist.PointMass(float(dist.mean(base)))
        elif isinstance(level, dist.FullInfo):
            comp = base
        else:
            comp = _cell_atoms(base, level)
        law = dist.convolve(law, comp)
    return law


def expected_max(laws, points: int = 1 << 18) -> float:
    """E[max] = hi - integral of prod_i F_i over [lo, hi], by trapezoid."""
    ranges = [dist.quantile_range(law) for law in laws]
    lo, hi = min(r[0] for r in ranges), max(r[1] for r in ranges)
    y = np.linspace(lo, hi, points)
    g = np.prod([dist.cdf(law, y) for law in laws], axis=0)
    return float(hi - np.trapezoid(g, y))


def kernel_reference(bids: np.ndarray):
    """Second-price statistics by sorting, for the identity check."""
    srt = np.sort(bids, axis=1)
    first, second = srt[:, -1], srt[:, -2]
    top = bids == first[:, None]
    n_top = top.sum(axis=1)
    credit = top / n_top[:, None]
    surplus = np.where(top & (n_top == 1)[:, None], (first - second)[:, None], 0.0)
    return first, second, credit, surplus


def common_revenue_reference(s, p):
    """Corollary 1: with equal awareness, revenue is E[max bid] (exact route)."""
    view = scenario.Perspective(s.full_set)
    laws = tuple(orderstats.valuation_law(s, p, i, view) for i in range(1, s.n_bidders + 1))
    return orderstats.expected_order_stat(orderstats.OrderStatLaw(laws, 1))


# ---------------------------------------------------------------------------
# Shared oracles
# ---------------------------------------------------------------------------

def check_revenue_mc(rep, what: str) -> None:
    values = [rep.total_revenue, rep.expected_first_order_stat,
              rep.expected_second_order_stat, *rep.fee_schedule.fees,
              *rep.fee_schedule.fees_fullview]
    expect(all(math.isfinite(v) for v in values), f"{what}: non-finite output")
    expect(rep.expected_second_order_stat <= rep.expected_first_order_stat,
           f"{what}: second order statistic above the first")
    close(rep.consistency_residual, 0.0, 1e-9 * (1 + abs(rep.total_revenue)),
          f"{what}: revenue routes disagree")


def check_search(result, expected_candidates: int, what: str) -> None:
    """Every candidate scored; the winner's final MC report agrees with its
    search value: exactly when the search estimated it on the same draws,
    within 4 SE when the search used the analytic common-awareness route."""
    values = [v for _d, v in result.trace]
    expect(len(values) == expected_candidates,
           f"{what}: {len(values)} candidates, expected {expected_candidates}")
    expect(all(math.isfinite(float(v)) for v in values), f"{what}: non-finite candidate")
    best = max(values)
    rep = result.report
    if len(set(result.policy.awareness)) == 1:
        within_4se(rep.total_revenue, rep.se_total_revenue, best, f"{what}: winner revenue")
    else:
        expect(rep.total_revenue == best, f"{what}: winner report {rep.total_revenue!r} "
                                          f"differs from its search value {best!r}")


class Workload:
    """Inputs plus the op cycle of one workload; subclasses define both."""

    name = ""
    work_unit = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(f"{self.name}:{seed}")
        self._refs: dict = {}

    def ref(self, key, compute):
        """Oracle reference, computed once per input on first use."""
        if key not in self._refs:
            self._refs[key] = compute()
        return self._refs[key]

    def cycle(self, k: int) -> list:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# mc-estimate
# ---------------------------------------------------------------------------

class McEstimate(Workload):
    name = "mc-estimate"
    work_unit = "MC draws estimated"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        ex1, ex1_p, _cfg = load("example1")
        ex2, ex2_p, _cfg = load("example2")
        seeds = [rng.randrange(1 << 32) for _ in range(4)]
        self.inputs = {
            "example1": (ex1, ex1_p, mc_config(EXAMPLE_DRAWS, seeds[0])),
            "example1-common": (ex1, full_info(ex1.laws, [[1], [1]])[1],
                                mc_config(EXAMPLE_DRAWS, seeds[1])),
            "example2": (ex2, ex2_p, mc_config(EXAMPLE_DRAWS, seeds[2])),
        }
        for k in range(2):
            s, p = mixed_scenario(random.Random(f"{self.name}:{seed}:mixed{k}"))
            self.inputs[f"mixed{k}"] = (s, p, mc_config(MC_ESTIMATE_DRAWS, seeds[3] + k))
        nprng = np.random.default_rng(seeds[3])
        self.bids = {n: tie_heavy_bids(nprng, KERNEL_ROWS, n) for n in KERNEL_BIDDERS}
        self.revenue_seen: dict = {}

    def _reference_first(self, key):
        s, p, _cfg = self.inputs[key]
        if key == "example1":
            return Fraction(505, 132)
        if key == "example1-common":
            return Fraction(10, 3)
        if key == "example2":
            a, b = (full_view_bid_law(s, p, i) for i in (1, 2))
            return orderstats.clark_normal_max(a.mean, a.stddev ** 2, b.mean, b.stddev ** 2)
        return expected_max([full_view_bid_law(s, p, i) for i in range(1, s.n_bidders + 1)])

    def _revenue(self, key) -> Op:
        s, p, cfg = self.inputs[key]

        def check(rep):
            check_revenue_mc(rep, key)
            ref = self.ref(key, lambda: self._reference_first(key))
            within_4se(rep.expected_first_order_stat, rep.se_first_order_stat, ref,
                       f"{key}: first order statistic")
            if len(set(p.awareness)) == 1:
                within_4se(rep.total_revenue, rep.se_total_revenue, ref,
                           f"{key}: common-awareness revenue")
                expect(all(r == 0 for r in rep.fee_schedule.rents), f"{key}: nonzero rent")
            first = self.revenue_seen.setdefault(key, rep)
            expect(rep == first, f"{key}: revenue differs between rounds on the same draws")

        return Op(f"revenue {key}", lambda: fees.revenue(s, p, cfg), check, cfg.n_samples)

    def _entry_fees(self, key) -> Op:
        s, p, cfg = self.inputs[key]

        def check(sched):
            rep = self.revenue_seen.get(key)
            expect(rep is not None, f"{key}: no revenue report to compare with")
            expect(sched == rep.fee_schedule, f"{key}: entry fees differ from the revenue "
                                              "report's on the same draws")

        return Op(f"entry_fees {key}", lambda: fees.entry_fees(s, p, cfg), check,
                  cfg.n_samples)

    def _curse_gap(self, key) -> Op:
        s, p, cfg = self.inputs[key]

        def check(c):
            rep = self.revenue_seen.get(key)
            expect(rep is not None, f"{key}: no revenue report to compare with")
            sched = rep.fee_schedule
            for i in range(s.n_bidders):
                expect(c.actual_payoffs[i] == sched.fees_fullview[i] + c.gaps[i] - sched.fees[i],
                       f"{key}: bidder {i + 1} payoff does not match the revenue report")
                if p.aware(i + 1) == s.full_set:
                    expect(c.gaps[i] == 0, f"{key}: fully aware bidder {i + 1} has a gap")
            close(sum(c.win_probs), 1.0, 1e-9, f"{key}: win probabilities")

        return Op(f"curse_gap {key}", lambda: fees.curse_gap(s, p, cfg), check, cfg.n_samples)

    def _kernels(self) -> Op:
        def run():
            return [_kernels.second_price_stats(self.bids[n]) for n in KERNEL_BIDDERS]

        def check(outs):
            for n, out in zip(KERNEL_BIDDERS, outs):
                ref = self.ref(("kernel", n), lambda: kernel_reference(self.bids[n]))
                expect(all(np.array_equal(a, b) for a, b in zip(out, ref)),
                       f"kernel {n} bidders: outputs differ from the sorting reference")

        return Op("kernel tie-heavy 2/4/8 bidders", run, check)

    def cycle(self, k: int) -> list:
        return [
            self._revenue("example1"), self._curse_gap("example1"),
            self._revenue("example1-common"),
            self._revenue("example2"), self._entry_fees("example2"),
            self._revenue("mixed0"), self._entry_fees("mixed0"),
            self._revenue("mixed1"), self._curse_gap("mixed1"),
            self._kernels(),
        ]


# ---------------------------------------------------------------------------
# mc-policy-search
# ---------------------------------------------------------------------------

class McPolicySearch(Workload):
    name = "mc-policy-search"
    work_unit = "candidate policies scored"

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        cfg = mc_config(SEARCH_DRAWS, rng.randrange(1 << 32))
        self.cfg = cfg
        self.scenarios = {name: load(name)[:2] for name in ("example1", "example2", "prop5_demo")}
        self.scenarios["normal3x3"] = (normal_search_scenario(rng), None)
        self.scenarios["normal3x3-b"] = (normal_search_scenario(rng), None)
        paired = paired_search_scenario(rng)
        self.scenarios["paired4x2"] = (
            paired, full_info(paired.laws, [[1, 2], [1], [1], [1]])[1])
        self.scenarios["paired4x2-b"] = (paired_search_scenario(rng), None)

    def _optimize(self, key) -> Op:
        s = self.scenarios[key][0]
        count = 2 ** (s.n_bidders * (s.m_characteristics - 1))
        return Op(f"individual {key}",
                  lambda: disclosure.optimize(s, "individual", self.cfg),
                  lambda res: check_search(res, count, f"individual {key}"), count)

    def _tradeoff(self, key) -> Op:
        s, base = self.scenarios[key]

        def reference():
            raised = full_info(s.laws, [sorted(a | {2}) if i == 1 else sorted(a)
                                        for i, a in enumerate(base.awareness)])[1]
            return (fees.revenue(s, base, self.cfg).total_revenue,
                    fees.revenue(s, raised, self.cfg).total_revenue)

        def check(td):
            before, after = self.ref(("tradeoff", key), reference)
            expect((td.revenue_before, td.revenue_after) == (before, after),
                   f"tradeoff {key}: revenues differ from direct estimates on the same draws")
            expect((td.decision == "raise") == (td.lhs > td.lost_rent_newly_aware),
                   f"tradeoff {key}: decision {td.decision} contradicts its components")
            for se in (td.se_delta_first_order_stat, td.se_delta_rents_remaining_unaware,
                       td.se_lost_rent_newly_aware):
                expect(se is not None and math.isfinite(se), f"tradeoff {key}: bad SE")

        return Op(f"tradeoff {key}",
                  lambda: disclosure.check_tradeoff(s, base, 2, 2, self.cfg), check)

    def cycle(self, k: int) -> list:
        return [self._optimize(key) for key in
                ("example1", "example2", "prop5_demo", "normal3x3", "normal3x3-b",
                 "paired4x2", "paired4x2-b")] + \
               [self._tradeoff(key) for key in ("example1", "example2", "paired4x2")]


# ---------------------------------------------------------------------------
# analytic-search
# ---------------------------------------------------------------------------

class AnalyticSearch(Workload):
    name = "analytic-search"
    work_unit = "candidate policies scored"

    # (scenario, regime, expected candidates, partition cap)
    SEARCHES = (
        ("prop4_demo", "common-free-info", 36, PROP4_PARTITION_CAP),
        ("prop4_demo", "public-full-info", 4, None),
        ("prop5_demo", "common-free-info", 20, None),
        ("prop5_demo", "public-full-info", 2, None),
        ("example2", "common-free-info", 20, None),
        ("example2", "public-full-info", 2, None),
    )

    def __init__(self, seed: int):
        super().__init__(seed)
        rng = self.rng
        self.cfg = mc_config(SEARCH_DRAWS, rng.randrange(1 << 32))
        self.scenarios = {name: load(name)[:2]
                          for name in ("prop4_demo", "prop5_demo", "example2", "example1")}
        ex1 = self.scenarios["example1"][0]
        self.orderstats_inputs = {
            "example1-common": (ex1, full_info(ex1.laws, [[1], [1]])[1], Fraction(10, 3)),
            "example1": (*self.scenarios["example1"], Fraction(505, 132)),
        }
        self.orderstats_inputs["uniform"] = (*uniform_family_scenario(rng), None)
        for k in range(5):
            self.orderstats_inputs[f"normal{k}"] = (*normal_pair_scenario(rng), None)

    def _search(self, key, regime, count, cap) -> Op:
        s = self.scenarios[key][0]
        kwargs = {} if cap is None else {"partition_cap": cap}
        what = f"{regime} {key}"

        def check(res):
            check_search(res, count, what)
            if key == "prop5_demo" and regime == "public-full-info":
                # Proposition 5: E[max] of characteristic 2 is negative, so it stays hidden
                expect(all(a == {1} for a in res.policy.awareness), f"{what}: disclosed")

        return Op(what, lambda: disclosure.optimize(s, regime, self.cfg, **kwargs), check,
                  count)

    def _orderstats(self, key) -> Op:
        s, p, pinned = self.orderstats_inputs[key]

        def run():
            view = scenario.Perspective(s.full_set)
            laws = [orderstats.valuation_law(s, p, i, view) for i in range(1, s.n_bidders + 1)]
            e1 = orderstats.expected_order_stat(orderstats.OrderStatLaw(tuple(laws), 1))
            e2 = orderstats.expected_order_stat(orderstats.OrderStatLaw(tuple(laws), 2))
            if all(isinstance(law, (dist.Normal, dist.PointMass)) for law in laws):
                mu = [law.mean if isinstance(law, dist.Normal) else law.value for law in laws]
                var = [law.stddev ** 2 if isinstance(law, dist.Normal) else 0.0 for law in laws]
                ref = orderstats.clark_normal_max(mu[0], var[0], mu[1], var[1])
            else:
                ref = piecewise.expected_value(piecewise.order_stat_rational(laws, 1))
            return e1, e2, ref

        def check(out):
            e1, e2, ref = out
            close(e1, ref, 1e-9, f"orderstats {key}: reference")
            if pinned is not None:
                close(e1, pinned, 1e-9, f"orderstats {key}: pinned value")
            expect(e2 <= e1 + 1e-12, f"orderstats {key}: second above first")

        return Op(f"orderstats {key}", run, check)

    def cycle(self, k: int) -> list:
        return [self._search(*spec) for spec in self.SEARCHES] + \
               [self._orderstats(key) for key in self.orderstats_inputs]


# ---------------------------------------------------------------------------
# exact-verify
# ---------------------------------------------------------------------------

class ExactVerify(Workload):
    name = "exact-verify"
    work_unit = "corpus scenarios verified"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.exact = {name: load(name) for name in ("d1", "example1_discrete", "curse_demo")}
        self.corpus_seeds: dict = {}

    def _verify(self, corpus_seed: int, band: int) -> Op:
        cfg = disclosure.CorpusConfig(count=CORPUS_COUNT, seed=corpus_seed)

        def check(report):
            expect(len(report.results) > 0, f"corpus {corpus_seed}: no claims recorded")
            expect(not report.failures, f"corpus {corpus_seed}: {len(report.failures)} "
                                        "claims failed")
            expect(all(isinstance(r.margin, Fraction) for r in report.results),
                   f"corpus {corpus_seed}: inexact margin")

        return Op(f"verify_suite cost band {band}", lambda: disclosure.verify_suite(cfg),
                  check, cfg.count)

    def _revenues(self) -> Op:
        def run():
            return {key: fees.revenue(s, p, cfg) for key, (s, p, cfg) in self.exact.items()}

        def check(reps):
            for key, rep in reps.items():
                expect(rep.consistency_residual == 0, f"{key}: nonzero residual")
                expect(isinstance(rep.total_revenue, Fraction), f"{key}: inexact revenue")
                if key == "d1":
                    expect(rep.total_revenue == Fraction(7, 4), f"d1: revenue {rep.total_revenue}")
                    continue
                s, p, _cfg = self.exact[key]
                ref = self.ref(key, lambda: common_revenue_reference(s, p))
                expect(rep.total_revenue == ref, f"{key}: revenue {rep.total_revenue} "
                                                 f"!= E[max bid] {ref}")

        return Op("exact revenue d1/example1_discrete/curse_demo", run, check)

    def cycle(self, k: int) -> list:
        k %= CORPUS_ROUNDS
        if k not in self.corpus_seeds:
            rng = random.Random(f"{self.name}:{self.seed}:{k}")
            self.corpus_seeds[k] = [corpus_seed_in_band(rng, b)
                                    for b in range(len(CORPUS_COST_EDGES) + 1)]
        return [self._verify(cs, b) for b, cs in enumerate(self.corpus_seeds[k])] + \
               [self._revenues()]


WORKLOADS = {w.name: w for w in (McEstimate, McPolicySearch, AnalyticSearch, ExactVerify)}


def build(name: str, seed: int) -> Workload:
    return WORKLOADS[name](seed)
