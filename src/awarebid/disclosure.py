"""Disclosure-policy search and machine-checked theory verification.

Regimes
-------
* ``individual``: the seller chooses each bidder's awareness set; the
  information level of every characteristic is fixed exogenously (she
  cannot control how much a bidder learns once aware).
* ``public-no-info``: awareness can only be raised for all bidders at once
  and newly disclosed characteristics come with no information.
* ``public-full-info``: common awareness, full information on everything
  disclosed.
* ``common-free-info``: common awareness plus a free choice of finite
  partition information per (bidder, characteristic).

Every candidate of a search or a claim comes from one constructor
(``_policy``): ``lattice`` sets and levels made canonical once per search
(``_levels``), so only policies from outside go through ``validate``.

The verification suite replays the theory's claims on randomized
finite-support scenarios with the exact backend, recording for every claim
whether its hypothesis held and the exact rational margin by which the
conclusion held.  A false conclusion under a satisfied hypothesis is a
build-failing event, surfaced by the report.  Propositions 2 and 5 and the
counterexample search share one full-information pass per scenario
(``_full_info_steps``), so each of their policies is evaluated once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import islice, product as _iproduct
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    DiscreteFinite,
    DistributionError,
    FullInfo,
    InfoLevel,
    NoInfo,
    Partition,
    _atom_cells,
    atom_lattice,
    cell_means,
    mean,
)
from .engine import REVENUE_FIELDS, EstimatorConfig, estimate_policies, score_policies
from .fees import RevenueReport, revenue
from .orderstats import (
    AtomGrid,
    OrderStatLaw,
    expected_order_stat,
    expected_order_stats,
    valuation_law,
)
from .scenario import (
    DisclosurePolicy,
    Perspective,
    Scenario,
    ScenarioError,
    _canonical_level,
    lattice,
    validate,
)

__all__ = [
    "PolicyRegime",
    "OptimizeResult",
    "TradeoffBreakdown",
    "CorpusConfig",
    "ClaimResult",
    "VerificationReport",
    "optimize",
    "check_tradeoff",
    "verify_suite",
    "counterexample_search",
    "random_discrete_scenario",
]


class PolicyRegime(str, Enum):
    INDIVIDUAL = "individual"
    PUBLIC_NO_INFO = "public-no-info"
    PUBLIC_FULL_INFO = "public-full-info"
    COMMON_FREE_INFO = "common-free-info"


_AWARENESS_BITS_CAP = 16
# information assignments per common awareness set (common-free-info, Prop 6)
_PARTITION_CAP = 20000


# ---------------------------------------------------------------------------
# Policy construction helpers
# ---------------------------------------------------------------------------

def _levels(s: Scenario, char_info: dict) -> dict:
    """Each (bidder, characteristic j)'s level ``char_info.get(j, FullInfo())``,
    canonical for its law: a search's levels, checked once."""
    return {(i, j): _canonical_level(s, i, j, char_info.get(j, FullInfo()))
            for i in range(1, s.n_bidders + 1) for j in range(1, s.m_characteristics + 1)}


def _policy(awareness: Sequence, levels: dict) -> DisclosurePolicy:
    """The one candidate constructor: bidder i aware of the frozenset
    ``awareness[i - 1]`` at ``levels[i, j]`` on each j in it.  On ``lattice``
    sets and ``_levels`` it is ``==`` ``validate``'s policy, unchecked."""
    return DisclosurePolicy(tuple(awareness), tuple({j: levels[i, j] for j in sorted(a)}
                                                    for i, a in enumerate(awareness, start=1)))


def _disclosure_rank(level: InfoLevel) -> int:
    if isinstance(level, NoInfo):
        return 0
    if isinstance(level, Partition):
        return len(level.cells) if level.cells else len(level.cutpoints) + 1
    return 1 << 20      # FullInfo on a continuous law: finest


def _policy_disclosure(p: DisclosurePolicy) -> int:
    return sum(_disclosure_rank(lvl) for levels in p.info for lvl in levels.values())


# ---------------------------------------------------------------------------
# Revenue evaluation
# ---------------------------------------------------------------------------

def _common_awareness_max(s: Scenario, p: DisclosurePolicy) -> OrderStatLaw:
    """The maximum whose expectation is a common-awareness policy's revenue:
    with equal awareness all rents vanish, so revenue equals the expected
    maximum of the bidders' estimated valuation laws (exact for finitely
    supported laws)."""
    return OrderStatLaw(tuple(valuation_law(s, p, i, Perspective(s.full_set))
                              for i in range(1, s.n_bidders + 1)), 1)


def _rank_key(value, p: DisclosurePolicy):
    """Optimizer order: higher revenue, then fewer aware pairs, then less
    disclosure."""
    return (value, -sum(map(len, p.awareness)), -_policy_disclosure(p))


def _revenue_values(s: Scenario, policies: list, config: EstimatorConfig):
    """Revenue of each policy, a bundle for each one estimated (None
    elsewhere), and ``settle(k)``, the bundle of a scored policy k; every
    bundle holds the fields a revenue report reads (``REVENUE_FIELDS``).
    Every policy without an analytic common-awareness value is scored in
    one batched call (``score_policies``), which computes only its revenue
    and whose handle settles one scored policy on the same draws, redrawing
    every chunk but the last.  The analytic policy ranked first by
    ``_rank_key`` keeps its analytic value and is estimated in that same
    pass.  The analytic values of a call come from one
    ``expected_order_stats`` batch; a policy without one (a continuous
    partition, a failed quadrature) is scored."""
    values = [None] * len(policies)
    common, maxima = [], []
    for k, p in enumerate(policies):
        if len(set(p.awareness)) == 1:
            try:
                maxima.append(_common_awareness_max(s, p))
            except DistributionError:
                continue    # e.g. continuous partition: estimate through the engine
            common.append(k)
    for k, value in zip(common, expected_order_stats(maxima)):
        if not isinstance(value, DistributionError):
            values[k] = value
    pending = [k for k in range(len(policies)) if values[k] is None]
    analytic = [k for k in range(len(policies)) if values[k] is not None]
    best = [max(analytic, key=lambda k: _rank_key(values[k], policies[k]))] if analytic else []
    scores, reports, settle = score_policies(s, [policies[k] for k in pending], config,
                                             bundled=[policies[k] for k in best],
                                             fields=REVENUE_FIELDS)
    for k, v in zip(pending, scores):
        values[k] = v
    bundles = [None] * len(policies)
    for k, b in zip(best, reports):
        bundles[k] = b
    return values, bundles, lambda k: settle(pending.index(k))


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OptimizeResult:
    policy: DisclosurePolicy
    report: RevenueReport
    trace: tuple                        # (description, revenue) per candidate
    regime: PolicyRegime
    exhaustive: bool


def _awareness_candidates(s: Scenario):
    """All per-bidder awareness assignments, ordered by total aware pairs
    then canonically (the optimizer's tie order)."""
    combos = list(_iproduct(lattice(s.m_characteristics), repeat=s.n_bidders))
    combos.sort(key=lambda c: (sum(len(a) for a in c),
                               tuple(tuple(sorted(a)) for a in c)))
    return combos


def optimize(s: Scenario, regime: PolicyRegime, config: EstimatorConfig,
             char_info: Optional[dict] = None,
             allow_greedy: bool = False,
             partition_cap: int = _PARTITION_CAP) -> OptimizeResult:
    """Best policy under the regime, every candidate aware of characteristic
    1, by exhaustive enumeration (ties resolved toward fewer aware pairs,
    then less disclosure, then canonical order).  Past 16 awareness bits,
    n * (m - 1) individually and m - 1 in common, the individual regime runs
    greedy one-pair additions when ``allow_greedy`` is set; anything else
    raises ScenarioError.  ``partition_cap`` bounds ``common-free-info``
    (see ``_free_info_candidates``)."""
    regime = PolicyRegime(regime)
    info = dict(char_info or {})

    individual = regime is PolicyRegime.INDIVIDUAL
    bits = (s.n_bidders if individual else 1) * (s.m_characteristics - 1)
    if bits > _AWARENESS_BITS_CAP:
        if not (individual and allow_greedy):
            raise ScenarioError(f"awareness space of {bits} bits exceeds the exhaustive cap"
                                + ("; pass the greedy flag" if individual else ""))
        return _optimize_greedy(s, config, info, regime)
    if regime is PolicyRegime.COMMON_FREE_INFO:
        candidates = _free_info_candidates(s, partition_cap)
    elif individual:
        levels = _levels(s, info)
        candidates = [(f"awareness={[sorted(a) for a in combo]}", _policy(combo, levels))
                      for combo in _awareness_candidates(s)]
    else:
        levels = _levels(s, {j: FullInfo() for j in s.full_set}
                         if regime is PolicyRegime.PUBLIC_FULL_INFO else
                         {j: info.get(j, FullInfo()) if j == 1 else NoInfo() for j in s.full_set})
        candidates = [(f"common={sorted(aw)}", _policy([aw] * s.n_bidders, levels))
                      for aw in lattice(s.m_characteristics)]

    policies = [pol for _desc, pol in candidates]
    values, bundles, settle = _revenue_values(s, policies, config)
    # the first candidate of highest _rank_key; an analytic winner is the
    # one its call estimated
    k = max(range(len(policies)), key=lambda k: _rank_key(values[k], policies[k]))
    bundle = settle(k) if bundles[k] is None else bundles[k]
    return OptimizeResult(policies[k], revenue(s, policies[k], config, bundle=bundle),
                          tuple((desc, val) for (desc, _p), val in zip(candidates, values)),
                          regime, True)


def _optimize_greedy(s, config, info, regime) -> OptimizeResult:
    """Greedy hill climb: repeatedly add the single (bidder, characteristic)
    awareness pair with the largest strict revenue improvement.  Each sweep
    scores all of its single-pair trials in one batched call
    (``_revenue_values``), and the common start joins the first sweep's.  A
    sweep holds at most one common-awareness policy (the start, or the one
    trial that equalizes every awareness set), which that call estimates in
    full, so a report on it reuses that bundle; a report on any other
    winner makes one more pass over the draws.  A sweep's settle handle is
    dropped: only the last step is reported, and settling every step
    measured no faster than that one report pass."""
    levels = _levels(s, info)
    current = [frozenset({1})] * s.n_bidders
    trials = [("start", current, _policy(current, levels))]
    best = None                 # (value, awareness, policy, bundle)
    trace = []
    while True:
        for i in range(s.n_bidders):
            for j in sorted(s.full_set - current[i]):
                trial = [a | {j} if k == i else a for k, a in enumerate(current)]
                trials.append((f"try bidder {i + 1} char {j}", trial, _policy(trial, levels)))
        values, bundles, _settle = _revenue_values(s, [cand for _d, _t, cand in trials], config)
        step = None
        for (desc, trial, cand), val, b in zip(trials, values, bundles):
            trace.append((desc, val))
            if best is None:
                best = (val, trial, cand, b)        # the start
            elif val > best[0] and (step is None or val > step[0]):
                step = (val, trial, cand, b)
        if step is None:
            break
        best, current, trials = step, step[1], []
    _val, _aw, pol, bundle = best
    return OptimizeResult(pol, revenue(s, pol, config, bundle=bundle), tuple(trace),
                          regime, False)


def _set_partitions(k: int):
    """All partitions of {0..k-1} into nonempty cells."""
    if k == 0:
        yield []
        return
    for rest in _set_partitions(k - 1):
        for i in range(len(rest)):
            yield [cell + [k - 1] if c == i else list(cell)
                   for c, cell in enumerate(rest)]
        yield [list(cell) for cell in rest] + [[k - 1]]


def _info_variants(law):
    """A law's canonical information levels, lazily: every partition of a
    discrete law's atoms (one cell is NoInfo), or a continuous law's two extremes."""
    if not isinstance(law, DiscreteFinite):
        yield from (NoInfo(), FullInfo())
        return
    for cells in _set_partitions(len(law.values)):
        yield NoInfo() if len(cells) == 1 else Partition(cells=cells)


def _assignments(s: Scenario, sets, cap: int):
    """For each awareness set in ``sets``, in order, the pair (set, entries):
    every (bidder, characteristic in the set) entry, bidder-major, with its
    information variants, or None as soon as their product, the number of
    assignments, exceeds ``cap``.  No entry reads past ``cap + 1`` variants,
    and each entry's variants are listed once for all the sets."""
    listed = {}
    for aw in sets:
        entries = []
        count = 1
        for i, j in _iproduct(range(1, s.n_bidders + 1), sorted(aw)):
            if (i, j) not in listed:
                listed[i, j] = list(islice(_info_variants(s.law(i, j)), cap + 1))
            count *= len(listed[i, j])
            if count > cap:
                entries = None
                break
            entries.append(((i, j), listed[i, j]))
        yield aw, entries


def _free_info_candidates(s: Scenario, cap: int):
    """Common awareness x per-(bidder, characteristic) information choices.
    A set with more than ``cap`` assignments is skipped, except {1}, which
    falls back to full information, so the search always covers it."""
    candidates = []
    for aw, entries in _assignments(s, lattice(s.m_characteristics), cap):
        if entries is None:
            if len(aw) > 1:
                continue
            entries = [((i, 1), [lv]) for (i, j), lv in _levels(s, {}).items() if j == 1]
        for assignment in _iproduct(*[v for _k, v in entries]):
            pol = _policy([aw] * s.n_bidders, dict(zip([k for k, _v in entries], assignment)))
            candidates.append((f"common={sorted(aw)} info={_policy_disclosure(pol)}", pol))
    return candidates


# ---------------------------------------------------------------------------
# Trade-off of raising one more bidder's awareness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TradeoffBreakdown:
    """Inequality components for raising the target bidder's awareness of
    one characteristic; raise exactly when
    delta_first_order_stat + delta_rents_remaining_unaware exceeds
    lost_rent_newly_aware strictly."""

    delta_first_order_stat: object
    delta_rents_remaining_unaware: object
    lost_rent_newly_aware: object
    decision: str                       # "raise" | "keep"
    revenue_before: object
    revenue_after: object
    se_delta_first_order_stat: Optional[float] = None
    se_delta_rents_remaining_unaware: Optional[float] = None
    se_lost_rent_newly_aware: Optional[float] = None

    @property
    def lhs(self):
        return self.delta_first_order_stat + self.delta_rents_remaining_unaware


def _combine_se(a, b):
    if a is None or b is None:
        return None
    # the standard error of a difference of independent estimates; the two
    # policies share draws, so this over-states the paired SE when the
    # estimates are positively correlated and under-states it when they
    # are negatively correlated
    return math.sqrt(a * a + b * b)


def check_tradeoff(s: Scenario, base: DisclosurePolicy, target: int,
                   char: int, config: EstimatorConfig) -> TradeoffBreakdown:
    """Evaluate the raise-one-more-bidder trade-off from a base policy in
    which some bidders are aware of ``char`` on top of a common set and the
    rest (including ``target``) are not.  The raised bidder gets the
    information level the first aware bidder has on ``char``, or full
    information when nobody is aware of it.  A target outside 1..n or a
    characteristic outside 2..m raises ScenarioError."""
    return _tradeoff(s, base, target, char, config)[0]


def _tradeoff(s, base, target, char, config):
    """``check_tradeoff``'s breakdown and the base policy's revenue report."""
    if not 1 <= target <= s.n_bidders:
        raise ScenarioError(f"bidder {target} outside 1..{s.n_bidders}")
    if not 2 <= char <= s.m_characteristics:
        raise ScenarioError(f"characteristic {char} outside 2..{s.m_characteristics}")
    aware_of_char = [i for i in range(1, s.n_bidders + 1) if char in base.aware(i)]
    if char in base.aware(target):
        raise ScenarioError(f"bidder {target} is already aware of characteristic {char}")
    core = base.aware(target)
    for i in range(1, s.n_bidders + 1):
        expected = core | {char} if i in aware_of_char else core
        if base.aware(i) != expected:
            raise ScenarioError(
                "base policy must split bidders between a common set and the "
                f"common set plus characteristic {char}; bidder {i} is aware of "
                f"{sorted(base.aware(i))}")
    new_level = base.level(aware_of_char[0], char) if aware_of_char else FullInfo()

    awareness = list(base.awareness)
    info = [dict(levels) for levels in base.info]
    awareness[target - 1] = awareness[target - 1] | {char}
    info[target - 1][char] = new_level
    raised = validate(s.n_bidders, s.m_characteristics, s.laws, awareness, info)[1]

    before, after = (revenue(s, pol, config, bundle=b) for pol, b in
                     zip((base, raised), estimate_policies(s, (base, raised), config,
                                                           fields=REVENUE_FIELDS)))

    delta_first = after.expected_first_order_stat - before.expected_first_order_stat
    remaining = [i for i in range(1, s.n_bidders + 1)
                 if i != target and i not in aware_of_char]
    delta_rents = sum((after.fee_schedule.rents[i - 1] - before.fee_schedule.rents[i - 1]
                       for i in remaining), Fraction(0) if config.backend == "exact" else 0.0)
    lost = before.fee_schedule.rents[target - 1]
    decision = "raise" if delta_first + delta_rents > lost else "keep"

    se_first = _combine_se(before.se_first_order_stat, after.se_first_order_stat)
    if before.backend == "mc":
        se_rents = _combine_se(
            math.fsum((before.fee_schedule.se_fees[i - 1] or 0.0) ** 2 +
                      (before.fee_schedule.se_fees_fullview[i - 1] or 0.0) ** 2
                      for i in remaining) ** 0.5,
            math.fsum((after.fee_schedule.se_fees[i - 1] or 0.0) ** 2 +
                      (after.fee_schedule.se_fees_fullview[i - 1] or 0.0) ** 2
                      for i in remaining) ** 0.5)
        se_lost = _combine_se(before.fee_schedule.se_fees[target - 1],
                              before.fee_schedule.se_fees_fullview[target - 1])
    else:
        se_rents = se_lost = None
    return TradeoffBreakdown(delta_first, delta_rents, lost, decision,
                             before.total_revenue, after.total_revenue,
                             se_first, se_rents, se_lost), before


# ---------------------------------------------------------------------------
# Randomized exact corpus
# ---------------------------------------------------------------------------

# corpus scenarios have 2..3 bidders, 2..3 characteristics, 2..3 atoms per law
_MAX_BIDDERS = _MAX_CHARACTERISTICS = _MAX_ATOMS = 3


@dataclass(frozen=True)
class CorpusConfig:
    """``count`` scenarios from ``random_discrete_scenario`` under ``seed``."""

    count: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.count < 0:
            raise ScenarioError(f"corpus count must be nonnegative, got {self.count}")


_EXACT = EstimatorConfig(backend="exact")


def _random_probs(rng: random.Random, k: int):
    den = rng.choice([4, 6, 8, 12])
    cuts = sorted(rng.sample(range(1, den), k - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [den])]
    return [Fraction(c, den) for c in parts]


def _random_values(rng: random.Random, k: int, flavor: str):
    den = rng.choice([1, 2, 3])
    if flavor == "positive":
        pool = range(0, 9)
    elif flavor == "negative":
        pool = range(-8, 1)
    else:
        pool = range(-6, 9)
    nums = rng.sample(list(pool), k)
    return sorted(Fraction(v, den) for v in nums)


def random_discrete_scenario(cfg: CorpusConfig, index: int):
    """One seeded corpus scenario: per characteristic a common support across
    bidders (characteristic 2 positive-valued, the last characteristic
    negative-valued on odd indices) with independently drawn per-bidder
    probabilities, identical across bidders for about half the
    characteristics."""
    rng = random.Random(f"{cfg.seed}:{index}")
    n = rng.randint(2, _MAX_BIDDERS)
    m = rng.randint(2, _MAX_CHARACTERISTICS)
    laws = [[None] * m for _ in range(n)]
    for j in range(1, m + 1):
        k = rng.randint(2, _MAX_ATOMS)
        if j == 2:
            flavor = "positive"
        elif j == m and index % 2 == 1:
            flavor = "negative"
        else:
            flavor = "mixed"
        values = _random_values(rng, k, flavor)
        iid = rng.random() < 0.5
        shared = _random_probs(rng, k)
        for i in range(1, n + 1):
            probs = shared if iid else _random_probs(rng, k)
            laws[i - 1][j - 1] = DiscreteFinite(values, probs)
    scenario = Scenario(n, m, tuple(tuple(row) for row in laws))
    return f"corpus-{cfg.seed}-{index}", scenario


def _iid_chars(s: Scenario):
    out = []
    for j in range(1, s.m_characteristics + 1):
        first = s.law(1, j)
        if all(s.law(i, j) == first for i in range(2, s.n_bidders + 1)):
            out.append(j)
    return out


# ---------------------------------------------------------------------------
# Verification suite
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClaimResult:
    claim: str
    scenario_id: str
    hypothesis_satisfied: bool
    holds: bool
    margin: object
    note: str = ""


@dataclass(frozen=True)
class VerificationReport:
    results: tuple
    corpus: CorpusConfig

    @property
    def failures(self):
        return tuple(r for r in self.results
                     if r.hypothesis_satisfied and not r.holds)

    @property
    def all_pass(self) -> bool:
        return not self.failures

    def checked(self, claim: str):
        return [r for r in self.results if r.claim == claim and r.hypothesis_satisfied]


def _nonneg_support(s: Scenario, bidders, ell: int) -> bool:
    return all(s.law(i, ell).values[0] >= 0 for i in bidders)


def _full_info_steps(s: Scenario):
    """The full-information quantities Props 2 and 5 and their converses
    compare, per characteristic ell >= 2: E[max] of ell's laws, the exact
    report of common awareness of M' = M minus ell, the exact report with
    bidder 1 alone raised to M, and the full-awareness revenue, which is
    evaluated once per scenario."""
    if s.m_characteristics < 2:
        return
    levels, n = _levels(s, {}), s.n_bidders
    full = revenue(s, _policy([s.full_set] * n, levels), _EXACT).total_revenue
    for ell in range(2, s.m_characteristics + 1):
        mprime = s.full_set - {ell}
        e_max = expected_order_stat(
            OrderStatLaw(tuple(s.law(i, ell) for i in range(1, s.n_bidders + 1)), 1))
        base = revenue(s, _policy([mprime] * n, levels), _EXACT)
        raised = revenue(s, _policy([s.full_set] + [mprime] * (n - 1), levels), _EXACT)
        yield ell, e_max, base, raised, full


def _claims_full_info(sid: str, s: Scenario):
    """The Lem3/Lem4/Prop2 rows and the Prop5 rows, from one pass over
    ``_full_info_steps``.

    Prop 2 with its two lemmas: raising bidder 1's awareness of a
    positive-mean characteristic (full info fixed exogenously) strictly
    raises the first order statistic, leaves strictly positive rents with
    the remaining unaware bidders, and strictly raises revenue.  The
    first-order-statistic claim needs only a positive mean.  The rent
    claims additionally require bidder 1's disclosed value to be almost
    surely nonnegative: that makes the bidder's full-view bid rise draw by draw,
    which is what pushes the unaware bidders' actual surplus below their
    perceived one.  A positive mean alone does not suffice - a value that
    is often negative can raise the remaining bidders' actual surplus and
    make their rents strictly negative (exact counterexamples exist), so
    the nonnegativity is part of the recorded hypothesis.

    Prop 5 (if direction): a characteristic whose max across bidders has
    strictly negative expectation is kept hidden under mandatory full
    information.
    """
    raise_rows, hide_rows = [], []
    for ell, e_max, base, raised, full in _full_info_steps(s):
        hyp_mean = mean(s.law(1, ell)) > 0
        hyp_rent = hyp_mean and _nonneg_support(s, [1], ell)
        d_first = raised.expected_first_order_stat - base.expected_first_order_stat
        rents = raised.fee_schedule.total_rents
        d_rev = raised.total_revenue - base.total_revenue
        raise_rows.append(ClaimResult("Lem3", sid, hyp_mean, d_first > 0, d_first, f"ell={ell}"))
        raise_rows.append(ClaimResult("Lem4", sid, hyp_rent, rents > 0, rents, f"ell={ell}"))
        raise_rows.append(ClaimResult("Prop2", sid, hyp_rent, d_rev > 0, d_rev, f"ell={ell}"))
        margin = base.total_revenue - full
        hide_rows.append(ClaimResult("Prop5", sid, e_max < 0, margin > 0, margin,
                                     f"ell={ell} Emax={e_max}"))
    return raise_rows, hide_rows


def _claims_tradeoff(sid: str, s: Scenario, rng: random.Random) -> list:
    """Prop 3 and Lemmas 5-7 on a random k-split: bidders 1..k aware of the
    extra characteristic, the rest not; the tested action raises bidder
    k+1."""
    out = []
    ell = 2                              # positive-valued by construction
    mprime = s.full_set - {ell}
    k = rng.randint(1, s.n_bidders - 1)
    awareness = [mprime | {ell}] * k + [mprime] * (s.n_bidders - k)
    base = _policy(awareness, _levels(s, {}))
    target = k + 1
    td, before = _tradeoff(s, base, target, ell, _EXACT)

    mu_target = mean(s.law(target, ell))
    remaining = range(target + 1, s.n_bidders + 1)
    competitive = any(before.fee_schedule.fees_fullview[i - 1] > 0 for i in remaining)
    hyp_l5 = mu_target > 0
    # rent claims carry the same nonnegative-support rider as in
    # _claims_full_info (characteristic 2 satisfies it by construction);
    # the remaining-unaware rents can only move if some remaining bidder
    # wins the full-view auction with positive probability to begin with
    hyp_l6 = (mu_target > 0 and target < s.n_bidders
              and _nonneg_support(s, [target], ell) and competitive)
    hyp_l7 = (all(mean(s.law(i, ell)) > 0 for i in range(1, k + 1))
              and _nonneg_support(s, range(1, k + 1), ell))

    residual = (td.revenue_after - td.revenue_before) - (td.lhs - td.lost_rent_newly_aware)
    consistent = (td.decision == "raise") == (td.revenue_after > td.revenue_before)
    out.append(ClaimResult("Lem5", sid, hyp_l5, td.delta_first_order_stat > 0,
                           td.delta_first_order_stat, f"k={k}"))
    out.append(ClaimResult("Lem6", sid, hyp_l6, td.delta_rents_remaining_unaware > 0,
                           td.delta_rents_remaining_unaware, f"k={k}"))
    out.append(ClaimResult("Lem7", sid, hyp_l7, td.lost_rent_newly_aware > 0,
                           td.lost_rent_newly_aware, f"k={k}"))
    out.append(ClaimResult("Prop3", sid, True, residual == 0 and consistent,
                           residual, f"k={k} decision={td.decision}"))
    return out


def _claims_public_no_info(sid: str, s: Scenario, char_info: dict) -> list:
    """Prop 4: raising common awareness of an iid characteristic with no
    information shifts revenue by exactly its mean."""
    out = []
    iid = set(_iid_chars(s))
    levels = _levels(s, char_info)
    for ell in range(2, s.m_characteristics + 1):
        hyp = ell in iid
        without = _policy([s.full_set - {ell}] * s.n_bidders, levels)
        withp = _policy([s.full_set] * s.n_bidders,
                        levels | {(i, ell): NoInfo() for i in range(1, s.n_bidders + 1)})
        shift = (revenue(s, withp, _EXACT).total_revenue
                 - revenue(s, without, _EXACT).total_revenue)
        resid = shift - mean(s.law(1, ell)) if hyp else Fraction(0)
        out.append(ClaimResult("Prop4", sid, hyp, resid == 0, resid, f"ell={ell}"))
    return out


def _assignment_lattice(sid: str, s: Scenario, entries):
    """Every information assignment of ``entries`` (``_assignments``: each
    bidder's characteristics in turn, bidder-major) on one integer value
    lattice, as ``(screen, exact)``: the float E[max] of every assignment
    and ``exact(flat)``, that of one assignment as a Fraction, both by
    ``itertools.product`` index over ``entries``.

    Each (bidder, characteristic, level) cell mean (``cell_means``) sits at
    an int64 position over L, the lcm of the cell-mean denominators, and a
    bidder's variant, one level per characteristic, is the outer sum of
    positions and outer product of masses.  One ``bincount`` and ``cumsum``
    give every variant's integer CDF column on the union grid; the screen
    reads them in floats and ``exact`` puts the chosen ones on an
    ``AtomGrid``.  Positions past 63 bits, or a bidder's product of
    probability denominators not below 2^53 (the counts are float64),
    raise DistributionError rather than wrap or round.
    """
    cells = [[list(cell_means(atom_lattice(s.law(i, j)), _atom_cells(s.law(i, j), lvl)))
              for lvl in levels] for (i, j), levels in entries]
    L = math.lcm(*(den for entry in cells for level in entry for _m, (_num, den) in level))
    width = len(cells) // s.n_bidders
    per_bidder = [cells[k:k + width] for k in range(0, len(cells), width)]
    dens = [math.prod(atom_lattice(s.law(i, j)).prob_den for (i, j), _levels in
                      entries[k:k + width]) for k in range(0, len(entries), width)]
    for i, (entry_cells, den) in enumerate(zip(per_bidder, dens), start=1):
        if sum(max(abs(num) * (L // d) for level in entry for _m, (num, d) in level)
               for entry in entry_cells) >= 1 << 63:
            raise DistributionError(f"{sid}: Prop 6 lattice positions of bidder {i} "
                                    "reach 2^63, past int64")
        if den >= 1 << 53:
            raise DistributionError(f"{sid}: Prop 6 probability denominator {den} of "
                                    f"bidder {i} is not below 2^53, past exact float64 counts")

    # each bidder's variants in product order (first characteristic
    # slowest): every atom's position, mass and variant index
    atoms, shape = [], []
    for entry_cells in per_bidder:
        pos, mass, var = np.zeros(1, np.int64), np.ones(1, np.int64), np.zeros(1, np.int64)
        for entry in entry_cells:
            cell_atoms = [(m, num * (L // den)) for level in entry for m, (num, den) in level]
            pos = (pos[:, None] + np.array([x for _m, x in cell_atoms], np.int64)).ravel()
            mass = (mass[:, None] * np.array([m for m, _x in cell_atoms], np.int64)).ravel()
            var = (var[:, None] * len(entry)
                   + np.repeat(np.arange(len(entry)), [len(level) for level in entry])).ravel()
        atoms.append((pos, mass, var))
        shape.append(math.prod(map(len, entry_cells)))
    points = np.unique(np.concatenate([pos for pos, _m, _v in atoms]))
    rows = np.concatenate([[0], np.cumsum(shape)])
    keys = np.concatenate([(var + r) * len(points) + np.searchsorted(points, pos)
                           for (pos, _m, var), r in zip(atoms, rows)])
    counts = np.bincount(keys, weights=np.concatenate([m for _p, m, _v in atoms]),
                         minlength=rows[-1] * len(points)).reshape(-1, len(points)).cumsum(axis=1)

    # E[max] = g_last - sum_k (g_{k+1} - g_k) prod_i F_i(g_k) for every
    # assignment, in row-major order (bidder 1 slowest): the products over
    # all but the last bidder are spelled out, the last bidder's column is
    # one matrix product
    gx = points / float(L)
    mats = np.split(counts[:, :-1] / np.repeat(np.array(dens, np.float64), shape)[:, None],
                    rows[1:-1])
    acc = np.diff(gx)[None, :]
    for mat in mats[:-1]:
        acc = (acc[:, None, :] * mat[None, :, :]).reshape(-1, acc.shape[1])
    screen = gx[-1] - (acc @ mats[-1].T).ravel()

    grid_points, prob_den = tuple(points.tolist()), math.lcm(*dens)

    def exact(flat) -> Fraction:
        return AtomGrid(grid_points, L, prob_den, tuple(
            tuple(c * (prob_den // den) for c in counts[r + k].astype(np.int64).tolist())
            for r, k, den in zip(rows, np.unravel_index(flat, shape), dens))).expected(1)

    return screen, exact


def _claim_full_info_optimal(sid: str, s: Scenario) -> list:
    """Prop 6: with common awareness, full information is revenue-maximal
    over every per-bidder partition assignment.

    The scan takes every assignment on the largest awareness set with at
    most ``_PARTITION_CAP`` of them, screens their expected maxima in
    floating point on one integer lattice (``_assignment_lattice``), and
    rechecks every assignment within 1e-9 of the full-info value exactly on
    the same integer CDF columns, so the verdict is exact.  No bid law is
    folded.  The lattice's exactness bounds raise DistributionError; the
    corpus (``_MAX_*`` sizes, denominators at most 12) stays far below them.
    """
    sets = sorted(lattice(s.m_characteristics),
                  key=lambda a: (-len(a), tuple(sorted(a))))
    for aw, entries in _assignments(s, sets, _PARTITION_CAP):
        if entries is not None:
            break
    else:
        return [ClaimResult("Prop6", sid, False, True, Fraction(0), "over cap")]

    screen, exact = _assignment_lattice(sid, s, entries)
    # the full-information assignment: every entry at its level of singleton cells
    full = int(np.ravel_multi_index(
        [[len(_atom_cells(s.law(i, j), lvl)) for lvl in levels].index(len(s.law(i, j).values))
         for (i, j), levels in entries], [len(levels) for _key, levels in entries]))
    rev_full = exact(full)
    margins = float(rev_full) - screen

    # The full-info assignment itself is in the scan (margin 0), so exact
    # rechecking everything within float error of zero settles the verdict.
    holds = True
    worst = Fraction(0)
    for flat in np.nonzero(margins < 1e-9)[0]:
        if flat != full:
            margin = rev_full - exact(flat)
            holds = holds and margin >= 0
            worst = min(worst, margin)
    return [ClaimResult("Prop6", sid, True, holds, worst,
                        f"set={sorted(aw)} candidates={len(screen)}")]


def _claim_corollary1(sid: str, s: Scenario, char_info: dict, rng: random.Random) -> list:
    """Corollary 1: under any equal-awareness policy every rent is exactly
    zero and revenue equals the expected first order statistic."""
    aw = rng.choice(lattice(s.m_characteristics))
    pol = _policy([aw] * s.n_bidders, _levels(s, char_info))
    rep = revenue(s, pol, _EXACT)
    rent = max((abs(r) for r in rep.fee_schedule.rents), default=Fraction(0))
    resid = abs(rep.total_revenue - rep.expected_first_order_stat)
    margin = max(rent, resid)
    return [ClaimResult("Cor1", sid, True, margin == 0, margin, f"set={sorted(aw)}")]


def _random_char_info(s: Scenario, rng: random.Random) -> dict:
    info = {}
    for j in range(1, s.m_characteristics + 1):
        k = len(s.law(1, j).values)
        choice = rng.random()
        if choice < 0.4:
            info[j] = FullInfo()
        elif choice < 0.7:
            info[j] = NoInfo()
        else:
            cells = rng.choice([c for c in _set_partitions(k) if len(c) > 1])
            info[j] = Partition(cells=cells)
    return info


def verify_suite(cfg: CorpusConfig) -> VerificationReport:
    """Replay every claim on the seeded exact corpus; an empty corpus would
    pass vacuously, so it raises ScenarioError."""
    if cfg.count < 1:
        raise ScenarioError(f"verification needs at least 1 corpus scenario, got {cfg.count}")
    results = []
    for index in range(cfg.count):
        sid, s = random_discrete_scenario(cfg, index)
        rng = random.Random(f"{cfg.seed}:{index}:claims")
        common_info = _random_char_info(s, rng)
        raise_rows, hide_rows = _claims_full_info(sid, s)
        results += raise_rows
        results += _claims_tradeoff(sid, s, rng)
        results += _claims_public_no_info(sid, s, common_info)
        results += hide_rows
        results += _claim_full_info_optimal(sid, s)
        results += _claim_corollary1(sid, s, common_info, rng)
    return VerificationReport(tuple(results), cfg)


# ---------------------------------------------------------------------------
# Counterexample search
# ---------------------------------------------------------------------------

def counterexample_search(claim: str, cfg: CorpusConfig,
                          extra_scenarios: Sequence = ()) -> list:
    """Hunt for instances showing positive means are not necessary.

    ``prop2-converse``: individually raising bidder 1's awareness of a
    characteristic with negative bidder-1 mean that still strictly raises
    revenue.  ``prop5-converse``: under public full information, either a
    negative-mean characteristic whose disclosure strictly raises revenue
    (the Example-1 pattern), or a genuine violation of the only-if
    direction: E[max] >= 0 yet hiding is strictly better.
    """
    if claim not in ("prop2-converse", "prop5-converse"):
        raise ValueError(f"unknown claim {claim!r}")
    scenarios = [(f"extra-{i}", s) for i, s in enumerate(extra_scenarios)]
    scenarios += [random_discrete_scenario(cfg, i) for i in range(cfg.count)]
    found = []
    for sid, s in scenarios:
        for ell, e_max, base, raised, full in _full_info_steps(s):
            without = base.total_revenue
            if claim == "prop2-converse":
                mu = mean(s.law(1, ell))
                gain = raised.total_revenue - without
                if mu < 0 and gain > 0:
                    found.append({"scenario": sid, "char": ell, "gain": gain, "mean": mu})
            else:
                means = [mean(s.law(i, ell)) for i in range(1, s.n_bidders + 1)]
                if all(mu < 0 for mu in means) and full > without:
                    found.append({"scenario": sid, "char": ell, "kind": "negative-mean-raise",
                                  "gain": full - without, "e_max": e_max})
                if e_max >= 0 and without > full:
                    found.append({"scenario": sid, "char": ell, "kind": "only-if-violation",
                                  "gain": without - full, "e_max": e_max})
    return found
