"""Outcome generation and expectation estimation.

Bids are estimated valuations: under a viewpoint v, bidder k bids the sum
over characteristics in (his awareness) intersect v of the conditional mean
of his value law given his signal cell.  The second-price auction settles
to the highest bidder at the second-highest bid.

Two estimation backends share one contract:

* ``mc`` draws states with one fixed uniform variate per
  (bidder, characteristic, draw index) - common random numbers across
  policies and viewpoints - and averages per-draw statistics.  Draws are
  processed in fixed-size chunks keyed by draw index, so results are
  bit-identical for any worker count.  Within a chunk each deduplicated
  viewpoint holds one contiguous bid column per bidder; one top-two pass
  over those columns (``_kernels.top_two``) settles every draw, and win
  credit and surplus are derived only for the bidder columns an estimate
  reads before being reduced to per-bidder sums and sums of squares.
* ``exact`` sweeps each deduplicated viewpoint once.  Under one viewpoint
  bids are independent across bidders, so each bidder's exact bid law
  (``orderstats.valuation_law``, built once per bidder and effective
  awareness) is put on a common integer atom grid
  (``orderstats.atom_grid``); the order-statistic moments, every bidder's
  unique-winner surplus and the 1/#ties win credit follow from per-bidder
  CDF columns and prefix sums.  The cost grows with bidders times bid
  support, not with the product of supports across bidders.  Ties
  contribute zero surplus since the price equals the bid.

Both backends report, for every bidder, the perceived quantities (under the
bidder's own awareness viewpoint) and the actual ones (under full
awareness), from the same underlying draws.  There is no single-draw API:
``sample_draws`` exposes the Monte Carlo backend's realized values, and
settlement happens only inside the estimators, always with 1/#ties credit.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from ._kernels import top_two
from .distributions import (
    DiscreteFinite,
    FullInfo,
    NoInfo,
    atom_index,
    cells,
    conditional_mean,
    mean,
    ppf,
)
from .orderstats import atom_grid, valuation_law
from .scenario import DisclosurePolicy, Perspective, Scenario

__all__ = [
    "EstimatorConfig",
    "BidderEstimate",
    "EstimateBundle",
    "EstimationError",
    "estimate",
    "exact_cap_check",
    "sample_draws",
]

_CHUNK = 1 << 16
_U64 = (1 << 64) - 1


class EstimationError(RuntimeError):
    """Backend preconditions violated (non-discrete laws in scope...)."""


@dataclass(frozen=True)
class EstimatorConfig:
    n_samples: int = 100_000
    seed: int = 0
    backend: str = "mc"              # "mc" | "exact"
    report_standard_errors: bool = True
    workers: int = 1

    def __post_init__(self):
        if self.backend not in ("mc", "exact"):
            raise EstimationError(f"unknown backend {self.backend!r}")
        if self.n_samples < 1:
            raise EstimationError("n_samples must be positive")
        if self.workers < 1:
            raise EstimationError("workers must be positive")


@dataclass(frozen=True)
class BidderEstimate:
    """Per-bidder expectations; perceived = own-awareness viewpoint,
    actual = full-awareness viewpoint, same draws."""

    perceived_surplus: object
    actual_surplus: object
    win_prob_perceived: object
    win_prob_actual: object
    hidden_win_value: object          # E[(sum of unaware characteristics) * win credit]
    se_perceived_surplus: Optional[float] = None
    se_actual_surplus: Optional[float] = None
    se_win_prob_perceived: Optional[float] = None
    se_win_prob_actual: Optional[float] = None
    se_hidden_win_value: Optional[float] = None


@dataclass(frozen=True)
class EstimateBundle:
    first_order_stat: object
    second_order_stat: object
    bidders: tuple
    backend: str
    n_samples: Optional[int] = None
    se_first_order_stat: Optional[float] = None
    se_second_order_stat: Optional[float] = None
    # seller revenue (sum of perceived surpluses + price), same draws
    total_revenue: object = None
    se_total_revenue: Optional[float] = None


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def exact_cap_check(s: Scenario, p: DisclosurePolicy) -> Optional[int]:
    """Size of the joint outcome space of the in-scope laws: the product of
    support sizes over (bidder, characteristic) pairs the bidder is aware
    of, which the perfbench tracer reports.  None when a law in scope is not
    finitely supported; the exact backend then raises EstimationError.  The
    exact sweep itself never visits this product space."""
    size = 1
    for i in range(1, s.n_bidders + 1):
        for j in sorted(p.aware(i)):
            law = s.law(i, j)
            if not isinstance(law, DiscreteFinite):
                return None
            size *= len(law.values)
    return size


def estimate(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig) -> EstimateBundle:
    if s.n_bidders < 2:
        raise EstimationError("second-price auction needs at least 2 bidders")
    if config.backend == "exact":
        return _exact_bundle(s, p, config)
    return _mc_bundle(s, p, config)


def _effective_views(s: Scenario, p: DisclosurePolicy):
    """Viewpoints needed for a bundle, deduplicated by the bid profiles they
    induce (two viewpoints that intersect every awareness set identically
    produce identical bids)."""
    wanted = [s.full_set] + [p.aware(i) for i in range(1, s.n_bidders + 1)]
    views = []
    keys = {}
    slot = []
    for v in wanted:
        key = tuple(tuple(sorted(a & v)) for a in p.awareness)
        if key not in keys:
            keys[key] = len(views)
            views.append(v)
        slot.append(keys[key])
    return views, slot[0], slot[1:]


# -- exact backend ----------------------------------------------------------

def _exact_bundle(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig) -> EstimateBundle:
    if exact_cap_check(s, p) is None:
        raise EstimationError("exact backend requires finite discrete laws in scope")

    views, full_idx, bidder_idx = _effective_views(s, p)
    n = s.n_bidders
    laws = {}

    def bid_law(i, view):
        key = (i, p.aware(i) & view)
        if key not in laws:
            laws[key] = valuation_law(s, p, i, Perspective(view))
        return laws[key]

    grids = [atom_grid([bid_law(i, view) for i in range(1, n + 1)]) for view in views]
    settled = [grid.settle() for grid in grids]
    surplus_full, credit_full = settled[full_idx]
    second = grids[full_idx].expected(2)

    bidders = []
    for i in range(1, n + 1):
        surplus_own, credit_own = settled[bidder_idx[i - 1]]
        win_actual = credit_full[i - 1]
        hidden = sum(
            (Fraction(mean(s.law(i, j))) if isinstance(s.law(i, j), DiscreteFinite)
             else mean(s.law(i, j)))
            for j in sorted(s.full_set - p.aware(i)))
        bidders.append(BidderEstimate(
            perceived_surplus=surplus_own[i - 1],
            actual_surplus=surplus_full[i - 1],
            win_prob_perceived=credit_own[i - 1],
            win_prob_actual=win_actual,
            hidden_win_value=hidden * win_actual if hidden else Fraction(0),
        ))
    return EstimateBundle(
        first_order_stat=grids[full_idx].expected(1),
        second_order_stat=second,
        bidders=tuple(bidders),
        backend="exact",
        total_revenue=second + sum(be.perceived_surplus for be in bidders),
    )


# -- Monte Carlo backend ----------------------------------------------------

def _uniform_chunk(seed: int, start: int, stop: int, n: int, m: int) -> np.ndarray:
    """Uniforms for draws [start, stop); entry (s, i, j) depends only on
    (seed, s, i, j).  Each draw owns whole Philox blocks so any chunking of
    the draw range reproduces the same values."""
    per_draw = n * m
    bpd = -(-per_draw // 4)
    gen = Generator(Philox(key=np.array([seed & _U64, 0], dtype=np.uint64),
                           counter=start * bpd))
    raw = gen.random((stop - start) * 4 * bpd)
    return raw.reshape(stop - start, 4 * bpd)[:, :per_draw].reshape(stop - start, n, m)


def sample_draws(s: Scenario, seed: int, count: int) -> np.ndarray:
    """Realized value matrices for draws 0..count-1 of the given seed, shape
    (count, bidders, characteristics).  Uses the same per-(draw, entry)
    uniforms as ``estimate``, so empirical statistics computed from these
    draws are the Monte Carlo backend's draws."""
    n, m = s.n_bidders, s.m_characteristics
    out = np.empty((count, n, m))
    for a in range(0, count, _CHUNK):
        b = min(a + _CHUNK, count)
        U = _uniform_chunk(seed, a, b, n, m)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                out[a:b, i - 1, j - 1] = ppf(s.law(i, j), U[:, i - 1, j - 1])
    return out


def _entry_plan(s: Scenario, p: DisclosurePolicy):
    """Precompiled per-entry transforms: uniform -> (value, bid contribution)."""
    plan = []
    for i in range(1, s.n_bidders + 1):
        for j in range(1, s.m_characteristics + 1):
            law = s.law(i, j)
            aware = j in p.aware(i)
            level = p.level(i, j) if aware else None
            spec = {"i": i, "j": j, "law": law, "aware": aware}
            if isinstance(law, DiscreteFinite):
                spec["kind"] = "discrete"
                spec["values"] = np.array([float(v) for v in law.values])
                if aware:
                    if isinstance(level, NoInfo):
                        contrib = np.full(len(law.values), float(mean(law)))
                    else:  # canonical Partition (FullInfo canonicalizes to singletons)
                        contrib = np.empty(len(law.values))
                        for cell in cells(law, level):
                            contrib[list(cell.level.cells[cell.index])] = float(
                                conditional_mean(law, level, cell))
                    spec["contrib"] = contrib
            else:
                spec["kind"] = "continuous"
                if aware:
                    if isinstance(level, NoInfo):
                        spec["mode"] = "const"
                        spec["const"] = float(mean(law))
                    elif isinstance(level, FullInfo):
                        spec["mode"] = "identity"
                    else:
                        cuts = np.asarray(level.cutpoints, dtype=np.float64)
                        means = np.array([
                            float(conditional_mean(law, level, c))
                            for c in cells(law, level)])
                        spec["mode"] = "partition"
                        spec["cuts"] = cuts
                        spec["cellmeans"] = means
            plan.append(spec)
    return plan


def _mc_chunk(s, p, plan, views, full_idx, bidder_idx, seed, start, stop):
    """Pure function of the draw range; returns per-field (sum, sum of squares)."""
    n = s.n_bidders
    L = stop - start
    U = _uniform_chunk(seed, start, stop, n, s.m_characteristics)

    contribs = {}
    hidden = [np.zeros(L) for _ in range(n)]
    for spec in plan:
        i, j = spec["i"], spec["j"]
        u = U[:, i - 1, j - 1]
        if spec["kind"] == "discrete":
            idx = atom_index(spec["law"], u)
            values = spec["values"][idx]
            if spec["aware"]:
                contribs[(i, j)] = spec["contrib"][idx]
        else:
            values = ppf(spec["law"], u)
            if spec["aware"]:
                mode = spec["mode"]
                if mode == "const":
                    contribs[(i, j)] = np.full(L, spec["const"])
                elif mode == "identity":
                    contribs[(i, j)] = values
                else:
                    cell = np.searchsorted(spec["cuts"], values, side="right")
                    contribs[(i, j)] = spec["cellmeans"][cell]
        if not spec["aware"]:
            hidden[i - 1] += values

    fields = {}

    def put(name, data):
        fields[name] = (float(data.sum()), float(np.square(data).sum()))

    # one bid column per bidder per view, summed in sorted characteristic order
    cols = [[np.zeros(L) for _ in range(n)] for _ in views]
    for view, bid in zip(views, cols):
        for i in range(1, n + 1):
            for j in sorted(p.aware(i) & view):
                bid[i - 1] += contribs[(i, j)]
    tops = [top_two(bid) for bid in cols]

    def outcome(v, i):
        """Win credit and surplus of bidder i under view v."""
        first, second, n_top = tops[v]
        is_top = cols[v][i - 1] == first
        return is_top / n_top, np.where(is_top, first - second, 0.0)

    first, second, _n_top = tops[full_idx]
    put("first", first)
    put("second", second)
    revenue = second.copy()
    for i in range(1, n + 1):
        vi = bidder_idx[i - 1]
        credit_f, surplus_f = outcome(full_idx, i)
        credit_v, surplus_v = (credit_f, surplus_f) if vi == full_idx else outcome(vi, i)
        put(f"surplus_perc_{i}", surplus_v)
        put(f"surplus_act_{i}", surplus_f)
        put(f"credit_perc_{i}", credit_v)
        put(f"credit_act_{i}", credit_f)
        put(f"hidden_{i}", credit_f * hidden[i - 1])
        revenue += surplus_v
    put("revenue", revenue)
    return fields


def _mc_bundle(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig) -> EstimateBundle:
    views, full_idx, bidder_idx = _effective_views(s, p)
    plan = _entry_plan(s, p)
    S = config.n_samples
    ranges = [(a, min(a + _CHUNK, S)) for a in range(0, S, _CHUNK)]

    def run(rng):
        return _mc_chunk(s, p, plan, views, full_idx, bidder_idx,
                         config.seed, rng[0], rng[1])

    if config.workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            partials = list(pool.map(run, ranges))
    else:
        partials = [run(r) for r in ranges]

    sums: dict = {}
    for part in partials:         # merge in draw-index order: deterministic
        for name, (sm, sq) in part.items():
            acc = sums.setdefault(name, [0.0, 0.0])
            acc[0] += sm
            acc[1] += sq

    def stat(name):
        sm, sq = sums[name]
        mu = sm / S
        if not config.report_standard_errors or S < 2:
            return mu, None
        var = max(sq - sm * sm / S, 0.0) / (S - 1)
        return mu, math.sqrt(var / S)

    first, se_first = stat("first")
    second, se_second = stat("second")
    rev, se_rev = stat("revenue")
    bidders = []
    for i in range(1, s.n_bidders + 1):
        sp, se_sp = stat(f"surplus_perc_{i}")
        sa, se_sa = stat(f"surplus_act_{i}")
        wp, se_wp = stat(f"credit_perc_{i}")
        wa, se_wa = stat(f"credit_act_{i}")
        hv, se_hv = stat(f"hidden_{i}")
        bidders.append(BidderEstimate(sp, sa, wp, wa, hv,
                                      se_sp, se_sa, se_wp, se_wa, se_hv))
    return EstimateBundle(first, second, tuple(bidders), "mc", S,
                          se_first, se_second, rev, se_rev)
