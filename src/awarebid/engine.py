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
  bit-identical for any worker count.  There is one route for any number
  of policies (``estimate_policies``; ``estimate`` is its one-policy
  case): per chunk the uniforms and the realized values are drawn once,
  and each (bidder, characteristic, information level) bid contribution
  is computed once.

  A chunk's uniforms are one contiguous column per (bidder,
  characteristic), filled from Philox sub-blocks small enough to stay in
  cache, so each later stage reads only its own columns.  An inverse CDF
  runs only for entries some policy in the batch reads: a full-information
  or cutpoint contribution, or a hidden (unaware) value.  A no-information
  contribution is its law's mean as a constant, and a discrete
  contribution is a table lookup on the atom index.  Atom indices and
  cutpoint cells come from ``distributions.bin_index``: one threshold
  comparison per edge, the same integers as ``np.searchsorted``.

  Bid columns are shared by every policy in the batch: each distinct
  (bidder, contributions) column is summed once per chunk, on first use.
  Then each policy
  in turn settles its deduplicated viewpoints with one top-two pass each
  (``_kernels.top_two``), whose per-column top masks give win credit and
  surplus without comparing bids again; they are derived only for the
  bidder columns the policy's bundle reads, in scratch columns reused
  across bidders, fields and policies, before being reduced to per-field
  sums and sums of squares.  Top-two results are not kept across
  policies, so a chunk holds the shared columns plus one policy's
  settled views.
* ``exact`` sweeps each deduplicated viewpoint once.  Under one viewpoint
  bids are independent across bidders, so each bidder's exact bid law is
  folded as an integer form (``orderstats.valuation_lattice``: value
  numerators and masses on Python ints, built once per bidder and
  effective awareness, from per-characteristic forms kept on the scenario
  laws) and the forms go on a common integer atom grid
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
    bin_index,
    cells,
    conditional_mean,
    mean,
    ppf,
)
from .orderstats import atom_grid, valuation_lattice
from .scenario import DisclosurePolicy, Perspective, Scenario

__all__ = [
    "EstimatorConfig",
    "BidderEstimate",
    "EstimateBundle",
    "EstimationError",
    "estimate",
    "estimate_policies",
    "exact_cap_check",
    "sample_draws",
]

_CHUNK = 1 << 16
_SUB_BLOCK = 1 << 12           # draws per cache-resident Philox sub-block
_U64 = (1 << 64) - 1


class EstimationError(RuntimeError):
    """Backend preconditions violated (non-discrete laws in scope...)."""


@dataclass(frozen=True)
class EstimatorConfig:
    n_samples: int = 100_000
    seed: int = 0
    backend: str = "mc"              # "mc" | "exact"
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
    return estimate_policies(s, (p,), config)[0]


def estimate_policies(s: Scenario, policies, config: EstimatorConfig) -> tuple:
    """One bundle per policy, in order; each is ``==`` to ``estimate`` of
    that policy alone.  Under Monte Carlo every policy is settled on the
    same draws, and each chunk of draws is generated once for all of them."""
    policies = tuple(policies)
    if not policies:
        return ()
    if s.n_bidders < 2:
        raise EstimationError("second-price auction needs at least 2 bidders")
    if config.backend == "exact":
        return tuple(_exact_bundle(s, p, config) for p in policies)
    return _mc_bundles(s, policies, config)


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
    forms = {}

    def bid_form(i, view):
        key = (i, p.aware(i) & view)
        if key not in forms:
            forms[key] = valuation_lattice(s, p, i, Perspective(view))
        return forms[key]

    grids = [atom_grid([bid_form(i, view) for i in range(1, n + 1)]) for view in views]
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
    """Uniforms for draws [start, stop), shape (draws, bidders,
    characteristics); entry (s, i, j) depends only on (seed, s, i, j).  Each
    draw owns whole Philox blocks (counter = draw index x blocks per draw),
    so any chunking of the draw range reproduces the same values.  The result
    is a view whose (bidder, characteristic) columns are contiguous: the
    variates are drawn in sub-blocks of ``_SUB_BLOCK`` draws, and each
    sub-block is transposed into the columns while it is still in cache."""
    per_draw = n * m
    width = 4 * -(-per_draw // 4)
    count = stop - start
    gen = Generator(Philox(key=np.array([seed & _U64, 0], dtype=np.uint64),
                           counter=start * (width // 4)))
    cols = np.empty((per_draw, count))
    block = np.empty(min(_SUB_BLOCK, count) * width)
    for a in range(0, count, _SUB_BLOCK):
        b = min(a + _SUB_BLOCK, count)
        raw = gen.random(out=block[:(b - a) * width]).reshape(b - a, width)
        cols[:, a:b] = raw[:, :per_draw].T
    return cols.reshape(n, m, count).transpose(2, 0, 1)


def _chunk_values(s: Scenario, seed: int, start: int, stop: int, values_for, atoms_for=()):
    """Realized values and atom indices of draws [start, stop), each a
    contiguous column keyed by (bidder, characteristic): values for the
    entries in ``values_for``, inverse-CDF atom indices for the finitely
    supported entries in either set.  No inverse CDF runs for an entry in
    neither set."""
    n, m = s.n_bidders, s.m_characteristics
    U = _uniform_chunk(seed, start, stop, n, m)
    values, atoms = {}, {}
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            law, key = s.law(i, j), (i, j)
            u = U[:, i - 1, j - 1]
            if isinstance(law, DiscreteFinite):
                if key in values_for or key in atoms_for:
                    atoms[key] = atom_index(law, u)
                if key in values_for:
                    values[key] = np.array([float(v) for v in law.values])[atoms[key]]
            elif key in values_for:
                values[key] = ppf(law, u)
    return values, atoms


def sample_draws(s: Scenario, seed: int, count: int) -> np.ndarray:
    """Realized value matrices for draws 0..count-1 of the given seed, shape
    (count, bidders, characteristics).  Uses the same per-(draw, entry)
    uniforms and inverse-CDF values as ``estimate``, so empirical statistics
    computed from these draws are the Monte Carlo backend's draws."""
    out = np.empty((count, s.n_bidders, s.m_characteristics))
    entries = {(i, j) for i in range(1, s.n_bidders + 1)
               for j in range(1, s.m_characteristics + 1)}
    for a in range(0, count, _CHUNK):
        b = min(a + _CHUNK, count)
        for (i, j), col in _chunk_values(s, seed, a, b, entries)[0].items():
            out[a:b, i - 1, j - 1] = col
    return out


def _contribution_rule(law, level):
    """How one aware entry's bid contribution is read off a chunk, as a pair
    (source, f).  Under NoInfo the contribution is the constant f and reads
    nothing (source None).  Otherwise f maps the entry's atom index (source
    "atoms", finitely supported laws) or its realized values ("values") to
    the contribution column."""
    if isinstance(level, NoInfo):
        return None, float(mean(law))
    if isinstance(law, DiscreteFinite):
        # canonical Partition (FullInfo canonicalizes to singletons)
        table = np.empty(len(law.values))
        for cell in cells(law, level):
            table[list(cell.level.cells[cell.index])] = float(
                conditional_mean(law, level, cell))
        return "atoms", table.__getitem__
    if isinstance(level, FullInfo):
        return "values", lambda values: values
    cuts = np.asarray(level.cutpoints, dtype=np.float64)
    means = np.array([float(conditional_mean(law, level, c)) for c in cells(law, level)])
    return "values", lambda values: means[bin_index(cuts, values, side="right")]


def _policy_layout(s: Scenario, p: DisclosurePolicy):
    """What one policy reads from a chunk: per deduplicated view and bidder
    the (bidder, characteristic, level) contributions summed into the bid
    column, in sorted characteristic order; per bidder the characteristics
    he is unaware of; and the view slots of ``_effective_views``."""
    views, full_idx, bidder_idx = _effective_views(s, p)
    n = s.n_bidders
    columns = [[tuple((i, j, p.level(i, j)) for j in sorted(p.aware(i) & view))
                for i in range(1, n + 1)] for view in views]
    unaware = [[(i, j) for j in range(1, s.m_characteristics + 1) if j not in p.aware(i)]
               for i in range(1, n + 1)]
    return columns, unaware, full_idx, bidder_idx


def _bid_column(L, keys, contribs):
    """The bid column of one (bidder, contributions): ``contribs[key]`` (a
    column or a constant) summed over ``keys`` in order, from 0.0."""
    col = np.zeros(L)
    for key in keys:
        col += contribs[key]
    return col


def _mc_chunk(s, rules, layouts, reads, seed, start, stop):
    """Pure function of the draw range: draws what ``reads`` = (values
    for, atoms for, hidden) names once, computes each (bidder,
    characteristic, level) contribution once, keeps only the values a hidden
    sum reads, then settles every policy in turn; returns per policy the
    per-field (sum, sum of squares).  Bid columns are built on first use
    and shared by every policy of the batch, so each distinct one is summed
    once per chunk; the policies also share four scratch columns."""
    values_for, atoms_for, hidden_for = reads
    L = stop - start
    values, atoms = _chunk_values(s, seed, start, stop, values_for, atoms_for)
    sources = {"values": values, "atoms": atoms}
    contribs = {key: f if source is None else f(sources[source][key[:2]])
                for key, (source, f) in rules.items()}
    hidden = {key: values[key] for key in hidden_for}
    del sources, values, atoms
    built = {}

    def column(keys):
        if keys not in built:
            built[keys] = _bid_column(L, keys, contribs)
        return built[keys]

    scratch = np.empty((4, L))
    return [_policy_fields(column, hidden, layout, scratch) for layout in layouts]


def _policy_fields(column, hidden_values, layout, scratch):
    """One policy's per-field (sum, sum of squares) over one chunk.  Each
    distinct view is settled once by one top-two pass, whose masks give
    every win credit and surplus; bidders are then read in order, so the
    revenue column adds their perceived surpluses in bidder order.  Bids
    are finite and never -0.0 (columns are sums from 0.0), so the gap is
    finite and non-negative, and a product with a top-bid mask is the same
    float as a masked select.  Credit, surplus, hidden value and squares
    are written into the scratch columns, which each field reads before
    the next one overwrites them."""
    columns, unaware, full_idx, bidder_idx = layout
    credit, surplus, hidden, square = scratch
    fields = {}

    def put(name, data):
        fields[name] = (float(data.sum()), float(np.square(data, out=square).sum()))

    def settle(v):
        """Top bid and price under view v, and its (top masks, top-two gap,
        1/#top bids)."""
        first, second, n_top, masks = top_two([column(keys) for keys in columns[v]])
        return first, second, (masks, first - second, 1.0 / n_top)

    def outcome(v, i, kind):
        """Put bidder i's surplus and win credit under settled view v; both
        stay in their scratch columns until the next call."""
        masks, gap, share = views[v]
        put(f"surplus_{kind}_{i}", np.multiply(masks[i - 1], gap, out=surplus))
        put(f"credit_{kind}_{i}", np.multiply(masks[i - 1], share, out=credit))

    views = {v: settle(v)[2] for v in set(bidder_idx) - {full_idx}}
    first, price, views[full_idx] = settle(full_idx)
    put("first", first)
    put("second", price)
    revenue = price                   # the price column, read only above
    for i, vi in enumerate(bidder_idx, start=1):
        outcome(full_idx, i, "act")
        if unaware[i - 1]:
            hidden.fill(0.0)
            for key in unaware[i - 1]:
                hidden += hidden_values[key]
            hidden *= credit          # still the full view's credit
            put(f"hidden_{i}", hidden)
        else:
            fields[f"hidden_{i}"] = (0.0, 0.0)
        if vi == full_idx:
            fields[f"surplus_perc_{i}"] = fields[f"surplus_act_{i}"]
            fields[f"credit_perc_{i}"] = fields[f"credit_act_{i}"]
        else:
            outcome(vi, i, "perc")
        revenue += surplus            # bidder i's perceived surplus
    put("revenue", revenue)
    return fields


def _mc_bundles(s: Scenario, policies: tuple, config: EstimatorConfig) -> tuple:
    layouts = [_policy_layout(s, p) for p in policies]
    used = {key for columns, _u, _f, _b in layouts
            for view_keys in columns for keys in view_keys for key in keys}
    rules = {(i, j, level): _contribution_rule(s.law(i, j), level) for i, j, level in used}
    # an entry needs its values when a contribution or a hidden sum reads
    # them, its atom index when a discrete contribution does; a continuous
    # entry only ever under NoInfo needs no inverse CDF
    hidden_for = {key for _c, unaware, _f, _b in layouts for keys in unaware for key in keys}
    values_for = hidden_for | {key[:2] for key, (source, _f) in rules.items()
                               if source == "values"}
    atoms_for = {key[:2] for key, (source, _f) in rules.items() if source == "atoms"}
    S = config.n_samples
    ranges = [(a, min(a + _CHUNK, S)) for a in range(0, S, _CHUNK)]

    def run(rng):
        return _mc_chunk(s, rules, layouts, (values_for, atoms_for, hidden_for),
                         config.seed, rng[0], rng[1])

    if config.workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            partials = list(pool.map(run, ranges))
    else:
        partials = [run(r) for r in ranges]
    return tuple(_mc_bundle_from(s, [part[k] for part in partials], config)
                 for k in range(len(policies)))


def _mc_bundle_from(s: Scenario, partials: list, config: EstimatorConfig) -> EstimateBundle:
    """One policy's bundle from its per-chunk partial sums."""
    S = config.n_samples
    sums: dict = {}
    for part in partials:         # merge in draw-index order: deterministic
        for name, (sm, sq) in part.items():
            acc = sums.setdefault(name, [0.0, 0.0])
            acc[0] += sm
            acc[1] += sq

    def stat(name):
        sm, sq = sums[name]
        mu = sm / S
        if S < 2:
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
