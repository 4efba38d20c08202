"""Outcome generation and expectation estimation.

Bids are estimated valuations: under a viewpoint v, bidder k bids the sum
over characteristics in (his awareness) intersect v of the conditional mean
of his value law given his signal cell.  The second-price auction settles
to the highest bidder at the second-highest bid.

Both estimation backends read a policy through one layout
(``_policy_layout``) of (bidder, characteristic, information level) keys:
per deduplicated viewpoint and bidder, the keys summed into the bid column
in sorted characteristic order; per bidder, the characteristics he is
unaware of, keyed at full information, because the hidden value an unaware
bidder omits is what a full-information contribution would add.

* ``mc`` draws states with one fixed uniform variate per
  (bidder, characteristic, draw index) - common random numbers across
  policies and viewpoints - in fixed-size chunks keyed by draw index, so
  results are bit-identical for any worker count.  ``estimate_policies``
  is the one route (``estimate`` is its one-policy case).  A chunk's
  uniforms are contiguous (bidder, characteristic) columns filled from
  cache-sized Philox sub-blocks.  Each entry some key reads is inverted
  once (to its atom index for a finitely supported law, else its value)
  and the uniforms are freed; then each key's contribution
  (``_contribution_rule``: the mean under no information, else a function
  of the draw, on a discrete law a table of ``orderstats.cell_means``) and
  each distinct bid column are computed once for the whole batch.  Atom
  indices and cutpoint cells come from ``distributions.bin_index``, the
  same integers as ``np.searchsorted``.  Each policy in turn settles its
  views with one top-two pass each (``_kernels.top_two``), whose
  per-column top masks give win credit and surplus in scratch columns
  reused across bidders, fields and policies, reduced to per-field sums
  and sums of squares.  Top-two results are not
  kept across policies.  A field that overflows double precision raises
  EstimationError instead of being reported.  ``score_policies`` ranks
  policies on the same pass and draws, for the policy search: each
  distinct view any scored policy reads is settled once per chunk and
  reduced only to the sums its revenue needs (each reading bidder's
  surplus, and the price of a full view), so only floats outlive a view;
  a score is ``==`` to the revenue report of that policy.
* ``exact`` sweeps each deduplicated viewpoint once.  Under one viewpoint
  bids are independent across bidders, so each bid column's law is the
  integer form ``orderstats.bid_lattice`` folds from its keys, and the
  forms go on a common integer atom grid (``orderstats.atom_grid``); the
  order-statistic moments, every bidder's unique-winner surplus and the
  1/#ties win credit follow from per-bidder CDF columns and prefix sums,
  at a cost of bidders times bid support, not the product of supports.  A
  column whose product of contribution supports exceeds ``_FOLD_CAP`` is
  refused before it is requested.  Each column's form is built once per
  scenario and each view settled once per scenario: both are kept on the
  scenario instance, so every policy read on the same scenario reuses
  them.  Ties contribute zero surplus since the price equals the bid.
  Hidden values are independent of every bid, so a bidder's hidden value
  is the bidder's hidden keys' contribution means times its win credit.

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
from itertools import chain
from typing import Optional

import numpy as np
from numpy.random import Generator, Philox

from ._kernels import top_two
from .distributions import (
    DiscreteFinite,
    FullInfo,
    NoInfo,
    atom_index,
    atom_lattice,
    bin_index,
    canonical_info,
    cells,
    conditional_mean,
    lattice_mean,
    mean,
    ppf,
)
from .orderstats import _atom_cells, atom_grid, bid_component, bid_lattice, cell_means
from .scenario import DisclosurePolicy, Scenario

__all__ = [
    "EstimatorConfig",
    "BidderEstimate",
    "EstimateBundle",
    "EstimationError",
    "estimate",
    "estimate_policies",
    "exact_cap_check",
    "score_policies",
    "sample_draws",
]

_CHUNK = 1 << 16
_SUB_BLOCK = 1 << 12           # draws per cache-resident Philox sub-block
_U64 = (1 << 64) - 1
# support points an exact bid column may fold to, bounded by the product of
# its contributions' support sizes
_FOLD_CAP = 1 << 16


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
    """Size of the joint outcome space of the in-scope laws (the product of
    support sizes over the characteristics each bidder is aware of), which
    the perfbench tracer reports; None when a law in scope is not finitely
    supported.  No estimator reads it or visits that space."""
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
    return _mc_pass(s, (), policies, config)[1]


def score_policies(s: Scenario, policies, config: EstimatorConfig, bundled=()):
    """The revenue of each policy, ``==`` to what ``fees.revenue(s, p,
    config).total_revenue`` reports, and ``estimate_policies(s, bundled,
    config)``, from one pass over the draws.  A score is each bidder's
    perceived surplus summed in bidder order plus the expected price, and
    nothing else is computed for it; the exact backend reads it off the
    policy's bundle, whose views are settled once per scenario."""
    policies, bundled = tuple(policies), tuple(bundled)
    if not (policies or bundled):
        return (), ()
    if s.n_bidders < 2:
        raise EstimationError("second-price auction needs at least 2 bidders")
    if config.backend == "exact":
        return (tuple(sum(be.perceived_surplus for be in b.bidders) + b.second_order_stat
                      for b in (_exact_bundle(s, p, config) for p in policies)),
                tuple(_exact_bundle(s, p, config) for p in bundled))
    return _mc_pass(s, policies, bundled, config)


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


def _policy_layout(s: Scenario, p: DisclosurePolicy):
    """What one policy reads, as (bidder, characteristic, level) keys: per
    deduplicated view and bidder the contributions summed into the bid
    column, in sorted characteristic order; per bidder the characteristics
    he is unaware of, each keyed at full information, since a hidden value
    is the contribution full information would add; and the view slots of
    ``_effective_views``."""
    views, full_idx, bidder_idx = _effective_views(s, p)
    n = s.n_bidders
    columns = [tuple(tuple((i, j, p.level(i, j)) for j in sorted(p.aware(i) & view))
                     for i in range(1, n + 1)) for view in views]
    unaware = [[(i, j, canonical_info(s.law(i, j), FullInfo()))
                for j in range(1, s.m_characteristics + 1) if j not in p.aware(i)]
               for i in range(1, n + 1)]
    return columns, unaware, full_idx, bidder_idx


# -- exact backend ----------------------------------------------------------

def _settled_view(s: Scenario, view, full: bool):
    """Settlement of one view, given as its tuple of bid-column keys:
    (surplus, credit) from ``AtomGrid.settle`` on the columns' forms
    (``bid_lattice``), followed for the full view by E[first] and E[second],
    kept on the scenario instance for every claim and policy that reads the
    view again.  A column whose product of support sizes, which bounds its
    fold, exceeds ``_FOLD_CAP`` is refused before it is requested."""
    views = s.__dict__.setdefault("_settled_views", {})
    got = views.get(view)
    if got is None or full and len(got) == 2:
        for keys in view:
            size = math.prod(len(atom_lattice(bid_component(s, *key)).nums) for key in keys)
            if size > _FOLD_CAP:
                raise EstimationError(
                    f"exact backend: bidder {keys[0][0]}'s bid over characteristics "
                    f"{[j for _i, j, _level in keys]} has up to {size} support points, past "
                    f"the bound of {_FOLD_CAP}; use the mc backend or fewer characteristics")
        grid = atom_grid([bid_lattice(s, keys) for keys in view])
        got = got or grid.settle()
        if full:
            got += (grid.expected(1), grid.expected(2))
        views[view] = got
    return got


def _exact_mean(law):
    """A law's mean; a discrete one's is that of the integer form the bids
    fold, so both backends read one rational on float atoms too."""
    return lattice_mean(atom_lattice(law)) if isinstance(law, DiscreteFinite) else mean(law)


def _exact_bundle(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig) -> EstimateBundle:
    if not all(isinstance(s.law(i, j), DiscreteFinite)
               for i in range(1, s.n_bidders + 1) for j in p.aware(i)):
        raise EstimationError("exact backend requires finite discrete laws in scope")

    columns, unaware, full_idx, bidder_idx = _policy_layout(s, p)
    n = s.n_bidders
    settled = [_settled_view(s, view, v == full_idx) for v, view in enumerate(columns)]
    surplus_full, credit_full, first, second = settled[full_idx]

    bidders = []
    for i in range(1, n + 1):
        surplus_own, credit_own = settled[bidder_idx[i - 1]][:2]
        win_actual = credit_full[i - 1]
        hidden = 0
        for key in unaware[i - 1]:
            hidden += _exact_mean(bid_component(s, *key))
        bidders.append(BidderEstimate(
            perceived_surplus=surplus_own[i - 1],
            actual_surplus=surplus_full[i - 1],
            win_prob_perceived=credit_own[i - 1],
            win_prob_actual=win_actual,
            hidden_win_value=hidden * win_actual if hidden else Fraction(0),
        ))
    return EstimateBundle(
        first_order_stat=first,
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


def sample_draws(s: Scenario, seed: int, count: int) -> np.ndarray:
    """Realized value matrices for draws 0..count-1 of the given seed, shape
    (count, bidders, characteristics): the inverse CDF of every entry at
    the same per-(draw, entry) uniforms as ``estimate``, so empirical
    statistics computed from these draws are the Monte Carlo backend's
    draws."""
    n, m = s.n_bidders, s.m_characteristics
    out = np.empty((count, n, m))
    for a in range(0, count, _CHUNK):
        b = min(a + _CHUNK, count)
        U = _uniform_chunk(seed, a, b, n, m)
        for i in range(1, n + 1):
            for j in range(1, m + 1):
                out[a:b, i - 1, j - 1] = ppf(s.law(i, j), U[:, i - 1, j - 1])
    return out


def _contribution_rule(law, level):
    """How one (bidder, characteristic, level) contribution is read off a
    chunk: the NoInfo mean as a float constant, or a function of the
    entry's draw, which is its atom index for a finitely supported law and
    its realized value otherwise.  A discrete law's table holds the nearest
    float to each atom's cell mean (``orderstats.cell_means``), so under
    full information (singleton cells) the atom values themselves: a
    full-information contribution is the realized value on every law."""
    if isinstance(level, NoInfo):
        return float(_exact_mean(law))
    if isinstance(law, DiscreteFinite):
        groups = _atom_cells(law, level)
        table = np.empty(len(law.values))
        for cell, (_mass, (num, den)) in zip(groups, cell_means(atom_lattice(law), groups)):
            table[list(cell)] = num / den
        return table.__getitem__
    if isinstance(level, FullInfo):
        return lambda values: values
    cuts = np.asarray(level.cutpoints, dtype=np.float64)
    means = np.array([float(conditional_mean(law, level, c)) for c in cells(law, level)])
    return lambda values: means[bin_index(cuts, values, side="right")]


def _bid_column(L, keys, contribs):
    """The bid column of one (bidder, contributions): ``contribs[key]`` (a
    column or a constant) summed over ``keys`` in order, from 0.0."""
    col = np.zeros(L)
    for key in keys:
        col += contribs[key]
    return col


def _chunk_columns(s, rules, entries, seed, start, stop):
    """The shared start of settling one chunk, a pure function of the draw
    range: inverts each (bidder, characteristic) entry in ``entries`` once
    and frees the uniforms, then computes each contribution in ``rules``
    once.  Returns the chunk length, the contributions and ``column(keys)``,
    which builds a bid column on first use and keeps it for the chunk, so
    each distinct one is summed once however many policies read it."""
    L = stop - start
    U = _uniform_chunk(seed, start, stop, s.n_bidders, s.m_characteristics)
    draws = {}
    for i, j in entries:
        law = s.law(i, j)
        invert = atom_index if isinstance(law, DiscreteFinite) else ppf
        draws[i, j] = invert(law, U[:, i - 1, j - 1])
    del U                  # no view of the block is left: this frees it
    contribs = {key: rule if isinstance(rule, float) else rule(draws[key[:2]])
                for key, rule in rules.items()}
    del draws
    built = {}

    def column(keys):
        if keys not in built:
            built[keys] = _bid_column(L, keys, contribs)
        return built[keys]

    return L, contribs, column


def _mc_chunk(s, rules, plan, layouts, entries, seed, start, stop):
    """One chunk's score sums for ``plan`` (``_score_sums``) and, per policy
    layout in ``layouts``, its per-field (sum, sum of squares); the bid
    columns are shared by both, and the policies share four scratch
    columns."""
    L, contribs, column = _chunk_columns(s, rules, entries, seed, start, stop)
    scratch = np.empty((4, L))
    return (_score_sums(column, plan, scratch[0]),
            [_policy_fields(column, contribs, layout, scratch) for layout in layouts])


def _score_plan(layouts):
    """What scoring the policies of ``layouts`` reads: per distinct view
    (tuple of bid-column keys), the 0-based bidders whose perceived surplus
    it gives, and whether it is some policy's full view, which gives the
    price."""
    plan = {}
    for columns, _unaware, full_idx, bidder_idx in layouts:
        for i, v in enumerate(bidder_idx):
            plan.setdefault(columns[v], [set(), False])[0].add(i)
        plan.setdefault(columns[full_idx], [set(), False])[1] = True
    return plan


def _score_sums(column, plan, scratch):
    """One chunk's sums for ``plan``, keyed (view, 0-based bidder) for the
    bidder's surplus and (view, None) for a full view's price: each the
    float ``_policy_fields`` sums for that field.  Each view is settled by
    one top-two pass whose arrays are dropped before the next, so only
    floats outlive a view."""
    sums = {}
    for view, (bidders, full) in plan.items():
        first, second, _n_top, masks = top_two([column(keys) for keys in view])
        gap = np.subtract(first, second, out=first)
        for i in bidders:
            sums[view, i] = float(np.multiply(masks[i], gap, out=scratch).sum())
        if full:
            sums[view, None] = float(second.sum())
        del first, second, masks, gap
    return sums


def _policy_fields(column, contribs, layout, scratch):
    """One policy's per-field (sum, sum of squares) over one chunk.  Each
    distinct view is settled once by one top-two pass, whose masks give
    every win credit and surplus; bidders are then read in order, so the
    revenue column adds their perceived surpluses in bidder order.  Bids
    are never -0.0 (columns are sums from 0.0), so unless a sum overflows
    the gap is finite and non-negative, and a product with a top-bid mask
    is the same float as a masked select.  Credit, surplus, hidden value
    and squares are written into the scratch columns, which each field
    reads before the next one overwrites them."""
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
                hidden += contribs[key]
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


def _mc_pass(s: Scenario, scored: tuple, bundled: tuple, config: EstimatorConfig):
    """Revenue scores of ``scored`` and bundles of ``bundled``, from one pass
    over the draws.  A scored policy reads only its bid columns: no hidden
    value, credit, first order statistic or sum of squares is computed for
    it, and an entry it reads only as a hidden value is not inverted."""
    score_layouts = [_policy_layout(s, p) for p in scored]
    layouts = [_policy_layout(s, p) for p in bundled]
    plan = _score_plan(score_layouts)
    used = {key for keys in chain(*plan) for key in keys}
    used.update(key for columns, unaware, _f, _b in layouts
                for keys in chain(*columns, unaware) for key in keys)
    rules = {key: _contribution_rule(s.law(*key[:2]), key[2]) for key in used}
    # an entry is inverted when some rule reads its draw; an entry read
    # only under NoInfo needs no inverse CDF
    entries = {key[:2] for key, rule in rules.items() if not isinstance(rule, float)}
    S = config.n_samples
    ranges = [(a, min(a + _CHUNK, S)) for a in range(0, S, _CHUNK)]

    def run(rng):
        # an overflow is not warned about: every non-finite mean is rejected
        # below, and every non-finite field by _mc_bundle_from
        with np.errstate(over="ignore", invalid="ignore"):
            return _mc_chunk(s, rules, plan, layouts, entries, config.seed, rng[0], rng[1])

    if config.workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            partials = list(pool.map(run, ranges))
    else:
        partials = [run(r) for r in ranges]

    means = {}
    for key in partials[0][0]:
        acc = 0.0
        for part in partials:     # merge in draw-index order, as bundles do
            acc += part[0][key]
        mu = acc / S
        if not math.isfinite(mu):
            i = key[1]
            raise _not_finite("second" if i is None else f"surplus_perc_{i + 1}",
                              f"mean {mu!r}")
        means[key] = mu
    # Python's sum over bidders in order, plus the price: the float that
    # fees.revenue reports as total_revenue
    scores = tuple(sum(means[columns[v], i] for i, v in enumerate(bidder_idx))
                   + means[columns[full_idx], None]
                   for columns, _u, full_idx, bidder_idx in score_layouts)
    return scores, tuple(_mc_bundle_from(s, [part[1][k] for part in partials], config)
                         for k in range(len(layouts)))


def _not_finite(name, detail):
    return EstimationError(f"Monte Carlo estimate {name!r} is not finite ({detail}): "
                           "the values overflow double precision")


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
        se = None if S < 2 else math.sqrt(max(sq - sm * sm / S, 0.0) / (S - 1) / S)
        if not (math.isfinite(mu) and (se is None or math.isfinite(se))):
            raise _not_finite(name, f"mean {mu!r}, standard error {se!r}")
        return mu, se

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
