"""Outcome generation and expectation estimation.

Bids are estimated valuations: under a viewpoint v, bidder k bids the sum
over characteristics in (his awareness) intersect v of the conditional mean
of his value law given his signal cell.  The second-price auction settles
to the highest bidder at the second-highest bid.

Both estimation backends read a policy through one layout
(``_policy_layout``) in the ids of one table kept on the scenario (``_Ids``):
each (bidder, characteristic, information level) key is an int, a bid
column the tuple of its keys' ids in sorted characteristic order, and each
deduplicated viewpoint an int standing for its bidders' columns; per bidder,
the unaware characteristics are keyed at full information, because the
hidden value an unaware bidder omits is what that contribution would add.

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
  of the draw, on a discrete law a table of ``distributions.cell_means``) and
  each distinct bid column are computed once for the whole batch.  Atom
  indices and cutpoint cells come from ``distributions.bin_index``, the
  same integers as ``np.searchsorted``.  Each policy in turn settles its
  views with one top-two pass each (``_kernels.top_two``), whose
  per-column top masks give win credit and surplus in scratch columns
  reused across bidders, fields and policies, reduced to per-field sums
  and sums of squares.  Only the bundle fields the caller names
  (``fields``, every one of ``FIELDS`` by default) are computed, the
  others are None: a 1/#ties share is built only for a credit that is
  read, and a key read only as a hidden value is read, and its entry
  inverted, only when hidden values are.  Each report of ``fees`` names
  the fields it reads.  Top-two results are not
  kept across policies.  A field that overflows double precision raises
  EstimationError instead of being reported.  ``score_policies`` ranks
  policies on the same pass and draws, for the policy search: each
  distinct view any scored policy reads is settled once per chunk and
  reduced only to the sums its revenue needs (each reading bidder's
  surplus, and the price of a full view), so only floats outlive a view;
  a score is ``==`` to the revenue report of that policy.  The pass also
  returns a handle that settles any one scored policy's revenue fields
  (``REVENUE_FIELDS``) on the same draws (the search's winner, once it is
  decided): the last chunk's bid columns and contributions are kept, the
  policy's fields are summed on them, and only the chunks before it are
  redrawn, so a one-chunk search draws each chunk once.
* ``exact`` sweeps each deduplicated viewpoint once.  Under one viewpoint
  bids are independent across bidders, so each bid column's law is the
  integer form ``orderstats.bid_lattice`` folds from its keys, and the
  forms go on a common integer atom grid (``orderstats.atom_grid``); one
  ``AtomGrid.settle`` pass over per-bidder CDF columns and prefix sums
  gives every bidder's unique-winner surplus, the 1/#ties win credit and
  from those E[first] and E[second], at a cost of bidders times bid
  support, not the product of supports.  A column whose fold passes the
  bound of ``distributions.fold_atom_lattices`` is refused, naming the
  column.  Each column's form is built once per
  scenario and each view settled once per scenario: both are kept on the
  scenario instance, so every policy read on the same scenario reuses
  them.  Ties contribute zero surplus since the price equals the bid.
  Hidden values are independent of every bid, so a bidder's hidden value
  is the bidder's hidden keys' contribution means times its win credit.
  The settled views give every field, so this backend ignores ``fields``.

Both backends report, for every bidder, the perceived quantities (under the
bidder's own awareness viewpoint) and the actual ones (under full
awareness), from the same underlying draws.  There is no single-draw API:
``sample_draws`` exposes the Monte Carlo backend's realized values, and
settlement happens only inside the estimators, always with 1/#ties credit.
"""

from __future__ import annotations

import math
import threading
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
    _atom_cells,
    atom_index,
    atom_lattice,
    bin_index,
    canonical_info,
    cell_means,
    cells,
    conditional_mean,
    mean,
    ppf,
)
from .orderstats import atom_grid, bid_component, bid_lattice
from .scenario import DisclosurePolicy, Scenario

__all__ = [
    "EstimatorConfig",
    "BidderEstimate",
    "EstimateBundle",
    "EstimationError",
    "FIELDS",
    "REVENUE_FIELDS",
    "estimate",
    "estimate_policies",
    "exact_cap_check",
    "score_policies",
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
        if not 0 <= self.seed <= _U64:
            raise EstimationError(f"seed must be in 0..2**64-1, got {self.seed}")


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


# Each bundle field (a per-bidder one for every bidder) and the name of its
# Monte Carlo sums (per bidder, suffixed _i for bidder i).
_SUMS = {
    "first_order_stat": "first",
    "second_order_stat": "second",
    "total_revenue": "revenue",
    "perceived_surplus": "surplus_perc",
    "actual_surplus": "surplus_act",
    "win_prob_perceived": "credit_perc",
    "win_prob_actual": "credit_act",
    "hidden_win_value": "hidden",
}
FIELDS = frozenset(_SUMS)
# what fees.revenue reads: the fields a scored policy is settled on
REVENUE_FIELDS = frozenset({"first_order_stat", "second_order_stat", "total_revenue",
                            "perceived_surplus", "actual_surplus"})
_REVENUE_SUMS = frozenset(_SUMS[f] for f in REVENUE_FIELDS)


# ---------------------------------------------------------------------------
# Estimation
# ---------------------------------------------------------------------------

def exact_cap_check(s: Scenario, p: DisclosurePolicy) -> Optional[int]:
    """Size of the joint outcome space of the in-scope laws (the product of
    support sizes over the characteristics each bidder is aware of), which
    the perfbench tracer reports; None when a law in scope is not finitely
    supported.  No estimator reads it or visits that space."""
    laws = [s.law(i, j) for i in range(1, s.n_bidders + 1) for j in p.aware(i)]
    if all(isinstance(law, DiscreteFinite) for law in laws):
        return math.prod(len(law.values) for law in laws)
    return None


def estimate(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig,
             fields=FIELDS) -> EstimateBundle:
    return estimate_policies(s, (p,), config, fields)[0]


def estimate_policies(s: Scenario, policies, config: EstimatorConfig, fields=FIELDS) -> tuple:
    """One bundle per policy, in order; each is ``==`` to ``estimate`` of
    that policy alone.  Under Monte Carlo every policy is settled on the
    same draws, and each chunk of draws is generated once for all of them.
    Only the bundle fields named in ``fields`` are computed; the others,
    and their standard errors, are None.  The exact backend gives every
    field whatever ``fields`` names."""
    return score_policies(s, (), config, bundled=policies, fields=fields)[1]


def score_policies(s: Scenario, policies, config: EstimatorConfig, bundled=(),
                   fields=FIELDS):
    """The revenue of each policy, ``==`` to what ``fees.revenue(s, p,
    config).total_revenue`` reports, ``estimate_policies(s, bundled,
    config, fields)`` and ``settle``, from one pass over the draws.  A
    score is each bidder's perceived surplus summed in bidder order plus
    the expected price, and nothing else is computed for it; the exact
    backend reads it off the policy's bundle, whose views are settled once
    per scenario.

    ``settle(k)`` is ``==`` ``estimate(s, policies[k], config,
    REVENUE_FIELDS)``, for any k and any number of calls.  Under Monte
    Carlo it sums that policy's revenue fields on the last chunk's bid
    columns, which the handle keeps, and redraws only the chunks before
    it, for that policy alone."""
    policies, bundled, fields = tuple(policies), tuple(bundled), frozenset(fields)
    if not fields <= FIELDS:
        raise EstimationError(f"unknown bundle fields {sorted(fields - FIELDS)}")
    if not (policies or bundled):
        return (), (), None
    if s.n_bidders < 2:
        raise EstimationError("second-price auction needs at least 2 bidders")
    if config.backend == "exact":
        return (tuple(_exact_bundle(s, p, config).total_revenue for p in policies),
                tuple(_exact_bundle(s, p, config) for p in bundled),
                lambda k: _exact_bundle(s, policies[k], config))
    return _mc_pass(s, policies, bundled, config, frozenset(_SUMS[f] for f in fields))


def _effective_views(s: Scenario, p: DisclosurePolicy):
    """The viewpoint of each view of ``_policy_layout``, and its slots."""
    views, _unaware, full_idx, bidder_idx = _policy_layout(s, p)
    wanted, slots = [s.full_set, *p.awareness], [full_idx, *bidder_idx]
    return [wanted[slots.index(v)] for v in range(len(views))], full_idx, bidder_idx


class _Ids:
    """One scenario's interned ids: id k stands for ``items[k]``, a key or a
    view (its bid columns in bidder order); ``full[i - 1][j - 1]`` is the id
    of (i, j) at full information.  Threads intern under ``lock``."""

    def __init__(self, s: Scenario):
        self.items, self._ids, self.lock = [], {}, threading.Lock()
        self.full = [[self.intern((i, j, canonical_info(law, FullInfo())))
                      for j, law in enumerate(row, 1)] for i, row in enumerate(s.laws, 1)]

    def intern(self, item) -> int:
        got = self._ids.setdefault(item, len(self.items))
        if got == len(self.items):
            self.items.append(item)
        return got


def _ids(s: Scenario) -> _Ids:
    return s.__dict__.get("_ids") or s.__dict__.setdefault("_ids", _Ids(s))


def _policy_layout(s: Scenario, p: DisclosurePolicy):
    """What one policy reads, as ``_Ids`` ids: its views, deduplicated by the
    bid columns they give (viewpoints that meet every awareness set alike
    give the same bids); per bidder the characteristics he is unaware of,
    each keyed at full information, since a hidden value is the contribution
    full information would add; and the slots of the full and own views."""
    table = _ids(s)
    with table.lock:
        own = [[(j, table.intern((i, j, p.level(i, j)))) for j in sorted(a)]
               for i, a in enumerate(p.awareness, start=1)]
        wanted = [table.intern(tuple([tuple([k for j, k in keys if j in v]) for keys in own]))
                  for v in (s.full_set, *p.awareness)]
    views = tuple(dict.fromkeys(wanted))        # the full view first
    unaware = [tuple([k for j, k in enumerate(full, start=1) if j not in a])
               for full, a in zip(table.full, p.awareness)]
    return views, unaware, 0, [views.index(view) for view in wanted[1:]]


# -- exact backend ----------------------------------------------------------

def _settled_view(s: Scenario, view: int):
    """Settlement of one view id, kept on the scenario instance for every
    claim and policy that reads the view again: ``AtomGrid.settle`` on its
    columns' forms (``bid_lattice``), per-bidder surplus and credit and the
    view's E[first] and E[second] from that one pass.  No bundle field
    calls ``AtomGrid.expected``, which serves order-statistic laws and
    Prop 6."""
    views = s.__dict__.setdefault("_settled_views", {})
    got = views.get(view)
    if got is None:
        items = _ids(s).items
        got = views[view] = atom_grid([bid_lattice(s, tuple(items[k] for k in keys))
                                       for keys in items[view]]).settle()
    return got


def _exact_bundle(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig) -> EstimateBundle:
    if not all(isinstance(s.law(i, j), DiscreteFinite)
               for i in range(1, s.n_bidders + 1) for j in p.aware(i)):
        raise EstimationError("exact backend requires finite discrete laws in scope")

    views, unaware, full_idx, bidder_idx = _policy_layout(s, p)
    settled = [_settled_view(s, view) for view in views]
    surplus_full, credit_full, first, second = settled[full_idx]

    bidders = []
    for i in range(1, s.n_bidders + 1):
        surplus_own, credit_own = settled[bidder_idx[i - 1]][:2]
        win_actual = credit_full[i - 1]
        hidden = sum(mean(bid_component(s, *_ids(s).items[k])) for k in unaware[i - 1])
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
    gen = Generator(Philox(key=np.array([seed, 0], dtype=np.uint64),
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
    draws.  A seed outside 0..2**64-1 raises EstimationError."""
    EstimatorConfig(seed=seed)                # the one check of a seed's range
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
    float to each atom's cell mean (``distributions.cell_means``), so under
    full information (singleton cells) the atom values themselves: a
    full-information contribution is the realized value on every law."""
    if isinstance(level, NoInfo):
        return float(mean(law))
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


def _invert(law, u):
    """An entry's draw from its uniforms: the atom index of a finitely
    supported law, else the realized value."""
    return (atom_index if isinstance(law, DiscreteFinite) else ppf)(law, u)


def _reading(s, ids):
    """Per key id, its (bidder, characteristic) entry and contribution rule,
    and the entries some rule reads the draw of: an entry read only under
    NoInfo needs no inverse CDF."""
    keys = _ids(s).items
    rules = {k: (keys[k][:2], _contribution_rule(s.law(*keys[k][:2]), keys[k][2])) for k in ids}
    return rules, {entry for entry, rule in rules.values() if not isinstance(rule, float)}


def _chunk_contributions(s, rules, entries, seed, start, stop):
    """The shared start of settling one chunk, a pure function of the draw
    range: inverts each (bidder, characteristic) entry in ``entries`` once
    and frees the uniforms, then computes each contribution in ``rules``
    once.  Returns the chunk length and the contributions."""
    L = stop - start
    U = _uniform_chunk(seed, start, stop, s.n_bidders, s.m_characteristics)
    draws = {(i, j): _invert(s.law(i, j), U[:, i - 1, j - 1]) for i, j in entries}
    del U                  # no view of the block is left: this frees it
    return L, {k: rule if isinstance(rule, float) else rule(draws[entry])
               for k, (entry, rule) in rules.items()}


def _mc_chunk(s, rules, plan, layouts, entries, seed, start, stop, sums, keep=False):
    """One chunk's score sums for ``plan`` (``_score_sums``) and, per policy
    layout in ``layouts``, the per-field (sum, sum of squares) of the
    fields named in ``sums``.  Each distinct bid column is built on first
    use and kept for the chunk, so it is summed once however many policies
    read it; the policies share four scratch columns.  With ``keep``, on a
    scoring pass's last chunk, the chunk keeps its bid columns and
    contributions and also returns ``layout_fields(layout)``, the revenue
    fields of one scored layout on them."""
    L, contribs = _chunk_contributions(s, rules, entries, seed, start, stop)
    built, views = {}, _ids(s).items

    def bids(view):
        for keys in views[view]:
            if keys not in built:
                built[keys] = _bid_column(L, keys, contribs)
        return [built[keys] for keys in views[view]]

    scratch = np.empty((4, L))
    score = _score_sums(bids, plan, scratch[0])
    fields = [_policy_fields(bids, contribs, layout, scratch, sums) for layout in layouts]
    if not keep:
        return score, fields

    def layout_fields(layout):
        with np.errstate(over="ignore", invalid="ignore"):
            return _policy_fields(bids, contribs, layout, np.empty((4, L)), _REVENUE_SUMS)

    return score, fields, layout_fields


def _score_plan(layouts):
    """What scoring the policies of ``layouts`` reads: per distinct view
    id, the 0-based bidders whose perceived surplus it gives, and whether
    it is some policy's full view, which gives the price."""
    plan = {}
    for views, _unaware, full_idx, bidder_idx in layouts:
        for i, v in enumerate(bidder_idx):
            plan.setdefault(views[v], [set(), False])[0].add(i)
        plan.setdefault(views[full_idx], [set(), False])[1] = True
    return plan


def _score_sums(bids, plan, scratch):
    """One chunk's sums for ``plan``, keyed (view, 0-based bidder) for the
    bidder's surplus and (view, None) for a full view's price: each the
    float ``_policy_fields`` sums for that field.  Each view is settled by
    one top-two pass whose arrays are dropped before the next, so only
    floats outlive a view."""
    sums = {}
    for view, (bidders, full) in plan.items():
        first, second, _n_top, masks = top_two(bids(view))
        gap = np.subtract(first, second, out=first)
        for i in bidders:
            sums[view, i] = float(np.multiply(masks[i], gap, out=scratch).sum())
        if full:
            sums[view, None] = float(second.sum())
        del first, second, masks, gap
    return sums


def _policy_fields(bids, contribs, layout, scratch, sums):
    """One policy's per-field (sum, sum of squares) over one chunk, for the
    fields named in ``sums`` alone.  Each view a read field needs is settled
    once by one top-two pass, whose masks give every win credit and
    surplus; a view's 1/#top-bids share is built only if a credit under it
    is read.  Bidders are then read in order, so the revenue column adds
    their perceived surpluses in bidder order.  Bids are never -0.0
    (columns are sums from 0.0), so unless a sum overflows the gap is
    finite and non-negative, and a product with a top-bid mask is the same
    float as a masked select.  Credit, surplus, hidden value and squares
    are written into the scratch columns, which each field reads before
    the next one overwrites them."""
    views, unaware, full_idx, bidder_idx = layout
    credit, surplus, hidden, square = scratch
    fields = {}

    def put(name, data):
        fields[name] = (float(data.sum()), float(np.square(data, out=square).sum()))

    def settle(v, shared):
        """Top bid and price under view v, and its (top masks, top-two gap,
        1/#top bids if ``shared``)."""
        first, second, n_top, masks = top_two(bids(views[v]))
        return first, second, (masks, first - second, 1.0 / n_top if shared else None)

    def outcome(v, i, kinds, surplus_kept, credit_kept):
        """Put bidder i's surplus and win credit under settled view v, each
        under every name of ``kinds`` that is read.  A column is computed
        also when it is kept for a later field (the perceived surplus for
        the revenue, the actual credit for the hidden value), and stays in
        its scratch column until the next call."""
        masks, gap, share = settled[v]
        for field, column, factor, kept in (("surplus", surplus, gap, surplus_kept),
                                            ("credit", credit, share, credit_kept)):
            names = [f"{field}_{kind}" for kind in kinds if f"{field}_{kind}" in sums]
            if names or kept:
                np.multiply(masks[i - 1], factor, out=column)
            if names:
                put(f"{names[0]}_{i}", column)
                for name in names[1:]:
                    fields[f"{name}_{i}"] = fields[f"{names[0]}_{i}"]

    settled = {}
    if sums & {"surplus_perc", "credit_perc", "revenue"}:
        settled = {v: settle(v, "credit_perc" in sums)[2] for v in set(bidder_idx) - {full_idx}}
    first, price, settled[full_idx] = settle(
        full_idx, bool(sums & {"credit_act", "credit_perc", "hidden"}))
    if "first" in sums:
        put("first", first)
    if "second" in sums:
        put("second", price)
    revenue = price                   # the price column, read only above
    for i, vi in enumerate(bidder_idx, start=1):
        own = vi == full_idx          # the perceived fields are the actual ones
        outcome(full_idx, i, ("act", "perc") if own else ("act",),
                own and "revenue" in sums, "hidden" in sums)
        if "hidden" in sums and unaware[i - 1]:
            hidden.fill(0.0)
            for key in unaware[i - 1]:
                hidden += contribs[key]
            hidden *= credit          # still the full view's credit
            put(f"hidden_{i}", hidden)
        elif "hidden" in sums:
            fields[f"hidden_{i}"] = (0.0, 0.0)
        if not own:
            outcome(vi, i, ("perc",), "revenue" in sums, False)
        if "revenue" in sums:
            revenue += surplus        # bidder i's perceived surplus
    if "revenue" in sums:
        put("revenue", revenue)
    return fields


def _mc_pass(s: Scenario, scored: tuple, bundled: tuple, config: EstimatorConfig, sums):
    """Revenue scores of ``scored``, bundles of ``bundled`` with the fields
    named in ``sums`` and the handle that settles one scored policy, as
    ``score_policies`` returns them, from one pass over the draws.  A
    scored policy reads only its bid columns: no hidden value, credit,
    first order statistic or sum of squares is computed for it, and no
    entry it reads only as a hidden value is inverted."""
    S = config.n_samples
    ranges = [(a, min(a + _CHUNK, S)) for a in range(0, S, _CHUNK)]
    score_layouts = [_policy_layout(s, p) for p in scored]
    partials = _mc_partials(s, score_layouts, bundled, config, ranges, sums)
    scores = _final_scores(score_layouts, [part[0] for part in partials], S)
    bundles = tuple(_mc_bundle_from(s, [part[1][b] for part in partials], config)
                    for b in range(len(bundled)))
    last = partials[-1]

    def settle(k):
        head = _mc_partials(s, (), (scored[k],), config, ranges[:-1], _REVENUE_SUMS)
        return _mc_bundle_from(s, [part[1][0] for part in head]
                               + [last[2](score_layouts[k])], config)

    return scores, bundles, settle


def _mc_partials(s, score_layouts, bundled, config, ranges, sums):
    """Per draw range, in draw-index order: the chunk's score sums for
    ``score_layouts`` and the per-field sums of each ``bundled`` policy,
    for the fields named in ``sums``.  When anything is scored, the last
    chunk also returns its ``layout_fields`` (``_mc_chunk``).  A key read
    only as a hidden value is read, and its entry inverted, only when
    hidden values are."""
    layouts = [_policy_layout(s, p) for p in bundled]
    plan = _score_plan(score_layouts)
    items = _ids(s).items
    used = {k for view in set(plan).union(*(layout[0] for layout in layouts))
            for keys in items[view] for k in keys}
    if "hidden" in sums:
        used.update(k for layout in layouts for k in chain(*layout[1]))
    rules, entries = _reading(s, used)

    def run(rng):
        # an overflow is not warned about: every non-finite mean is rejected
        # by _final_scores, and every non-finite field by _mc_bundle_from
        with np.errstate(over="ignore", invalid="ignore"):
            return _mc_chunk(s, rules, plan, layouts, entries, config.seed, *rng, sums,
                             bool(score_layouts) and rng == ranges[-1])

    if config.workers > 1 and len(ranges) > 1:
        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            return list(pool.map(run, ranges))
    return [run(r) for r in ranges]


def _final_scores(score_layouts, partials, S):
    """Each scored layout's revenue from the per-chunk score sums: Python's
    sum over bidders in order, plus the price, the float that fees.revenue
    reports as total_revenue."""
    means = {}
    for key in partials[0]:
        acc = 0.0
        for part in partials:     # merge in draw-index order, as bundles do
            acc += part[key]
        mu = acc / S
        if not math.isfinite(mu):
            i = key[1]
            raise _not_finite("second" if i is None else f"surplus_perc_{i + 1}",
                              f"mean {mu!r}")
        means[key] = mu
    return tuple(sum(means[views[v], i] for i, v in enumerate(bidder_idx))
                 + means[views[full_idx], None]
                 for views, _u, full_idx, bidder_idx in score_layouts)


def _not_finite(name, detail):
    return EstimationError(f"Monte Carlo estimate {name!r} is not finite ({detail}): "
                           "the values overflow double precision")


def _mc_bundle_from(s: Scenario, partials: list, config: EstimatorConfig) -> EstimateBundle:
    """One policy's bundle from its per-chunk partial sums; a field with no
    sums is None, and so is its standard error."""
    S = config.n_samples
    sums: dict = {}
    for part in partials:         # merge in draw-index order: deterministic
        for name, (sm, sq) in part.items():
            acc = sums.setdefault(name, [0.0, 0.0])
            acc[0] += sm
            acc[1] += sq

    def stat(name):
        if name not in sums:              # a field the caller does not read
            return None, None
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
