"""Outcome generation and expectation estimation.

Bids are estimated valuations: under a viewpoint v, bidder k bids the sum
over characteristics in (his awareness) intersect v of the conditional mean
of his value law given his signal cell.  The second-price auction settles
to the highest bidder at the second-highest bid.

Both estimation backends read a policy through one layout
(``_policy_layout``) in the ids of one table kept on the scenario (``_Ids``,
created through ``distributions.kept``):
each (bidder, characteristic, information level) key is an int, a bid
column the tuple of its keys' ids in sorted characteristic order, and each
deduplicated viewpoint an int standing for its bidders' columns; per bidder,
the unaware characteristics are keyed at full information, because the
hidden value an unaware bidder omits is what that contribution would add.

* ``mc`` draws states with one fixed uniform variate per
  (bidder, characteristic, draw index) - common random numbers across
  policies and viewpoints - in fixed-size chunks keyed by draw index,
  walked lazily and merged in draw-index order as they arrive, so results
  are bit-identical for any worker count.  ``score_policies`` is the one
  route (``estimate_policies`` is its case with nothing scored, and
  ``estimate`` its one-policy case).  A chunk's uniforms are contiguous
  (bidder, characteristic) columns filled from cache-sized Philox
  sub-blocks.  Each entry some key reads is inverted once (to its atom
  index for a finitely supported law, else its value) and the uniforms
  are freed; then each key's contribution (``_contribution_rule``: the
  mean under no information, else a function of the draw, on a discrete
  law a table of ``distributions.cell_means``) and each distinct bid
  column are computed once for the whole batch.  Atom indices and
  cutpoint cells come from ``distributions.bin_index``, the same integers
  as ``np.searchsorted``.  One plan per pass (``_plan``) lists each
  distinct view any scored or bundled policy reads and the reads it owes
  (top bid, price, per bidder surplus, win credit and hidden value), each
  with or without its sum of squares; one settle per chunk (``_settle``)
  makes one top-two pass per planned view (``_kernels.top_two``, called
  from there alone), reduces every read to a table of (sum, sum of
  squares) keyed (view, bidder, field), and drops the view's arrays
  before the next view.  A bundled policy's revenue column (the price
  plus the perceived surpluses in bidder order), the one per-policy
  column, grows in the price's own array as its terms are settled; a term
  settled before its turn is copied, and the copy dropped once every
  revenue column that reads it has added it.  Scores, bundles and the
  ``settle(k)`` handle read that one table.  Only the bundle fields the
  caller names (``fields``, every one of ``FIELDS`` by default) are
  computed, the others are None: a key read only as a hidden value is
  read, and its entry inverted, only when hidden values are.  Each report of ``fees``
  names the fields it reads.  A field that overflows double precision
  raises EstimationError instead of being reported.  A score, the revenue
  of a policy for the policy search, reads only its bidders' surpluses
  under their own views and its price, with no squares; it is ``==`` to
  the revenue report of that policy.  The pass also returns a handle that
  settles any one scored policy's revenue fields (``REVENUE_FIELDS``) on
  the same draws (the search's winner, once it is decided): the last
  chunk's bid columns and contributions are kept, the policy's plan is
  settled on them, and only the chunks before it are redrawn, so a
  one-chunk search draws each chunk once.
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
  scenario instance (``distributions.kept``), so every policy read on the
  same scenario reuses them.  Ties contribute zero surplus since the price equals the bid.
  Hidden values are independent of every bid, so a bidder's hidden value
  is the bidder's hidden keys' contribution means times its win credit.
  The settled views give every field, so this backend ignores ``fields``.

Both backends report, for every bidder, the perceived quantities (under the
bidder's own awareness viewpoint) and the actual ones (under full
awareness), from the same underlying draws.  There is no single-draw API:
settlement happens only inside the estimators, always with 1/#ties credit.
"""

from __future__ import annotations

import math
import threading
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
    _atom_cells,
    atom_index,
    atom_lattice,
    bin_index,
    canonical_info,
    cell_means,
    cells,
    conditional_mean,
    kept,
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
    of (i, j) at full information.  One table is kept per scenario
    (``_ids``, through ``kept``), and threads intern under ``lock``."""

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
    return kept(s, "_ids", None, _Ids, s)


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
    """Settlement of one view id, which ``_exact_bundle`` keeps on the
    scenario instance (``kept``) for every claim and policy that reads the
    view again: ``AtomGrid.settle`` on its columns' forms (``bid_lattice``),
    per-bidder surplus and credit and the view's E[first] and E[second]
    from that one pass.  No bundle field calls ``AtomGrid.expected``, which
    serves order-statistic laws and Prop 6."""
    items = _ids(s).items
    return atom_grid([bid_lattice(s, tuple(items[k] for k in keys))
                      for keys in items[view]]).settle()


def _exact_bundle(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig) -> EstimateBundle:
    if not all(isinstance(s.law(i, j), DiscreteFinite)
               for i in range(1, s.n_bidders + 1) for j in p.aware(i)):
        raise EstimationError("exact backend requires finite discrete laws in scope")

    views, unaware, full_idx, bidder_idx = _policy_layout(s, p)
    settled = [kept(s, "_settled_views", view, _settled_view, s, view) for view in views]
    surplus_full, credit_full, first, second = settled[full_idx]

    bidders, items = [], _ids(s).items
    for i in range(1, s.n_bidders + 1):
        surplus_own, credit_own = settled[bidder_idx[i - 1]][:2]
        win_actual = credit_full[i - 1]
        hidden = sum(mean(bid_component(s, *items[k])) for k in unaware[i - 1])
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


def _reading(s, plan):
    """Per key id that a planned view's bid column or a planned hidden
    value reads (``_plan``), its (bidder, characteristic) entry and
    contribution rule, and the entries some rule reads the draw of: an
    entry read only under NoInfo needs no inverse CDF."""
    keys = _ids(s).items
    ids = {k for view in plan[0] for column in keys[view] for k in column}
    ids.update(k for _top, reads in plan[0].values() for (_view, bidder, field), *_flags in reads
               if field == "hidden" for k in bidder[1])
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


def _plan(scored, bundled, sums):
    """What one pass settles per chunk, from the layouts of its scored and
    bundled policies, and where each reader finds its sums in the table.

    The plan maps each distinct view id, in the order the scored and then
    the bundled policies first read it, to its reads: each a table key
    (view, bidder, field) with two flags, whether its sum of squares is
    taken and whether its column is held for a revenue column.  A key's
    bidder is None for the view's first and second columns, (0-based
    bidder, unaware key ids) for a hidden value, else the 0-based bidder.
    It also lists the revenue columns, each keyed by the tuple of the keys
    it adds: the price, then the perceived surpluses in bidder order.
    Returned with the plan: per scored layout the keys of its bidders'
    surpluses and of its price, and per bundled layout the key of each sum
    name in ``sums`` it reads, () for the hidden value of a bidder aware
    of everything.  A score takes no squares."""
    reads, revenues, bundle_keys = {}, {}, []

    def read(view, bidder, field, squares=True, hold=False):
        key = view, bidder, field
        flags = reads.setdefault(view, {}).get(key, (False, False))
        reads[view][key] = (flags[0] or squares, flags[1] or hold)
        return key

    score_keys = [([read(views[v], i, "surplus", False) for i, v in enumerate(bidder_idx)],
                   read(views[full_idx], None, "second", False))
                  for views, _unaware, full_idx, bidder_idx in scored]
    for views, unaware, full_idx, bidder_idx in bundled:
        full, own = views[full_idx], [views[v] for v in bidder_idx]
        keys = {name: read(full, None, name) for name in ("first", "second") if name in sums}
        for i, view in enumerate(own):
            for name, at in (("surplus_perc", view), ("surplus_act", full),
                             ("credit_perc", view), ("credit_act", full)):
                if name in sums:
                    keys[f"{name}_{i + 1}"] = read(at, i, name[:name.index("_")])
            if "hidden" in sums:
                keys[f"hidden_{i + 1}"] = unaware[i] and read(full, (i, unaware[i]), "hidden")
        if "revenue" in sums:
            keys["revenue"] = (read(full, None, "second", False, True),
                               *(read(view, i, "surplus", False, True) for i, view in enumerate(own)))
            revenues[keys["revenue"]] = None
        bundle_keys.append(keys)
    plan = {view: (got.pop((view, None, "first"), (None,))[0],
                   [(key, *flags) for key, flags in got.items()]) for view, got in reads.items()}
    return (plan, tuple(revenues)), score_keys, bundle_keys


def _settle(bids, contribs, plan, L):
    """One chunk's table for ``plan`` (``_plan``): every read reduced to
    (sum, sum of squares) keyed (view, bidder, field), 0.0 for squares no
    reader takes.  Each planned view is settled by one top-two pass, whose
    per-column top masks give every surplus and win credit, and its arrays
    are dropped before the next view's pass.  A revenue column starts as
    its price column (a copy where revenues share a price) and adds its
    terms in order as they are settled; a term settled before its turn is
    copied, and the copy dropped once no revenue column still has to add
    it.  Bids are
    never -0.0 (columns are sums from 0.0), so unless a sum overflows the
    gap is finite and non-negative, and a product with a top-bid mask is
    the same float as a masked select.  Other columns are written into
    scratch columns, each reduced before the next read overwrites it."""
    views, revenues = plan
    table, held, columns, added = {}, {}, {}, dict.fromkeys(revenues, 0)
    col, acc, square = np.empty((3, L))

    def put(key, data, squares):
        table[key] = (float(data.sum()),
                      float(np.square(data, out=square).sum()) if squares else 0.0)

    def add(key, data):
        held[key] = data
        starting = [revenue for revenue in revenues if revenue[0] == key]
        for n, revenue in enumerate(starting, 1):     # the last one takes the price itself
            columns[revenue], added[revenue] = data if n == len(starting) else data.copy(), 1
        for revenue, k in added.items():
            while 0 < k < len(revenue) and revenue[k] in held:
                columns[revenue] += held[revenue[k]]
                k = added[revenue] = k + 1
            if k == len(revenue) and revenue in columns:
                put(revenue, columns.pop(revenue), True)
        waiting = {term for revenue, k in added.items() for term in revenue[k:]}
        for term in held.keys() - waiting:    # no revenue still has to add it
            del held[term]
        if key in held:                       # settled before its turn
            held[key] = data.copy()

    for view, (top, reads) in views.items():
        first, second, n_top, masks = top_two(bids(view))
        if top is not None:
            put((view, None, "first"), first, top)
        gap = np.subtract(first, second, out=first)
        share = data = None
        for key, squares, hold in reads:
            _view, bidder, field = key
            if field == "second":
                data = second
            elif field == "surplus":
                data = np.multiply(masks[bidder], gap, out=col)
            else:                 # a win credit, or the unaware contributions times it
                share = 1.0 / n_top if share is None else share
                data = np.multiply(masks[bidder if field == "credit" else bidder[0]], share, col)
                if field == "hidden":
                    acc.fill(0.0)
                    for k in bidder[1]:
                        acc += contribs[k]
                    data = np.multiply(acc, col, out=acc)
            put(key, data, squares)
            if hold:
                add(key, data)
        del first, second, n_top, masks, gap, data, share      # before the next view's pass
    return table


def _mc_chunk(s, rules, entries, plan, seed, start, stop, keep):
    """One chunk's table for ``plan`` (``_settle``) and, with ``keep``, the
    function that settles any plan of the same views on it: the chunk then
    keeps its bid columns and contributions.  Each distinct bid column is
    built on first use and kept for the chunk, so it is summed once however
    many views read it."""
    L, contribs = _chunk_contributions(s, rules, entries, seed, start, stop)
    built, items = {}, _ids(s).items

    def bids(view):
        for keys in items[view]:
            if keys not in built:
                built[keys] = _bid_column(L, keys, contribs)
        return [built[keys] for keys in items[view]]

    def settle(plan):
        # an overflow is not warned about: every non-finite mean is
        # rejected by _mc_pass, and every non-finite field by _mc_bundle_from
        with np.errstate(over="ignore", invalid="ignore"):
            return _settle(bids, contribs, plan, L)

    return settle(plan), keep and settle


def _in_order(run, starts, workers):
    """``run(start)`` for each start, yielded in order.  With more than one
    worker the runs go to a thread pool in batches of two per worker, so
    at most that many chunks are in flight."""
    if workers == 1 or len(starts) < 2:
        yield from map(run, starts)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        for a in range(0, len(starts), 2 * workers):
            yield from pool.map(run, starts[a:a + 2 * workers])


def _merge(total, table):
    """Add one chunk's table into the running (sum, sum of squares) of each
    key; merged in draw-index order, the sums are the same floats for any
    worker count."""
    for key, (sm, sq) in table.items():
        before, squares = total.get(key, (0.0, 0.0))
        total[key] = before + sm, squares + sq


def _mc_tables(s, plan, config, stop, keep=False):
    """The table of ``plan`` over draws [0, stop), chunk by chunk as the
    chunks arrive, and with ``keep`` the last chunk's settle function
    (``_mc_chunk``)."""
    rules, entries = _reading(s, plan)

    def run(start):
        with np.errstate(over="ignore", invalid="ignore"):
            return _mc_chunk(s, rules, entries, plan, config.seed, start,
                             min(start + _CHUNK, stop), keep and start + _CHUNK >= stop)

    total, last = {}, None
    for table, last in _in_order(run, range(0, stop, _CHUNK), config.workers):
        _merge(total, table)
    return total, last


def _mc_pass(s: Scenario, scored: tuple, bundled: tuple, config: EstimatorConfig, sums):
    """Revenue scores of ``scored``, bundles of ``bundled`` with the fields
    named in ``sums`` and the handle that settles one scored policy, as
    ``score_policies`` returns them, from one pass over the draws.  A
    scored policy reads only its bidders' surpluses under their own views
    and its price, and no entry it reads only as a hidden value is
    inverted.  A non-finite score names its first non-finite term, by
    view in plan order, then by bidder with the price last."""
    S = config.n_samples
    layouts = [_policy_layout(s, p) for p in scored]
    plan, score_keys, bundle_keys = _plan(layouts, [_policy_layout(s, p) for p in bundled], sums)
    total, last = _mc_tables(s, plan, config, S, keep=bool(scored))
    means = {key: sm / S for key, (sm, _sq) in total.items()}
    bad = [key for own, price in score_keys for key in (*own, price)
           if not math.isfinite(means[key])]
    if bad:
        order = list(plan[0])
        view, i, field = min(bad, key=lambda k: (order.index(k[0]), k[1] is None, k[1] or 0))
        raise _not_finite("second" if i is None else f"surplus_perc_{i + 1}",
                          f"mean {means[view, i, field]!r}")
    scores = tuple(sum(means[key] for key in own) + means[price] for own, price in score_keys)

    def settle(k):
        one, _scores, (keys,) = _plan((), layouts[k:k + 1], _REVENUE_SUMS)
        head, _last = _mc_tables(s, one, config, (S - 1) // _CHUNK * _CHUNK)
        _merge(head, last(one))
        return _mc_bundle_from(s, head, keys, config)

    return scores, tuple(_mc_bundle_from(s, total, keys, config) for keys in bundle_keys), settle


def _not_finite(name, detail):
    return EstimationError(f"Monte Carlo estimate {name!r} is not finite ({detail}): "
                           "the values overflow double precision")


def _mc_bundle_from(s: Scenario, total: dict, keys, config: EstimatorConfig) -> EstimateBundle:
    """One bundled policy's bundle from the merged table, where ``keys``
    (``_plan``) gives the key of each sum name it reads; a field with no
    key is None, and so is its standard error."""
    S = config.n_samples

    def stat(name):
        if name not in keys:              # a field the caller does not read
            return None, None
        sm, sq = total[keys[name]] if keys[name] else (0.0, 0.0)
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
