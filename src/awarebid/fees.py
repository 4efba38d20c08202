"""Entry fees, revenue decomposition and the winner's-curse diagnostic.

The optimal entry fee extracts a bidder's perceived expected auction
surplus.  Summing fees and the expected price gives total revenue, which
decomposes equivalently as the expected first order statistic of estimated
valuations plus the unawareness rents (the gap between each bidder's
perceived fee and the fee a fully aware agent would compute for him).  Both
routes are reported together with their residual: identically zero under
the exact backend, a pure rounding term under Monte Carlo because every
quantity comes from one estimation pass over shared draws.

The curse diagnostic isolates the component of a winner's payoff coming
from characteristics he cannot conceive of: hidden value captured on
winning, which under independence equals the hidden means times his win
probability.  Rent bookkeeping stays in the revenue report; the two effects
are reported separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .engine import EstimateBundle, EstimatorConfig, estimate
from .scenario import DisclosurePolicy, Scenario

__all__ = ["FeeSchedule", "RevenueReport", "CurseReport",
           "entry_fees", "revenue", "curse_gap"]


@dataclass(frozen=True)
class FeeSchedule:
    """Per-bidder fees: ``fees[i]`` is what bidder i+1 is willing to pay,
    ``fees_fullview[i]`` the same fee from the full-awareness viewpoint,
    and ``rents[i]`` their difference."""

    fees: tuple
    fees_fullview: tuple
    rents: tuple
    se_fees: tuple = None
    se_fees_fullview: tuple = None
    backend: str = "exact"

    @property
    def total_fees(self):
        return sum(self.fees)

    @property
    def total_rents(self):
        return sum(self.rents)


@dataclass(frozen=True)
class RevenueReport:
    expected_first_order_stat: object
    expected_second_order_stat: object
    fee_schedule: FeeSchedule
    total_revenue: object               # sum of fees + expected price
    consistency_residual: object        # minus (first order stat + rents)
    se_first_order_stat: Optional[float] = None
    se_second_order_stat: Optional[float] = None
    se_total_revenue: Optional[float] = None
    backend: str = "exact"


@dataclass(frozen=True)
class CurseReport:
    """Per-bidder payoff accounting including unconceived characteristics.

    ``perceived_payoffs`` are zero by construction (the fee extracts the
    perceived surplus).  ``gaps[i]`` is the hidden-characteristic component
    of bidder i+1's realized payoff: expected sum of his unaware values
    collected on winning. ``actual_payoffs`` additionally nets out the fee
    against the full-awareness surplus."""

    perceived_payoffs: tuple
    actual_payoffs: tuple
    gaps: tuple
    win_probs: tuple
    se_gaps: tuple = None
    backend: str = "exact"


def entry_fees(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig,
               bundle: EstimateBundle = None) -> FeeSchedule:
    """Fee schedule from one estimation pass (pass ``bundle`` to reuse one)."""
    b = bundle if bundle is not None else estimate(s, p, config)
    fees = tuple(be.perceived_surplus for be in b.bidders)
    full = tuple(be.actual_surplus for be in b.bidders)
    rents = tuple(f - g for f, g in zip(fees, full))
    return FeeSchedule(
        fees, full, rents,
        se_fees=tuple(be.se_perceived_surplus for be in b.bidders),
        se_fees_fullview=tuple(be.se_actual_surplus for be in b.bidders),
        backend=b.backend)


def revenue(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig,
            bundle: EstimateBundle = None) -> RevenueReport:
    """Total revenue by both routes plus the residual between them."""
    b = bundle if bundle is not None else estimate(s, p, config)
    schedule = entry_fees(s, p, config, bundle=b)
    total = schedule.total_fees + b.second_order_stat
    residual = total - (b.first_order_stat + schedule.total_rents)
    return RevenueReport(
        expected_first_order_stat=b.first_order_stat,
        expected_second_order_stat=b.second_order_stat,
        fee_schedule=schedule,
        total_revenue=total,
        consistency_residual=residual,
        se_first_order_stat=b.se_first_order_stat,
        se_second_order_stat=b.se_second_order_stat,
        se_total_revenue=b.se_total_revenue,
        backend=b.backend)


def curse_gap(s: Scenario, p: DisclosurePolicy, config: EstimatorConfig,
              bundle: EstimateBundle = None) -> CurseReport:
    b = bundle if bundle is not None else estimate(s, p, config)
    gaps = tuple(be.hidden_win_value for be in b.bidders)
    actual = tuple(be.actual_surplus + be.hidden_win_value - be.perceived_surplus
                   for be in b.bidders)
    zero = 0 if b.backend == "exact" else 0.0
    return CurseReport(
        perceived_payoffs=tuple(zero for _ in b.bidders),
        actual_payoffs=actual,
        gaps=gaps,
        win_probs=tuple(be.win_prob_actual for be in b.bidders),
        se_gaps=tuple(be.se_hidden_win_value for be in b.bidders),
        backend=b.backend)
