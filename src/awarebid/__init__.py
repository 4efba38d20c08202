"""Second-price auctions with entry fees under bidder unawareness.

Simulation and policy search for a seller who can raise bidders' awareness
of value-relevant characteristics and disclose information about them:
optimal entry fees, revenue decomposition into the expected first order
statistic plus unawareness rents, analytic order-statistic laws, and
machine-checked verification of the theory on exact discrete scenarios.
"""

from .distributions import (
    DiscreteFinite,
    DistributionError,
    FullInfo,
    NoInfo,
    Normal,
    Partition,
    PointMass,
    SumLaw,
    UniformContinuous,
    cdf,
    conditional_mean,
    convolve,
    mean,
    ppf,
)
from .engine import (
    EstimateBundle,
    EstimatorConfig,
    EstimationError,
    estimate,
    exact_cap_check,
)
from .fees import CurseReport, FeeSchedule, RevenueReport, curse_gap, entry_fees, revenue
from .orderstats import clark_normal_max, expected_order_stat, valuation_law
from .scenario import (
    DisclosurePolicy,
    Perspective,
    Scenario,
    ScenarioError,
    lattice,
    perceive,
    validate,
)

__version__ = "0.1.0"
