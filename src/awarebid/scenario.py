"""Auction environment: bidders, characteristics, awareness and disclosure.

Characteristics are indexed 1..m with characteristic 1 the mandatory default
everyone can reason about.  A disclosure policy gives each bidder an
awareness set (which characteristics he can conceive of) and an information
level for each characteristic he is aware of.  ``perceive`` projects a
policy to the viewpoint of an agent with a given awareness level: bidder k
is seen as aware of the intersection of his awareness with the viewpoint.

States are never materialized as abstract measurable spaces: a state is a
full draw matrix and restricting awareness is restricting columns, which is
faithful under mutual independence of all entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Sequence, Tuple

from .distributions import (
    Distribution,
    DistributionError,
    InfoLevel,
    canonical_info,
)

__all__ = [
    "Scenario",
    "AwarenessSet",
    "DisclosurePolicy",
    "Perspective",
    "ScenarioError",
    "validate",
    "lattice",
    "perceive",
]


class ScenarioError(ValueError):
    """Structural violation in a scenario or disclosure policy."""


AwarenessSet = frozenset


@dataclass(frozen=True)
class Scenario:
    """n bidders x m characteristics matrix of independent value laws.

    ``laws[i][j]`` is the law of characteristic j+1 for bidder i+1 (storage
    is 0-based, the public indices are 1-based as in reports).
    """

    n_bidders: int
    m_characteristics: int
    laws: tuple

    def law(self, bidder: int, char: int) -> Distribution:
        return self.laws[bidder - 1][char - 1]

    @property
    def full_set(self) -> AwarenessSet:
        return frozenset(range(1, self.m_characteristics + 1))


@dataclass(frozen=True)
class DisclosurePolicy:
    """Per-bidder awareness sets plus per-(bidder, characteristic) info.

    ``info`` maps (bidder, char) -> InfoLevel and is defined exactly for
    char in awareness[bidder].
    """

    awareness: tuple          # tuple of AwarenessSet, one per bidder
    info: tuple               # tuple of dicts {char: InfoLevel}, one per bidder

    def level(self, bidder: int, char: int) -> InfoLevel:
        return self.info[bidder - 1][char]

    def aware(self, bidder: int) -> AwarenessSet:
        return self.awareness[bidder - 1]


@dataclass(frozen=True)
class Perspective:
    viewpoint: AwarenessSet


def validate(n_bidders: int,
             m_characteristics: int,
             laws: Sequence[Sequence[Distribution]],
             awareness: Sequence,
             info: Sequence[Dict[int, InfoLevel]]) -> Tuple[Scenario, DisclosurePolicy]:
    """Check every structural invariant and return canonical objects.

    Raises ScenarioError naming the first violated rule: missing default
    characteristic, info on an unaware characteristic, invalid distribution
    or partition, wrong matrix shape.
    """
    if n_bidders < 1 or m_characteristics < 1:
        raise ScenarioError("need at least one bidder and one characteristic")
    if len(laws) != n_bidders or any(len(row) != m_characteristics for row in laws):
        raise ScenarioError(
            f"law matrix must be {n_bidders}x{m_characteristics}")
    for i, row in enumerate(laws, start=1):
        for j, d in enumerate(row, start=1):
            if not isinstance(d, Distribution.__args__):
                raise ScenarioError(f"bidder {i} characteristic {j}: not a distribution: {d!r}")
    scenario = Scenario(n_bidders, m_characteristics, tuple(tuple(row) for row in laws))

    if len(awareness) != n_bidders or len(info) != n_bidders:
        raise ScenarioError("awareness and info must list one entry per bidder")
    aw = []
    canon_info = []
    for i, (aset, levels) in enumerate(zip(awareness, info), start=1):
        aset = frozenset(aset)
        if 1 not in aset:
            raise ScenarioError(f"bidder {i}: awareness set must contain characteristic 1")
        if not aset <= scenario.full_set:
            raise ScenarioError(f"bidder {i}: awareness set {sorted(aset)} outside 1..{m_characteristics}")
        extra = set(levels) - aset
        if extra:
            raise ScenarioError(
                f"bidder {i}: information on unaware characteristic {sorted(extra)[0]}")
        missing = aset - set(levels)
        if missing:
            raise ScenarioError(
                f"bidder {i}: missing information level for characteristic {sorted(missing)[0]}")
        levels_c = {}
        for j in sorted(aset):
            try:
                levels_c[j] = canonical_info(scenario.law(i, j), levels[j])
            except DistributionError as exc:
                raise ScenarioError(f"bidder {i} characteristic {j}: {exc}") from exc
        aw.append(aset)
        canon_info.append(levels_c)
    return scenario, DisclosurePolicy(tuple(aw), tuple(canon_info))


def lattice(m: int) -> list:
    """All awareness sets: subsets of {1..m} containing 1.

    Enumerated by cardinality then lexicographically, so optimizer traces
    are reproducible.  There are exactly 2^(m-1) of them.
    """
    if m < 1:
        raise ScenarioError("need m >= 1")
    rest = range(2, m + 1)
    out = []
    for k in range(0, m):
        for combo in combinations(rest, k):
            out.append(frozenset({1, *combo}))
    out.sort(key=lambda s: (len(s), tuple(sorted(s))))
    return out


def perceive(policy: DisclosurePolicy, view: Perspective) -> DisclosurePolicy:
    """The policy as seen by an agent with the given awareness level.

    Bidder k's awareness becomes M^k intersect view, and only the info
    levels on surviving characteristics are retained.  Idempotent, and
    composes along the lattice: projecting to v then to v' <= v equals
    projecting straight to v'.
    """
    v = frozenset(view.viewpoint)
    if 1 not in v:
        raise ScenarioError("viewpoint must contain characteristic 1")
    awareness = tuple(a & v for a in policy.awareness)
    info = tuple({j: levels[j] for j in sorted(a & v)}
                 for a, levels in zip(policy.awareness, policy.info))
    return DisclosurePolicy(awareness, info)
