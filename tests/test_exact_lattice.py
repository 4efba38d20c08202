"""The exact layer on integer forms: folds against a plain-Fraction
reference, and the exactness properties the exact backend promises."""

import itertools
import math
from fractions import Fraction as F

import pytest

from awarebid import disclosure, engine
from awarebid.cli import parse_scenario
from awarebid.disclosure import CorpusConfig, random_discrete_scenario, verify_suite
from awarebid.distributions import (
    DiscreteFinite,
    FullInfo,
    NoInfo,
    PointMass,
    cell_probability,
    cdf_exact,
    cells,
    conditional_mean,
    convolve,
    mean,
)
from awarebid.fees import revenue
from awarebid.orderstats import (
    OrderStatLaw,
    bid_component,
    expected_order_stat,
    fold_bid_law,
    lattice_law,
    valuation_law,
)
from awarebid.scenario import Perspective, perceive, validate
from conftest import EXACT, SCENARIO_DIR


# --- plain-Python reference: the pairwise Fraction fold -------------------

def _atoms(law):
    if isinstance(law, PointMass):
        return [(law.value, F(1))]
    return list(zip(law.values, law.probs))


def reference_fold(components):
    """Sum law of independent atom laws by repeated pairwise convolution,
    each step rebuilt through ``DiscreteFinite.from_atoms`` (a point mass
    when only one value is left)."""
    law = PointMass(0)
    for comp in components:
        pairs = [(va + vb, pa * pb) for va, pa in _atoms(law) for vb, pb in _atoms(comp)]
        if len({v for v, _p in pairs}) == 1:
            law = PointMass(pairs[0][0])
        else:
            law = DiscreteFinite.from_atoms(pairs)
    return law


def reference_component(law, level):
    """A characteristic's bid contribution from Fraction cell means."""
    if isinstance(level, NoInfo):
        return PointMass(mean(law))
    if isinstance(level, FullInfo):
        return law
    pairs = [(conditional_mean(law, level, c), cell_probability(law, c))
             for c in cells(law, level)]
    if len({v for v, _p in pairs}) == 1:
        return PointMass(pairs[0][0])
    return DiscreteFinite.from_atoms(pairs)


def reference_valuation(s, p, bidder, view):
    seen = perceive(p, view)
    return reference_fold(reference_component(s.law(bidder, j), seen.level(bidder, j))
                          for j in sorted(seen.aware(bidder)))


def _requested_views(monkeypatch, cfg):
    """Every (scenario, policy, bidder, view) the exact backend folds while
    ``verify_suite(cfg)`` runs."""
    seen = []
    stock = engine.valuation_lattice

    def spy(s, p, bidder, view):
        seen.append((s, p, bidder, view))
        return stock(s, p, bidder, view)

    monkeypatch.setattr(engine, "valuation_lattice", spy)
    verify_suite(cfg)
    monkeypatch.setattr(engine, "valuation_lattice", stock)
    return seen


def test_corpus_bid_laws_equal_the_reference_fold(monkeypatch):
    requests = _requested_views(monkeypatch, CorpusConfig(count=20))
    assert len(requests) > 500
    for s, p, bidder, view in requests:
        want = reference_valuation(s, p, bidder, view)
        assert lattice_law(engine.valuation_lattice(s, p, bidder, view)) == want
        assert valuation_law(s, p, bidder, view) == want
        seen = perceive(p, view)
        comps = [bid_component(s, bidder, j, seen.level(bidder, j))
                 for j in sorted(seen.aware(bidder))]
        assert fold_bid_law(comps) == want


def test_corpus_partition_components_equal_the_reference():
    # every information level Prop6 enumerates, on every corpus law
    cfg = CorpusConfig(count=20)
    for index in range(cfg.count):
        _sid, s = random_discrete_scenario(cfg, index)
        for i in range(1, s.n_bidders + 1):
            per_char = []
            for j in range(1, s.m_characteristics + 1):
                levels = disclosure._info_variants(s.law(i, j))
                comps = [bid_component(s, i, j, lvl) for lvl in levels]
                for lvl, comp in zip(levels, comps):
                    assert comp == reference_component(s.law(i, j), lvl)
                per_char.append(comps)
            for combo in itertools.product(*per_char):
                assert fold_bid_law(combo) == reference_fold(combo)


@pytest.mark.parametrize("components", [
    # negative values
    [DiscreteFinite([-3, F(-1, 2)], [F(1, 3), F(2, 3)]),
     DiscreteFinite([-2, 5], [F(1, 4), F(3, 4)])],
    # mixed value denominators 2 and 3, with coinciding sums
    [DiscreteFinite([F(1, 2), F(3, 2)], [F(1, 2), F(1, 2)]),
     DiscreteFinite([F(1, 3), F(4, 3), F(7, 3)], [F(1, 6), F(1, 2), F(1, 3)]),
     DiscreteFinite([F(-1, 2), F(1, 6)], [F(3, 8), F(5, 8)])],
    # point masses only, and point masses shifting a discrete law
    [PointMass(F(1, 3)), PointMass(F(-5, 2)), PointMass(2)],
    [PointMass(F(1, 3)), DiscreteFinite([0, 1], [F(1, 2), F(1, 2)]), PointMass(F(-1, 3))],
    # a single component
    [DiscreteFinite([F(-7, 4), F(9, 2)], [F(5, 12), F(7, 12)])],
    [PointMass(F(-2, 3))],
], ids=["negative", "denominators-2-3", "point-masses", "shifted", "single", "single-point"])
def test_fold_equals_the_reference(components):
    want = reference_fold(components)
    assert fold_bid_law(components) == want
    assert type(fold_bid_law(components)) is type(want)
    if len(components) == 2 and all(isinstance(c, DiscreteFinite) for c in components):
        assert convolve(*components) == want


def test_mixed_denominators_fold_to_the_expected_atoms():
    a = DiscreteFinite([F(1, 2), F(3, 2)], [F(1, 2), F(1, 2)])
    b = DiscreteFinite([F(1, 3), F(4, 3)], [F(1, 3), F(2, 3)])
    law = fold_bid_law([a, b])
    assert law.values == (F(5, 6), F(11, 6), F(17, 6))
    assert law.probs == (F(1, 6), F(1, 2), F(1, 3))


def test_float_atoms_fold_on_their_exact_binary_values():
    # a float atom enters the lattice as Fraction(v): sums are exact sums of
    # binary values, not float sums (0.1 + 0.2 is 0.30000000000000004)
    a = DiscreteFinite([0.1, 0.3], [F(1, 2), F(1, 2)])
    b = DiscreteFinite([0.0, 0.2], [F(1, 4), F(3, 4)])
    law = fold_bid_law([a, b])
    assert law.values == (F(0.1), F(0.3), F(0.1) + F(0.2), F(0.3) + F(0.2))
    assert law.probs == (F(1, 8), F(1, 8), F(3, 8), F(3, 8))
    assert law.values[2] != 0.1 + 0.2 and float(law.values[2]) == 0.30000000000000004
    assert convolve(a, b) == law


def test_float_point_masses_shift_in_floating_point():
    # the mean of a continuous law is a float point mass: the fold adds it
    # in floating point, as convolve's shift does, and makes no Fractions
    components = [PointMass(0.1), PointMass(0.2), DiscreteFinite([0, 1], [F(1, 2), F(1, 2)])]
    law = fold_bid_law(components)
    assert law == reference_fold(components)
    assert law.values == (0.1 + 0.2, 1 + (0.1 + 0.2))
    assert all(type(v) is float for v in law.values)


# --- the exact backend's output contract ----------------------------------

def test_verify_margins_are_exact_and_prop6_is_tight():
    report = verify_suite(CorpusConfig(count=20))
    prop6 = disclosure._claim_full_info_optimal(
        "prop6_demo", parse_scenario(str(SCENARIO_DIR / "prop6_demo.json"))[0], 20000)
    results = list(report.results) + prop6
    assert not report.failures and all(r.holds for r in prop6)
    assert all(isinstance(r.margin, F) for r in results)
    checked = [r for r in results if r.claim == "Prop6"]
    assert len(checked) == 21 and all(r.margin == 0 for r in checked)


def reference_expected_max(laws):
    """E[max] summed over the support with Fraction CDFs (``cdf_exact``)."""
    support = sorted({v for law in laws for v, _p in _atoms(law)})
    below = [math.prod(cdf_exact(law, v) for law in laws) for v in support]
    return sum(v * (g - prev) for v, g, prev in zip(support, below, [0] + below[:-1]))


def _integer_scenario():
    """All atoms integers, so every bid sum has denominator 1; bidder 2
    always outbids bidder 1 and the revenue is the integer 5."""
    low = DiscreteFinite([0, 2], [F(1, 3), F(2, 3)])
    high = DiscreteFinite([4, 6], [F(1, 2), F(1, 2)])
    return validate(2, 1, [[low], [high]], [[1], [1]],
                    [{1: FullInfo()}, {1: FullInfo()}])


@pytest.mark.parametrize("name", ["d1", "example1_discrete", "curse_demo", "integer"])
def test_exact_revenue_is_a_fraction_with_zero_residual(name):
    if name == "integer":
        s, p = _integer_scenario()
    else:
        s, p, _cfg = parse_scenario(str(SCENARIO_DIR / f"{name}.json"))
    rep = revenue(s, p, EXACT)
    assert isinstance(rep.total_revenue, F)
    assert rep.consistency_residual == 0
    if name == "d1":
        assert rep.total_revenue == F(7, 4)
        return
    assert len(set(p.awareness)) == 1
    view = Perspective(s.full_set)
    laws = tuple(valuation_law(s, p, i, view) for i in range(1, s.n_bidders + 1))
    assert rep.total_revenue == expected_order_stat(OrderStatLaw(laws, 1))
    assert rep.total_revenue == reference_expected_max(laws)
    if name == "integer":
        assert rep.total_revenue == 5 and rep.total_revenue.denominator == 1
