"""The exact layer on integer forms: folds against a plain-Fraction
reference, and the exactness properties the exact backend promises."""

import itertools
import math
from fractions import Fraction as F

import numpy as np
import pytest

from awarebid import disclosure, engine, orderstats
from awarebid.cli import parse_scenario
from awarebid.disclosure import CorpusConfig, random_discrete_scenario, verify_suite
from awarebid.distributions import (
    DiscreteFinite,
    FullInfo,
    NoInfo,
    Partition,
    PointMass,
    UniformContinuous,
    atom_lattice,
    cell_probability,
    cells,
    conditional_mean,
    convolve,
    fold_atom_lattices,
    lattice_mean,
    mean,
)
from awarebid.fees import revenue
from awarebid.orderstats import (
    AtomGrid,
    OrderStatLaw,
    bid_component,
    bid_lattice,
    expected_order_stat,
    lattice_law,
    valuation_law,
)
from awarebid.scenario import Perspective, Scenario, perceive, validate
from conftest import EXACT, SCENARIO_DIR, atom_cdf


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


def lattice_fold(components):
    """The law of the fold ``bid_lattice`` runs on a column's components:
    ``fold_atom_lattices`` of their integer forms."""
    return lattice_law(fold_atom_lattices(atom_lattice(comp) for comp in components))


def reference_valuation(s, p, bidder, view):
    seen = perceive(p, view)
    return reference_fold(reference_component(s.law(bidder, j), seen.level(bidder, j))
                          for j in sorted(seen.aware(bidder)))


def _bundled(monkeypatch, cfg):
    """Every (scenario, policy) the exact backend bundles while
    ``verify_suite(cfg)`` runs."""
    bundled = []
    stock = engine._exact_bundle

    def spy(s, p, config):
        bundled.append((s, p))
        return stock(s, p, config)

    monkeypatch.setattr(engine, "_exact_bundle", spy)
    verify_suite(cfg)
    monkeypatch.undo()
    return bundled


def test_corpus_bid_laws_equal_the_reference_fold(monkeypatch):
    # every bid column of every policy bundled, whether its form is folded
    # for this policy or was already kept on the scenario by another
    requests = [(s, p, keys) for s, p in _bundled(monkeypatch, CorpusConfig(count=20))
                for keys in {keys for view in engine._policy_layout(s, p)[0]
                             for keys in view}]
    assert len(requests) > 500
    for s, p, keys in requests:
        # a column is one bidder's characteristics under a view, at the
        # policy's levels; the view's other characteristics do not change it
        bidder = keys[0][0]
        view = Perspective(frozenset(j for _i, j, _level in keys))
        seen = perceive(p, view)
        assert keys == tuple((bidder, j, seen.level(bidder, j))
                             for j in sorted(seen.aware(bidder)))
        want = reference_valuation(s, p, bidder, view)
        assert lattice_law(bid_lattice(s, keys)) == want
        assert valuation_law(s, p, bidder, view) == want
        comps = [bid_component(s, bidder, j, seen.level(bidder, j))
                 for j in sorted(seen.aware(bidder))]
        assert lattice_fold(comps) == want


def test_scenario_memo_is_transparent(monkeypatch):
    # a scenario that has already settled every view of the suite bundles
    # each policy as a new scenario with nothing kept does
    bundled = _bundled(monkeypatch, CorpusConfig(count=20))
    assert len(bundled) > 100
    for s, p in bundled:
        fresh = Scenario(s.n_bidders, s.m_characteristics, s.laws)
        assert engine._exact_bundle(s, p, EXACT) == engine._exact_bundle(fresh, p, EXACT)


def test_prop6_prefix_folds_equal_whole_folds(monkeypatch):
    calls = []
    stock = disclosure._prefix_folds

    def spy(per_char):
        calls.append((per_char, stock(per_char)))
        return calls[-1][1]

    monkeypatch.setattr(disclosure, "_prefix_folds", spy)
    verify_suite(CorpusConfig(count=20))
    assert len(calls) > 40 and any(len(per_char) == 3 for per_char, _forms in calls)
    for per_char, forms in calls:
        assert forms == [fold_atom_lattices(combo) for combo in itertools.product(*per_char)]


@pytest.mark.parametrize("seed", [899634569, 215477173])
def test_exact_layer_folds_and_settles_each_view_once(monkeypatch, seed):
    # two corpora the exact-verify benchmark draws: across every claim, a
    # column is folded at most once and a view settled at most once per
    # scenario.  A column request that folds is a memo miss, whoever asks
    # (the exact backend, Prop 6 or valuation_law).  Scenarios are told
    # apart by identity, and kept alive so that no id is reused.
    kept, folds, settles, views = [], [], [], set()
    fold_calls = []
    stock_bundle, stock_lattice = engine._exact_bundle, orderstats.bid_lattice
    stock_fold, stock_settle = orderstats.fold_atom_lattices, AtomGrid.settle

    def bundle_spy(s, p, config):
        kept.append(s)
        views.update((id(s), view) for view in engine._policy_layout(s, p)[0])
        return stock_bundle(s, p, config)

    def fold_spy(forms):
        fold_calls.append(1)
        return stock_fold(forms)

    def lattice_spy(s, keys):
        kept.append(s)
        before = len(fold_calls)
        form = stock_lattice(s, keys)
        if len(fold_calls) > before:
            folds.append((id(s), keys))
        return form

    def settle_spy(grid):
        settles.append(grid)
        return stock_settle(grid)

    monkeypatch.setattr(engine, "_exact_bundle", bundle_spy)
    monkeypatch.setattr(orderstats, "fold_atom_lattices", fold_spy)
    for module in (engine, disclosure, orderstats):
        monkeypatch.setattr(module, "bid_lattice", lattice_spy)
    monkeypatch.setattr(AtomGrid, "settle", settle_spy)
    report = verify_suite(CorpusConfig(count=3, seed=seed))
    assert report.results and not report.failures
    assert folds and len(set(folds)) == len(folds)
    assert settles and len(settles) <= len(views)


def test_corpus_partition_components_equal_the_reference():
    # every information level Prop6 enumerates, on every corpus law
    cfg = CorpusConfig(count=20)
    for index in range(cfg.count):
        _sid, s = random_discrete_scenario(cfg, index)
        for i in range(1, s.n_bidders + 1):
            per_char = []
            for j in range(1, s.m_characteristics + 1):
                levels = list(disclosure._info_variants(s.law(i, j)))
                comps = [bid_component(s, i, j, lvl) for lvl in levels]
                for lvl, comp in zip(levels, comps):
                    assert comp == reference_component(s.law(i, j), lvl)
                per_char.append(comps)
            for combo in itertools.product(*per_char):
                assert lattice_fold(combo) == reference_fold(combo)


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
    assert lattice_fold(components) == want
    assert type(lattice_fold(components)) is type(want)
    if len(components) == 2 and all(isinstance(c, DiscreteFinite) for c in components):
        assert convolve(*components) == want


def test_mixed_denominators_fold_to_the_expected_atoms():
    a = DiscreteFinite([F(1, 2), F(3, 2)], [F(1, 2), F(1, 2)])
    b = DiscreteFinite([F(1, 3), F(4, 3)], [F(1, 3), F(2, 3)])
    law = lattice_fold([a, b])
    assert law.values == (F(5, 6), F(11, 6), F(17, 6))
    assert law.probs == (F(1, 6), F(1, 2), F(1, 3))


def test_float_atoms_fold_on_their_exact_binary_values():
    # a float atom enters the lattice as Fraction(v): sums are exact sums of
    # binary values, not float sums (0.1 + 0.2 is 0.30000000000000004)
    a = DiscreteFinite([0.1, 0.3], [F(1, 2), F(1, 2)])
    b = DiscreteFinite([0.0, 0.2], [F(1, 4), F(3, 4)])
    law = lattice_fold([a, b])
    assert law.values == (F(0.1), F(0.3), F(0.1) + F(0.2), F(0.3) + F(0.2))
    assert law.probs == (F(1, 8), F(1, 8), F(3, 8), F(3, 8))
    assert law.values[2] != 0.1 + 0.2 and float(law.values[2]) == 0.30000000000000004
    assert convolve(a, b) == law


def test_float_atom_cell_means_are_their_exact_binary_rationals():
    # a cell mean is taken on the atoms' exact binary values, as a fold takes
    # them, not as the Fraction of a float-rounded mean
    law = DiscreteFinite([0.1, 0.7, 2.3], [F(1, 5), F(1, 2), F(3, 10)])
    s = Scenario(1, 1, ((law,),))
    comp = bid_component(s, 1, 1, Partition(cells=[(0, 1), (2,)]))
    assert comp.values == (F(66653274485083337, 126100789566373888), F(2.3))
    assert comp.values[0] == (F(0.1) * F(1, 5) + F(0.7) * F(1, 2)) / F(7, 10)
    assert comp.values[0] != F(0.5285714285714286)
    assert comp.probs == (F(7, 10), F(3, 10))


def test_float_atom_means_are_one_exact_rational():
    # the NoInfo point mass, a two-cell component's mean and the exact
    # backend's hidden mean all take the integer form's mean, not the
    # float-rounded sum of p * v; rational atoms keep their mean
    law = DiscreteFinite([0.1, 0.7, 2.3], [F(1, 5), F(1, 2), F(3, 10)])
    exact_mean = sum(F(v) * q for v, q in zip(law.values, law.probs))
    assert lattice_mean(atom_lattice(law)) == exact_mean != F(mean(law))
    s = Scenario(1, 1, ((law,),))
    no_info = bid_component(s, 1, 1, NoInfo())
    assert type(no_info.value) is F and no_info == PointMass(exact_mean)
    assert mean(bid_component(s, 1, 1, Partition(cells=[(0, 1), (2,)]))) == exact_mean
    coin = DiscreteFinite([0, 1], [F(1, 2), F(1, 2)])
    wide = DiscreteFinite([0, 3], [F(1, 2), F(1, 2)])
    s, p = validate(2, 2, [[coin, law], [wide, law]], [[1, 2], [1]],
                    [{1: FullInfo(), 2: NoInfo()}, {1: FullInfo()}])
    hidden = engine.estimate(s, p, EXACT).bidders[1]
    assert hidden.hidden_win_value == exact_mean * hidden.win_prob_actual != 0
    rational = DiscreteFinite([F(1, 10), F(7, 10), F(23, 10)], law.probs)
    s = Scenario(1, 1, ((rational,),))
    assert bid_component(s, 1, 1, NoInfo()) == PointMass(mean(rational))
    assert lattice_mean(atom_lattice(rational)) == mean(rational) == F(53, 50)


def test_mc_no_info_bid_is_the_exact_mean_as_a_float():
    # both backends bid one float under no information on float atoms: the
    # integer form's mean, not the float-rounded sum of p * v (1.06)
    law = DiscreteFinite([0.1, 0.7, 2.3], [F(1, 5), F(1, 2), F(3, 10)])
    exact_mean = lattice_mean(atom_lattice(law))
    assert engine._contribution_rule(law, NoInfo()) == float(exact_mean) == 1.0599999999999998
    assert float(mean(law)) == 1.06
    s = Scenario(1, 1, ((law,),))
    assert float(bid_component(s, 1, 1, NoInfo()).value) == engine._contribution_rule(law, NoInfo())

    # every level bids one float per atom: the nearest float to the exact
    # component's atom for the drawn atom's cell.  The cell 0.1, 0.2 at 1/5,
    # 1/2 reads 0.17142857142857143, where Fraction-times-float cell sums
    # gave 0.17142857142857146; rational atoms read what the float of their
    # Fraction cell mean always gave
    floats = DiscreteFinite([0.1, 0.2, 0.3], [F(1, 5), F(1, 2), F(3, 10)])
    rational = DiscreteFinite([F(1, 10), F(2, 10), F(3, 10)], floats.probs)

    def atoms(comp):
        return [comp.value] if isinstance(comp, PointMass) else comp.values

    halves = Partition(cells=[(0, 1), (2,)])
    for level, atom_of in [(NoInfo(), [0, 0, 0]), (halves, [0, 0, 1]), (FullInfo(), [0, 1, 2])]:
        for law in (floats, rational):
            comp = bid_component(Scenario(1, 1, ((law,),)), 1, 1, level)
            rule = engine._contribution_rule(law, level)
            table = [rule] * 3 if isinstance(rule, float) else rule(np.arange(3)).tolist()
            assert table == [float(atoms(comp)[k]) for k in atom_of]
        ref = atoms(reference_component(rational, level))
        assert table == [float(ref[k]) for k in atom_of]
    assert engine._contribution_rule(floats, halves)(np.arange(1))[0] == 0.17142857142857143


def _coin_scenario(m):
    coin = DiscreteFinite([0, 1], [F(1, 2), F(1, 2)])
    return validate(2, m, [[coin] * m] * 2, [list(range(1, m + 1))] * 2,
                     [{j: FullInfo() for j in range(1, m + 1)}] * 2)


def test_exact_fold_bound_admits_its_own_size_and_refuses_past_it():
    # 16 fair coins: a product of supports of exactly the bound folds (to 17
    # points); a 17th coin is refused before any fold, naming the column
    assert engine._FOLD_CAP == 2 ** 16
    s, p = _coin_scenario(16)
    b = engine.estimate(s, p, EXACT)
    assert b.first_order_stat > 8 and b.first_order_stat == revenue(s, p, EXACT).total_revenue
    s, p = _coin_scenario(17)
    with pytest.raises(engine.EstimationError) as err:
        engine.estimate(s, p, EXACT)
    msg = str(err.value)
    assert "bidder 1" in msg and str(list(range(1, 18))) in msg
    assert str(2 ** 17) in msg and str(2 ** 16) in msg


def test_float_point_masses_shift_in_floating_point():
    # the mean of a continuous law is a float point mass: valuation_law adds
    # it in floating point, as convolve's shift does, and makes no Fractions
    coin = DiscreteFinite([0, 1], [F(1, 2), F(1, 2)])
    s, p = validate(1, 3, [[UniformContinuous(0, 0.2), UniformContinuous(0, 0.4), coin]],
                    [[1, 2, 3]], [{1: NoInfo(), 2: NoInfo(), 3: FullInfo()}])
    components = [PointMass(0.1), PointMass(0.2), coin]
    assert [bid_component(s, 1, j, p.level(1, j)) for j in (1, 2, 3)] == components
    law = valuation_law(s, p, 1, Perspective(s.full_set))
    assert law == reference_fold(components)
    assert law.values == (0.1 + 0.2, 1 + (0.1 + 0.2))
    assert all(type(v) is float for v in law.values)


# --- the exact backend's output contract ----------------------------------

def test_verify_margins_are_exact_and_prop6_is_tight():
    report = verify_suite(CorpusConfig(count=20))
    prop6 = disclosure._claim_full_info_optimal(
        "prop6_demo", parse_scenario(str(SCENARIO_DIR / "prop6_demo.json"))[0])
    results = list(report.results) + prop6
    assert not report.failures and all(r.holds for r in prop6)
    assert all(isinstance(r.margin, F) for r in results)
    checked = [r for r in results if r.claim == "Prop6"]
    assert len(checked) == 21 and all(r.margin == 0 for r in checked)


def reference_expected_max(laws):
    """E[max] summed over the support with Fraction CDFs (``atom_cdf``)."""
    support = sorted({v for law in laws for v, _p in _atoms(law)})
    below = [math.prod(atom_cdf(law, v) for law in laws) for v in support]
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
