"""The exact layer on integer forms: folds against a plain-Fraction
reference, and the exactness properties the exact backend promises."""

import itertools
import json
import math
from fractions import Fraction as F

import numpy as np
import pytest

from awarebid import disclosure, distributions, engine, orderstats
from awarebid.cli import parse_scenario
from awarebid.disclosure import CorpusConfig, random_discrete_scenario, verify_suite
from awarebid.distributions import (
    DiscreteFinite,
    DistributionError,
    FullInfo,
    NoInfo,
    Partition,
    PointMass,
    UniformContinuous,
    atom_lattice,
    cell_means,
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
from conftest import EXACT, SCENARIO_DIR, atom_cdf, checked_policy, decoded_layout


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
                for keys in {keys for view in decoded_layout(s, p)[0] for keys in view}]
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


def _prop6_scans(monkeypatch):
    """Prop 6 on ``CorpusConfig(count=20)`` and ``prop6_demo``: per scan its
    scenario, entries, screen values, the exact value of every rechecked
    assignment, and its claim row."""
    scans = []
    stock = disclosure._assignment_lattice

    def spy(sid, s, entries):
        screen, exact = stock(sid, s, entries)
        rechecked = {}

        def recording(flat):
            rechecked[int(flat)] = exact(flat)
            return rechecked[int(flat)]

        scans.append({"s": s, "entries": entries, "screen": screen, "exact": exact,
                      "rechecked": rechecked})
        return screen, recording

    monkeypatch.setattr(disclosure, "_assignment_lattice", spy)
    cases = [random_discrete_scenario(CorpusConfig(count=20), k) for k in range(20)]
    cases.append(("prop6_demo", parse_scenario(str(SCENARIO_DIR / "prop6_demo.json"))[0]))
    for sid, s in cases:
        row, = disclosure._claim_full_info_optimal(sid, s)
        scans[-1]["row"] = row
    return scans


def _reference_variants(s, entries):
    """Each bidder's variants in ``itertools.product`` order, folded whole
    from one form per (law, level)."""
    width = len(entries) // s.n_bidders
    per_char = [[atom_lattice(bid_component(s, i, j, lvl)) for lvl in levels]
                for (i, j), levels in entries]
    return [[fold_atom_lattices(combo) for combo in itertools.product(*per_char[k:k + width])]
            for k in range(0, len(per_char), width)]


def _reference_assignments(s, entries):
    """Every assignment's bid forms in ``itertools.product`` order."""
    return list(itertools.product(*_reference_variants(s, entries)))


def test_prop6_prefix_folds_equal_whole_folds(monkeypatch):
    # the lattice builds a bidder's variant one characteristic at a time,
    # by outer sums of positions and products of masses; for every variant
    # of every bidder, the integer CDF column the exact recheck puts on its
    # AtomGrid holds the atoms of the variant folded whole
    scans = _prop6_scans(monkeypatch)
    grids = []

    def grid_spy(*args):
        grids.append(args)
        return AtomGrid(*args)

    monkeypatch.setattr(disclosure, "AtomGrid", grid_spy)
    widths = set()
    for scan in scans:
        s, entries = scan["s"], scan["entries"]
        variants = _reference_variants(s, entries)
        shape = [len(v) for v in variants]
        widths.add(len(entries) // s.n_bidders)
        for k in range(max(shape)):
            picks = [min(k, n - 1) for n in shape]
            grids.clear()
            scan["exact"](np.ravel_multi_index(picks, shape))
            (points, value_den, prob_den, columns), = grids
            for v, pick, column in zip(variants, picks, columns):
                fold = v[pick]
                atoms = [(F(x, value_den), F(c - b, prob_den))
                         for x, b, c in zip(points, (0,) + column[:-1], column) if c != b]
                assert column[-1] == prob_den
                assert atoms == [(F(x, fold.value_den), F(m, fold.prob_den))
                                 for x, m in zip(fold.nums, fold.masses)]
    assert len(scans) == 21 and 3 in widths


def test_prop6_screen_and_rechecks_equal_whole_folds(monkeypatch):
    # the lattice screen agrees with the folded reference to 1e-12 on a
    # seeded sample and on every rechecked assignment, whose exact value is
    # the reference's; where all assignments are few, holds and the worst
    # margin equal an all-exact brute force
    rng = np.random.default_rng(6)
    brute = 0
    for scan in _prop6_scans(monkeypatch):
        s, screen, rechecked, row = scan["s"], scan["screen"], scan["rechecked"], scan["row"]
        forms = _reference_assignments(s, scan["entries"])
        assert len(forms) == len(screen) and row.note.endswith(f"candidates={len(screen)}")
        sample = set(rng.choice(len(forms), size=min(50, len(forms)), replace=False).tolist())
        for flat in sample | set(rechecked):
            ref = orderstats.atom_grid(forms[flat]).expected(1)
            assert abs(screen[flat] - float(ref)) <= 1e-12
            assert flat not in rechecked or rechecked[flat] == ref
        if len(forms) <= 500:
            brute += row.scenario_id != "prop6_demo"
            aware = [j for (i, j), _levels in scan["entries"] if i == 1]
            rev_full = orderstats.atom_grid(
                fold_atom_lattices(atom_lattice(s.law(i, j)) for j in aware)
                for i in range(1, s.n_bidders + 1)).expected(1)
            worst = min(rev_full - orderstats.atom_grid(f).expected(1) for f in forms)
            assert (row.holds, row.margin) == (worst >= 0, worst)
    assert brute == 6


def test_prop6_folds_nothing_and_rechecks_at_most_112(monkeypatch):
    # the 20-scenario corpus scans 89,328 assignments without one fold and
    # with at most 112 exact AtomGrid values, the full-info ones included
    inside, folds, rechecks = [], [], []
    stock_claim, stock_fold = disclosure._claim_full_info_optimal, fold_atom_lattices
    stock_expected = AtomGrid.expected

    def claim_spy(sid, s):
        inside.append(sid)
        try:
            return stock_claim(sid, s)
        finally:
            inside.pop()

    def fold_spy(forms):
        folds.extend(inside)
        return stock_fold(forms)

    def expected_spy(grid, rank):
        rechecks.extend(inside)
        return stock_expected(grid, rank)

    monkeypatch.setattr(disclosure, "_claim_full_info_optimal", claim_spy)
    for module in (distributions, orderstats):
        monkeypatch.setattr(module, "fold_atom_lattices", fold_spy)
    monkeypatch.setattr(AtomGrid, "expected", expected_spy)
    report = verify_suite(CorpusConfig(count=20))
    notes = [r.note for r in report.results if r.claim == "Prop6"]
    assert len(notes) == 20 and not report.failures
    assert sum(int(note.split("candidates=")[1]) for note in notes) == 89328
    assert not folds
    assert 20 <= len(rechecks) <= 112


@pytest.mark.parametrize("seed", [899634569, 215477173])
def test_exact_layer_folds_and_settles_each_view_once(monkeypatch, seed):
    # two corpora the exact-verify benchmark draws: across every claim, a
    # column is folded at most once and a view settled at most once per
    # scenario.  A column request that folds is a memo miss, whoever asks
    # (the exact backend or valuation_law; Prop 6 folds nothing).
    # Scenarios are told apart by identity, and kept alive so that no id is
    # reused.
    # Every bundle field comes from those settlements: no E of an order
    # statistic is integrated while a bundle is built.
    kept, folds, settles, views = [], [], [], set()
    fold_calls, bundling, expected_in_bundle = [], [], []
    stock_bundle, stock_lattice = engine._exact_bundle, orderstats.bid_lattice
    stock_fold, stock_settle = orderstats.fold_atom_lattices, AtomGrid.settle
    stock_expected = AtomGrid.expected

    def bundle_spy(s, p, config):
        kept.append(s)
        views.update((id(s), view) for view in engine._policy_layout(s, p)[0])
        bundling.append(1)
        try:
            return stock_bundle(s, p, config)
        finally:
            bundling.pop()

    def expected_spy(grid, rank):
        if bundling:
            expected_in_bundle.append(rank)
        return stock_expected(grid, rank)

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
    for module in (engine, orderstats):
        monkeypatch.setattr(module, "bid_lattice", lattice_spy)
    monkeypatch.setattr(AtomGrid, "settle", settle_spy)
    monkeypatch.setattr(AtomGrid, "expected", expected_spy)
    report = verify_suite(CorpusConfig(count=3, seed=seed))
    assert report.results and not report.failures
    assert folds and len(set(folds)) == len(folds)
    assert settles and len(settles) <= len(views)
    assert expected_in_bundle == []


def _settled_grids(monkeypatch, run):
    """Every (grid, settlement) ``AtomGrid.settle`` returns while ``run()``."""
    settled, stock = [], AtomGrid.settle

    def spy(grid):
        got = stock(grid)
        settled.append((grid, got))
        return got

    monkeypatch.setattr(AtomGrid, "settle", spy)
    run()
    monkeypatch.undo()
    return settled


def test_settled_order_statistics_equal_the_integrated_ones(monkeypatch):
    # every view the suite settles, and the full views of the bundled
    # exact scenarios: settle's E[first] and E[second] are those of expected
    def run():
        verify_suite(CorpusConfig(count=20))
        for name in ("d1", "example1_discrete", "curse_demo", "prop6_demo"):
            s, p, _cfg = parse_scenario(str(SCENARIO_DIR / f"{name}.json"))
            revenue(s, p, EXACT)

    settled = _settled_grids(monkeypatch, run)
    assert len(settled) > 150
    for grid, (_surplus, _credit, first, second) in settled:
        assert first == grid.expected(1) and second == grid.expected(2)


def _enumerated_settlement(laws):
    """(surplus, credit, E[first], E[second]) over every joint outcome."""
    n = len(laws)
    surplus, credit, first, second = [F(0)] * n, [F(0)] * n, F(0), F(0)
    for outcome in itertools.product(*(_atoms(law) for law in laws)):
        prob = math.prod(q for _v, q in outcome)
        bids = [F(v) for v, _q in outcome]
        top = max(bids)
        winners = [i for i, b in enumerate(bids) if b == top]
        price = sorted(bids)[-2]
        first += prob * top
        second += prob * price
        for i in winners:
            credit[i] += prob / len(winners)
        if len(winners) == 1:
            surplus[winners[0]] += prob * (top - price)
    return surplus, credit, first, second


@pytest.mark.parametrize("laws", [
    # three-way tie at the top, with and without a fourth law below it
    [DiscreteFinite([1, 3], [F(1, 2), F(1, 2)])] * 3,
    [DiscreteFinite([1, 3], [F(1, 3), F(2, 3)]), DiscreteFinite([2, 3], [F(1, 4), F(3, 4)]),
     DiscreteFinite([0, 3], [F(1, 5), F(4, 5)]), DiscreteFinite([-1, 2], [F(1, 2), F(1, 2)])],
    # negative values
    [DiscreteFinite([-3, -1], [F(1, 3), F(2, 3)]), DiscreteFinite([-2, F(-1, 2)], [F(1, 2), F(1, 2)])],
    [DiscreteFinite([-5, 0, 2], [F(1, 4), F(1, 4), F(1, 2)]),
     DiscreteFinite([-5, F(-7, 3)], [F(2, 3), F(1, 3)]), PointMass(F(-5))],
    # 2, 3 and 4 laws
    [DiscreteFinite([0, 1], [F(1, 2), F(1, 2)]), DiscreteFinite([F(1, 2), 2], [F(1, 3), F(2, 3)])],
    [DiscreteFinite([0, 2, 4], [F(1, 3)] * 3), DiscreteFinite([1, 2], [F(3, 4), F(1, 4)]),
     DiscreteFinite([F(1, 3), 4], [F(1, 2), F(1, 2)])],
    [DiscreteFinite([0, 1], [F(1, 2), F(1, 2)]), DiscreteFinite([0, 1], [F(1, 3), F(2, 3)]),
     DiscreteFinite([1, 2], [F(1, 6), F(5, 6)]), DiscreteFinite([0.5, 2], [F(1, 2), F(1, 2)])],
])
def test_settle_reads_off_both_order_statistics(laws):
    grid = orderstats.atom_grid(atom_lattice(law) for law in laws)
    got = grid.settle()
    assert got == _enumerated_settlement(laws)
    assert got[2:] == (grid.expected(1), grid.expected(2))


def _iid_file(tmp_path, laws):
    """A scenario file of 2 bidders that hold ``laws``, each as its own law
    object, aware of every characteristic with full information."""
    m = len(laws)
    doc = {"bidders": 2,
           "characteristics": [{"distributions": [law, law]} for law in laws],
           "awareness": [list(range(1, m + 1))] * 2,
           "info": [{str(j): "full" for j in range(1, m + 1)}] * 2}
    path = tmp_path / "iid.json"
    path.write_text(json.dumps(doc))
    s, p, _cfg = parse_scenario(str(path))
    assert s.law(1, 1) == s.law(2, 1) and s.law(1, 1) is not s.law(2, 1)
    return s, p


def _atoms_doc(values):
    return {"kind": "discrete", "atoms": [[v, f"1/{len(values)}"] for v in values]}


@pytest.mark.parametrize("uniform", [False, True])
def test_iid_bidders_share_one_fold_and_one_law(monkeypatch, tmp_path, uniform):
    # the column memos are keyed by law content: the second bidder's column
    # is the first's law object, folded or convolved once
    laws = [_atoms_doc([0, 1, 2]), _atoms_doc([0, 5])]
    if uniform:
        laws.append({"kind": "uniform", "lo": 0, "hi": 0.5})
    s, p = _iid_file(tmp_path, laws)
    calls = []
    for module, name in ((orderstats, "fold_atom_lattices"), (orderstats, "convolve")):
        stock = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _stock=stock, _name=name: calls.append(_name) or _stock(*a))
    view = Perspective(s.full_set)
    one = valuation_law(s, p, 1, view)
    once = list(calls)
    assert once == (["convolve"] * 3 if uniform else ["fold_atom_lattices"])
    assert valuation_law(s, p, 2, view) is one
    assert valuation_law(s, p, 1, view) is one and calls == once
    if not uniform:
        assert bid_lattice(s, _column(p, 2)) is bid_lattice(s, _column(p, 1))
        assert calls == once
        b = engine.estimate(s, p, EXACT)
        assert b.bidders[0] == b.bidders[1] and calls == once


def test_a_shared_content_refusal_names_the_requesting_column(monkeypatch, tmp_path):
    monkeypatch.setattr(distributions, "_FOLD_CAP", 4)
    s, p = _iid_file(tmp_path, [_atoms_doc([0, 1, 2]), _atoms_doc([0, 3])])
    for bidder in (1, 2):
        with pytest.raises(DistributionError) as err:
            bid_lattice(s, _column(p, bidder))
        assert str(err.value).startswith(f"bidder {bidder}'s bid over characteristics [1, 2]: ")


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


def test_float_atom_conditional_means_read_the_integer_form():
    # conditional_mean and cell_probability of a discrete cell are the
    # integer form's cell mean and mass (``cell_means``), so they equal the
    # component's atoms, not Fraction-times-float sums
    law = DiscreteFinite([0.1, 0.7, 2.3], [F(1, 5), F(1, 2), F(3, 10)])
    form = atom_lattice(law)
    for level in (NoInfo(), Partition(cells=[(0, 1), (2,)]), FullInfo()):
        comp = bid_component(Scenario(1, 1, ((law,),)), 1, 1, level)
        atoms = [(F(1), comp.value)] if isinstance(comp, PointMass) else list(
            zip(comp.probs, comp.values))
        got = [(cell_probability(law, c), conditional_mean(law, level, c))
               for c in cells(law, level)]
        want = [(F(mass, form.prob_den), F(*cell_mean))
                for mass, cell_mean in cell_means(form, distributions._atom_cells(law, level))]
        assert got == want == atoms
        assert all(type(x) is F for pair in got for x in pair)


def test_float_atom_means_are_one_exact_rational():
    # mean, the NoInfo point mass, a two-cell component's mean and the exact
    # backend's hidden mean all take the integer form's mean, not the
    # float-rounded sum of p * v; rational atoms keep their mean
    law = DiscreteFinite([0.1, 0.7, 2.3], [F(1, 5), F(1, 2), F(3, 10)])
    exact_mean = sum(F(v) * q for v, q in zip(law.values, law.probs))
    assert lattice_mean(atom_lattice(law)) == exact_mean == mean(law)
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
    assert float(mean(law)) == 1.0599999999999998
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


def _sum_scenario(laws):
    """2 bidders, each aware of every law and fully informed of it."""
    m = len(laws)
    return validate(2, m, [laws] * 2, [list(range(1, m + 1))] * 2,
                    [{j: FullInfo() for j in range(1, m + 1)}] * 2)


def _column(p, bidder):
    return tuple((bidder, j, p.level(bidder, j)) for j in sorted(p.aware(bidder)))


def test_exact_fold_bound_admits_its_own_size_and_refuses_past_it():
    # the bound is on the support a fold reaches: 16 laws {0, 2^(j-1)} fold
    # to exactly the bound's 2^16 distinct sums and are admitted; a 17th is
    # refused, naming the column; fair coins collapse to m + 1 points, so 17
    # and 40 of them fold however large the product of their supports
    assert distributions._FOLD_CAP == 2 ** 16
    powers = [DiscreteFinite([0, 2 ** (j - 1)], [F(1, 2), F(1, 2)]) for j in range(1, 18)]
    s, p = _sum_scenario(powers[:16])
    b = engine.estimate(s, p, EXACT)
    assert len(bid_lattice(s, _column(p, 1)).nums) == 2 ** 16
    assert b.first_order_stat > (2 ** 16 - 1) / 2
    s, p = _sum_scenario(powers)
    with pytest.raises(DistributionError) as err:
        engine.estimate(s, p, EXACT)
    msg = str(err.value)
    assert "bidder 1" in msg and str(list(range(1, 18))) in msg and str(2 ** 16) in msg
    coin = DiscreteFinite([0, 1], [F(1, 2), F(1, 2)])
    for m in (17, 40):
        s, p = _sum_scenario([coin] * m)
        b = engine.estimate(s, p, EXACT)
        assert len(bid_lattice(s, _column(p, 1)).nums) == m + 1
        assert F(m, 2) < b.first_order_stat == revenue(s, p, EXACT).total_revenue


def test_analytic_value_past_the_bound_falls_back_to_monte_carlo(monkeypatch):
    # a common-awareness candidate whose valuation law folds past the bound
    # has no analytic value: the search scores it by Monte Carlo, and the
    # exact backend refuses it, naming the column
    monkeypatch.setattr(distributions, "_FOLD_CAP", 4)
    s, _p, _cfg = parse_scenario(str(SCENARIO_DIR / "example1_discrete.json"))
    config = engine.EstimatorConfig(backend="mc", n_samples=20_000, seed=3)
    values = dict(disclosure.optimize(s, "public-full-info", config).trace)
    policy = checked_policy(s, [{1, 2}] * 2, {})
    assert values["common=[1]"] == F(175, 54)
    assert values["common=[1, 2]"] == revenue(s, policy, config).total_revenue
    assert isinstance(values["common=[1, 2]"], float)
    with pytest.raises(DistributionError) as err:
        disclosure.optimize(s, "public-full-info", EXACT)
    assert "bidder 1" in str(err.value) and "[1, 2]" in str(err.value)


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
