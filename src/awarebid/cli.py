"""Command-line front end: scenario files in, deterministic tables out.

Scenario files are JSON (UTF-8, LF) with keys ``bidders``,
``characteristics`` (list of per-characteristic entries, each holding one
``distributions`` list with a law per bidder), ``awareness`` (list of
characteristic ids per bidder), ``info`` (per bidder, map id -> level) and
``estimator``.  Probabilities and discrete values accept "p/q" strings.

All randomness flows from the single seed (file or --seed flag).  Output is
byte-stable: fixed row order, 12 significant digits, LF endings, no
timestamps.  Exit status: 0 success, 1 input error, 2 verification failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from .disclosure import (
    CorpusConfig,
    PolicyRegime,
    check_tradeoff,
    optimize,
    verify_suite,
)
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
    as_fraction,
)
from .engine import EstimationError, EstimatorConfig
from .fees import curse_gap, entry_fees, revenue
from .orderstats import (
    OrderStatLaw,
    clark_normal_max,
    expected_order_stats,
    law_grid,
    valuation_law,
)
from .scenario import Perspective, ScenarioError, validate

__all__ = ["main", "parse_scenario", "emit", "ParseError"]


class ParseError(ValueError):
    """Scenario-file problem with the JSON path where it occurred."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}" if path else message)
        self.path = path


# ---------------------------------------------------------------------------
# Scenario file schema
# ---------------------------------------------------------------------------

_TOP_FIELDS = ("bidders", "characteristics", "awareness", "info", "estimator")
_LAW_FIELDS = {"uniform": ("lo", "hi"), "normal": ("mean", "stddev"), "discrete": ("atoms",)}
_ESTIMATOR_FIELDS = ("backend", "samples", "seed", "workers")


def _at(path, key):
    return f"{path}.{key}" if path else str(key)


def _known_fields(obj, path, allowed):
    """Refuse the first key of ``obj`` outside ``allowed``, with its path."""
    for key in obj:
        if key not in allowed:
            raise ParseError(_at(path, key),
                             f"unknown field; expected one of {', '.join(allowed)}")


def _not_bool(value, path, what):
    if isinstance(value, bool):
        raise ParseError(path, f"need {what}, got {json.dumps(value)}")


def _number(value, path):
    """A JSON number (or numeric string) as a float; a boolean is refused."""
    _not_bool(value, path, "a number")
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, str(exc)) from exc


def _dist_from_dict(obj, path):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ParseError(path, "distribution must be an object with a 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _LAW_FIELDS:
        raise ParseError(path, f"unknown distribution kind {kind!r}")
    _known_fields(obj, path, ("kind",) + _LAW_FIELDS[kind])
    try:
        if kind == "uniform":
            return UniformContinuous(*(_number(obj[key], _at(path, key)) for key in ("lo", "hi")))
        if kind == "normal":
            return Normal(*(_number(obj[key], _at(path, key)) for key in ("mean", "stddev")))
        atoms = obj["atoms"]
        if not isinstance(atoms, list):
            raise ParseError(_at(path, "atoms"), "need a list of [value, prob] pairs")
        for k, atom in enumerate(atoms):
            if not isinstance(atom, list) or len(atom) != 2:
                raise ParseError(f"{path}.atoms[{k}]", "need a [value, prob] pair")
            for part in atom:
                _not_bool(part, f"{path}.atoms[{k}]", "a number or a rational string")
        return DiscreteFinite([as_fraction(v) for v, _p in atoms],
                              [as_fraction(p) for _v, p in atoms])
    except KeyError as exc:
        raise ParseError(path, f"missing field {exc}") from exc
    except ParseError:
        raise
    except (DistributionError, ValueError, TypeError) as exc:
        raise ParseError(path, str(exc)) from exc


def _count(value, path):
    """A JSON count as an int: an integer, an integral float or a numeric
    string; a boolean or a fractional number is refused with its path."""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ParseError(path, f"need an integer, got {json.dumps(value)}")
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ParseError(path, str(exc)) from exc


def _level_from_json(obj, path):
    if obj == "none":
        return NoInfo()
    if obj == "full":
        return FullInfo()
    if isinstance(obj, dict) and "cutpoints" in obj:
        _known_fields(obj, path, ("cutpoints",))
        cuts = obj["cutpoints"]
        if not isinstance(cuts, list):
            raise ParseError(f"{path}.cutpoints", "need a list of numbers")
        return Partition(cutpoints=[_number(c, f"{path}.cutpoints[{k}]")
                                    for k, c in enumerate(cuts)])
    if isinstance(obj, dict) and "cells" in obj:
        _known_fields(obj, path, ("cells",))
        cells = obj["cells"]
        if not (isinstance(cells, list) and all(isinstance(cell, list) for cell in cells)):
            raise ParseError(f"{path}.cells", "need a list of lists of atom indices")
        return Partition(cells=[[_count(i, f"{path}.cells[{c}][{k}]") for k, i in enumerate(cell)]
                                for c, cell in enumerate(cells)])
    raise ParseError(path, f"unknown info level {obj!r}")


def parse_scenario(path: str):
    """Load and validate a scenario file.

    Returns (Scenario, DisclosurePolicy, EstimatorConfig).  Raises
    ParseError with a JSON path for schema problems and propagates
    validation messages from the scenario layer.
    """
    with open(path, "rb") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError("", f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError("", "top level must be an object")
    _known_fields(doc, "", _TOP_FIELDS)
    try:
        n = _count(doc["bidders"], "bidders")
        chars = doc["characteristics"]
    except KeyError as exc:
        raise ParseError("", f"missing top-level field {exc}") from exc
    if n < 1:
        raise ParseError("bidders", f"need at least one bidder, got {n}")
    if not isinstance(chars, list) or not chars:
        raise ParseError("characteristics", "need a nonempty list")
    m = len(chars)
    laws = [[None] * m for _ in range(n)]
    for j, entry in enumerate(chars):
        dists = entry.get("distributions") if isinstance(entry, dict) else None
        if not isinstance(dists, list) or len(dists) != n:
            raise ParseError(f"characteristics[{j}]",
                             f"need a 'distributions' list with {n} entries")
        _known_fields(entry, f"characteristics[{j}]", ("distributions",))
        for i, dd in enumerate(dists):
            laws[i][j] = _dist_from_dict(dd, f"characteristics[{j}].distributions[{i}]")

    awareness = doc.get("awareness")
    if not isinstance(awareness, list) or len(awareness) != n:
        raise ParseError("awareness", f"need one list of characteristic ids per bidder ({n})")
    for i, a in enumerate(awareness):
        if not isinstance(a, list) or not all(
                isinstance(j, int) and not isinstance(j, bool) for j in a):
            raise ParseError(f"awareness[{i}]", "need a list of integer characteristic ids")
    info_doc = doc.get("info")
    if not isinstance(info_doc, list) or len(info_doc) != n:
        raise ParseError("info", f"need one map per bidder ({n})")
    info = []
    for i, levels in enumerate(info_doc):
        if not isinstance(levels, dict):
            raise ParseError(f"info[{i}]", "need a map of characteristic id to level")
        try:
            info.append({int(j): _level_from_json(lvl, f"info[{i}].{j}")
                         for j, lvl in levels.items()})
        except (TypeError, ValueError) as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(f"info[{i}]", str(exc)) from exc

    est = doc.get("estimator", {})
    if not isinstance(est, dict):
        raise ParseError("estimator", "need an object")
    _known_fields(est, "estimator", _ESTIMATOR_FIELDS)
    counts = {field: _count(est.get(key, default), f"estimator.{key}")
              for field, key, default in (("n_samples", "samples", 100_000),
                                          ("seed", "seed", 0), ("workers", "workers", 1))}
    try:
        config = EstimatorConfig(backend=str(est.get("backend", "mc")), **counts)
    except (EstimationError, TypeError, ValueError) as exc:
        raise ParseError("estimator", str(exc)) from exc

    try:
        scenario, policy = validate(n, m, laws, [list(a) for a in awareness], info)
    except (ScenarioError, DistributionError) as exc:
        raise ParseError("", str(exc)) from exc
    return scenario, policy, config


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class ReportDocument:
    """Ordered (field, value, stderr, backend) rows; exact rationals get a
    companion '<field>_exact' row serialized as p/q."""

    def __init__(self):
        self.rows = []

    def add(self, field, value, stderr=None, backend=""):
        self.rows.append((field, value, stderr, backend))
        if isinstance(value, Fraction):
            self.rows.append((f"{field}_exact",
                              f"{value.numerator}/{value.denominator}", None, backend))


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.12g}"


def emit(report: ReportDocument, fmt: str) -> bytes:
    """Byte-stable rendering; csv header is field,value,stderr,backend."""
    rows = [(f, _fmt(v), _fmt(se), b) for f, v, se, b in report.rows]
    if fmt == "csv":
        lines = ["field,value,stderr,backend"]
        lines += [",".join(r) for r in rows]
    elif fmt == "text":
        header = ("field", "value", "stderr", "backend")
        widths = [max(len(r[k]) for r in [header, *rows]) for k in range(4)]
        lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
        lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip() for r in rows]
    else:
        raise ParseError("", f"unknown format {fmt!r}")
    return ("\n".join(lines) + "\n").encode("utf-8")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _cmd_fees(s, p, config, args) -> ReportDocument:
    rep = ReportDocument()
    sched = entry_fees(s, p, config)
    for i in range(1, s.n_bidders + 1):
        rep.add(f"fee_{i}", sched.fees[i - 1],
                sched.se_fees[i - 1], sched.backend)
        rep.add(f"fee_fullview_{i}", sched.fees_fullview[i - 1],
                sched.se_fees_fullview[i - 1], sched.backend)
        rep.add(f"rent_{i}", sched.rents[i - 1], None, sched.backend)
    rep.add("total_fees", sched.total_fees, None, sched.backend)
    rep.add("total_rents", sched.total_rents, None, sched.backend)
    return rep


def _cmd_revenue(s, p, config, args) -> ReportDocument:
    rep = ReportDocument()
    r = revenue(s, p, config)
    rep.add("expected_first_order_stat", r.expected_first_order_stat,
            r.se_first_order_stat, r.backend)
    rep.add("expected_second_order_stat", r.expected_second_order_stat,
            r.se_second_order_stat, r.backend)
    for i in range(1, s.n_bidders + 1):
        rep.add(f"fee_{i}", r.fee_schedule.fees[i - 1],
                r.fee_schedule.se_fees[i - 1], r.backend)
        rep.add(f"rent_{i}", r.fee_schedule.rents[i - 1], None, r.backend)
    rep.add("total_revenue", r.total_revenue, r.se_total_revenue, r.backend)
    rep.add("consistency_residual", r.consistency_residual, None, r.backend)
    return rep


def _cmd_curse(s, p, config, args) -> ReportDocument:
    rep = ReportDocument()
    c = curse_gap(s, p, config)
    for i in range(1, s.n_bidders + 1):
        rep.add(f"perceived_payoff_{i}", c.perceived_payoffs[i - 1], None, c.backend)
        rep.add(f"actual_payoff_{i}", c.actual_payoffs[i - 1], None, c.backend)
        rep.add(f"curse_gap_{i}", c.gaps[i - 1], c.se_gaps[i - 1], c.backend)
        rep.add(f"win_prob_{i}", c.win_probs[i - 1], None, c.backend)
    return rep


def _no_normal_part(law) -> bool:
    """A law without a normal part: its CDF is exact on ``law_grid``."""
    return not isinstance(law, Normal) and not (isinstance(law, SumLaw) and law.sigma)


def _cmd_orderstats(s, p, config, args) -> ReportDocument:
    rep = ReportDocument()
    view = Perspective(s.full_set)
    laws = [valuation_law(s, p, i, view) for i in range(1, s.n_bidders + 1)]
    # E[first] and E[second] in one batch
    values = expected_order_stats(OrderStatLaw(tuple(laws), r)
                                  for r in range(1, min(s.n_bidders, 2) + 1))
    for name, value in zip(("expected_first_order_stat", "expected_second_order_stat"), values):
        if isinstance(value, DistributionError):
            raise value
        rep.add(name, value, None, "analytic")
    e1 = values[0]
    if all(_no_normal_part(law) for law in laws):
        # on atom laws e1 is already the grid's Fraction
        ref = e1 if isinstance(e1, Fraction) else law_grid(laws).expected(1)
        rep.add("reference_expected_first_order_stat", ref, None, "exact")
        rep.add("agreement_1e9", bool(abs(float(e1) - float(ref)) < 1e-9), None, "")
    elif all(isinstance(law, (Normal, PointMass)) for law in laws) and s.n_bidders == 2:
        a, b = laws
        mu = lambda L: L.mean if isinstance(L, Normal) else L.value
        var = lambda L: L.stddev ** 2 if isinstance(L, Normal) else 0.0
        ref = clark_normal_max(mu(a), var(a), mu(b), var(b))
        rep.add("reference_expected_first_order_stat", ref, None, "clark")
        rep.add("agreement_1e9", bool(abs(float(e1) - ref) < 1e-9), None, "")
    return rep


def _cmd_optimize(s, p, config, args) -> ReportDocument:
    rep = ReportDocument()
    # exogenous per-characteristic info: the level shared by the file's
    # policy when every aware bidder agrees, full information otherwise.
    char_info = {}
    for j in range(1, s.m_characteristics + 1):
        levels = [p.level(i, j) for i in range(1, s.n_bidders + 1) if j in p.aware(i)]
        if levels and all(lvl == levels[0] for lvl in levels):
            char_info[j] = levels[0]
    result = optimize(s, PolicyRegime(args.regime), config,
                      char_info=char_info, allow_greedy=args.greedy)
    rep.add("regime", result.regime.value)
    rep.add("search", "exhaustive" if result.exhaustive else "greedy")
    rep.add("candidates", len(result.trace))
    for i in range(1, s.n_bidders + 1):
        rep.add(f"awareness_{i}", " ".join(map(str, sorted(result.policy.aware(i)))))
    rep.add("best_revenue", result.report.total_revenue, None, result.report.backend)
    return rep


def _cmd_tradeoff(s, p, config, args) -> ReportDocument:
    rep = ReportDocument()
    td = check_tradeoff(s, p, args.bidder, args.char, config)
    rep.add("delta_first_order_stat", td.delta_first_order_stat,
            td.se_delta_first_order_stat, config.backend)
    rep.add("delta_rents_remaining_unaware", td.delta_rents_remaining_unaware,
            td.se_delta_rents_remaining_unaware, config.backend)
    rep.add("lost_rent_newly_aware", td.lost_rent_newly_aware,
            td.se_lost_rent_newly_aware, config.backend)
    rep.add("decision", td.decision)
    rep.add("revenue_before", td.revenue_before, None, config.backend)
    rep.add("revenue_after", td.revenue_after, None, config.backend)
    return rep


_CLAIMS = ("Prop2", "Lem3", "Lem4", "Prop3", "Lem5", "Lem6", "Lem7",
           "Prop4", "Prop5", "Prop6", "Cor1")


def _cmd_verify(args) -> tuple:
    try:
        cfg = CorpusConfig(count=args.count, seed=args.corpus_seed)
        report = verify_suite(cfg)
    except ScenarioError as exc:
        raise ParseError("--count", str(exc)) from exc
    rep = ReportDocument()
    rep.add("scenarios", cfg.count)
    rep.add("claims_recorded", len(report.results))
    for claim in _CLAIMS:
        rep.add(f"checked_{claim}", len(report.checked(claim)))
    rep.add("failures", len(report.failures))
    for r in report.failures:
        rep.add(f"failure_{r.claim}_{r.scenario_id}", _fmt(float(r.margin)))
    return rep, (0 if report.all_pass else 2)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="awarebid",
        description="Second-price auctions with entry fees under unawareness")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, scenario=True):
        if scenario:
            sp.add_argument("--scenario", required=True, help="scenario JSON file")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--samples", type=int, default=None)
        sp.add_argument("--backend", choices=("mc", "exact"), default=None)
        sp.add_argument("--format", choices=("csv", "text"), default="csv")

    for name in ("fees", "revenue", "curse", "orderstats"):
        common(sub.add_parser(name))
    p_opt = sub.add_parser("optimize")
    common(p_opt)
    p_opt.add_argument("--regime", required=True,
                       choices=tuple(r.value for r in PolicyRegime))
    p_opt.add_argument("--greedy", action="store_true")
    p_tr = sub.add_parser("tradeoff")
    common(p_tr)
    p_tr.add_argument("--bidder", type=int, required=True)
    p_tr.add_argument("--char", type=int, required=True)
    p_ver = sub.add_parser("verify")
    p_ver.add_argument("--corpus-seed", type=int, default=0)
    p_ver.add_argument("--count", type=int, default=100)
    p_ver.add_argument("--format", choices=("csv", "text"), default="csv")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse reserves status 2 for usage errors; this tool uses 2 for
        # verification failures, so bad flags map to the input-error status.
        return 0 if exc.code == 0 else 1
    out = sys.stdout.buffer

    try:
        if args.command == "verify":
            rep, status = _cmd_verify(args)
            out.write(emit(rep, args.format))
            return status
        scenario, policy, config = parse_scenario(args.scenario)
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.samples is not None:
            overrides["n_samples"] = args.samples
        if args.backend is not None:
            overrides["backend"] = args.backend
        if overrides:
            config = dataclasses.replace(config, **overrides)
        handler = {"fees": _cmd_fees, "revenue": _cmd_revenue, "curse": _cmd_curse,
                   "orderstats": _cmd_orderstats, "optimize": _cmd_optimize,
                   "tradeoff": _cmd_tradeoff}[args.command]
        rep = handler(scenario, policy, config, args)
    except (ParseError, ScenarioError, DistributionError, EstimationError,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.write(emit(rep, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
