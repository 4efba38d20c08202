"""Command-line front end: scenario files in, deterministic tables out.

Scenario files are JSON (UTF-8, LF), read by the schema tables below; the
README's field table lists their fields.

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
    canonical_info,
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
# Scenario file schema: a reader per kind of field, a table per object
# ---------------------------------------------------------------------------

def _at(path, key):
    key = json.dumps(key)[1:-1]         # a control character in a key stays escaped
    return f"{path}.{key}" if path else key


def _reader(what, convert, item=None, accept=lambda value: True):
    """A field reader ``read(value, path, *context)``: ``convert`` on a value
    ``accept`` takes and that is not a boolean, a failure reported at ``path``.
    ``item`` is what a list or object reader reads inside it."""
    def read(value, path, *context):
        if isinstance(value, bool) or not accept(value):
            raise ParseError(path, f"need {what}, got {json.dumps(value)}")
        try:
            return convert(value, path, *context)
        except ParseError:
            raise
        except ZeroDivisionError as exc:
            raise ParseError(path, f"zero denominator in {json.dumps(value)}") from exc
        except (ArithmeticError, TypeError, ValueError, EstimationError) as exc:
            raise ParseError(path, str(exc)) from exc
    read.item = item
    return read


_number = _reader("a number", lambda value, path: float(value))
_rational = _reader("a number or a rational string", lambda value, path: as_fraction(value))
_count = _reader("an integer", lambda value, path: int(value),
                 accept=lambda value: not isinstance(value, float) or value.is_integer())
_name = _reader("a string", lambda value, path: value, accept=lambda value: isinstance(value, str))
_is_object = lambda value: isinstance(value, dict)


def _list(item, what="a list", size=None):
    return _reader(what, lambda value, path: [item(v, f"{path}[{k}]")
                                              for k, v in enumerate(value)],
                   item, lambda value: isinstance(value, list) and size in (None, len(value)))


class _Object(dict):
    """A JSON object as read; ``repeated`` is a key the file names twice in it."""


def _json_object(pairs):
    obj, seen = _Object(pairs), set()
    obj.repeated = next((key for key, _v in pairs if key in seen or seen.add(key)), None)
    return obj


def _fields(value, path):
    if value.repeated is not None:
        raise ParseError(_at(path, value.repeated), "key repeated in its object")
    return value


def _object(table, build=dict, optional=()):
    """Reader of a JSON object with the keys of ``table`` (key -> reader) as
    ``build(**fields)``; an unknown key, or a missing one not ``optional``, is refused."""
    def convert(value, path):
        for key in _fields(value, path):
            if key not in table:
                raise ParseError(_at(path, key),
                                 f"unknown field; expected one of {', '.join(table)}")
        for key in table:
            if key not in value and key not in optional:
                raise ParseError(_at(path, key), "missing field")
        return build(**{key: read(value[key], _at(path, key))
                        for key, read in table.items() if key in value})
    return _reader("an object", convert, table, _is_object)


_LAWS = {
    "uniform": _object({"kind": _name, "lo": _number, "hi": _number},
                       lambda kind, lo, hi: UniformContinuous(lo, hi)),
    "normal": _object({"kind": _name, "mean": _number, "stddev": _number},
                      lambda kind, mean, stddev: Normal(mean, stddev)),
    "discrete": _object({"kind": _name,
                         "atoms": _list(_list(_rational, "a [value, prob] pair", 2))},
                        lambda kind, atoms: DiscreteFinite([v for v, _p in atoms],
                                                           [p for _v, p in atoms])),
}


def _read_law(value, path):
    kind = value.get("kind")
    if not isinstance(kind, str) or kind not in _LAWS:
        raise ParseError(_at(path, "kind"), f"unknown distribution kind {json.dumps(kind)}; "
                                            f"expected one of {', '.join(_LAWS)}")
    return _LAWS[kind](value, path)


# a partition holds one of these keys: the first one present picks the
# table, which refuses the other
_PARTITIONS = {
    "cutpoints": _object({"cutpoints": _list(_number)}, Partition),
    "cells": _object({"cells": _list(_list(_count))}, Partition),
}


def _read_level(value, path, law):
    """An info level, canonical against ``law`` (None for an id outside the
    scenario, which ``validate`` refuses)."""
    key = next((k for k in _PARTITIONS if isinstance(value, dict) and k in value), None)
    if key is not None:
        level = _PARTITIONS[key](value, path)
    elif value in ("none", "full"):
        level = NoInfo() if value == "none" else FullInfo()
    else:
        raise ParseError(path, f"unknown info level {json.dumps(value)}")
    return level if law is None else canonical_info(law, level)


def _read_info(value, path, laws):
    """One bidder's info map: ids by the count reader, each level read against
    the bidder's law for it; two keys naming one id are refused."""
    levels = {}
    for key, level in _fields(value, path).items():
        if (j := _count(key, _at(path, key))) in levels:
            raise ParseError(_at(path, key), f"names characteristic {j} a second time")
        levels[j] = _level(level, _at(path, key), laws[j - 1] if 1 <= j <= len(laws) else None)
    return levels


_law = _reader("a distribution", _read_law, _LAWS, _is_object)
_level = _reader("an info level", _read_level, _PARTITIONS)
_info = _reader("a map of characteristic id to level", _read_info, accept=_is_object)

# each bidder's info map is read by ``_info`` once the laws are known
_TOP = _object(
    {"bidders": _count,
     "characteristics": _list(_object({"distributions": _list(_law)},
                                      lambda distributions: distributions)),
     "awareness": _list(_list(_count)),
     "info": _list(_reader("an object", _fields, accept=_is_object)),
     "estimator": _object({"backend": _name, "samples": _count, "seed": _count, "workers": _count},
                          lambda samples=EstimatorConfig.n_samples, **fields:
                              EstimatorConfig(n_samples=samples, **fields),
                          optional=("backend", "samples", "seed", "workers"))},
    optional=("estimator",))


def parse_scenario(path: str):
    """Load and validate a scenario file as (Scenario, DisclosurePolicy,
    EstimatorConfig).  Raises ParseError with the JSON path of a schema
    problem (the file's path when it cannot be read) or the scenario layer's
    validation message."""
    try:
        with open(path, "rb") as fh:
            doc = json.load(fh, object_pairs_hook=_json_object)
    except (OSError, RecursionError, ValueError) as exc:   # unreadable, not UTF-8 or JSON
        raise ParseError(path, getattr(exc, "strerror", None) or str(exc)) from exc
    top = _TOP(doc, "")
    n, chars = top["bidders"], top["characteristics"]
    if n < 1:
        raise ParseError("bidders", f"need at least one bidder, got {n}")
    if not chars:
        raise ParseError("characteristics", "need a nonempty list")
    for key, entries in [("awareness", top["awareness"]), ("info", top["info"])] + [
            (f"characteristics[{j}].distributions", laws) for j, laws in enumerate(chars)]:
        if len(entries) != n:
            raise ParseError(key, f"need one entry per bidder ({n})")
    laws = [list(row) for row in zip(*chars)]
    info = [_info(levels, f"info[{i}]", laws[i]) for i, levels in enumerate(top["info"])]
    try:
        scenario, policy = validate(n, len(chars), laws, top["awareness"], info)
    except (ScenarioError, DistributionError) as exc:
        raise ParseError("", str(exc)) from exc
    return scenario, policy, top.get("estimator", EstimatorConfig())


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class ReportDocument:
    """Ordered (field, value, stderr, backend) rows; exact rationals get a
    companion '<field>_exact' row serialized as p/q."""

    def __init__(self):
        self.rows = []

    def add(self, field, value, stderr=None, backend=""):
        if any(isinstance(x, (float, Fraction)) and not abs(x) <= sys.float_info.max
               for x in (value, stderr)):
            raise EstimationError(f"{field} is not finite in double precision")
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
        for flag, field in (("seed", "seed"), ("samples", "n_samples"), ("backend", "backend")):
            value = getattr(args, flag)
            try:
                config = config if value is None else dataclasses.replace(config, **{field: value})
            except EstimationError as exc:
                raise ParseError(f"--{flag}", str(exc)) from exc
        handler = {"fees": _cmd_fees, "revenue": _cmd_revenue, "curse": _cmd_curse,
                   "orderstats": _cmd_orderstats, "optimize": _cmd_optimize,
                   "tradeoff": _cmd_tradeoff}[args.command]
        rep = handler(scenario, policy, config, args)
    except (ParseError, ScenarioError, DistributionError, EstimationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out.write(emit(rep, args.format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
