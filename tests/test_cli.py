import ast
import collections
import importlib
import json
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import time

import pytest

import awarebid
from awarebid import cli, engine
from awarebid.cli import ParseError, emit, main, parse_scenario
from awarebid.disclosure import ClaimResult, VerificationReport


GOLDEN_DIR = pathlib.Path(__file__).resolve().parent / "golden"


def run_cli(capsysbinary, args):
    status = main(args)
    return status, capsysbinary.readouterr().out


def test_backend_override_flag(capsysbinary, scenario_dir):
    status, out = run_cli(capsysbinary,
                          ["revenue", "--scenario", str(scenario_dir / "d1.json"),
                           "--backend", "mc", "--samples", "20000", "--seed", "4"])
    assert status == 0
    assert b",mc" in out and b"_exact," not in out


def test_parse_syntax_error_positions(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"bidders": 2,,}')
    with pytest.raises(ParseError, match="line 1"):
        parse_scenario(str(bad))


def _write(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


def _d1_doc():
    dist = {"kind": "discrete", "atoms": [[0, "1/2"], [1, "1/2"]]}
    dist2 = {"kind": "discrete", "atoms": [[0, "1/2"], [2, "1/2"]]}
    return {
        "bidders": 2,
        "characteristics": [{"distributions": [dist, dist]},
                            {"distributions": [dist2, dist2]}],
        "awareness": [[1, 2], [1]],
        "info": [{"1": "full", "2": "full"}, {"1": "full"}],
        "estimator": {"backend": "exact", "samples": 1000, "seed": 1},
    }


def test_parse_reports_bad_probabilities_with_path(tmp_path):
    doc = _d1_doc()
    doc["characteristics"][1]["distributions"][0]["atoms"] = [[0, "1/2"], [2, "2/5"]]
    with pytest.raises(ParseError, match=r"characteristics\[1\].distributions\[0\]"):
        parse_scenario(_write(tmp_path, doc))


def test_parse_reports_awareness_rule(tmp_path):
    doc = _d1_doc()
    doc["awareness"][1] = [2]
    with pytest.raises(ParseError, match="bidder 2.*characteristic 1"):
        parse_scenario(_write(tmp_path, doc))


def test_parse_reports_info_on_unaware(tmp_path):
    doc = _d1_doc()
    doc["info"][1]["2"] = "full"
    with pytest.raises(ParseError, match="unaware characteristic"):
        parse_scenario(_write(tmp_path, doc))


def test_parse_unknown_kind_and_level(tmp_path):
    doc = _d1_doc()
    doc["characteristics"][0]["distributions"][0] = {"kind": "cauchy"}
    with pytest.raises(ParseError, match="unknown distribution kind"):
        parse_scenario(_write(tmp_path, doc))
    doc = _d1_doc()
    doc["info"][0]["1"] = "everything"
    with pytest.raises(ParseError, match="unknown info level"):
        parse_scenario(_write(tmp_path, doc))


def _set(doc, path, value):
    *keys, last = path
    for key in keys:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize("where,value,path", [
    (("bidders",), 2.9, "bidders"),
    (("bidders",), True, "bidders"),
    (("estimator", "samples"), 2.5, "estimator.samples"),
    (("estimator", "seed"), 7.9, "estimator.seed"),
    (("estimator", "workers"), 1.7, "estimator.workers"),
    (("awareness",), [[True, 2], [1]], "awareness[0][0]"),
    (("info", 0, "1"), {"cells": [[0.7], [1]]}, "info[0].1.cells[0][0]"),
], ids=["bidders", "bidders-bool", "samples", "seed", "workers", "awareness-bool",
        "cell-index"])
def test_non_integral_counts_exit_one_with_their_path(capsysbinary, tmp_path, where, value,
                                                      path):
    # each was once truncated (2.9 bidders ran as 2, a cell [0.7] as [0])
    # or read true as characteristic 1, and the command exited 0
    doc = _d1_doc()
    _set(doc, where, value)
    assert main(["revenue", "--scenario", _write(tmp_path, doc)]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.startswith(f"error: {path}: ".encode())
    whole = dict(_d1_doc(), bidders=2.0)
    whole["estimator"] = dict(whole["estimator"], samples=1000.0)
    assert parse_scenario(_write(tmp_path, whole))[2].n_samples == 1000


_LAW = ("characteristics", 0, "distributions", 0)


@pytest.mark.parametrize("name,where,value,path", [
    ("example1", _LAW, {"kind": "uniform", "lo": False, "hi": True},
     "characteristics[0].distributions[0].lo"),
    ("example1", _LAW + ("stdev",), 5, "characteristics[0].distributions[0].stdev"),
    ("example1", ("estimator", "sampels"), 50, "estimator.sampels"),
    ("example1", ("extra",), 1, "extra"),
    ("example1", ("characteristics", 1, "note"), "x", "characteristics[1].note"),
    ("example1", ("info", 0, "2"), {"cutpoints": [False]}, "info[0].2.cutpoints[0]"),
    ("example1", ("info", 0, "2"), {"cutpoints": [1.0], "cells": [[0]]}, "info[0].2.cells"),
    ("d1", _LAW + ("atoms", 1, 0), True, "characteristics[0].distributions[0].atoms[1][0]"),
    ("d1", _LAW + ("atoms", 1, 1), False, "characteristics[0].distributions[0].atoms[1][1]"),
    ("d1", _LAW + ("atoms",), 5, "characteristics[0].distributions[0].atoms"),
    ("d1", _LAW + ("atoms", 1), [2], "characteristics[0].distributions[0].atoms[1]"),
    ("example1", ("info", 0, "2"), {"cells": 5}, "info[0].2.cells"),
    ("example1", ("info", 0, "2"), {"cells": [[0], ["x"]]}, "info[0].2.cells[1][0]"),
    ("example1", ("info", 0, "2"), {"cutpoints": 5}, "info[0].2.cutpoints"),
    ("example1", ("bidders",), 0, "bidders"),
], ids=["law-bools", "law-stray-key", "estimator-typo", "top-level-extra",
        "characteristic-extra", "cutpoint-bool", "info-extra", "atom-value-bool",
        "atom-mass-bool", "atoms-not-list", "atom-not-pair", "cells-not-list",
        "cell-index-string", "cutpoints-not-list", "no-bidders"])
def test_booleans_and_unknown_fields_exit_one_with_their_path(capsysbinary, tmp_path,
                                                              scenario_dir, name, where,
                                                              value, path):
    # each of these once ran with exit 0 (false and true as 0 and 1, an
    # unknown key ignored) or named a parent of the field at fault (a
    # scalar where a list belongs, no bidders)
    doc = json.loads((scenario_dir / f"{name}.json").read_text())
    _set(doc, where, value)
    assert main(["fees", "--scenario", _write(tmp_path, doc), "--samples", "1000"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.startswith(f"error: {path}: ".encode())
    assert captured.err.count(path.encode()) == 1


@pytest.mark.parametrize("where,value,path", [
    (_LAW + ("atoms", 0, 0), "1/0", "characteristics[0].distributions[0].atoms[0][0]"),
    (_LAW + ("atoms", 0, 1), "1/0", "characteristics[0].distributions[0].atoms[0][1]"),
    (("info", 0, "02"), "full", "info[0].02"),
    (("info", 0, "x"), "full", "info[0].x"),
    (("info", 0, "1"), {"cells": [[0], [0]]}, "info[0].1"),
    (_LAW + ("atoms", 1, 0), "1e309", "characteristics[0].distributions[0]"),
], ids=["atom-value-zero-denominator", "atom-mass-zero-denominator", "info-id-twice",
        "info-id-not-a-number", "partition-misfit", "atom-past-double"])
def test_fields_refused_at_their_path(capsysbinary, tmp_path, where, value, path):
    # "1/0" once ended in a ZeroDivisionError traceback, "1e309" in an
    # OverflowError; "02" beside "2" silently replaced bidder 1's level for
    # characteristic 2; a partition's misfit and a non-numeric id were
    # reported without the key at fault
    doc = _d1_doc()
    _set(doc, where, value)
    assert main(["fees", "--scenario", _write(tmp_path, doc)]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.startswith(f"error: {path}: ".encode())
    assert captured.err.count(b"\n") == 1


def test_a_key_repeated_in_one_object_exits_one(capsysbinary, tmp_path):
    # json.load kept the last value, so this ran with seed 2
    text = json.dumps(_d1_doc()).replace('"seed": 1', '"seed": 1, "seed": 2')
    path = tmp_path / "scenario.json"
    path.write_text(text)
    assert main(["fees", "--scenario", str(path)]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err == b"error: estimator.seed: key repeated in its object\n"


def test_awareness_ids_are_counts(tmp_path):
    # awareness ids read like every other count: an integral float or an
    # integer string stands for its integer
    doc = _d1_doc()
    doc["awareness"] = [[1.0, "2"], ["1"]]
    assert parse_scenario(_write(tmp_path, doc)) == parse_scenario(_write(tmp_path, _d1_doc()))


def test_unreadable_scenario_file_exits_one_with_its_path(capsysbinary, tmp_path):
    # a directory, bytes that are not UTF-8 and nesting past the decoder's
    # recursion limit each once ended in a traceback
    (tmp_path / "latin1.json").write_bytes(b'{"bidders": "\xff"}')
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    for path, reason in ((tmp_path, "Is a directory"),
                         (tmp_path / "missing.json", "No such file or directory"),
                         (tmp_path / "latin1.json", "'utf-8' codec can't decode byte 0xff"),
                         (tmp_path / "deep.json", "maximum recursion depth exceeded")):
        assert main(["fees", "--scenario", str(path)]) == 1
        captured = capsysbinary.readouterr()
        assert captured.out == b""
        assert captured.err.startswith(f"error: {path}: {reason}".encode())
        assert captured.err.count(b"\n") == 1


@pytest.mark.parametrize("flag,value,message", [
    ("--samples", "0", "n_samples must be positive"),
    ("--seed", "-1", "seed must be in 0..2**64-1, got -1"),
])
def test_refused_flag_is_named(capsysbinary, scenario_dir, flag, value, message):
    status = main(["fees", "--scenario", str(scenario_dir / "d1.json"), flag, value])
    captured = capsysbinary.readouterr()
    assert (status, captured.out) == (1, b"")
    assert captured.err == f"error: {flag}: {message}\n".encode()


def test_readme_field_table_matches_the_parser_tables():
    # each row names a reader (cli._<reader>) and the fields it reads; the
    # parser's side walks its tables, lists unwrapped
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Scenario files")[1].split("\n### ")[0]
    rows = [line.split("|")[1:3] for line in section.splitlines()
            if line.startswith("| ") and not line.startswith(("| Reader", "| ---"))]
    documented = {getattr(cli, f"_{reader.strip()}"): set(re.findall(r"`(\w+)`", fields))
                  for reader, fields in rows}
    parsed = collections.defaultdict(set)

    def walk(key, read):
        if isinstance(read.item, dict):
            for field, inner in read.item.items():
                walk(field, inner)
        elif read.item is not None:
            walk(key, read.item)
        else:
            parsed[read].add(key)

    walk("", cli._TOP)
    # each info map is read once the laws are known: its ids by the count
    # reader, its levels by cli._level
    del parsed[cli._TOP.item["info"].item]
    walk("info", cli._level)
    parsed[cli._count].add("info")
    assert documented == parsed


def test_bundled_scenarios_name_only_known_fields(scenario_dir):
    # every bundled scenario still parses, and reads the fields it names
    for path in sorted(scenario_dir.glob("*.json")):
        parse_scenario(str(path))


def test_revenue_command_on_d1(capsysbinary, scenario_dir):
    status, out = run_cli(capsysbinary,
                          ["revenue", "--scenario", str(scenario_dir / "d1.json")])
    assert status == 0
    text = out.decode()
    assert text.splitlines()[0] == "field,value,stderr,backend"
    assert "total_revenue,1.75,,exact" in text
    assert "total_revenue_exact,7/4,,exact" in text
    assert "consistency_residual,0,,exact" in text


def test_orderstats_command_reports_example1_reference(capsysbinary, scenario_dir):
    status, out = run_cli(capsysbinary,
                          ["orderstats", "--scenario", str(scenario_dir / "example1.json")])
    assert status == 0
    text = out.decode()
    assert "reference_expected_first_order_stat_exact,505/132,,exact" in text
    assert "agreement_1e9,1" in text


def test_orderstats_command_reports_clark_reference(capsysbinary, scenario_dir):
    status, out = run_cli(capsysbinary,
                          ["orderstats", "--scenario", str(scenario_dir / "example2.json")])
    assert status == 0
    text = out.decode()
    assert "reference_expected_first_order_stat" in text
    assert ",clark" in text
    assert "agreement_1e9,1" in text


COMMANDS = {
    "d1.json": [["fees"], ["revenue"], ["curse"], ["orderstats"],
                ["tradeoff", "--bidder", "2", "--char", "2"],
                ["optimize", "--regime", "individual"]],
    "example1.json": [["fees", "--samples", "20000"],
                      ["revenue", "--samples", "20000"],
                      ["curse", "--samples", "20000"],
                      ["orderstats"],
                      ["optimize", "--regime", "public-no-info", "--samples", "20000"],
                      ["optimize", "--regime", "public-full-info", "--samples", "20000"]],
    "example1_discrete.json": [["fees"], ["revenue"], ["curse"], ["orderstats"],
                               ["optimize", "--regime", "public-full-info"]],
    "example2.json": [["fees", "--samples", "20000"],
                      ["revenue", "--samples", "20000"],
                      ["orderstats"]],
    "prop4_demo.json": [["revenue", "--samples", "20000"],
                        ["optimize", "--regime", "public-no-info", "--samples", "20000"]],
    "prop5_demo.json": [["optimize", "--regime", "public-full-info", "--samples", "20000"]],
    "prop6_demo.json": [["revenue"], ["optimize", "--regime", "common-free-info"]],
    "curse_demo.json": [["curse"], ["revenue"]],
}


@pytest.mark.parametrize("name,extra", [
    (name, extra) for name, cmds in COMMANDS.items() for extra in cmds])
def test_bundled_scenarios_run_all_commands(capsysbinary, scenario_dir, name, extra):
    path = scenario_dir / name
    status, out = run_cli(capsysbinary,
                          [extra[0], "--scenario", str(path), *extra[1:]])
    assert status == 0
    assert out.startswith(b"field,value,stderr,backend\n")


def test_output_is_byte_stable(capsysbinary, scenario_dir):
    args = ["revenue", "--scenario", str(scenario_dir / "d1.json")]
    _s1, out1 = run_cli(capsysbinary, args)
    _s2, out2 = run_cli(capsysbinary, args)
    assert out1 == out2
    args_mc = ["fees", "--scenario", str(scenario_dir / "example1.json"),
               "--samples", "20000", "--seed", "3"]
    _s1, mc1 = run_cli(capsysbinary, args_mc)
    _s2, mc2 = run_cli(capsysbinary, args_mc)
    assert mc1 == mc2


@pytest.mark.parametrize("seed", ["-5", str((1 << 64) + 3)])
def test_seeds_outside_u64_exit_one(capsysbinary, scenario_dir, tmp_path, seed):
    # each once ran as the seed equal to it modulo 2^64 and exited 0
    path = scenario_dir / "example1.json"
    status, out = run_cli(capsysbinary, ["revenue", "--scenario", str(path),
                                         "--samples", "20000", "--seed", seed])
    assert (status, out) == (1, b"")
    doc = json.loads(path.read_text())
    doc["estimator"]["seed"] = int(seed)
    assert main(["revenue", "--scenario", _write(tmp_path, doc), "--samples", "20000"]) == 1
    captured = capsysbinary.readouterr()
    assert captured.out == b""
    assert captured.err.startswith(b"error: estimator: seed must be in 0..2**64-1")


def test_text_format_alignment(capsysbinary, scenario_dir):
    status, out = run_cli(capsysbinary,
                          ["revenue", "--scenario", str(scenario_dir / "d1.json"),
                           "--format", "text"])
    assert status == 0
    lines = out.decode().split("\n")
    assert lines[0].startswith("field")
    assert b"\r" not in out


def test_emit_rejects_unknown_format():
    from awarebid.cli import ReportDocument
    rep = ReportDocument()
    rep.add("x", 1)
    with pytest.raises(ParseError):
        emit(rep, "yaml")


def test_exit_codes_for_input_errors(capsysbinary, tmp_path):
    assert main(["revenue", "--scenario", str(tmp_path / "missing.json")]) == 1
    assert main(["revenue", "--no-such-flag"]) == 1
    assert main(["bogus-command"]) == 1
    doc = _d1_doc()
    doc["awareness"][1] = [2]
    assert main(["revenue", "--scenario", _write(tmp_path, doc)]) == 1
    capsysbinary.readouterr()


def _infinite_normal_doc(field):
    normal = {"kind": "normal", "mean": 1.0, "stddev": 1.0}
    return {
        "bidders": 2,
        "characteristics": [{"distributions": [dict(normal, **{field: float("inf")}),
                                               normal]}],
        "awareness": [[1], [1]],
        "info": [{"1": "full"}, {"1": "full"}],
        "estimator": {"backend": "mc", "samples": 1000, "seed": 1},
    }


@pytest.mark.parametrize("field", ["mean", "stddev"])
def test_revenue_rejects_infinite_normal_parameter(capsysbinary, tmp_path, field):
    path = _write(tmp_path, _infinite_normal_doc(field))
    assert "Infinity" in pathlib.Path(path).read_text()
    status = main(["revenue", "--scenario", path])
    captured = capsysbinary.readouterr()
    assert status == 1
    assert captured.out == b""
    assert b"characteristics[0].distributions[0]" in captured.err
    assert b"finite " + field.encode() in captured.err


@pytest.mark.parametrize("command, law", [
    ("revenue", {"kind": "discrete", "atoms": [[0, "1/2"], [1e308, "1/2"]]}),
    ("fees", {"kind": "normal", "mean": 0, "stddev": 1e300}),
])
def test_mc_overflow_exits_one_without_rows(capsysbinary, scenario_dir, tmp_path,
                                            command, law):
    # finite laws whose Monte Carlo sums (or sums of squares) overflow double
    # precision: an error naming the field, no inf or NaN rows, no warning.
    # fees computes no order statistic: its first field is bidder 1's fee
    field = {"revenue": b"first", "fees": b"surplus_perc_1"}[command]
    doc = json.loads((scenario_dir / "example1.json").read_text())
    doc["characteristics"][1]["distributions"] = [law, law]
    status = main([command, "--scenario", _write(tmp_path, doc), "--samples", "1000"])
    captured = capsysbinary.readouterr()
    assert status == 1
    assert captured.out == b""
    assert captured.err.startswith(b"error: Monte Carlo estimate '" + field
                                   + b"' is not finite")


@pytest.mark.parametrize("law", [
    {"kind": "discrete", "atoms": [[0, "1/2"], [1e308, "1/2"]]},
    {"kind": "normal", "mean": 0, "stddev": 1e300},
], ids=["discrete", "normal"])
def test_mc_overflow_in_a_search_exits_one_without_rows(capsysbinary, scenario_dir,
                                                        tmp_path, law):
    # the scoring pass rejects a non-finite revenue score; an overflow only
    # in sums of squares is rejected by the winner's report pass
    doc = json.loads((scenario_dir / "example1.json").read_text())
    doc["characteristics"][1]["distributions"] = [law, law]
    status = main(["optimize", "--scenario", _write(tmp_path, doc), "--regime", "individual",
                   "--samples", "1000"])
    captured = capsysbinary.readouterr()
    assert status == 1
    assert captured.out == b""
    assert captured.err.startswith(b"error: Monte Carlo estimate '")
    assert b"is not finite" in captured.err


def _sum_doc(m, law):
    """2 bidders aware of m characteristics, fully informed; ``law(j, d)``
    is characteristic j's law for the bidder with offset d in {0, 1}."""
    return {"bidders": 2,
            "characteristics": [{"distributions": [law(j, 0), law(j, 1)]}
                                for j in range(1, m + 1)],
            "awareness": [list(range(1, m + 1))] * 2,
            "info": [{str(j): "full" for j in range(1, m + 1)}] * 2,
            "estimator": {"backend": "exact"}}


def test_exact_fold_past_the_bound_exits_one_promptly(capsysbinary, tmp_path):
    # 13 three-atom characteristics whose sums collapse: bidder 1's bid folds
    # to 2,835 points, not 3^13, so the exact backend answers
    def collapsing(j, d):
        return {"kind": "discrete", "atoms": [[f"{j + d}/3", "1/4"], [f"{7 * j + 1 + d}/7", "1/4"],
                                              [f"{5 * j + 12 + d}/5", "1/2"]]}

    path = _write(tmp_path, _sum_doc(13, collapsing))
    status = main(["revenue", "--scenario", path, "--backend", "exact"])
    captured = capsysbinary.readouterr()
    assert status == 0 and b"total_revenue" in captured.out

    # 11 characteristics over distinct prime denominators: every sum is
    # distinct, 3^11 points, past the bound of 2^16; both the exact backend
    # and the analytic laws refuse the fold within a second, naming it
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]

    def distinct(j, d):
        p = primes[j - 1]
        return {"kind": "discrete", "atoms": [[f"{d}/{p}", "1/4"], [f"{1 + d}/{p}", "1/4"],
                                              [f"{2 + d}/{p}", "1/2"]]}

    path = _write(tmp_path, _sum_doc(11, distinct))
    for args in (["revenue", "--backend", "exact"], ["orderstats"]):
        start = time.perf_counter()
        status = main([args[0], "--scenario", path, *args[1:]])
        elapsed = time.perf_counter() - start
        captured = capsysbinary.readouterr()
        assert status == 1 and captured.out == b""
        assert captured.err.startswith(b"error: bidder 1's bid over characteristics "
                                       + str(list(range(1, 12))).encode())
        assert str(2 ** 16).encode() in captured.err
        assert elapsed < 1.0


def test_a_bid_past_double_range_names_its_column(capsysbinary, scenario_dir, tmp_path):
    # every atom is a finite double, but bidder 1's bid over both
    # characteristics starts at 2e308: its folded law is refused naming the
    # column, as a fold past the bound is, not an atom the file never wrote
    doc = json.loads((scenario_dir / "d1.json").read_text())
    law = {"kind": "discrete", "atoms": [[1e308, "1/2"], [1.7e308, "1/2"]]}
    for char in doc["characteristics"]:
        char["distributions"] = [law, law]
    status = main(["orderstats", "--scenario", _write(tmp_path, doc)])
    captured = capsysbinary.readouterr()
    assert status == 1 and captured.out == b""
    assert captured.err == (b"error: bidder 1's bid over characteristics [1, 2]: discrete law "
                            b"needs a finite values[0], got a rational past 1.8e308\n")


def _package_env():
    """Environment for a child interpreter that imports this awarebid."""
    src = str(pathlib.Path(awarebid.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_orderstats_on_infinite_mean_exits_promptly(tmp_path):
    # a separate process, so a relapse into unbounded quadrature fails the
    # timeout instead of hanging the suite
    path = _write(tmp_path, _infinite_normal_doc("mean"))
    done = subprocess.run([sys.executable, "-m", "awarebid.cli", "orderstats",
                           "--scenario", path],
                          capture_output=True, env=_package_env(), timeout=30)
    assert done.returncode == 1
    assert done.stdout == b""
    assert b"characteristics[0].distributions[0]" in done.stderr


def test_importing_the_cli_leaves_scipy_special_unloaded():
    # scipy.special is only needed by normal laws; every command pays its import
    code = "import sys, awarebid.cli; print('scipy.special' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=_package_env(), timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == b"False"


def test_verify_command_exit_zero(capsysbinary):
    status, out = run_cli(capsysbinary, ["verify", "--count", "3", "--corpus-seed", "0"])
    assert status == 0
    assert b"failures,0" in out


def test_verify_command_exit_two_on_injected_failure(capsysbinary, monkeypatch):
    def fake_suite(cfg):
        bad = ClaimResult("Prop2", "injected", True, False, -1)
        return VerificationReport((bad,), cfg)

    monkeypatch.setattr(cli, "verify_suite", fake_suite)
    status, out = run_cli(capsysbinary, ["verify", "--count", "1"])
    assert status == 2
    assert b"failures,1" in out


@pytest.mark.parametrize("bidder,char", [("0", "2"), ("3", "2"), ("2", "0"), ("2", "3")])
def test_tradeoff_rejects_out_of_range_bidder_and_char(capsysbinary, scenario_dir, bidder, char):
    # d1 has 2 bidders and 2 characteristics; bidder 0 used to wrap to bidder 2
    status = main(["tradeoff", "--scenario", str(scenario_dir / "d1.json"),
                   "--bidder", bidder, "--char", char, "--backend", "exact"])
    captured = capsysbinary.readouterr()
    assert status == 1
    assert captured.out == b""
    assert captured.err.startswith(b"error: ")
    assert b"outside" in captured.err


@pytest.mark.parametrize("count", ["-1", "0"])
def test_verify_rejects_count_below_one(capsysbinary, count):
    status = main(["verify", "--count", count])
    captured = capsysbinary.readouterr()
    assert status == 1
    assert captured.out == b""
    assert captured.err.startswith(b"error: --count: ")


GOLDEN = [(f"{name}-{cmd}.csv", [cmd, "--scenario", f"{name}.json", "--backend", "exact"])
          for name in ("d1", "example1_discrete", "curse_demo", "prop6_demo")
          for cmd in ("fees", "revenue", "curse", "orderstats")]
GOLDEN += [("d1-tradeoff.csv", ["tradeoff", "--scenario", "d1.json", "--bidder", "2",
                                "--char", "2", "--backend", "exact"]),
           ("verify-20.csv", ["verify", "--count", "20"])]


@pytest.mark.parametrize("golden,args", GOLDEN, ids=[g for g, _a in GOLDEN])
def test_exact_cli_output_is_byte_identical(capsysbinary, scenario_dir, golden, args):
    # golden files hold the output of the product-enumeration exact backend
    # this sweep replaced; exact results must not move by a byte
    args = [str(scenario_dir / a) if a.endswith(".json") else a for a in args]
    status, out = run_cli(capsysbinary, args)
    assert status == 0
    assert out == (GOLDEN_DIR / golden).read_bytes()


MC_GOLDEN = [
    ("example1-optimize-individual.csv",
     ["optimize", "--scenario", "example1.json", "--regime", "individual"]),
    ("prop5_demo-optimize-individual.csv",
     ["optimize", "--scenario", "prop5_demo.json", "--regime", "individual"]),
    ("example1-tradeoff.csv",
     ["tradeoff", "--scenario", "example1.json", "--bidder", "2", "--char", "2"]),
    # the one golden whose winner is scored, so its report is settled
    # through the scoring pass's handle
    ("hiding_demo-optimize-individual.csv",
     ["optimize", "--scenario", "hiding_demo.json", "--regime", "individual"]),
]


@pytest.mark.parametrize("golden,args", MC_GOLDEN, ids=[g for g, _a in MC_GOLDEN])
def test_mc_cli_output_is_byte_identical(capsysbinary, scenario_dir, golden, args):
    # golden files hold the output of the per-policy Monte Carlo route that
    # batched candidate scoring replaced; on the same seed and draws the
    # estimates must not move by a byte
    args = [str(scenario_dir / a) if a.endswith(".json") else a for a in args]
    status, out = run_cli(capsysbinary, args)
    assert status == 0
    assert out == (GOLDEN_DIR / golden).read_bytes()


@pytest.mark.parametrize("golden,args", MC_GOLDEN[:2], ids=[g for g, _a in MC_GOLDEN[:2]])
def test_mc_optimize_draws_each_chunk_once(capsysbinary, scenario_dir, monkeypatch,
                                           golden, args):
    # both winners have common awareness, so their search value is analytic;
    # their report bundle comes from the one batched pass, not a second one
    starts = []
    stock = engine._uniform_chunk

    def counting(seed, start, stop, n, m):
        starts.append(start)
        return stock(seed, start, stop, n, m)

    monkeypatch.setattr(engine, "_uniform_chunk", counting)
    args = [str(scenario_dir / a) if a.endswith(".json") else a for a in args]
    status, out = run_cli(capsysbinary, args)
    assert status == 0
    assert out == (GOLDEN_DIR / golden).read_bytes()
    _s, _p, cfg = parse_scenario(args[2])
    assert starts == list(range(0, cfg.n_samples, engine._CHUNK))


ANALYTIC_GOLDEN = [
    (f"{name}-orderstats.csv", ["orderstats", "--scenario", f"{name}.json"])
    for name in ("example2", "prop4_demo", "prop5_demo")]
ANALYTIC_GOLDEN += [
    (f"{name}-optimize-{regime}.csv",
     ["optimize", "--scenario", f"{name}.json", "--regime", regime])
    for name, regime in (("prop4_demo", "common-free-info"),
                         ("prop5_demo", "common-free-info"),
                         ("example2", "public-full-info"),
                         ("prop4_demo", "public-no-info"),
                         ("example1", "public-no-info"))]


@pytest.mark.parametrize("golden,args", ANALYTIC_GOLDEN, ids=[g for g, _a in ANALYTIC_GOLDEN])
def test_analytic_cli_output_is_byte_identical(capsysbinary, scenario_dir, golden, args):
    # golden files hold the output of the quadrature that evaluated knot
    # interval ends at the knots themselves; the one-sided end values must
    # not move a printed digit
    args = [str(scenario_dir / a) if a.endswith(".json") else a for a in args]
    status, out = run_cli(capsysbinary, args + ["--samples", "20000"])
    assert status == 0
    assert out == (GOLDEN_DIR / golden).read_bytes()


def test_every_golden_file_is_compared():
    # a golden file that drops out of every parametrization would silently
    # stop guarding byte-identity; test_disclosure reads verify-claims-20.csv
    compared = {g for table in (GOLDEN, MC_GOLDEN, ANALYTIC_GOLDEN) for g, _a in table}
    assert len(compared) == sum(map(len, (GOLDEN, MC_GOLDEN, ANALYTIC_GOLDEN)))
    assert {f.name for f in GOLDEN_DIR.iterdir()} == compared | {"verify-claims-20.csv"}


def test_public_names_resolve():
    # every __all__ entry of every module, and every name the package root
    # imports, is a live public name of its module: a deleted function
    # leaves no stale export behind
    for info in pkgutil.iter_modules(awarebid.__path__):
        mod = importlib.import_module(f"awarebid.{info.name}")
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), (info.name, name)
    tree = ast.parse(pathlib.Path(awarebid.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert imported
    for module, name in imported:
        mod = importlib.import_module(f"awarebid.{module}")
        assert name in mod.__all__, (module, name)
        assert getattr(awarebid, name) is getattr(mod, name)
