import json
import os
import pathlib
import subprocess
import sys

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
    # precision: an error naming the field, no inf or NaN rows, no warning
    doc = json.loads((scenario_dir / "example1.json").read_text())
    doc["characteristics"][1]["distributions"] = [law, law]
    status = main([command, "--scenario", _write(tmp_path, doc), "--samples", "1000"])
    captured = capsysbinary.readouterr()
    assert status == 1
    assert captured.out == b""
    assert captured.err.startswith(b"error: Monte Carlo estimate 'first' is not finite")


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
