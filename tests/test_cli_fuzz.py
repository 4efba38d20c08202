"""Mutation fuzzing of the bundled scenarios: every CLI run either exits 0
with finite rows or exits 1 with one ``error: ...`` line, never a traceback."""

import copy
import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from awarebid.cli import main
from conftest import SCENARIO_DIR

DOCS = {path.name: json.loads(path.read_text()) for path in SCENARIO_DIR.glob("*.json")}

COMMANDS = [["fees"], ["revenue"], ["curse"], ["orderstats"],
            ["tradeoff", "--bidder", "2", "--char", "2"],
            ["optimize", "--regime", "individual"],
            ["optimize", "--regime", "public-full-info"]]

# numeric and non-finite strings, magnitudes near double precision's ends,
# huge integers, out-of-range ids and masses that break a law's sum; VALUES
# adds type swaps and booleans
NUMBERS = ["2", "1/3", "1/0", "0/1", "nan", "inf", "-inf", "1e309", 1e308, -1e308, 1.7e308,
           1e-308, 5e-324, -5e-324, 1e200, 1e-200, 10 ** 30, -(2 ** 64), 2 ** 64, 0, -1, 1, 2, 3,
           1.0, 1.5, 0.3, "0.3"]
VALUES = NUMBERS + [True, False, None, "x", [], {}, [1], [[0]], {"x": 1}, "none", "full",
                    {"cutpoints": [0.0]}, "mc", "exact"]
KEYS = ["0", "-1", "3", "4", "01", "x", "1.0", "new\nline", "extra", "kind", "cells", "cutpoints"]


def _nodes(node, at=()):
    """The path of every value in a JSON tree, the root included."""
    yield at
    items = node.items() if isinstance(node, dict) else enumerate(node) \
        if isinstance(node, list) else ()
    for key, child in items:
        yield from _nodes(child, at + (key,))


def _get(doc, at):
    for key in at:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw):
    """A bundled scenario with one to three mutations."""
    doc = copy.deepcopy(DOCS[draw(st.sampled_from(sorted(DOCS)))])
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["number", "number", "set", "drop", "add", "reverse", "repeat"]))
        at = draw(st.sampled_from([at for at in _nodes(doc) if op != "number" or isinstance(
            _get(doc, at), (int, float)) and not isinstance(_get(doc, at), bool)]))
        node = _get(doc, at)
        if op == "number":
            _get(doc, at[:-1])[at[-1]] = draw(st.sampled_from(NUMBERS))
        elif op == "set" and at:
            _get(doc, at[:-1])[at[-1]] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        elif op == "drop" and at:
            del _get(doc, at[:-1])[at[-1]]
        elif op == "add" and isinstance(node, dict):
            node[draw(st.sampled_from(KEYS))] = copy.deepcopy(draw(st.sampled_from(VALUES)))
        elif op == "reverse" and isinstance(node, list):
            node.reverse()           # unsorted atoms, cells and cutpoints
        elif op == "repeat" and isinstance(node, list) and node:
            node.append(copy.deepcopy(node[0]))     # a duplicate atom, id or law
    return doc


def _check_outcome(status, out, err):
    if status == 0:
        assert err == b""
        rows = out.decode().splitlines()
        assert rows[0] == "field,value,stderr,backend"
        for row in rows[1:]:
            for cell in row.split(",")[1:3]:
                try:
                    value = float(cell)
                except ValueError:           # p/q, a decision, an awareness set
                    continue
                assert math.isfinite(value), row
    else:
        assert (status, out) == (1, b"")
        lines = err.decode().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), err


@settings(max_examples=300, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=mutated(), command=st.sampled_from(COMMANDS))
def test_mutated_scenarios_exit_zero_with_finite_rows_or_one_with_an_error(
        capsysbinary, tmp_path, doc, command):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    status = main([command[0], "--scenario", str(path), "--samples", "2000", *command[1:]])
    captured = capsysbinary.readouterr()
    _check_outcome(status, captured.out, captured.err)


def _law(j, i, *field):
    return ("characteristics", j, "distributions", i) + field


# classes the harness found: each once ended in a traceback or printed a
# numpy warning beside its result
FOUND = [
    ("example1", [(_law(0, 0, "hi"), 5e-324)], ["orderstats"],
     "density past double precision's range"),
    ("example1", [(_law(0, 1, "hi"), 1e-308)], ["optimize", "--regime", "individual"], None),
    ("hiding_demo", [(_law(1, 0, "stddev"), 1e308)], ["optimize", "--regime", "public-full-info"],
     "is not finite"),
    ("hiding_demo", [(_law(0, 0, "lo"), -1e308)], ["optimize", "--regime", "public-full-info"],
     "is not finite"),
    # the search's winner hides this law from bidder 1, and its report
    # reads no hidden value, so only the curse report overflows
    ("hiding_demo", [(_law(1, 0, "stddev"), 1.7e308)], ["optimize", "--regime", "individual"],
     None),
    ("hiding_demo", [(("awareness", 0), [1]), (("info", 0), {"1": "full"}),
                     (_law(1, 0, "stddev"), 1.7e308)], ["curse"],
     "Monte Carlo estimate 'hidden_1' is not finite"),
    ("d1", [(_law(j, i, "atoms", 1, 0), 1.7e308) for j in (0, 1) for i in (0, 1)], ["revenue"],
     "expected_first_order_stat is not finite in double precision"),
]


@pytest.mark.parametrize("name,edits,command,error", FOUND,
                         ids=["narrow-uniform", "narrow-uniform-search", "huge-stddev",
                              "huge-uniform", "huge-stddev-hidden", "huge-stddev-hidden-curse",
                              "exact-sum-past-double"])
def test_found_classes_keep_one_outcome(capsysbinary, tmp_path, name, edits, command, error):
    doc = copy.deepcopy(DOCS[f"{name}.json"])
    for at, value in edits:
        _get(doc, at[:-1])[at[-1]] = value
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    status = main([command[0], "--scenario", str(path), "--samples", "2000", *command[1:]])
    captured = capsysbinary.readouterr()
    _check_outcome(status, captured.out, captured.err)
    assert status == (0 if error is None else 1)
    assert error is None or error.encode() in captured.err
