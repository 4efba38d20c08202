"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench/tests

The smoke runs execute one round of every workload untraced and a few
rounds traced, so the file takes a few minutes.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def test_self_times_on_synthetic_span_tree():
    #   0 [0, 10]
    #   +- 1 [1, 4]
    #   |  +- 2 [2, 3]
    #   +- 3 [5, 9]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    assert tracer.self_times(start, end, parent).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_layer_totals_and_nesting_from_recorded_spans():
    tr = tracer.Tracer()
    inner = tr._wrapper("inner", lambda: None, None)
    outer = tr._wrapper("outer", lambda: (inner(), inner()), None)
    outer()
    totals = tr.layer_totals()
    assert totals["outer"][0] == 1 and totals["inner"][0] == 2
    assert tr.calls_under("inner", "outer") == 2
    calls, self_s, incl = totals["outer"]
    assert 0 <= self_s <= incl


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail(list(range(1, 101))) == (90, 90.0)
    assert run.tail(list(range(1, 1001))) == (990, 99.0)
    assert run.tail(list(range(1, 20))) == (19, 100.0)


def test_gated_latencies_are_each_ops_median_in_host_reference_units():
    # "a" ran while the host was twice as slow (reference 2.0); "b" has an
    # outlier that its median ignores
    samples = [run.Sample("a", s, True, 1.0, ref_s=r)
               for s, r in ((1.0, 1.0), (2.4, 2.0), (2.2, 2.0))]
    samples += [run.Sample("b", s, True, 1.0, ref_s=0.5) for s in (2.0, 2.2, 20.0)]
    gated, info = run.end_to_end(samples, 60.0, [0.3, 0.2, 0.4], "units")
    assert gated["round_p50_ref"][0] == pytest.approx(1.1 + 4.4)
    assert gated["op_p50_ref"][0] == pytest.approx((1.1 * 4.4) ** 0.5)
    assert gated["setup_s"][0] == 0.3
    assert info["round_p50_s"][0] == pytest.approx(2.2 + 2.2)
    assert info["ops_per_s"][0] == pytest.approx(0.1)
    assert run.host_reference() > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_exactly_the_declared_metrics(workload):
    metrics, _info, samples = run.measure(workload, seed=7, seconds=0, trace=False)
    assert samples and all(s.ok for s in samples)
    assert {k: v[1] for k, v in metrics.items()} == END_TO_END
    assert all(v[0] > 0 for v in metrics.values())

    metrics, _info, samples = run.measure(workload, seed=7, seconds=0, trace=True)
    assert samples and all(s.ok for s in samples)
    assert {k: v[1] for k, v in metrics.items()} == PER_LAYER


def test_printed_result_line_matches_benchmark_json():
    for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "exact-verify",
             "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: m["unit"] for k, m in result["metrics"].items()} == names


def test_traced_counts_do_not_depend_on_seconds():
    counts = [{k: v[0] for k, v in run.measure("exact-verify", seed=5, seconds=secs,
                                               trace=True)[0].items()
               if k.endswith((".calls", ".rows", ".values", ".combinations", ".claims",
                              ".candidates", ".points", ".draws_generated"))}
              for secs in (0, 30)]
    assert counts[0] == counts[1]
    assert counts[0]["engine.exact.calls"] > 0


def test_untraced_run_leaves_awarebid_unpatched():
    run.import_program()
    before = tracer.snapshot()
    run.measure("exact-verify", seed=5, seconds=0, trace=False)
    assert tracer.snapshot() == before


def test_patch_wraps_callers_names_and_unpatch_restores():
    run.import_program()
    from awarebid import disclosure, distributions, engine, fees, orderstats

    before = tracer.snapshot()
    tr = tracer.Tracer()
    tr.patch()
    try:
        assert hasattr(engine.ppf, "__wrapped__") and engine.ppf is distributions.ppf
        assert hasattr(fees.estimate, "__wrapped__")
        assert hasattr(disclosure.revenue, "__wrapped__")
        assert hasattr(orderstats.OrderStatLaw.cdf, "__wrapped__")
        law = orderstats.OrderStatLaw((distributions.UniformContinuous(0, 1),) * 2, 1)
        assert law.cdf(np.array([0.5, 1.0])).tolist() == [0.25, 1.0]
    finally:
        tr.unpatch()
    assert tracer.snapshot() == before
    totals = tr.layer_totals()
    assert totals["orderstats.cdf"][0] == 1 and totals["distributions.cdf"][0] == 2
    assert tr.counters[("orderstats.cdf", "points")] == 2
