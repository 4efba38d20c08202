#!/usr/bin/env python3
"""awarebid benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload as a single closed-loop client in this process: the next
op starts when the previous one has returned and its output has passed the
op's oracle.  The loop repeats whole rounds of the workload's op list until
``--seconds`` have passed.  Estimators use one worker and no threads.

With ``--trace 0`` it prints the end-to-end metrics: set-up time (the median
over this process and a few fresh processes, each importing awarebid,
parsing the bundled scenarios and generating the seeded inputs), the time of
one round and of a typical op in host-reference units (each op's seconds
over ``host_reference()`` taken right after it), the share of ops that
passed and peak memory.  With
``--trace 1`` it runs one untimed warm-up round, then every op of the first
``TRACE_ROUNDS`` rounds twice, once untraced and once with the layer
functions wrapped (see tracer.py), alternating which goes first.  It prints
the per-layer split of the traced rounds plus the tracing overhead.  The
traced rounds are fixed, whatever ``--seconds`` says, so their counts and
self times measure the same work on every commit.  The last line of stdout
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
spans of a traced run are written to ``perfbench/out/trace-<workload>.npz``.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

# one process, one thread: keep numpy's BLAS from starting worker threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 4                     # fresh processes timed for setup_s
TRACE_ROUNDS = 2                     # rounds replayed untraced and traced (even)
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
REF_REPS = 4                         # timed repetitions per host_reference() call


def import_program():
    """Import awarebid from this checkout's sources and nowhere else."""
    pkg = SRC / "awarebid"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: awarebid sources not found at {pkg}")
    sys.path.insert(0, str(SRC))
    import awarebid
    if Path(awarebid.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported awarebid from {awarebid.__file__}, not {pkg}")
    return awarebid


@dataclass
class Sample:
    label: str
    seconds: float
    ok: bool
    work: float
    ref_s: float = math.nan          # host_reference() right after the op


@functools.cache
def _reference_input():
    import numpy as np      # here, not at the top: setup_s includes numpy's import
    return np.random.default_rng(0).normal(size=1 << 15)


def _reference_unit() -> None:
    """Fixed work that uses no awarebid code: array work (sort, cumulative
    sum and exp of 2^15 normals) and interpreter work (Fraction arithmetic
    and dict updates), the two kinds the workloads spend their time on."""
    import numpy as np
    x = _reference_input()
    np.cumsum(np.sort(x))
    np.exp(x).sum()
    acc, counts = Fraction(0), {}
    for i in range(1, 60):
        acc += Fraction(i, i + 3) * Fraction(2 * i + 1, 7)
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i


def host_reference() -> float:
    """Seconds the host takes for ``_reference_unit``: the median of REF_REPS
    timed repetitions after one untimed one, which refills the caches the
    preceding op evicted.  The garbage collector is off meanwhile, so the
    size of awarebid's heap does not enter the reference.

    The shared host this benchmark is made for runs the same code up to a
    third faster or slower from one minute to the next.  Dividing each op's
    time by this reference, taken right after the op, removes most of that
    drift from the gated metrics, while a change to awarebid still moves
    them in full; the raw seconds are printed beside them."""
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(REF_REPS + 1):
            t0 = time.perf_counter()
            _reference_unit()
            times.append(time.perf_counter() - t0)
    finally:
        if gc_was_on:
            gc.enable()
    return statistics.median(times[1:])


def run_op(op, tracer=None, op_id: int = 0) -> Sample:
    """Run one op, then its oracle, outside the op's time and untraced."""
    if tracer is not None:
        tracer.op_id, tracer.enabled = op_id, True
    t0 = time.perf_counter()
    try:
        out = op.run()
        err = None
    except Exception as exc:        # an op that raises counts as failed
        err = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.enabled = False
    if err is None:
        try:
            op.check(out)
        except Exception as exc:    # a wrong or malformed output
            err = exc
    if err is not None:
        print(f"FAILED {op.label}: {type(err).__name__}: {err}", file=sys.stderr)
    return Sample(op.label, dt, err is None, op.work)


def run_round(workload, k: int) -> list:
    """Run the ops of round ``k`` one after the other."""
    return [run_op(op) for op in workload.cycle(k)]


def closed_loop(workload, seconds: float):
    """Run whole rounds until ``seconds`` have passed (at least one), taking
    the host reference after every op; returns the samples and the wall
    seconds the loop took."""
    samples = []
    t_start = time.perf_counter()
    k = 0
    while True:
        for op in workload.cycle(k):
            samples.append(run_op(op))
            samples[-1].ref_s = host_reference()
        k += 1
        wall = time.perf_counter() - t_start
        if wall >= seconds:
            return samples, wall


def tail(latencies):
    """Latency at the highest ladder percentile that leaves at least ten
    samples beyond it (nearest rank), and that percentile; the maximum when
    no rung does."""
    n = len(latencies)
    p = next((p for p in TAIL_LADDER if n - math.ceil(p / 100 * n) >= 10), 100.0)
    return sorted(latencies)[max(1, math.ceil(p / 100 * n)) - 1], p


def op_medians(samples, key) -> dict:
    """Median of ``key(sample)`` for each kind of op (label) over the run."""
    by_label = {}
    for smp in samples:
        by_label.setdefault(smp.label, []).append(key(smp))
    return {label: statistics.median(xs) for label, xs in by_label.items()}


def setup_probe_times(workload: str, seed: int) -> list:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def git_commit() -> str:
    if not (ROOT / ".git").exists():    # keep git from searching parent directories
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import importlib.util

    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "commit": git_commit(),
    }


def end_to_end(samples, wall, setup_times, work_unit: str):
    """Gated metrics, name -> (value, unit, note), and ungated figures
    printed beside them, name -> (value, unit, note).

    Every op of a workload is deterministic work, so its latencies over a run
    differ only by host noise, while different ops differ by orders of
    magnitude.  Percentiles pooled over all ops therefore sit on the border
    between two kinds of op and jump between them from run to run; the gated
    figures take each kind's median instead, of its latency divided by the
    host reference taken right after it."""
    lat = [s.seconds for s in samples]
    med_ref = op_medians(samples, lambda s: s.seconds / s.ref_s)
    med_s = op_medians(samples, lambda s: s.seconds)
    tail_s, tail_p = tail(lat)

    def gmean(xs):
        return math.exp(statistics.fmean(math.log(x) for x in xs))

    gated = {
        "setup_s": (statistics.median(setup_times), "s",
                    f"median of {len(setup_times)} set-ups"),
        "round_p50_ref": (sum(med_ref.values()), "ref",
                          f"sum over {len(med_ref)} ops of their median"),
        "op_p50_ref": (gmean(med_ref.values()), "ref",
                       f"geometric mean over {len(med_ref)} ops of their median"),
        "ops_ok_ratio": (sum(s.ok for s in samples) / len(lat), "ratio",
                         "1 - ops_failed_ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB",
                        "this process"),
    }
    info = {
        "round_p50_s": (sum(med_s.values()), "s", "sum over ops of their median seconds"),
        "op_p50_gmean_s": (gmean(med_s.values()), "s",
                           "geometric mean over ops of their median seconds"),
        "host_reference_s": (statistics.median(s.ref_s for s in samples), "s",
                             f"median of {len(samples)}"),
        "op_p50_s": (statistics.median(lat), "s", f"pooled, {len(lat)} samples"),
        "op_tail_s": (tail_s, "s", f"pooled p{tail_p:g}, {len(lat)} samples"),
        "ops_per_s": (len(lat) / wall, "1/s", "per wall second of the loop, oracles included"),
        "work_per_s": (sum(s.work for s in samples) / sum(lat), "1/s",
                       f"{work_unit} per summed op second"),
    }
    return gated, info


def per_layer(tracer, overhead) -> dict:
    tot = tracer.layer_totals()
    ctr = tracer.counters

    def calls(name):
        return tot.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return tot.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    kern, mc, ex = "kernels.second_price_stats", "engine.mc", "engine.exact"
    draws = sum(c[4] for c in tracer.mc_calls)
    m = {
        f"{kern}.calls": (calls(kern), "count"),
        f"{kern}.rows": (int(ctr[(kern, "rows")]), "count"),
        f"{kern}.self_s": (self_s(kern), "s"),
        f"{kern}.bytes_computed": (int(ctr[(kern, "bytes_computed")]), "B"),
        "distributions.ppf.calls": (calls("distributions.ppf"), "count"),
        "distributions.ppf.values": (int(ctr[("distributions.ppf", "values")]), "count"),
        "distributions.ppf.self_s": (self_s("distributions.ppf"), "s"),
        f"{mc}.calls": (calls(mc), "count"),
        f"{mc}.self_s": (self_s(mc), "s"),
        f"{mc}.draws_generated": (draws, "count"),
        f"{mc}.kernel_calls_per_estimate": (ratio(tracer.calls_under(kern, mc), calls(mc)),
                                            "ratio"),
        f"{mc}.draw_reuse": (tracer.draw_reuse(), "ratio"),
        f"{mc}.efficiency": (tracer.mc_efficiency(), "rev-2.s-1"),
        f"{ex}.calls": (calls(ex), "count"),
        f"{ex}.self_s": (self_s(ex), "s"),
        f"{ex}.combinations": (int(ctr[(ex, "combinations")]), "count"),
        f"{ex}.combinations_per_s": (ratio(ctr[(ex, "combinations")],
                                           tot.get(ex, (0, 0.0, 0.0))[2]), "1/s"),
        "orderstats.expected_order_stat.calls": (calls("orderstats.expected_order_stat"),
                                                 "count"),
        "orderstats.expected_order_stat.self_s": (self_s("orderstats.expected_order_stat"),
                                                  "s"),
        "orderstats.cdf.calls": (calls("orderstats.cdf"), "count"),
        "orderstats.cdf.points": (int(ctr[("orderstats.cdf", "points")]), "count"),
        "orderstats.cdf.points_per_call": (ratio(ctr[("orderstats.cdf", "points")],
                                                 calls("orderstats.cdf")), "count"),
        "orderstats.cdf_exact.calls": (calls("orderstats.cdf_exact"), "count"),
        "orderstats.valuation_law.self_s": (self_s("orderstats.valuation_law"), "s"),
        "distributions.convolve.calls": (calls("distributions.convolve"), "count"),
        "distributions.convolve.self_s": (self_s("distributions.convolve"), "s"),
        "distributions.cdf.calls": (calls("distributions.cdf"), "count"),
        "distributions.cdf.self_s": (self_s("distributions.cdf"), "s"),
        "piecewise.order_stat_rational.self_s": (self_s("piecewise.order_stat_rational"), "s"),
        "piecewise.expected_value.self_s": (self_s("piecewise.expected_value"), "s"),
        "disclosure.optimize.calls": (calls("disclosure.optimize"), "count"),
        "disclosure.optimize.self_s": (self_s("disclosure.optimize"), "s"),
        "disclosure.optimize.candidates": (int(ctr[("disclosure.optimize", "candidates")]),
                                           "count"),
        "disclosure.verify_suite.self_s": (self_s("disclosure.verify_suite"), "s"),
        "disclosure.verify_suite.claims": (int(ctr[("disclosure.verify_suite", "claims")]),
                                           "count"),
        "scenario.validate.calls": (calls("scenario.validate"), "count"),
        "scenario.validate.self_s": (self_s("scenario.validate"), "s"),
        "fees.revenue.calls": (calls("fees.revenue"), "count"),
        "fees.revenue.self_s": (self_s("fees.revenue"), "s"),
        "cli.parse_scenario.self_s": (self_s("cli.parse_scenario"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return {k: (v[0], v[1], None) for k, v in m.items()}


def set_up(name: str, seed: int):
    """Import awarebid, parse the scenarios and generate the inputs; returns
    the workloads module, the workload and the seconds taken."""
    t0 = time.perf_counter()
    import_program()
    import workloads
    return workloads, workloads.build(name, seed), time.perf_counter() - t0


def measure(name: str, seed: int, seconds: float, trace: bool):
    """One benchmark run in this process; returns (metrics, info, samples),
    where ``metrics`` (printed in the result line) and ``info`` (printed
    above it) map a name to (value, unit, note)."""
    workloads, wl, setup_here = set_up(name, seed)
    if not trace:
        samples, wall = closed_loop(wl, seconds)
        setups = [setup_here] + setup_probe_times(name, seed)
        gated, info = end_to_end(samples, wall, setups, wl.work_unit)
        return gated, info, samples

    from tracer import Tracer

    samples = run_round(wl, 0)                      # warm-up, checked but not timed
    tracer = Tracer()
    tracer.patch()
    try:
        workloads.build(name, seed)                 # for the set-up spans only
    finally:
        tracer.unpatch()
    busy = {False: 0.0, True: 0.0}
    traced_ops = 0
    for k in range(TRACE_ROUNDS):
        for i, op in enumerate(wl.cycle(k)):
            # each op goes first once untraced and once traced over two rounds
            for traced in ((False, True) if (i + k) % 2 == 0 else (True, False)):
                if not traced:
                    smp = run_op(op)
                else:
                    tracer.patch()
                    try:
                        smp = run_op(op, tracer, traced_ops)
                    finally:
                        tracer.unpatch()
                    traced_ops += 1
                busy[traced] += smp.seconds
                samples.append(smp)
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{name}.npz")
    return per_layer(tracer, busy[True] / busy[False]), {}, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("mc-estimate", "mc-policy-search", "analytic-search",
                             "exact-verify"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: set up, print the set-up seconds and exit")
    args = ap.parse_args(argv)

    if args.setup_probe:
        print(repr(set_up(args.workload, args.seed)[2]))
        return 0

    metrics, info, samples = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    failed = sum(not s.ok for s in samples)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"ops {len(samples)}  failed {failed}")
    print("env " + json.dumps(environment(), sort_keys=True))
    by_label = {}
    for smp in samples:
        by_label.setdefault(smp.label, []).append(smp.seconds)
    for label, lat in by_label.items():
        print(f"op {label:44s} n {len(lat):<5d} median {statistics.median(lat):.6f} s "
              f"max {max(lat):.6f} s")
    for key, (value, unit, note) in info.items():
        print(f"info {key:43s} {value:<24.6g} {unit:10s} {note}")
    for key, (value, unit, note) in metrics.items():
        print(f"{key:48s} {value:<24.6g} {unit:10s} {note or ''}".rstrip())
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
