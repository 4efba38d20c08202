#!/usr/bin/env python3
"""Run the benchmark over several seeds and record the results.

    python3 perfbench/record.py --label seed --seeds 1 2 3 --trace-seeds 1
        [--workloads mc-estimate ...] [--out perfbench/results/BENCH_seed.json]

Runs ``run.py`` once per (workload, seed) untraced and once per (workload,
trace seed) traced, one after the other, and writes every run's result, the
environment, and per workload and metric the median, the quartiles and the
spread (interquartile distance over the median, with the quartiles of
``statistics.quantiles(values, n=4)``).  Without ``--out`` it only prints
the summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(next(ln[4:] for ln in lines if ln.startswith("env ")))
    return {"workload": workload, "seed": seed, "trace": trace, "environment": env,
            "result": json.loads(lines[-1])}


def summary(runs: list) -> dict:
    out = {}
    for run in runs:
        per = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            per.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for per in out.values():
        for m in per.values():
            vals = m.pop("values")
            med = statistics.median(vals)
            m["median"] = med
            m["runs"] = len(vals)
            if len(vals) >= 2:
                q1, _q2, q3 = statistics.quantiles(vals, n=4)
                m.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else 0.0)
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    ap.add_argument("--seeds", type=int, nargs="*", default=[])
    ap.add_argument("--trace-seeds", type=int, nargs="*", default=[])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args()

    runs = []
    for w in args.workloads:
        for trace, seeds in ((0, args.seeds), (1, args.trace_seeds)):
            for seed in seeds:
                runs.append(bench(w, seed, args.seconds, trace))
                r = runs[-1]["result"]
                print(f"{w} seed {seed} trace {trace}: attempted {r['attempted']} "
                      f"failed {r['failed']}", file=sys.stderr, flush=True)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summ = summary([r for r in runs if r["trace"] == 0])
    for w, per in summ.items():
        for name, m in per.items():
            if "spread" in m:
                flag = " OVER 1/3 BOUND" if m["spread"] > bounds.get(name, 1) / 3 else ""
                print(f"{w:18s} {name:14s} median {m['median']:<12.6g} "
                      f"spread {m['spread']:.4f}{flag}")
    if args.out:
        doc = {"label": args.label, "run_seconds": args.seconds,
               "environment": runs[0]["environment"] if runs else None,
               "summary_untraced": summ, "summary_traced": summary(
                   [r for r in runs if r["trace"] == 1]),
               "runs": runs}
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
