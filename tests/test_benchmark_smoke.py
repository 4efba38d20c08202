"""The benchmark's workloads (``perfbench/workloads.py``), built at seed 1
with round 0's ops run through their oracles, untraced and under the
benchmark's tracer (``perfbench/tracer.py``), so that an API change or an
oracle break shows in the test suite before a benchmark run fails on it."""

import importlib.util
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, filename):
    """A perfbench module, imported from its file without writing bytecode
    next to it."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses resolve names through it
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load("perfbench_workloads", "workloads.py")
tracer = _load("perfbench_tracer", "tracer.py")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_zero_of_each_workload_passes_its_oracles(name):
    workload = workloads.build(name, 1)
    ops = workload.cycle(0)
    assert ops
    for op in ops:
        op.check(op.run())          # raises workloads.Mismatch on a wrong output


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_zero_of_each_workload_passes_its_oracles_traced(name):
    # the benchmark's --trace 1 run: every op under the tracer's wrappers,
    # whose hooks import awarebid internals when they fire, and every
    # wrapped attribute restored afterwards
    workload = workloads.build(name, 1)
    before = tracer.snapshot()
    tr = tracer.Tracer()
    tr.patch()
    try:
        for op_id, op in enumerate(workload.cycle(0)):
            tr.op_id = op_id
            op.check(op.run())
    finally:
        tr.unpatch()
    assert tracer.snapshot() == before
    assert tr.layer_totals()
