"""The benchmark's workloads (``perfbench/workloads.py``), built at seed 1
with round 0's ops run through their oracles, so that an API change or an
oracle break shows in the test suite before a benchmark run fails on it."""

import importlib.util
import pathlib
import sys

import pytest

WORKLOADS_PY = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def _load_workloads():
    """The benchmark's workloads module, imported from its file without
    writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module         # dataclasses resolve names through it
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


workloads = _load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_round_zero_of_each_workload_passes_its_oracles(name):
    workload = workloads.build(name, 1)
    ops = workload.cycle(0)
    assert ops
    for op in ops:
        op.check(op.run())          # raises workloads.Mismatch on a wrong output
