"""Every name the benchmark's tracer wraps still exists in the package.

``benchmarks/run.py --trace 1`` patches the callables listed in
``benchmarks/tracer.py`` and stops with ``TraceError`` when one is gone.
Every benchmark run, traced or not, also patches the names that
``benchmarks/child.py``'s ``StepProbe`` reads (``CHILD_NAMES``). This
resolves each of them with the tracer's own lookup, without running
anything, so a rename or deletion in ``src/`` that would break a benchmark
run fails here first.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "benchmarks" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()

# what StepProbe wraps (the step) and catches (its failure)
CHILD_NAMES = ("batchcl.protocol:run_incremental_step", "batchcl.protocol:StepFailure")


@pytest.mark.parametrize(
    "target", sorted({t for _, t in tracer.SPANS} | {tracer.TENSOR_INIT, *CHILD_NAMES})
)
def test_traced_name_resolves(target):
    holder, attr, raw = tracer._resolve(target)
    assert callable(getattr(raw, "__func__", raw)), target
