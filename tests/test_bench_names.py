"""Every name the benchmark's tracer wraps still exists in the package.

``benchmarks/run.py --trace 1`` patches the callables listed in
``benchmarks/tracer.py`` and stops with ``TraceError`` when one is gone.
Every benchmark run, traced or not, also patches the names that
``benchmarks/child.py``'s ``StepProbe`` reads (``CHILD_NAMES``). This
resolves each of them with the tracer's own lookup, without running
anything, so a rename or deletion in ``src/`` that would break a benchmark
run fails here first. The same holds for every name ``benchmarks/run.py``
and ``benchmarks/child.py`` import from ``batchcl`` or read off a
``batchcl`` module they import, which are read from their source.
"""

from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"
TRACER = BENCHMARKS / "tracer.py"


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


def _harness_names(*paths: Path) -> list[str]:
    """"module:name" for each name the harness files import from a
    ``batchcl`` module, and for each attribute they read off a ``batchcl``
    module they import by name."""
    names = set()
    for path in paths:
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> the batchcl module it is
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "batchcl":
                for alias in node.names:
                    full = f"{node.module}.{alias.name}"
                    try:
                        importlib.import_module(full)
                    except ModuleNotFoundError:  # a name, not a module
                        names.add(f"{node.module}:{alias.name}")
                    else:
                        modules[alias.asname or alias.name] = full
        names |= {f"{modules[node.value.id]}:{node.attr}" for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules}
    return sorted(names)


@pytest.mark.parametrize(
    "target", _harness_names(BENCHMARKS / "run.py", BENCHMARKS / "child.py")
)
def test_harness_name_resolves(target):
    tracer._resolve(target)  # TraceError if it is gone
