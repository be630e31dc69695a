"""The run module: what a run records, apart from the protocol and the CLI."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import batchcl


@pytest.mark.parametrize("module, absent", [
    ("batchcl.run", ["batchcl.cli", "batchcl.protocol"]),
    ("batchcl.baselines", ["batchcl.protocol"]),
    ("batchcl.replay", ["batchcl.model", "batchcl.engine"]),
    ("batchcl.cli", ["jsonschema"]),
    ("batchcl.cli", ["multiprocessing", "concurrent.futures"]),
    ("batchcl.consolidation", ["batchcl.wire", "batchcl.protocol", "batchcl.run"]),
    ("batchcl.pipes", ["numpy", "batchcl.model"]),
    ("batchcl.wire", ["batchcl.consolidation", "batchcl.protocol", "batchcl.config"]),
])
def test_loads_without(module, absent):
    src = str(Path(batchcl.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = f"import sys, {module}; print(sorted(set({absent!r}) & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
