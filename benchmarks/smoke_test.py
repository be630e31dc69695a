"""Smoke test of the benchmark, every workload at a seconds-long size.

    python3 -m pytest benchmarks/smoke_test.py -q

Each workload runs twice untraced and twice traced at the ``--smoke`` size.
The test checks that every metric BENCHMARK.json names is emitted with its
unit, that no traced layer is left blank, and that the deterministic
metrics (accuracy, cost, bytes and counts) repeat exactly.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH_DIR))
from run import WORKLOADS  # noqa: E402

DETERMINISTIC_UNITS = {"count", "bytes", "ratio"}
DETERMINISTIC = {"total_cost_mb", "step_ok_share", "streams.final_mean_acc"}
# times that may legitimately be zero or negative
UNSIGNED = {"trace.overhead_s"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def parse(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = next(json.loads(line) for line in lines if line.startswith('{"env"'))
    return json.loads(lines[-1]), detail


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_metrics_emitted_and_deterministic(workload, trace):
    spec = SPEC["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    (first, first_detail), (second, second_detail) = (
        parse(bench(workload, trace)) for _ in range(2)
    )
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {n: m["unit"] for n, m in result["metrics"].items()} == units
    for name, unit in units.items():
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        if unit in DETERMINISTIC_UNITS or name in DETERMINISTIC:
            assert a == b, name
        elif unit == "s" and name not in UNSIGNED:
            assert a > 0 and b > 0, f"{name} left blank"
    accs = {r["final_mean_acc"] for d in (first_detail, second_detail) for r in d["runs"]}
    assert len(accs) == 1
    if workload == "experts_pool" and trace:
        # worker-side spans arrived from the forked pool
        assert first["metrics"]["protocol.ipc_bytes"]["value"] > 0
        assert first["metrics"]["replay.buffer_sample_s"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("pinned16", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
