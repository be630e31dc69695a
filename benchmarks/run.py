"""The batchcl benchmark: named workloads through the user-facing run path.

    python3 benchmarks/run.py --workload pinned16 --seed 0 --seconds 20 --trace 0

Each run of a workload happens in a fresh interpreter (child.py), so the
set-up time includes ``import batchcl``. The workload seed feeds the stream
seed (100 + seed) and the master seed (seed); seed 0 is the pinned run of
ROADMAP.md. Every run's outputs are checked (see check_run). The command
prints each metric by name with its unit, an environment stamp, and as its
last line one JSON object: ``correct``, ``attempted`` and ``failed`` count
incremental steps, and ``metrics`` holds the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a traced run. ``setup_s`` and
``run_s`` are scaled to a reference machine speed (speed.py), because the
speed of a shared machine drifts more than any bound would allow.

See README.md in this directory for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracer import PER_LAYER_UNITS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# pinned in the benchmark's own processes only, so that the pool workload
# never runs more threads than workers and serial runs are not sped up or
# slowed down by whichever BLAS threading the host defaults to
BLAS_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
SETUP_PROBES = 10  # set-up-only runs per invocation, half before and half after
                   # the timed runs, after one warm-up
DEADLINE_S = 170  # the command ends within this; no run starts that would pass it

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
    "total_cost_mb": "MB",
    "step_ok_share": "fraction",
}

# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

SMALL_MODEL = {"res_blocks": 1, "res_layers_per_block": 2, "res_dim": 32,
               "hidden_dim": 16, "dropout_p": 0.1}
WIDE_MODEL = {"res_blocks": 2, "res_layers_per_block": 3, "res_dim": 256,
              "hidden_dim": 128, "dropout_p": 0.3}


def _config(seed: int, stream: dict, model: dict, epochs: int, bmc: dict) -> dict:
    return {
        "method": "bmc",
        "seed": seed,
        "stream": {"kind": "permuted", "n_tasks": 16, "classes_per_task": 4, "dim": 16,
                   "train_per_task": 500, "val_per_task": 100, "seed": 100 + seed,
                   **stream},
        "model": model,
        "training": {"epochs_per_task": epochs, "lr": 0.1, "batch_size": 32},
        "bmc": {"buffer_capacity": 200, "memory_capacity": 1000, "stability_coef": 1.0,
                "task_coef": 1.0, "consolidation_coef": 1.0, "workers": 1, **bmc},
    }


# why each workload exists: README.md
WORKLOADS = {
    "pinned16": lambda seed: _config(
        seed, {}, SMALL_MODEL, 2, {"experts_per_step": 4, "rehearsal_epochs": 40}),
    "experts_pool": lambda seed: _config(
        seed, {"train_per_task": 1000}, SMALL_MODEL, 4,
        {"experts_per_step": 2, "rehearsal_epochs": 1, "sampling": "grad_min_expert",
         "workers": 2}),
    "wide": lambda seed: _config(
        seed, {"n_tasks": 8, "classes_per_task": 8, "dim": 32, "separation": 1.5},
        WIDE_MODEL, 2, {"experts_per_step": 4, "rehearsal_epochs": 4}),
}


def smoke_size(raw: dict) -> dict:
    """The same workload shrunk to two short steps, for the smoke test."""
    raw = copy.deepcopy(raw)
    raw["stream"].update(n_tasks=2 * raw["bmc"]["experts_per_step"],
                         train_per_task=100, val_per_task=40)
    raw["training"]["epochs_per_task"] = 1
    raw["bmc"].update(rehearsal_epochs=1, buffer_capacity=50)
    return raw


# ---------------------------------------------------------------------------
# output check
# ---------------------------------------------------------------------------


def _param_vector_nbytes(dim: int, classes: int, model: dict) -> int:
    """Serialized ParamVector size from the documented CLPV layout."""
    res, hidden = model["res_dim"], model["hidden_dim"]
    layers = [("stem", dim, res)]
    layers += [(f"block{b}.layer{l}", res, res)
               for b in range(model["res_blocks"])
               for l in range(model["res_layers_per_block"])]
    layers.append(("penult", res, hidden))
    entries = [("head.W", (hidden, classes)), ("head.b", (classes,))]
    for prefix, d_in, d_out in layers:
        entries += [(f"{prefix}.W", (d_in, d_out))]
        entries += [(f"{prefix}.{name}", (d_out,))
                    for name in ("b", "bn.gamma", "bn.beta", "bn.running_mean",
                                 "bn.running_var")]
    header = 10 + sum(2 + len(name) + 1 + 4 * len(shape) for name, shape in entries)
    return header + 4 * sum(math.prod(shape) for _, shape in entries)


def expected_ledger(raw: dict) -> list[dict]:
    """Every step's cost row, from the wire layout and the memory policy."""
    from batchcl.protocol import ARTIFACT_FIXED_NBYTES, FRAME_OVERHEAD, SYNC_FIXED_NBYTES

    s, b = raw["stream"], raw["bmc"]
    n_tasks, k, dim = s["n_tasks"], b["experts_per_step"], s["dim"]
    pv = _param_vector_nbytes(dim, n_tasks * s["classes_per_task"], raw["model"])
    row = 4 * dim + 12
    buffer_rows = min(b["buffer_capacity"], s["train_per_task"])
    memory_rows = 0
    rows = []
    for step_id, start in enumerate(range(0, n_tasks, k)):
        k_step = min(k, n_tasks - start)
        rows.append({
            "step_id": step_id,
            "broadcast_bytes": k_step * (FRAME_OVERHEAD + SYNC_FIXED_NBYTES + pv),
            # artifact: fixed fields, snapshot, buffer header, exemplar block
            "upload_bytes": k_step * (FRAME_OVERHEAD + ARTIFACT_FIXED_NBYTES + pv
                                      + 12 + 12 + buffer_rows * row),
            "memory_bytes": 12 + memory_rows * row,
            "expert_param_bytes": k_step * pv,
            "model_bytes": pv,
        })
        memory_rows = min(b["memory_capacity"], memory_rows + k_step * buffer_rows)
    return rows


def check_run(result: dict | None, run_dir: Path, raw: dict, reference: str) -> list[str]:
    """Problems with one run's outputs; an empty list means it passed."""
    if result is None:
        return ["the run crashed or timed out"]
    problems = []
    summary = result["summary"]
    if result["exit_code"] != 0 or result["steps_failed"] or summary["failed_step"] is not None:
        problems.append("a step failed")
    records = [json.loads(line) for line in (run_dir / "records.jsonl").read_text().splitlines()]
    costs = [r["cost"] for r in records if r["type"] == "step"]
    expected = expected_ledger(raw)
    if costs != expected:
        problems.append(f"ledger {costs} differs from layout arithmetic {expected}")
    per_step = [(c["memory_bytes"] + c["expert_param_bytes"] + c["broadcast_bytes"]
                 + c["upload_bytes"]) / 1e6 for c in expected]
    t_c = sum(per_step) / len(per_step) + expected[-1]["model_bytes"] / 1e6
    if not math.isclose(summary.get("total_cost", math.nan), t_c, rel_tol=1e-12):
        problems.append(f"total cost {summary.get('total_cost')} != {t_c}")
    acc = summary["final_mean_acc"]
    chance = 1 / (raw["stream"]["n_tasks"] * raw["stream"]["classes_per_task"])
    if not (math.isfinite(acc) and acc > chance):
        problems.append(f"final_mean_acc {acc} is not above chance {chance}")
    if (run_dir / "summary.json").read_text() != reference:
        problems.append("summary.json differs from the first run of this seed")
    return problems


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "batchcl").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_child(mode: str, config_path: Path, run_dir: Path, deadline: float) -> dict | None:
    """One child run, killed at ``deadline`` (a perf_counter value); None if
    it crashed or was killed. The 1-minute load average before and after
    the run is added to the result."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    result_path = run_dir / "result.json"
    before = os.getloadavg()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "child.py"), str(config_path), str(run_dir),
         str(result_path), mode],
        start_new_session=True,
    )
    try:
        code = proc.wait(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        code = None
    finally:
        # also ends pool workers the child may have left behind
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    after = os.getloadavg()
    if code != 0 or not result_path.exists():
        print(f"{mode} run exited with {code}", file=sys.stderr)
        return None
    result = json.loads(result_path.read_text())
    result["load_1m"] = [before[0], after[0]]
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="keep starting timed runs until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="shrink the workload to two short steps (smoke test)")
    args = p.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S
    if args.seed < 0:
        p.error("--seed must be >= 0")

    if not (SRC / "batchcl" / "__init__.py").is_file():
        print(f"error: no batchcl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.update(BLAS_THREADS)

    raw = WORKLOADS[args.workload](args.seed)
    if args.smoke:
        raw = smoke_size(raw)
    planned_steps = math.ceil(raw["stream"]["n_tasks"] / raw["bmc"]["experts_per_step"])
    work = OUT / f"{args.workload}-{args.seed}{'-smoke' if args.smoke else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(raw, indent=1))
    ref_path = OUT / "ref" / f"{work.name}-{_src_digest()}.json"

    setup_probes = []

    def probe_setup(count: int) -> bool:
        for _ in range(count):
            res = run_child("setup", config_path, work / f"setup{len(setup_probes)}", deadline)
            if res is None:
                return False
            setup_probes.append(res)
        return True

    # the first set-up run warms caches and is not counted
    if not probe_setup(1 + SETUP_PROBES // 2):
        return 1
    del setup_probes[0]

    modes = ("full", "traced") if args.trace else ("full",)
    runs: list[tuple[str, dict | None, Path]] = []
    t_begin = time.perf_counter()
    round_s = 0.0
    while True:
        t_round = time.perf_counter()
        for mode in modes:
            run_dir = work / f"run{len(runs)}"
            runs.append((mode, run_child(mode, config_path, run_dir, deadline), run_dir))
        now = time.perf_counter()
        round_s = max(round_s, now - t_round)
        if now - t_begin >= args.seconds or now + round_s > deadline:
            break
    if not probe_setup(SETUP_PROBES - len(setup_probes)):
        return 1

    attempted = failed = 0
    for mode, res, run_dir in runs:
        if res is not None and not ref_path.exists():
            ref_path.parent.mkdir(parents=True, exist_ok=True)
            ref_path.write_text((run_dir / "summary.json").read_text())
        reference = ref_path.read_text() if ref_path.exists() else ""
        problems = check_run(res, run_dir, raw, reference)
        attempted += planned_steps
        if problems:
            # a run whose outputs fail the check is counted, never dropped:
            # none of its steps can be trusted
            failed += planned_steps
            print(f"check failed ({mode} {run_dir.name}): {'; '.join(problems)}",
                  file=sys.stderr)

    full = [res for mode, res, _ in runs if mode == "full" and res is not None]
    traced = [res for mode, res, _ in runs if mode == "traced" and res is not None]
    if not full or (args.trace and not traced):
        print("error: no run completed", file=sys.stderr)
        return 1

    if args.trace:
        units = PER_LAYER_UNITS
        def typical(values: list) -> float:
            # counts repeat exactly; keep them whole instead of averaging
            return values[0] if len(set(values)) == 1 else median(values)

        traced_metrics = {
            **{name: typical([r["per_layer"][name] for r in traced])
               for name in traced[0]["per_layer"]},
            "streams.final_mean_acc": median(
                [r["summary"]["final_mean_acc"] for r in traced]),
            "trace.overhead_s": (median([r["run_s"] for r in traced])
                                 - median([r["run_s"] for r in full])),
        }
        metrics = {name: traced_metrics[name] for name in units}
    else:
        units = END_TO_END_UNITS
        metrics = {
            "setup_s": median([r["setup_s"] for r in setup_probes]),
            "run_s": median([r["run_s"] for r in full]),
            "peak_rss_mb": median([r["peak_rss_mb"] for r in full]),
            "total_cost_mb": median([r["summary"]["total_cost"] for r in full]),
            "step_ok_share": 1 - failed / attempted,
        }

    print(json.dumps({
        "env": {**full[0]["env"], "nproc": os.cpu_count(),
                "affinity": len(os.sched_getaffinity(0)), "blas_threads": BLAS_THREADS},
        "setup_probes": [{key: r[key] for key in ("setup_s", "setup_wall_s", "speed",
                                                  "load_1m")}
                         for r in setup_probes],
        "runs": [{key: r[key] for key in ("mode", "setup_wall_s", "run_s", "run_wall_s",
                                          "speed", "speed_samples", "cpu_s",
                                          "peak_rss_mb", "load_1m")}
                 | {"final_mean_acc": r["summary"]["final_mean_acc"]}
                 for r in full + traced],
    }))
    print(f"workload {args.workload} seed {args.seed}: {len(full)} untraced and "
          f"{len(traced)} traced runs, {len(setup_probes)} set-up probes")
    for name, value in metrics.items():
        print(f"  {name} = {value} {units[name]}")
    print(f"  final_mean_acc = {median([r['summary']['final_mean_acc'] for r in full])} "
          "fraction")
    print(f"  failed_step_share = {failed / attempted} fraction")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
