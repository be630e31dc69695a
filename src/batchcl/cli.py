"""Experiment runner: single runs, random-search sweeps, Pareto export.

A run's records are line-delimited JSON, written when the run returns by
:func:`batchcl.run.write_run`. A run whose step fails (exit 3) still writes
the records of the steps before it: a step of any method fails when its
training turns non-finite, and a BMC step also when an expert fails or
breaks the protocol. A run that raises (exit 1) writes no records at all.
Sweeps emit a CSV next to the JSONL for plotting.
"""

from __future__ import annotations

import argparse
import csv
import glob as globlib
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .baselines import multitask_bound, run_baseline
from .config import (
    ConfigError,
    ExperimentConfig,
    SweepSpec,
    build_stream,
    config_to_dict,
    load_config,
    load_sweep,
    parse_config,
)
from .protocol import run_full_stream
from .run import RunReport, child_seed, write_run
from .streams import STREAM_KINDS, generate_stream, save_stream


def _with_workers(cfg: ExperimentConfig, workers: int | None) -> ExperimentConfig:
    """``cfg`` with ``bmc.workers`` replaced, through the validation a
    config file's value goes through (None keeps the config's value)."""
    if workers is None:
        return cfg
    raw = config_to_dict(cfg)
    return parse_config({**raw, "bmc": {**raw["bmc"], "workers": workers}})


def run_experiment(
    cfg: ExperimentConfig,
    out_dir: str | Path,
    workers: int | None = None,
    time_reference: bool = False,
) -> tuple[int, dict]:
    """Execute one configured run and write records.jsonl + summary.json.

    Returns (exit code, summary). Exit 0 on success, 3 if a step failed
    mid-stream (partial records are still flushed). ``workers`` replaces
    ``bmc.workers`` and is checked like the config file's value: an
    out-of-range count raises ConfigError before anything runs.
    """
    cfg = _with_workers(cfg, workers)
    stream = build_stream(cfg.stream)

    reference = None
    if time_reference and cfg.method not in ("sgd", "multitask"):
        t0 = time.perf_counter()
        sgd = run_baseline(stream, replace(cfg, method="sgd"))
        reference = (time.perf_counter() - t0, sgd.failed_step)

    if cfg.method == "bmc":
        report = run_full_stream(stream, cfg)
    elif cfg.method == "multitask":  # a bound: no steps, no ledger, no wall time
        report = RunReport(cfg.method, [], 0.0, multitask_bound(stream, cfg), None)
    else:
        report = run_baseline(stream, cfg)
    summary = write_run(out_dir, cfg.seed, report, reference)
    return (0 if report.failed_step is None else 3), summary


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def _set_path(raw: dict, dotted: str, value) -> None:
    node = raw
    parts = dotted.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = value


def sample_trial(spec: SweepSpec, index: int) -> tuple[dict, dict]:
    """Pure function of (spec, trial index): the trial's raw config mapping
    and the values sampled into it.

    The trial's run seed and its sampling randomness both derive from the
    sweep master seed and the index alone, so any trial can be reproduced
    in isolation. The mapping is not yet validated: :func:`parse_config`
    turns it into the run's config.
    """
    rng = np.random.default_rng(child_seed(spec.seed, "sample", index))
    sampled: dict = {}
    raw = config_to_dict(spec.base)
    for path in sorted(spec.ranges):
        r = spec.ranges[path]
        if "choices" in r:
            value = r["choices"][int(rng.integers(len(r["choices"])))]
        else:
            value = float(rng.uniform(r["low"], r["high"]))
        sampled[path] = value
        _set_path(raw, path, value)
    raw["seed"] = child_seed(spec.seed, "trial", index)
    return raw, sampled


def run_sweep(
    spec: SweepSpec, out_dir: str | Path, workers: int | None = None
) -> list[dict]:
    """Run every trial, collecting one row per trial; failures are recorded,
    not fatal."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    with open(out / "sweep.jsonl", "w") as fh:
        for i in range(spec.trials):
            row: dict = {"type": "trial", "trial": i}
            try:
                raw, sampled = sample_trial(spec, i)
                # recorded first, so a trial parse_config rejects still shows
                # the values that made it invalid
                row.update(seed=raw["seed"], sampled=sampled)
                cfg = parse_config(raw)
                code, summary = run_experiment(cfg, out / f"trial-{i:04d}", workers=workers)
                row["status"] = "ok" if code == 0 else "failed_step"
                for key in ("final_mean_acc", "final_backward_transfer",
                            "total_cost", "cost_accuracy"):
                    if key in summary:
                        row[key] = summary[key]
            except Exception as e:  # a 629-trial campaign must survive one bad trial
                row.update(status="error", error=f"{type(e).__name__}: {e}")
            rows.append(row)
            fh.write(json.dumps(row, sort_keys=True) + "\n")
            fh.flush()
    _write_sweep_csv(out / "sweep.csv", rows, sorted(spec.ranges))
    return rows


def _write_sweep_csv(path: Path, rows: list[dict], range_keys: list[str]) -> None:
    cols = ["trial", "seed", "status", *range_keys,
            "final_mean_acc", "final_backward_transfer", "total_cost", "cost_accuracy"]
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for row in rows:
            sampled = row.get("sampled", {})
            w.writerow(
                [row.get("trial"), row.get("seed"), row.get("status")]
                + [sampled.get(k, "") for k in range_keys]
                + [row.get("final_mean_acc", ""), row.get("final_backward_transfer", ""),
                   row.get("total_cost", ""), row.get("cost_accuracy", "")]
            )


# ---------------------------------------------------------------------------
# pareto export
# ---------------------------------------------------------------------------


def export_pareto(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Non-dominated (total cost, mean accuracy) points, sorted by cost.

    A point is dominated when some other point has strictly lower cost AND
    strictly higher accuracy; duplicates collapse to one entry.
    """
    if not points:
        raise ValueError("no points to filter")
    uniq = sorted({(float(c), float(a)) for c, a in points})
    frontier: list[tuple[float, float]] = []
    best_prev = float("-inf")  # best accuracy among strictly cheaper points
    i = 0
    while i < len(uniq):
        j = i
        while j < len(uniq) and uniq[j][0] == uniq[i][0]:
            if uniq[j][1] >= best_prev:
                frontier.append(uniq[j])
            j += 1
        best_prev = max(best_prev, max(a for _, a in uniq[i:j]))
        i = j
    return frontier


def _collect_points(pattern: str) -> list[tuple[float, float]]:
    points = []
    for name in sorted(globlib.glob(pattern, recursive=True)):
        path = Path(name)
        if not path.is_file():  # a matched directory holds no summary lines
            continue
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError:  # skipped like a malformed line
            continue
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(obj, dict) or "total_cost" not in obj:
                continue
            acc = obj.get("final_mean_acc", obj.get("mean_acc"))
            if acc is not None:
                points.append((obj["total_cost"], acc))
    return points


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="batchcl", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    run = sub.add_parser("run", help="execute one experiment config")
    run.add_argument("config", help="path to a JSON experiment config")
    run.add_argument("--seed", type=int, default=None, help="override the config seed")
    run.add_argument("--out-dir", default=None, help="override the output directory")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--time-reference", action="store_true",
                     help="also run sequential fine-tuning to report relative time")

    sweep = sub.add_parser("sweep", help="uniform random-search over a config")
    sweep.add_argument("spec", help="path to a JSON sweep spec")
    sweep.add_argument("--out-dir", default=None)
    sweep.add_argument("--workers", type=int, default=None)

    pareto = sub.add_parser("pareto", help="export the cost/accuracy frontier")
    pareto.add_argument("pattern", help="glob of summary/sweep JSONL files")
    pareto.add_argument("--out", default=None, help="write CSV here instead of stdout")

    gen = sub.add_parser("gen-stream", help="generate and save a task stream")
    gen.add_argument("kind", choices=list(STREAM_KINDS))
    gen.add_argument("out", help="output file path")
    gen.add_argument("--n-tasks", type=int, required=True)
    gen.add_argument("--classes-per-task", type=int, required=True)
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--train-per-task", type=int, required=True)
    gen.add_argument("--val-per-task", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--separation", type=float, default=3.0)
    return p


def _cmd_run(args) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg = parse_config({**config_to_dict(cfg), "seed": args.seed})
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out_dir = args.out_dir or cfg.out_dir
    try:
        code, summary = run_experiment(cfg, out_dir, workers=args.workers,
                                       time_reference=args.time_reference)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(json.dumps(summary, sort_keys=True))
    return code


def _cmd_sweep(args) -> int:
    try:
        spec = load_sweep(args.spec)
        _with_workers(spec.base, args.workers)
    except (ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    out_dir = args.out_dir or spec.base.out_dir
    rows = run_sweep(spec, out_dir, workers=args.workers)
    ok = sum(1 for r in rows if r.get("status") == "ok")
    print(f"{ok}/{len(rows)} trials ok; results under {out_dir}")
    return 0


def _cmd_pareto(args) -> int:
    points = _collect_points(args.pattern)
    try:
        frontier = export_pareto(points)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    lines = ["total_cost,mean_acc"] + [f"{c},{a}" for c, a in frontier]
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_gen_stream(args) -> int:
    try:
        stream = generate_stream(
            args.kind,
            n_tasks=args.n_tasks,
            classes_per_task=args.classes_per_task,
            dim=args.dim,
            train_per_task=args.train_per_task,
            val_per_task=args.val_per_task,
            seed=args.seed,
            separation=args.separation,
        )
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    save_stream(stream, args.out)
    print(f"wrote {len(stream.tasks)} tasks to {args.out}")
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    return {
        "run": _cmd_run,
        "sweep": _cmd_sweep,
        "pareto": _cmd_pareto,
        "gen-stream": _cmd_gen_stream,
    }[args.verb](args)


if __name__ == "__main__":
    sys.exit(main())
