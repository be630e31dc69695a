"""One run of a benchmark workload in a fresh interpreter.

    python3 child.py CONFIG OUT_DIR RESULT MODE

CONFIG is a repo-format JSON run config. The run goes through the
user-facing path: the JSON file, ``config.parse_config``, then
``cli.run_experiment`` writing into OUT_DIR. MODE is ``full`` (an untraced
run), ``traced`` (a run under the tracer, spans kept in OUT_DIR/trace) or
``setup`` (stop at the entry of the first incremental step). The timings,
the summary and an environment stamp are written to RESULT as JSON.

``setup_s`` and ``run_s`` are times at the reference machine speed of
speed.py: the wall time times the speed the machine ran at. A full or
traced run is sampled from its first step to its end; a set-up run is
followed by a burst of probes. Per-layer times of a traced run stay wall
time. The plain wall times are kept as ``setup_wall_s``/``run_wall_s``.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_BURST = 40  # probes after a set-up run


class SetupDone(Exception):
    """Raised at the first step entry of a setup-only run."""


class StepProbe:
    """Wraps protocol.run_incremental_step: first entry time and failures."""

    def __init__(self, protocol, on_first_entry):
        self.first_entry: float | None = None
        self.failed = 0
        inner = protocol.run_incremental_step
        step_failure = protocol.StepFailure

        def probed(*args, **kwargs):
            if self.first_entry is None:
                self.first_entry = time.perf_counter()
                on_first_entry()
            try:
                return inner(*args, **kwargs)
            except step_failure:
                self.failed += 1
                raise

        protocol.run_incremental_step = probed


def _env_stamp() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 prints its config instead
        blas_version = "unknown"
    return {"python": sys.version.split()[0], "numpy": np.__version__, "blas": blas_version}


def main(argv: list[str]) -> int:
    config_path, out_dir, result_path, mode = argv
    out = Path(out_dir)
    sys.path.insert(0, str(SRC))

    t0 = time.perf_counter()
    from batchcl import cli, config, protocol

    from speed import SpeedSampler, speed
    from speed import probe as speed_probe

    tracer = None
    if mode == "traced":
        from tracer import Tracer

        (out / "trace").mkdir(parents=True, exist_ok=True)
        tracer = Tracer(out / "trace")
        tracer.install()
    sampler = SpeedSampler(out / "speed.txt")

    def on_first_entry():
        if mode == "setup":
            raise SetupDone
        sampler.start()

    probe = StepProbe(protocol, on_first_entry)
    raw = json.loads(Path(config_path).read_text())
    cfg = config.parse_config(raw)
    result: dict = {"mode": mode}
    try:
        code, summary = cli.run_experiment(cfg, out)
    except SetupDone:
        wall = probe.first_entry - t0
        burst_speed = speed([speed_probe() for _ in range(SETUP_BURST)])
        result.update(setup_wall_s=wall, setup_s=wall * burst_speed, speed=burst_speed)
    else:
        t_end = time.perf_counter()
        wall = t_end - probe.first_entry
        samples = sampler.stop()
        run_speed = speed(samples)
        result.update(run_s=wall * run_speed, speed=run_speed, speed_samples=len(samples))
        own = resource.getrusage(resource.RUSAGE_SELF)
        pool = resource.getrusage(resource.RUSAGE_CHILDREN)
        result.update(
            setup_wall_s=probe.first_entry - t0,
            run_wall_s=wall,
            # CPU time of the whole process tree, set-up included
            cpu_s=own.ru_utime + own.ru_stime + pool.ru_utime + pool.ru_stime,
            peak_rss_mb=max(own.ru_maxrss, pool.ru_maxrss) * 1024 / 1e6,  # ru_maxrss is KiB
            exit_code=code,
            steps_failed=probe.failed,
            summary=summary,
        )
        if tracer is not None:
            result["per_layer"] = tracer.report()
    result["env"] = _env_stamp()
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
