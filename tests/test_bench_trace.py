"""The benchmark tracer sees only wire frames cross the process boundary.

``benchmarks/tracer.py`` counts ``protocol.ipc_bytes`` as the pickled size
of the frames ``ProcessExecutor.run`` is handed and returns, and
``protocol.wire_bytes`` as what the cost ledger charges. This runs a toy
traced bmc run with 2 forked workers and checks that the two agree, so the
"the ledger counts what crosses the wire" contract is held by the test
suite and not only by a traced benchmark run. ``Tracer.install`` patches
the package for the whole process, hence the subprocess.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
from pathlib import Path
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer

trace_dir = Path(sys.argv[3])
tracer = Tracer(trace_dir)
tracer.install()
from batchcl.cli import run_experiment
from batchcl.config import parse_config

code, _ = run_experiment(parse_config(json.loads(sys.argv[4])), trace_dir / "run")
print(json.dumps({"code": code, "workers": len(list(trace_dir.glob("worker-*.json"))),
                  "metrics": tracer.report()}))
"""

TOY_RUN = {
    "method": "bmc",
    "seed": 0,
    "stream": {"kind": "permuted", "n_tasks": 4, "classes_per_task": 2, "dim": 6,
               "train_per_task": 40, "val_per_task": 10, "seed": 1},
    "model": {"res_blocks": 1, "res_layers_per_block": 1, "res_dim": 8,
              "hidden_dim": 6, "dropout_p": 0.0},
    "training": {"epochs_per_task": 1, "lr": 0.1, "batch_size": 8},
    "bmc": {"experts_per_step": 2, "rehearsal_epochs": 1, "buffer_capacity": 12,
            "memory_capacity": 40, "workers": 2},
}


def test_pool_carries_only_the_ledger_frames(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}
    out = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "src"), str(ROOT / "benchmarks"),
         str(tmp_path), json.dumps(TOY_RUN)],
        capture_output=True, text=True, env=env, timeout=300, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    metrics = result["metrics"]
    assert result["code"] == 0
    # one worker span file per expert (4 tasks), and their spans were merged:
    # buffers are only ever sampled inside the pool on this run
    assert result["workers"] == 4
    assert metrics["replay.buffer_sample_s"] > 0
    assert metrics["protocol.wire_bytes"] > 0
    assert metrics["protocol.wire_useful_ratio"] >= 0.95, metrics
