"""Release acceptance gate: one test per criterion, each printing its verdict.

Every test prints exactly one line of the form

    ACCEPTANCE <n> (<name>): PASS|FAIL|SKIP — <measurement detail>

before asserting, so a plain ``pytest`` run doubles as the acceptance report
(the project config's ``-rP`` surfaces the lines for passed tests too).

The trend criteria (3-6) train real models and dominate the runtime; their
streams and hyper-parameters are pinned as module constants below.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pytest
from helpers import (
    add,
    cross_entropy,
    distance,
    experiment,
    finite_diff_params,
    flat_grads,
    matmul,
    mul,
    per_op_forward,
    relu,
    scale,
    square,
    stack_passes,
    sum_all,
    tape_grads,
)

from batchcl.baselines import run_baseline
from batchcl.cli import export_pareto, run_experiment, run_sweep
from batchcl.config import build_model_config, parse_config, parse_sweep
from batchcl.engine import SGD, PlateauScheduler
from batchcl.engine.autodiff import Tensor
from batchcl.losses import (
    FisherState,
    ewc_penalty,
    l_base,
    l_bd,
    l_bmc,
    l_exp,
    task_loss,
)
from batchcl.model import ModelConfig, TapSet, build_model
from batchcl.protocol import (
    ARTIFACT_FIXED_NBYTES,
    SYNC_FIXED_NBYTES,
    TAG_ARTIFACT,
    CountingTransport,
    ExpertFailure,
    ProcessExecutor,
    ProtocolViolation,
    SerialExecutor,
    StepFailure,
    encode_artifact,
    exemplar_block_nbytes,
    frame,
    plan_steps,
    run_full_stream,
    run_incremental_step,
)
from batchcl.replay import (
    ExemplarSet,
    Memory,
    draw_batch,
    merge_pool,
    sample_buffer,
    subsample_memory,
)
from batchcl.run import child_seed, cost_accuracy, total_cost
from batchcl.streams import generate_stream

# ---------------------------------------------------------------------------
# pinned configurations for the trend criteria
#
# The 16-task stream is shared by criteria 3, 4 and 8. Criterion 3 fixes
# buffer 200 / memory 1000; criterion 4 varies only the expert count and runs
# in a memory-starved regime (memory far smaller than the stream) where the
# consolidation quality that the expert count controls is what carries
# retention, not sheer replay coverage.
# ---------------------------------------------------------------------------

TREND_STREAM = dict(
    kind="permuted", n_tasks=16, classes_per_task=4, dim=16,
    train_per_task=500, val_per_task=100, seed=100,
)
TREND_MODEL = dict(
    res_blocks=1, res_layers_per_block=2, res_dim=32, hidden_dim=16, dropout_p=0.1,
)
TREND_TRAINING = dict(epochs_per_task=2, lr=0.1, batch_size=32)
TREND_REHEARSAL = 40
GAP_BUFFER, GAP_MEMORY = 200, 1000  # criterion 3 (pinned)
TREND_BUFFER, TREND_MEMORY = 200, 32  # criterion 4 (memory-starved)
SEEDS = (0, 1, 2)

SAMPLING_STREAM = dict(
    kind="permuted", n_tasks=8, classes_per_task=4, dim=12,
    train_per_task=300, val_per_task=80, seed=100,
)
SAMPLING_MODEL = dict(
    res_blocks=1, res_layers_per_block=2, res_dim=24, hidden_dim=12, dropout_p=0.1,
)

SWEEP_SEED = 7


def verdict(n: int, name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {n} ({name}): {'PASS' if ok else 'FAIL'} — {detail}")
    return ok


def _spearman(xs, ys) -> float:
    from scipy import stats

    return float(stats.spearmanr(xs, ys).statistic)


# ---------------------------------------------------------------------------
# 1. gradient oracle suite
# ---------------------------------------------------------------------------

# "sub" is x + (-1)·y: exact in IEEE arithmetic, so the same values as a
# dedicated subtraction op
_BIN_OPS = {"add": add, "sub": lambda x, y: add(x, scale(y, -1.0)), "mul": mul}
_UN_OPS = {"square": square, "relu": relu}


def _gen_program(seed: int):
    """One random op pipeline over float64 leaves, as replayable instructions.

    Instructions are either ("leaf", name) or (op, operand indices...); the
    terminal reduces the final 2-D node to a scalar: a sum, a cross-entropy,
    or a distance to a one-teacher target stack, with and without a row
    mask and per feature or per row. Leaf magnitudes are bounded away from
    zero, and relu inputs near their kink are resolved once on the
    unperturbed values before any differencing happens.
    """
    rng = np.random.default_rng(seed)
    rows = int(rng.integers(3, 7))
    leaves: dict[str, np.ndarray] = {}
    instrs: list[tuple] = []
    shapes: list[tuple[int, int]] = []

    def push_leaf(shape) -> int:
        name = f"leaf{len(leaves)}"
        sign = rng.choice([-1.0, 1.0], size=shape)
        leaves[name] = rng.uniform(0.3, 1.0, size=shape) * sign
        instrs.append(("leaf", name))
        shapes.append(tuple(shape))
        return len(instrs) - 1

    first = push_leaf((rows, int(rng.integers(2, 6))))
    push_leaf(shapes[first])
    for _ in range(int(rng.integers(3, 8))):
        op = str(rng.choice(["add", "sub", "mul", "scale", "square", "relu", "matmul"]))
        i = int(rng.integers(len(instrs)))
        if op in _BIN_OPS:
            same = [j for j in range(len(instrs)) if shapes[j] == shapes[i]]
            instrs.append((op, i, int(rng.choice(same))))
            shapes.append(shapes[i])
        elif op == "scale":
            instrs.append(("scale", i, float(rng.uniform(-2.0, 2.0))))
            shapes.append(shapes[i])
        elif op in _UN_OPS:
            instrs.append((op, i))
            shapes.append(shapes[i])
        else:
            w = push_leaf((shapes[i][1], int(rng.integers(2, 6))))
            instrs.append(("matmul", i, w))
            shapes.append((shapes[i][0], shapes[w][1]))
    last_shape = shapes[-1]
    # six slots, as many as ever, so every program's draws stay the same;
    # the *_rows slots run the one distance as the *_features slots do
    terminal = str(
        rng.choice(
            ["sum_all", "distance_features", "distance_rows",
             "masked_features", "masked_rows", "ce"]
        )
    )
    mask = rng.integers(0, 2, size=last_shape[0]).astype(np.float64)
    if mask.sum() == 0:
        mask[int(rng.integers(len(mask)))] = 1.0
    labels = rng.integers(0, last_shape[1], size=last_shape[0])
    target = rng.standard_normal((1, *last_shape))
    return leaves, instrs, [terminal, mask, labels, target]


def _run_program(leaves, instrs, terminal):
    """Evaluate the pipeline; returns (scalar node, leaf tensors, value nodes)."""
    tensors: dict[str, Tensor] = {}
    nodes: list[Tensor] = []
    for ins in instrs:
        if ins[0] == "leaf":
            t = Tensor(leaves[ins[1]], requires_grad=True, name=ins[1])
            tensors[ins[1]] = t
            nodes.append(t)
        elif ins[0] in _BIN_OPS:
            nodes.append(_BIN_OPS[ins[0]](nodes[ins[1]], nodes[ins[2]]))
        elif ins[0] == "scale":
            nodes.append(scale(nodes[ins[1]], ins[2]))
        elif ins[0] in _UN_OPS:
            nodes.append(_UN_OPS[ins[0]](nodes[ins[1]]))
        else:
            nodes.append(matmul(nodes[ins[1]], nodes[ins[2]]))
    term, mask, labels, target = terminal
    x = nodes[-1]
    if term == "sum_all":
        out = sum_all(x)
    elif term == "ce":
        out = cross_entropy(x, labels)
    else:
        # a masked terminal routes the selected rows to its one teacher
        owner = np.where(mask == 1.0, 0, -1) if term.startswith("masked") else None
        out = distance([x], [target], owner)
    return out, tensors, nodes


def _resolve_kinks(leaves, instrs, terminal) -> None:
    """Swap relu ops whose unperturbed inputs sit near the kink for square.

    Re-checked to a fixed point because each substitution changes
    downstream values. The terminals are smooth (squared distances have no
    kink), so they need no such care.
    """
    while True:
        _, _, nodes = _run_program(leaves, instrs, terminal)
        for idx, ins in enumerate(instrs):
            if ins[0] == "relu" and np.abs(nodes[ins[1]].data).min() < 1e-2:
                instrs[idx] = ("square", ins[1])
                break
        else:
            return


def _max_rel_err(analytic: dict, numeric: dict) -> float:
    worst = 0.0
    for name, fd in numeric.items():
        a = analytic[name]
        denom = np.maximum(1.0, np.maximum(np.abs(a), np.abs(fd)))
        worst = max(worst, float((np.abs(a - fd) / denom).max()))
    return worst


def _loss_fd_cases():
    """The composite objectives as (name, leaf arrays, evaluate closure).

    Each closure reads the (possibly perturbed) arrays afresh and returns
    the loss value together with its gradient with respect to every leaf
    array, so one closure serves both the analytic gradients and the
    differencing oracle.
    """
    rng = np.random.default_rng(99)
    n, d, classes = 5, 4, 6

    def student(arrs):
        return TapSet(taps=[arrs["s0"], arrs["s1"]], logits=arrs["slog"])

    def summed(parts, like):
        total = np.zeros_like(like)
        for g in parts:
            total += g
        return total

    def on_student(objective, a):
        grads = {k: summed(parts, a[k]) for k, parts in zip(("s0", "s1"), objective.taps)}
        return objective.value, {**grads, "slog": summed(objective.logits, a["slog"])}

    student_arrs = {
        "s0": rng.standard_normal((n, d)),
        "s1": rng.standard_normal((n, d)),
        "slog": rng.standard_normal((n, classes)),
    }
    teacher = TapSet(
        taps=[rng.standard_normal((n, d)) for _ in range(2)],
        logits=rng.standard_normal((n, classes)),
    )
    teacher_b = TapSet(
        taps=[rng.standard_normal((n, d)) for _ in range(2)],
        logits=rng.standard_normal((n, classes)),
    )
    labels = rng.integers(0, classes, size=n)
    origins = np.array([0, 1, 0, -1, 1])
    # the same two teachers as one stacked pass, as consolidation sees them
    teachers = stack_passes([teacher, teacher_b])

    def case_task(a):
        loss = task_loss(TapSet(taps=[], logits=a["slog"]), labels)
        return loss.value, {"slog": summed(loss.logits, a["slog"])}

    def case_stability(a):
        return on_student(l_bd(teacher, student(a)), a)

    def case_expert(a):
        return on_student(l_exp(student(a), teacher, labels, 0.7), a)

    def case_batched(a):
        return on_student(l_bmc(student(a), teachers, origins), a)

    def case_consolidation(a):
        return on_student(
            l_base(student(a), teachers, labels, task_coef=0.6, consolidation_coef=1.3,
                   batch_origins=origins),
            a,
        )

    # a (3, 2) weight and a (4,) bias, flat in one parameter array
    ewc_slices = {"w": slice(0, 6), "b": slice(6, 10)}
    fisher = FisherState(importance=rng.uniform(0.1, 1.0, 10), anchor=rng.standard_normal(10))
    ewc_arrs = {"params": rng.standard_normal(10)}

    def case_ewc(a):
        value, grads = ewc_penalty(a["params"], ewc_slices, fisher)
        return value, {"params": grads}

    return [
        ("task_loss", {"slog": student_arrs["slog"]}, case_task),
        ("stability", student_arrs, case_stability),
        ("expert_objective", student_arrs, case_expert),
        ("batched_distillation", student_arrs, case_batched),
        ("consolidation_objective", student_arrs, case_consolidation),
        ("ewc_penalty", ewc_arrs, case_ewc),
    ]


def test_01_gradient_oracles():
    t0 = time.time()
    worst = 0.0
    n_programs = 50
    for i in range(n_programs):
        leaves, instrs, terminal = _gen_program(1000 + i)
        _resolve_kinks(leaves, instrs, terminal)
        out, tensors, _ = _run_program(leaves, instrs, terminal)
        _, analytic = tape_grads(out, tensors)
        numeric = finite_diff_params(
            lambda: float(_run_program(leaves, instrs, terminal)[0].data),
            leaves, h=1e-5,
        )
        worst = max(worst, _max_rel_err(analytic, numeric))

    for _name, arrs, evaluate in _loss_fd_cases():
        _, analytic = evaluate(arrs)
        numeric = finite_diff_params(lambda: float(evaluate(arrs)[0]), arrs, h=1e-5)
        worst = max(worst, _max_rel_err(analytic, numeric))
    elapsed = time.time() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    assert verdict(
        1, "gradient oracles", ok,
        f"{n_programs} random graphs + 6 objective cases, max rel err "
        f"{worst:.2e} (tol 1e-4), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 2. degenerate reduction to plain rehearsal
# ---------------------------------------------------------------------------


def test_02_degenerate_reduction():
    t0 = time.time()
    stream = generate_stream(
        kind="permuted", n_tasks=4, classes_per_task=2, dim=6,
        train_per_task=40, val_per_task=16, seed=11,
    )
    master = 5
    lr, batch, rehearsal, buf_cap, mem_cap = 0.1, 8, 3, 30, 60
    cfg = experiment(
        "bmc", master,
        model=dict(res_blocks=1, res_layers_per_block=1, res_dim=8, hidden_dim=6,
                   dropout_p=0.3),
        training=dict(epochs_per_task=1, lr=lr, batch_size=batch),
        bmc=dict(experts_per_step=1, stability_coef=0.0, task_coef=1.0,
                 consolidation_coef=0.0, rehearsal_epochs=rehearsal,
                 buffer_capacity=buf_cap, memory_capacity=mem_cap),
    )
    report = run_full_stream(stream, cfg)
    assert report.failed_step is None

    # reference: sequential rehearsal — sample a buffer, train the running
    # model on memory+buffer with plain cross-entropy, refresh the memory.
    # Each step runs on the per-op tape oracle, not the production pass.
    # With the consolidation coefficient at zero the expert snapshots are
    # inert, and random buffer sampling reads nothing but (data, seed), so
    # the distributed path must land on bit-identical parameters.
    model = build_model(build_model_config(cfg.model, stream), seed=child_seed(master, "init"))
    memory = Memory(mem_cap, stream.dim)
    for t, task in enumerate(stream.tasks):
        buffer = sample_buffer(
            task.train_x, task.train_y, task.task_id, capacity=buf_cap,
            strategy="random",
            seed=child_seed(child_seed(master, "expert", t), "buffer"),
            owner=0,
        )
        pool = merge_pool(memory, [buffer])
        student = model.copy()
        opt = SGD(lr=lr)
        sched = PlateauScheduler(opt)
        rng = np.random.default_rng(child_seed(master, "consolidate", t))
        for _ in range(rehearsal):
            losses = []
            for _ in range(max(1, len(pool) // batch)):
                batch_set = draw_batch(pool, batch, rng)
                taps, leaves = per_op_forward(student, batch_set.features, train=True, rng=rng)
                value, grads = tape_grads(cross_entropy(taps.logits, batch_set.labels), leaves)
                opt.step(student.flat_params, flat_grads(student, grads),
                         student.layout.param_slices)
                losses.append(value)
            sched.step(float(np.mean(losses)))
        model = student
        memory.replace(
            subsample_memory(pool, mem_cap, seed=child_seed(master, "memory", t))
        )

    got = report.final_params.to_bytes()
    want = model.to_param_vector().to_bytes()
    elapsed = time.time() - t0
    ok = got == want and elapsed < 120.0
    assert verdict(
        2, "degenerate reduction", ok,
        f"final parameters {'bit-identical' if got == want else 'DIFFER'} over "
        f"{len(stream.tasks)} tasks ({len(want)} bytes), {elapsed:.1f}s",
    )


# ---------------------------------------------------------------------------
# 3 & 4. forgetting gap and expert-count trend on the 16-task stream
# ---------------------------------------------------------------------------

_trend_cache: dict[tuple, float] = {}


def _consolidated_acc(k: int, seed: int, buffer: int, memory: int) -> float:
    key = (k, seed, buffer, memory)
    if key not in _trend_cache:
        stream = generate_stream(**TREND_STREAM)
        cfg = experiment(
            "bmc", seed, model=TREND_MODEL, training=TREND_TRAINING,
            bmc=dict(experts_per_step=k, rehearsal_epochs=TREND_REHEARSAL,
                     buffer_capacity=buffer, memory_capacity=memory),
        )
        _trend_cache[key] = run_full_stream(stream, cfg).final_mean_acc
    return _trend_cache[key]


def test_03_forgetting_gap():
    stream = generate_stream(**TREND_STREAM)
    bmc = [_consolidated_acc(4, s, GAP_BUFFER, GAP_MEMORY) for s in SEEDS]
    # compute-matched naive baseline: the same per-task epochs an expert gets
    # plus this run's share of the rehearsal budget
    sgd_epochs = TREND_TRAINING["epochs_per_task"] + TREND_REHEARSAL // 4
    sgd_training = dict(TREND_TRAINING, epochs_per_task=sgd_epochs)
    sgd = [
        run_baseline(
            stream, experiment("sgd", s, model=TREND_MODEL, training=sgd_training)
        ).final_mean_acc
        for s in SEEDS
    ]
    mean_bmc, mean_sgd = float(np.mean(bmc)), float(np.mean(sgd))
    ok = mean_bmc >= 2.0 * mean_sgd
    assert verdict(
        3, "forgetting gap", ok,
        f"consolidated {mean_bmc:.3f} vs naive sgd {mean_sgd:.3f} over "
        f"{len(SEEDS)} seeds ({mean_bmc / max(mean_sgd, 1e-9):.1f}x, need >=2x)",
    )


def test_04_expert_count_trend():
    ks = (1, 2, 4, 8)
    means = [
        float(np.mean([_consolidated_acc(k, s, TREND_BUFFER, TREND_MEMORY) for s in SEEDS]))
        for k in ks
    ]
    rho = _spearman(ks, means)
    ok = rho > 0.0
    assert verdict(
        4, "expert-count trend", ok,
        "mean acc " + ", ".join(f"k={k}:{m:.3f}" for k, m in zip(ks, means))
        + f"; spearman {rho:.2f} (need >0)",
    )


# ---------------------------------------------------------------------------
# 5. buffer sampling ablation
# ---------------------------------------------------------------------------


def test_05_sampling_ablation():
    stream = generate_stream(**SAMPLING_STREAM)
    means = {}
    for strategy in ("random", "grad_max_base", "grad_min_expert"):
        accs = [
            run_full_stream(stream, experiment(
                "bmc", s, model=SAMPLING_MODEL,
                training=dict(epochs_per_task=4, lr=0.1, batch_size=32),
                bmc=dict(experts_per_step=4, rehearsal_epochs=20, buffer_capacity=100,
                         memory_capacity=400, sampling=strategy),
            )).final_mean_acc
            for s in SEEDS
        ]
        means[strategy] = float(np.mean(accs))
    margin = 0.01  # one accuracy point
    gaps = {s: means["random"] - m for s, m in means.items() if s != "random"}
    ok = all(g >= -margin for g in gaps.values())
    assert verdict(
        5, "sampling ablation", ok,
        ", ".join(f"{s}:{m:.3f}" for s, m in means.items())
        + f"; random trails by at most {-min(gaps.values()):.3f} (allowed {margin})",
    )


# ---------------------------------------------------------------------------
# 6. coefficient trend over a random sweep
# ---------------------------------------------------------------------------


def test_06_coefficient_trend(tmp_path):
    raw = {
        "trials": 30,
        "seed": SWEEP_SEED,
        "base": {
            "method": "bmc",
            "seed": 0,
            "stream": {"kind": "permuted", "n_tasks": 6, "classes_per_task": 3,
                       "dim": 10, "train_per_task": 200, "val_per_task": 60,
                       "seed": 100},
            "model": {"res_blocks": 1, "res_layers_per_block": 1, "res_dim": 24,
                      "hidden_dim": 12, "dropout_p": 0.1},
            "training": {"epochs_per_task": 4, "lr": 0.05, "batch_size": 32},
            "bmc": {"experts_per_step": 3, "rehearsal_epochs": 15,
                    "buffer_capacity": 100, "memory_capacity": 50},
        },
        "ranges": {
            "bmc.stability_coef": {"low": 0.0, "high": 2.0},
            "bmc.consolidation_coef": {"low": 0.0, "high": 2.0},
        },
    }
    # Each coefficient is gated on the distance it is documented to control:
    # the stability loss keeps every expert near the base it started from,
    # and the batched consolidation loss pulls the base onto the experts.
    # Accuracy is not gated: each buffer holds half of its task's training
    # rows, so replay alone already learns every new task and the accuracy
    # trends say little about either coefficient here. They are printed.
    rows = run_sweep(parse_sweep(raw), tmp_path / "sweep")
    done = [r for r in rows if r["status"] == "ok"]
    lam = [r["sampled"]["bmc.stability_coef"] for r in done]
    beta = [r["sampled"]["bmc.consolidation_coef"] for r in done]
    acc = [r["final_mean_acc"] for r in done]
    dists = [_mean_expert_distances(tmp_path / "sweep" / f"trial-{r['trial']:04d}")
             for r in done]
    rho_lam = _spearman(lam, [d[0] for d in dists])
    rho_beta = _spearman(beta, [d[1] for d in dists])
    ok = len(done) == 30 and rho_lam <= -0.5 and rho_beta <= -0.5
    assert verdict(
        6, "coefficient trend", ok,
        f"{len(done)}/30 trials ok; spearman stability vs expert-base distance "
        f"{rho_lam:.2f}, consolidation vs consolidated-expert distance "
        f"{rho_beta:.2f} (need <=-0.5 each); accuracy spearman stability "
        f"{_spearman(lam, acc):.2f}, consolidation {_spearman(beta, acc):.2f}",
    )


def _mean_expert_distances(trial_dir) -> tuple[float, float]:
    """Mean expert-to-base and consolidated-to-expert distances of one run,
    over every expert of every step, as its records.jsonl reports them."""
    rows = [json.loads(line) for line in (trial_dir / "records.jsonl").read_text().splitlines()]
    experts = [e for r in rows if r["type"] == "step" for e in r["experts"]]
    return (
        float(np.mean([e["expert_base_distance"] for e in experts])),
        float(np.mean([e["consolidated_expert_distance"] for e in experts])),
    )


# ---------------------------------------------------------------------------
# 7. cost ledger exactness
# ---------------------------------------------------------------------------


def _ledger_case(n_tasks, k, dim, buffer_capacity, memory_capacity, train_per_task):
    stream = generate_stream(
        kind="permuted", n_tasks=n_tasks, classes_per_task=2, dim=dim,
        train_per_task=train_per_task, val_per_task=6, seed=17,
    )
    cfg = experiment(
        "bmc", 2,
        model=dict(res_blocks=1, res_layers_per_block=1, res_dim=6, hidden_dim=5,
                   dropout_p=0.0),
        training=dict(epochs_per_task=1, lr=0.1, batch_size=4),
        bmc=dict(experts_per_step=k, rehearsal_epochs=1, buffer_capacity=buffer_capacity,
                 memory_capacity=memory_capacity),
    )
    report = run_full_stream(stream, cfg)
    assert report.failed_step is None

    # independent arithmetic from the serialization layout alone
    n_param = build_model(build_model_config(cfg.model, stream), seed=0).to_param_vector().nbytes
    rows_per_buffer = min(buffer_capacity, train_per_task)
    mem_len = 0
    mismatches = []
    step_sizes = [len(range(i, min(i + k, n_tasks))) for i in range(0, n_tasks, k)]
    costs = [r.cost for r in report.records]
    for entry, k_step in zip(costs, step_sizes):
        expect = {
            "broadcast_bytes": k_step * (12 + SYNC_FIXED_NBYTES + n_param),
            "upload_bytes": k_step * (
                12 + ARTIFACT_FIXED_NBYTES + n_param
                + 12 + exemplar_block_nbytes(rows_per_buffer, dim)
            ),
            "memory_bytes": exemplar_block_nbytes(mem_len, dim),
            "expert_param_bytes": k_step * n_param,
            "model_bytes": n_param,
        }
        for field, want in expect.items():
            got = getattr(entry, field)
            if got != want:
                mismatches.append(f"step {entry.step_id} {field}: {got} != {want}")
        mem_len = min(memory_capacity, mem_len + k_step * rows_per_buffer)

    per_step_mb = [
        (e.memory_bytes + e.expert_param_bytes + e.broadcast_bytes + e.upload_bytes) / 1e6
        for e in costs
    ]
    t_c = float(np.mean(per_step_mb) + n_param / 1e6)
    a_c = report.final_mean_acc / t_c
    dt = abs(total_cost(costs) - t_c)
    da = abs(cost_accuracy(report.final_mean_acc, total_cost(costs)) - a_c)
    return mismatches, dt, da, len(costs)


def test_07_cost_ledger_exactness():
    cases = [
        dict(n_tasks=5, k=3, dim=7, buffer_capacity=25, memory_capacity=120,
             train_per_task=30),   # uneven final step, buffers truncated
        dict(n_tasks=4, k=2, dim=4, buffer_capacity=50, memory_capacity=30,
             train_per_task=12),   # buffers keep whole tasks, memory saturates
        dict(n_tasks=3, k=1, dim=16, buffer_capacity=10, memory_capacity=15,
             train_per_task=20),   # single-expert steps
    ]
    all_mismatches = []
    worst_dt = worst_da = 0.0
    n_steps = 0
    for case in cases:
        mismatches, dt, da, steps = _ledger_case(**case)
        all_mismatches += mismatches
        worst_dt, worst_da = max(worst_dt, dt), max(worst_da, da)
        n_steps += steps
    ok = not all_mismatches and worst_dt <= 1e-9 and worst_da <= 1e-9
    assert verdict(
        7, "cost ledger exactness", ok,
        f"{n_steps} steps across {len(cases)} configurations byte-exact"
        + (f", {len(all_mismatches)} field mismatches" if all_mismatches else "")
        + f"; total-cost drift {worst_dt:.1e}, cost-accuracy drift {worst_da:.1e}",
    ), "; ".join(all_mismatches[:5])


# ---------------------------------------------------------------------------
# 8. parallel wall-clock vs sequential baseline
# ---------------------------------------------------------------------------


def test_08_parallel_time():
    stream = generate_stream(**TREND_STREAM)
    k, expert_epochs, rehearsal = 4, 40, 8
    cfg = experiment(
        "bmc", 0, model=TREND_MODEL,
        training=dict(epochs_per_task=expert_epochs, lr=0.1, batch_size=32),
        bmc=dict(experts_per_step=k, rehearsal_epochs=rehearsal, buffer_capacity=GAP_BUFFER,
                 memory_capacity=GAP_MEMORY, workers=4),
    )
    t0 = time.perf_counter()
    report = run_full_stream(stream, cfg, executor=ProcessExecutor(4))
    bmc_wall = time.perf_counter() - t0
    assert report.failed_step is None

    # epoch-matched sequential reference: expert epochs plus this run's
    # per-task share of the rehearsal budget
    sgd_cfg = experiment(
        "sgd", 0, model=TREND_MODEL,
        training=dict(epochs_per_task=expert_epochs + rehearsal // k, lr=0.1, batch_size=32),
    )
    t0 = time.perf_counter()
    run_baseline(stream, sgd_cfg)
    sgd_wall = time.perf_counter() - t0
    ratio = bmc_wall / sgd_wall

    cores = os.cpu_count() or 1
    if cores < 4:
        print(
            f"ACCEPTANCE 8 (parallel time): SKIP — needs >=4 cores, have {cores}; "
            f"measured ratio {ratio:.2f} ({bmc_wall:.1f}s vs {sgd_wall:.1f}s)"
        )
        pytest.skip(f"parallel-time criterion needs >=4 cores (have {cores})")
    ok = ratio <= 1.0
    assert verdict(
        8, "parallel time", ok,
        f"{bmc_wall:.1f}s parallel vs {sgd_wall:.1f}s sequential on {cores} cores "
        f"(ratio {ratio:.2f}, need <=1.0; desk target 0.9)",
    )


# ---------------------------------------------------------------------------
# 9. protocol constraints
# ---------------------------------------------------------------------------


class _CapturingExecutor(SerialExecutor):
    def __init__(self):
        self.args: tuple = ()

    def run(self, syncs, tasks, model_config):
        self.args = (list(syncs), tasks, model_config)
        return super().run(syncs, tasks, model_config)


class _FailingExecutor:
    def run(self, syncs, tasks, model_config):
        raise ExpertFailure("worker crashed")


def test_09_protocol_constraints(tmp_path):
    stream = generate_stream(
        kind="permuted", n_tasks=3, classes_per_task=2, dim=5,
        train_per_task=16, val_per_task=6, seed=3,
    )
    model_cfg = ModelConfig(
        input_dim=stream.dim, total_classes=stream.total_classes, res_blocks=1,
        res_layers_per_block=1, res_dim=6, hidden_dim=5, dropout_p=0.0,
    )
    cfg = experiment(
        "bmc", 9, training=dict(epochs_per_task=1, lr=0.1, batch_size=4),
        bmc=dict(experts_per_step=3, rehearsal_epochs=1, buffer_capacity=10,
                 task_coef=1.0, consolidation_coef=1.0),
    )
    base = build_model(model_cfg, seed=child_seed(9, "init"))
    memory = Memory(40, stream.dim)
    transport = CountingTransport()
    plan = plan_steps(stream, cfg)[0]
    capturing = _CapturingExecutor()
    result = run_incremental_step(base, plan, memory, cfg, transport, capturing)

    # (a) exactly k artifact messages, duplicates rejected
    exactly_k = transport.artifact_count == plan.k
    with pytest.raises(ProtocolViolation):
        transport.send_artifact(frame(TAG_ARTIFACT, encode_artifact(result.artifacts[0])))

    # (b) experts get their SYNC bytes, the step's tasks and the model shape:
    # exactly the counted broadcast, and nothing that reaches a memory
    syncs, tasks, shape = capturing.args
    no_memory_handle = (
        all(type(m) is bytes for m in syncs)
        and sum(len(m) for m in syncs) == result.cost.broadcast_bytes
        and tasks == plan.tasks
        and shape == model_cfg
        and not any(isinstance(v, Memory) for v in (*syncs, *tasks, shape))
    )

    # (c) a failed step leaves base and memory byte-identical
    base2 = result.base
    base_bytes = base2.to_param_vector().to_bytes()
    memory_bytes = memory.exemplars.features.tobytes() + memory.exemplars.labels.tobytes()
    with pytest.raises(StepFailure):
        run_incremental_step(base2, plan, memory, cfg, transport, _FailingExecutor())
    untouched = (
        base2.to_param_vector().to_bytes() == base_bytes
        and memory.exemplars.features.tobytes() + memory.exemplars.labels.tobytes()
        == memory_bytes
    )

    # (d) serial mode: two identical runs, bit-identical summaries
    exp = parse_config({
        "method": "bmc",
        "seed": 7,
        "stream": {"kind": "permuted", "n_tasks": 3, "classes_per_task": 2,
                   "dim": 5, "train_per_task": 16, "val_per_task": 6, "seed": 3},
        "model": {"res_blocks": 1, "res_layers_per_block": 1, "res_dim": 6,
                  "hidden_dim": 5, "dropout_p": 0.0},
        "training": {"epochs_per_task": 1, "lr": 0.1, "batch_size": 4},
        "bmc": {"experts_per_step": 2, "rehearsal_epochs": 1,
                "buffer_capacity": 8, "memory_capacity": 30},
    })
    code_a, _ = run_experiment(exp, tmp_path / "a")
    code_b, _ = run_experiment(exp, tmp_path / "b")
    rerun_identical = (
        code_a == 0 and code_b == 0
        and (tmp_path / "a" / "summary.json").read_bytes()
        == (tmp_path / "b" / "summary.json").read_bytes()
    )

    ok = exactly_k and no_memory_handle and untouched and rerun_identical
    assert verdict(
        9, "protocol constraints", ok,
        f"artifacts per step {'==k' if exactly_k else 'WRONG'}, "
        f"context fields {'sealed' if no_memory_handle else 'LEAK'}, "
        f"failed step {'left state untouched' if untouched else 'MUTATED STATE'}, "
        f"rerun summary {'bit-identical' if rerun_identical else 'DIFFERS'}",
    )


# ---------------------------------------------------------------------------
# 10. replay invariants
# ---------------------------------------------------------------------------


def _pool_of(counts: dict[int, int], dim: int = 4) -> ExemplarSet:
    rng = np.random.default_rng(1)
    parts = [
        ExemplarSet.from_task_data(
            rng.standard_normal((n, dim)).astype(np.float32),
            np.zeros(n, dtype=np.int64), task_id=t, origin=0,
        )
        for t, n in counts.items()
    ]
    return ExemplarSet.concat(parts)


def test_10_replay_invariants():
    # capacity honored at every step of a 16-task run
    stream = generate_stream(
        kind="permuted", n_tasks=16, classes_per_task=2, dim=8,
        train_per_task=80, val_per_task=24, seed=21,
    )
    k, mem_cap = 3, 100
    model_cfg = ModelConfig(
        input_dim=stream.dim, total_classes=stream.total_classes, res_blocks=1,
        res_layers_per_block=1, res_dim=8, hidden_dim=6, dropout_p=0.0,
    )
    base = build_model(model_cfg, seed=child_seed(4, "init"))
    memory = Memory(mem_cap, stream.dim)
    transport = CountingTransport()
    executor = SerialExecutor()
    cfg = experiment(
        "bmc", 4, training=dict(epochs_per_task=1, lr=0.1, batch_size=8),
        bmc=dict(experts_per_step=k, rehearsal_epochs=1, buffer_capacity=30,
                 task_coef=1.0, consolidation_coef=1.0),
    )
    over_capacity = []
    for plan in plan_steps(stream, cfg):
        result = run_incremental_step(base, plan, memory, cfg, transport, executor)
        base = result.base
        if len(memory) > mem_cap:
            over_capacity.append((plan.step_id, len(memory)))

    # adversarial pools: balanced quotas and exact totals
    quota_violations = []

    def check(counts, capacity):
        pool = _pool_of(counts)
        out = subsample_memory(pool, capacity, seed=8)
        if len(out) != min(capacity, len(pool)):
            quota_violations.append(f"total {len(out)} for {counts}")
        quota = capacity // len(counts)
        for t, n in counts.items():
            kept = int((out.task_ids == t).sum())
            if kept < min(n, quota):
                quota_violations.append(f"task {t} kept {kept} < {min(n, quota)}")

    check({0: 97, 1: 2, 2: 1}, 10)            # skew: tiny tasks must survive
    check({t: 5 for t in range(12)}, 8)       # more tasks than slots
    check({0: 50}, 10)                        # single task
    check({0: 3, 1: 3}, 10)                   # under capacity: identity
    ok = not over_capacity and not quota_violations
    assert verdict(
        10, "replay invariants", ok,
        f"memory <= {mem_cap} across "
        f"{len(stream.tasks) // k + 1} steps"
        + (f" (VIOLATED {over_capacity})" if over_capacity else "")
        + "; adversarial quotas "
        + ("held" if not quota_violations else f"VIOLATED: {quota_violations[:3]}"),
    )


# ---------------------------------------------------------------------------
# 11. pareto export
# ---------------------------------------------------------------------------


def test_11_pareto_export():
    rng = np.random.default_rng(2024)
    # two-decimal rounding forces duplicate points and cost ties
    points = [
        (round(float(c), 2), round(float(a), 2))
        for c, a in zip(rng.uniform(0, 10, 100), rng.uniform(0, 1, 100))
    ]
    frontier = export_pareto(points)
    uniq = sorted({(float(c), float(a)) for c, a in points})
    brute = [
        p for p in uniq
        if not any(q[0] < p[0] and q[1] > p[1] for q in uniq)
    ]
    exact = frontier == brute

    smooth = [(float(c), float(a)) for c, a in zip(rng.uniform(0, 1, 100), rng.uniform(0, 1, 100))]
    frontier2 = export_pareto(smooth)
    uniq2 = sorted(set(smooth))
    brute2 = [p for p in uniq2 if not any(q[0] < p[0] and q[1] > p[1] for q in uniq2)]
    exact2 = frontier2 == brute2

    ok = exact and exact2
    assert verdict(
        11, "pareto export", ok,
        f"tied/duplicated cloud: {len(frontier)}-point frontier "
        f"{'matches' if exact else 'DIFFERS from'} brute force; "
        f"continuous cloud: {len(frontier2)}-point frontier "
        f"{'matches' if exact2 else 'DIFFERS'}",
    )
