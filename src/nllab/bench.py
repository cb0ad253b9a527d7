"""Optimizer benchmarks: the time-varying-curvature toy, the orthogonal
continual stream, and the momentum contribution-share report.

Shipped defaults are the calibrated settings the acceptance suite runs at; all
outputs are plain CSV series.
"""

from __future__ import annotations

import os

import numpy as np

from .fileio import write_atomic
from .optim import contribution_curve, init_state, step
from .tasks import forgetting_metric, orthogonal_task_stream, psi, stream_task_loss
from .tensor import Tensor

PSI_DEFAULTS = {
    "momentum": dict(eta=0.004, beta=0.95),
    "delta_momentum": dict(eta=0.004, beta=0.95, eta_inner=0.05),
}
PSI_START = (-3.5, 2.0)
PSI_THRESHOLD = 1e-3
PSI_MAX_STEPS = 5000

ORTHO_DEFAULTS = {
    "momentum": dict(eta=0.02, beta=0.95),
    "delta_momentum": dict(eta=0.02, beta=0.95, eta_inner=0.5),
    "m3": dict(eta=0.02, beta1=0.9, beta2=0.999, beta3=0.9, alpha=0.5, slow_freq=10, ns_iters=5),
}
ORTHO_STEPS_PER_TASK = 50
ORTHO_DIM = 8
ORTHO_SAMPLES = 32
ORTHO_SEEDS = 10


def _write_csv(path: str, header: str, rows: list[str]) -> None:
    write_atomic(path, "".join(line + "\n" for line in [header, *rows]))


def psi_trajectory(kind: str, hp: dict):
    """Optimize the toy objective from the standard start point.

    Returns (trajectory rows [(step, value, grad_norm)], steps_to_threshold or None).
    """
    st = init_state(kind, (2,), **hp)
    p = Tensor(list(PSI_START))
    rows = []
    reached = None
    for i in range(PSI_MAX_STEPS + 1):
        value, grad = psi(p.data[0], p.data[1])
        rows.append((i, value, float(np.linalg.norm(grad))))
        if reached is None and value < PSI_THRESHOLD:
            reached = i
            break
        p, st = step(kind, st, p, Tensor(grad))
    return rows, reached


def run_psi_benchmark(out_dir: str) -> dict:
    results = {}
    summary_rows = []
    for kind, hp in PSI_DEFAULTS.items():
        rows, reached = psi_trajectory(kind, hp)
        _write_csv(
            os.path.join(out_dir, f"psi_{kind}.csv"),
            "step,value,grad_norm",
            [f"{s},{v},{g}" for s, v, g in rows],
        )
        results[kind] = {"steps_to_threshold": reached, "final_value": rows[-1][1]}
        summary_rows.append(f"{kind},psi,{reached if reached is not None else ''},{rows[-1][1]},")
    _write_csv(
        os.path.join(out_dir, "psi_summary.csv"),
        "optimizer,experiment,steps_to_threshold,final_value,forgetting",
        summary_rows,
    )
    return results


def orthogonal_forgetting(kind: str, hp: dict, seed: int) -> float:
    """Forgetting of task 1 after sequentially training task 2, single seed."""
    stream = orthogonal_task_stream(2, ORTHO_DIM, ORTHO_SAMPLES, seed=seed)
    w = Tensor(np.zeros((ORTHO_DIM, 1)))
    st = init_state(kind, w.shape, **hp)
    before = None
    for task_idx, samples in enumerate(stream):
        for i in range(ORTHO_STEPS_PER_TASK):
            x, y = samples[i % len(samples)]
            pred = float(x @ w.data[:, 0])
            grad = (2.0 * (pred - y) * x).reshape(-1, 1)
            w, st = step(kind, st, w, Tensor(grad))
        if task_idx == 0:
            before = stream_task_loss(stream, 0, w.data)
    after = stream_task_loss(stream, 0, w.data)
    return forgetting_metric([before], [after])


def run_orthogonal_benchmark(out_dir: str) -> dict:
    per_seed = {kind: [] for kind in ORTHO_DEFAULTS}
    for seed in range(ORTHO_SEEDS):
        for kind, hp in ORTHO_DEFAULTS.items():
            per_seed[kind].append(orthogonal_forgetting(kind, hp, seed))
    rows = []
    for seed in range(ORTHO_SEEDS):
        cells = ",".join(str(per_seed[kind][seed]) for kind in ORTHO_DEFAULTS)
        rows.append(f"{seed},{cells}")
    _write_csv(os.path.join(out_dir, "orthogonal_forgetting.csv"), "seed," + ",".join(ORTHO_DEFAULTS), rows)

    summary_rows = [
        f"{kind},orthogonal,,{np.mean(vals)},{np.mean(vals)}" for kind, vals in per_seed.items()
    ]
    _write_csv(
        os.path.join(out_dir, "orthogonal_summary.csv"),
        "optimizer,experiment,steps_to_threshold,final_value,forgetting",
        summary_rows,
    )
    wins = {}
    base = per_seed.get("momentum")
    for kind, vals in per_seed.items():
        if kind == "momentum" or base is None:
            continue
        wins[kind] = sum(int(v < b) for v, b in zip(vals, base))
    return {"per_seed": per_seed, "wins_vs_momentum": wins}


CONTRIBUTION_BETA = 0.9
CONTRIBUTION_TERMS = 60
# share thresholds often stated for beta = 0.9 alongside the computed crossings
STATED_CROSSINGS = {0.5: 6, 0.99: 43}


def run_contribution_report(out_dir: str) -> dict:
    curve = contribution_curve(CONTRIBUTION_BETA, CONTRIBUTION_TERMS)
    _write_csv(
        os.path.join(out_dir, "contribution_curve.csv"),
        "j,cumulative_share",
        [f"{j + 1},{c}" for j, c in enumerate(curve)],
    )
    crossings = {}
    rows = []
    for threshold, stated in STATED_CROSSINGS.items():
        computed = next(j + 1 for j, c in enumerate(curve) if c > threshold)
        crossings[threshold] = computed
        rows.append(f"{threshold},{computed},{stated}")
    _write_csv(
        os.path.join(out_dir, "contribution_crossings.csv"),
        "threshold,computed_index,stated_index",
        rows,
    )
    return {"crossings": crossings, "stated": dict(STATED_CROSSINGS)}
