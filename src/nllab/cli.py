"""Command-line entry points: verify, train, eval, bench-optim, emit-plots."""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import bench, checkpoint, optim, verify
from .config import ConfigError, load_config, write_json_atomic
from .hope import DivergenceError, HopeConfig, HopeModel, outer_optimizer_states, train
from .runlog import RunlogError, emit_plot_series, read_runlog, write_runlog
from .seeding import derive_seed
from .tasks import LANGUAGE_KINDS, RECALL_KINDS, TaskSpec, evaluate, generate, vocabulary
from .tensor import NonFiniteError, ShapeError


def build_task_data(cfg: dict, seed: int, params: dict, n: int) -> list[dict]:
    """`n` samples of the config's task at `seed` with `params`; a bad task config raises ConfigError."""
    task = cfg["task"]
    try:
        spec = TaskSpec(task["kind"], seed=seed, bin0=tuple(task["bin0"]), bin1=tuple(task["bin1"]), params=dict(params))
        return generate(spec, n)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid task config at $.task: {exc}") from exc


def build_eval_data(cfg: dict) -> list[dict]:
    """The held-out samples: own seed, own share of length-bin-1 samples."""
    train = cfg["train"]
    params = {**cfg["task"]["params"], "bin1_fraction": train["eval_bin1_fraction"]}
    return build_task_data(cfg, train["eval_seed"], params, train["eval_samples"])


def build_model(cfg: dict) -> HopeModel:
    """HopeModel from the resolved config; a bad model config raises ConfigError."""
    task_kind = cfg["task"]["kind"]
    m = cfg["model"]
    try:
        vocab = m["vocab"] or len(vocabulary(task_kind))
        if task_kind in LANGUAGE_KINDS:
            num_classes = m["num_classes"] or 2
        elif task_kind in RECALL_KINDS:
            num_classes = m["num_classes"] or vocab
        else:
            num_classes = m["num_classes"]
        hope_cfg = HopeConfig(
            **{
                **m,
                "vocab": vocab,
                "num_classes": num_classes,
                "frozen_slots": tuple(m["frozen_slots"]),
                "cms_chunks": tuple(m["cms_chunks"]),
            }
        )
        model = HopeModel(hope_cfg, seed=derive_seed(cfg["seed"], "init"))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model config at $.model: {exc}") from exc
    _check_fits_task(task_kind, hope_cfg)
    return model


def _check_fits_task(kind: str, model_cfg: HopeConfig) -> None:
    """A model with fewer token ids or classes than the task uses, or a classifier
    head on a next-token task, raises ConfigError naming the key."""
    if kind not in LANGUAGE_KINDS + RECALL_KINDS + ("char_lm",):
        return
    if kind == "char_lm" and model_cfg.num_classes:
        raise ConfigError(f"invalid model config at $.model.num_classes: next-token task {kind!r} takes 0, got {model_cfg.num_classes}")
    tokens = len(vocabulary(kind))
    # recall labels are value tokens, which all precede the final query token
    labels = 2 if kind in LANGUAGE_KINDS else tokens - 1 if kind in RECALL_KINDS else 0
    for key, need, what in (("vocab", tokens, "token ids"), ("num_classes", labels, "labels")):
        have = getattr(model_cfg, key)
        if have < need:
            raise ConfigError(f"invalid model config at $.model.{key}: {have} is fewer than the {need} {what} of task {kind!r}")


def check_optimizers(cfg: dict, model: HopeModel) -> None:
    """Build every optimizer state train() builds and take one step with each, on a
    gradient of ones: some settings are read only when the gradient is non-zero.

    A kind, shape or hyperparameter an optimizer rejects raises ConfigError naming its key.
    """
    kind, hp = cfg["train"]["optimizer"], cfg["train"]["opt_hp"]
    try:
        for name, state in outer_optimizer_states(model, kind, hp).items():
            optim.step(kind, state, model.params[name], np.ones_like(model.params[name]))
    except (TypeError, ValueError, ArithmeticError) as exc:
        key = "optimizer" if not hp or isinstance(exc, optim.UnsupportedShape) else "opt_hp"
        raise ConfigError(f"invalid optimizer setting at $.train.{key}: {exc}") from exc
    try:
        for level in (lv for chain in model.chains if chain for lv in chain.levels):
            for state, w in zip(level.opt_states or (), (level.w1, level.w2)):
                optim.step(state.kind, state, w, np.ones_like(w))
    except (TypeError, ValueError, ArithmeticError) as exc:
        raise ConfigError(f"invalid level optimizer at $.model.cms_optimizer: {exc}") from exc


def _eval_metrics(model: HopeModel, eval_data) -> dict:
    if model.config.num_classes:
        metrics = evaluate(model, eval_data)
        return {k: v for k, v in metrics.items() if not (isinstance(v, float) and np.isnan(v))}
    return {"loss_eval": evaluate(model, eval_data[:16])["loss"]}


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    task_seed = derive_seed(cfg["seed"], "data", cfg["task"]["seed"])
    train_data = build_task_data(cfg, task_seed, cfg["task"]["params"], cfg["train"]["train_samples"])
    eval_data = build_eval_data(cfg)
    model = build_model(cfg)
    check_optimizers(cfg, model)
    out_dir = cfg["out_dir"]
    write_json_atomic(os.path.join(out_dir, "config.json"), cfg)

    failed = True
    try:
        records = [{"step": 0, **_eval_metrics(model, eval_data)}]
    except NonFiniteError as exc:
        records = [{"step": 0, "event": "diverged", "detail": str(exc)}]
    else:
        try:
            log = train(
                model,
                train_data,
                opt_kind=cfg["train"]["optimizer"],
                steps=cfg["train"]["steps"],
                seed=derive_seed(cfg["seed"], "shuffle"),
                batch_size=cfg["train"]["batch_size"],
                eval_every=cfg["train"]["eval_every"],
                eval_fn=lambda m: _eval_metrics(m, eval_data),
                opt_hp=cfg["train"]["opt_hp"],
                clip_norm=cfg["train"]["clip_norm"],
            )
            failed = False
        except DivergenceError as exc:
            log = exc.log
        records.extend(log)

    write_runlog(os.path.join(out_dir, "runlog.jsonl"), records)
    checkpoint.save(os.path.join(out_dir, "checkpoint.nlck"), model.named_parameters())
    print(f"wrote {out_dir}/runlog.jsonl and {out_dir}/checkpoint.nlck ({len(records)} records)")
    if failed:
        print(f"error: training diverged at step {records[-1]['step']}: {records[-1]['detail']}", file=sys.stderr)
    return 1 if failed else 0


def cmd_eval(args) -> int:
    cfg = load_config(args.config)
    model = build_model(cfg)
    tensors = checkpoint.load(args.checkpoint)
    missing = sorted(set(model.named_parameters()) - set(tensors))
    if missing:
        raise checkpoint.CheckpointError(f"{args.checkpoint} lacks the config's tensors {missing}")
    nonfinite = sorted(name for name, value in tensors.items() if not np.isfinite(value).all())
    if nonfinite:
        raise checkpoint.CheckpointError(f"{args.checkpoint} holds non-finite values in {nonfinite}")
    try:
        for name, value in tensors.items():
            model.set_parameter(name, value)
    except (KeyError, ShapeError) as exc:
        raise checkpoint.CheckpointError(f"{args.checkpoint} does not fit the config: {exc.args[0]}") from exc
    try:
        metrics = _eval_metrics(model, build_eval_data(cfg))
    except NonFiniteError as exc:
        print(f"error: evaluation diverged (non-finite value): {exc}", file=sys.stderr)
        return 1
    print(json.dumps(metrics, indent=2, sort_keys=True))
    return 0


def cmd_bench_optim(args) -> int:
    cfg = load_config(args.config)
    out_dir = cfg["out_dir"]
    kind = cfg["task"]["kind"]
    if kind not in ("toy_psi", "orthogonal_continual"):
        raise ConfigError(f"invalid task config at $.task.kind: bench-optim takes toy_psi or orthogonal_continual, got {kind!r}")
    bench.run_contribution_report(out_dir)
    if kind == "toy_psi":
        results = bench.run_psi_benchmark(out_dir)
        for name, r in results.items():
            print(f"{name}: steps_to_threshold={r['steps_to_threshold']} final={r['final_value']:.3e}")
    else:
        report = bench.run_orthogonal_benchmark(out_dir)
        for name, vals in report["per_seed"].items():
            print(f"{name}: mean forgetting {np.mean(vals):.3e}")
        print(f"wins vs momentum: {report['wins_vs_momentum']}")
    print(f"wrote CSV series under {out_dir}")
    return 0


def cmd_emit_plots(args) -> int:
    records = read_runlog(args.runlog)
    written = emit_plot_series(records, args.out)
    for path in written:
        print(path)
    return 0


def cmd_verify(args) -> int:
    results = verify.run_checks(pattern=args.filter, faults=args.inject_fault, out_dir=args.out)
    if not results:
        print(f"no checks match filter {args.filter!r}", file=sys.stderr)
        return 2
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  measured={r.measured:.3e}  {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="nllab", description="desk-scale nested-optimization laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run registered oracle/invariant checks")
    p.add_argument("--filter", help="substring filter on check names")
    p.add_argument("--out", help="directory for emitted CSV artifacts")
    p.add_argument(
        "--inject-fault",
        action="append",
        choices=sorted(verify.FAULTS),
        help="deliberately corrupt a check (negative control for the harness)",
    )
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("train", help="train a model from a run config")
    p.add_argument("config")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("config")
    p.add_argument("--checkpoint", required=True)
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("bench-optim", help="optimizer benchmarks (toy objective / continual stream)")
    p.add_argument("config")
    p.set_defaults(fn=cmd_bench_optim)

    p = sub.add_parser("emit-plots", help="turn a runlog into per-metric CSV series")
    p.add_argument("runlog")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_emit_plots)

    args = parser.parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # the finite checks report these
            return args.fn(args)
    except (ConfigError, OSError, checkpoint.CheckpointError, RunlogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
