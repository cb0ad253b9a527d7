"""The benchmark's workloads, driven through nllab's public functions only.

A workload has three parts:

* `build(seeds, size)` makes the inputs and the model (timed as set-up);
* `fixed(state, ops)` does the fixed work whose outputs are checked: one
  training run, the full eval set, or one pass of the fast verify checks.
  It returns a digest of those outputs (losses, per-sample results, check
  results) that must not depend on timing or tracing;
* `more(state, ops, deadline, digest)` repeats the fixed work, or for
  training a prefix of it, until the deadline, for more timing samples, and
  returns False if a repeat's outputs differ from the fixed work's.

`Ops` collects one (seconds, work) pair per timed operation: a training step
and its tokens, an eval sample, or a pass over the verify checks and its check
count.  Attempted and failed operations count training steps, eval samples and
single verify checks.  Between operations `Ops` lets its `speed` probe the
machine (see speed.py); a probe is never inside an operation's time.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from nllab import hope, tasks, verify
from speed import Speed


@dataclass
class Ops:
    seconds: list = field(default_factory=list)
    work: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    on_op: Optional[Callable[[], None]] = None  # called after each op (trace groups)
    speed: Optional[Speed] = None
    marks: list = field(default_factory=list)  # probes taken before each op ended

    def add(self, seconds: float, work: float, attempted: int = 1, failed: int = 0) -> None:
        self.seconds.append(seconds)
        self.work.append(work)
        self.marks.append(len(self.speed.samples) if self.speed is not None else 0)
        self.attempted += attempted
        self.failed += failed
        if self.on_op is not None:
            self.on_op()
        self.idle()

    def idle(self) -> None:
        """A point outside every timed interval, where a probe may run."""
        if self.speed is not None:
            self.speed.maybe_probe()


# ---------------------------------------------------------------------------
# training


@dataclass(frozen=True)
class TrainSpec:
    """One training workload: data, model, optimizer and run length."""

    make_data: Callable[[int], list]
    make_config: Callable[[], hope.HopeConfig]
    batch_size: int
    opt_hp: Optional[dict]  # None: train()'s default Adam
    steps: dict  # size -> steps of the fixed training run
    repeat: dict  # size -> steps of each later run, a prefix of the fixed run
    data_seed: int  # data and init seeds of the verify check the model comes from
    model_seed: int
    shuffle_seed: Optional[int] = None  # fixed batch order; None: drawn from --seed


def _parity_data(seed: int) -> list:
    return tasks.generate(tasks.TaskSpec("parity", seed=seed), 2048)


def _charlm_data(seed: int) -> list:
    return tasks.generate(tasks.TaskSpec("char_lm", seed=seed, params={"window": 48}), 512)


def _parity_config() -> hope.HopeConfig:
    # the model of nllab.verify's formal-language checks
    return hope.HopeConfig(
        vocab=len(tasks.vocabulary("parity")), dim=16, blocks=1, num_classes=2, chunk=1,
        cms_chunks=(1, 4), cms_hidden=8, mem_hidden=16,
    )


def _charlm_config(core: str) -> Callable[[], hope.HopeConfig]:
    # the models of nllab.verify's char-LM smoke check
    def make() -> hope.HopeConfig:
        return hope.HopeConfig(
            vocab=len(tasks.vocabulary("char_lm")), dim=24, blocks=1, core=core, chunk=8,
            cms_chunks=(1, 4), cms_hidden=12, mem_hidden=24,
        )

    return make


def _adam(lr: float) -> dict:
    return dict(eta=lr, beta1=0.9, beta2=0.999, eps=1e-8, ema=True, bias_correction=True, weight_decay=0.01)


# fixed runs last about 12 s on a 2-vCPU Xeon; repeats about 1 s
TRAIN = {
    "parity_train": TrainSpec(
        _parity_data, _parity_config, 4, None, {"full": 60, "tiny": 3}, {"full": 6, "tiny": 2},
        data_seed=1, model_seed=0, shuffle_seed=5,
    ),
    "charlm_srt": TrainSpec(
        _charlm_data, _charlm_config("srt"), 2, _adam(0.01), {"full": 48, "tiny": 2}, {"full": 4, "tiny": 1}, data_seed=7, model_seed=1
    ),
    "charlm_linear_attention": TrainSpec(
        _charlm_data, _charlm_config("linear_attention"), 4, _adam(0.02), {"full": 330, "tiny": 3}, {"full": 30, "tiny": 2},
        data_seed=7, model_seed=1,
    ),
    "charlm_attention": TrainSpec(
        _charlm_data, _charlm_config("attention"), 2, _adam(0.02), {"full": 2400, "tiny": 5}, {"full": 200, "tiny": 5},
        data_seed=7, model_seed=1,
    ),
}


class Train:
    def __init__(self, spec: TrainSpec):
        self.spec = spec

    def build(self, seeds: dict, size: str) -> dict:
        # data and init are the verify check's own; the seed picks the batches
        # unless the spec fixes them
        shuffle = seeds["shuffle"] if self.spec.shuffle_seed is None else self.spec.shuffle_seed
        data = self.spec.make_data(self.spec.data_seed)
        return {"data": data, "seed": shuffle, "size": size, "model": self._model()}

    def _model(self) -> hope.HopeModel:
        return hope.HopeModel(self.spec.make_config(), seed=self.spec.model_seed)

    def _train(self, model: hope.HopeModel, state: dict, steps: int, ops: Ops) -> list:
        """Train a freshly initialised `model` for `steps` steps; return the losses.

        Per-step times come from the eval hook, which train() calls after each
        step and which adds nothing to the log.
        """
        last = [time.perf_counter(), model.token_count]

        def hook(m) -> dict:
            ops.add(time.perf_counter() - last[0], m.token_count - last[1])
            last[0], last[1] = time.perf_counter(), m.token_count
            return {}

        try:
            log = hope.train(
                model, state["data"], steps=steps, seed=state["seed"],
                batch_size=self.spec.batch_size, opt_hp=self.spec.opt_hp, eval_every=1, eval_fn=hook,
            )
        except hope.DivergenceError as exc:
            ops.add(time.perf_counter() - last[0], 0, failed=1)
            log = exc.log
        return [r["loss"] for r in log if "loss" in r]

    def fixed(self, state: dict, ops: Ops) -> dict:
        steps = self.spec.steps[state["size"]]
        # the model built (and timed) in set-up
        return {"losses": self._train(state.pop("model"), state, steps, ops), "steps": steps}

    def more(self, state: dict, ops: Ops, deadline: float, digest: dict) -> bool:
        # the same seed draws the same batches, so a shorter run must
        # reproduce the fixed run's first losses exactly
        steps = self.spec.repeat[state["size"]]
        same = True
        while time.perf_counter() < deadline:
            same = self._train(self._model(), state, steps, ops) == digest["losses"][:steps] and same
        return same

    @staticmethod
    def summary(digest: dict) -> dict:
        losses = digest["losses"]
        tail = losses[-max(1, len(losses) // 10):]
        return {"train_loss_first": losses[0] if losses else float("nan"), "train_loss_final": float(np.mean(tail))}

    @staticmethod
    def check(digest: dict) -> list[str]:
        losses = digest["losses"]
        problems = []
        if len(losses) != digest["steps"]:
            problems.append(f"{len(losses)} of {digest['steps']} fixed steps logged a loss")
        if not all(math.isfinite(x) for x in losses):
            problems.append("non-finite training loss")
        return problems


# ---------------------------------------------------------------------------
# evaluation


EVAL_SIZE = {"full": 200, "tiny": 10}


def eval_set(seed: int, count: int) -> list:
    """`count` parity samples, half of lengths 2-40 and half of 41-80.

    Lengths follow one fixed evenly spaced profile and labels alternate, so
    the seed changes the bits but not the amount of work.  Samples are taken
    from tasks.generate with bin1_fraction 0.5; the pool grows until every
    (length, label) slot is filled.
    """
    half = count // 2
    targets = []
    for j in range(half):
        for lo, hi in ((2, 40), (41, 80)):
            length = lo + round((hi - lo) * j / max(1, half - 1))
            targets.append((length, (len(targets) // 2) % 2))
    pool_size = 8 * count
    while True:
        pool = tasks.generate(tasks.TaskSpec("parity", seed=seed, params={"bin1_fraction": 0.5}), pool_size)
        by_key: dict = {}
        for s in pool:
            by_key.setdefault((len(s["tokens"]), s["label"]), []).append(s)
        picked = []
        for key in targets:
            bucket = by_key.get(key)
            if not bucket:
                break
            picked.append(bucket.pop(0))
        if len(picked) == len(targets):
            return picked
        pool_size *= 2


class Eval:
    def build(self, seeds: dict, size: str) -> dict:
        model = hope.HopeModel(_parity_config(), seed=seeds["model"])
        # a random readout: with the all-zero init readout every logit is 0, so
        # neither predictions nor losses would depend on the forward
        readout = np.random.default_rng(seeds["readout"]).normal(size=model.params["readout"].shape)
        model.set_parameter("readout", readout)
        return {"model": model, "samples": eval_set(seeds["data"], EVAL_SIZE[size])}

    def _pass(self, state: dict, ops: Ops) -> dict:
        hits, losses, tokens = [], [], 0
        for sample in state["samples"]:
            t0 = time.perf_counter()
            out = tasks.evaluate(state["model"], [sample])
            ops.add(time.perf_counter() - t0, 1, failed=0 if math.isfinite(out["loss"]) else 1)
            hits.append(out["accuracy"])
            losses.append(out["loss"])
            tokens += len(sample["tokens"])
        preds = [int(s["label"]) if h == 1.0 else 1 - int(s["label"]) for s, h in zip(state["samples"], hits)]
        return {"hits": hits, "losses": losses, "predictions": preds, "tokens": tokens}

    def fixed(self, state: dict, ops: Ops) -> dict:
        return self._pass(state, ops)

    def more(self, state: dict, ops: Ops, deadline: float, digest: dict) -> bool:
        same = True
        while time.perf_counter() < deadline:
            same = self._pass(state, ops) == digest and same
        return same

    @staticmethod
    def summary(digest: dict) -> dict:
        return {"accuracy": float(np.mean(digest["hits"])), "loss": float(np.mean(digest["losses"]))}

    @staticmethod
    def check(digest: dict) -> list[str]:
        problems = []
        if not all(math.isfinite(x) for x in digest["losses"]):
            problems.append("non-finite eval loss")
        return problems


# ---------------------------------------------------------------------------
# verification


class Verify:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir

    def build(self, seeds: dict, size: str) -> dict:
        # inputs are fixed by the checks themselves; the seed is recorded only
        return {"names": [name for name, slow in verify.registered_checks() if not slow]}

    def _pass(self, state: dict, ops: Ops) -> dict:
        checks, seconds = {}, {}
        for name in state["names"]:
            t0 = time.perf_counter()
            out = [r for r in verify.run_checks(pattern=name, out_dir=self.out_dir) if r.name == name]
            seconds[name] = time.perf_counter() - t0
            checks[name] = {"passed": len(out) == 1 and bool(out[0].passed), "measured": repr(out[0].measured) if out else None}
            ops.idle()
        state["check_seconds"] = seconds
        failed = sum(not c["passed"] for c in checks.values())
        # the pass time is the checks' own time, without the probes between them
        ops.add(sum(seconds.values()), len(checks), attempted=len(checks), failed=failed)
        return {"checks": checks}

    def fixed(self, state: dict, ops: Ops) -> dict:
        return self._pass(state, ops)

    def more(self, state: dict, ops: Ops, deadline: float, digest: dict) -> bool:
        same = True
        while time.perf_counter() < deadline:
            same = self._pass(state, ops) == digest and same
        return same

    @staticmethod
    def summary(digest: dict) -> dict:
        return {"checks": len(digest["checks"]), "checks_passed": sum(v["passed"] for v in digest["checks"].values())}

    @staticmethod
    def check(digest: dict) -> list[str]:
        return [f"verify check {k} failed" for k, v in digest["checks"].items() if not v["passed"]]


def make(name: str, out_dir: str):
    if name in TRAIN:
        return Train(TRAIN[name])
    if name == "parity_eval":
        return Eval()
    if name == "verify_fast":
        return Verify(out_dir)
    raise KeyError(name)


NAMES = tuple(TRAIN) + ("parity_eval", "verify_fast")
# the nllab modules each workload imports (the import part of set-up)
IMPORTS = {name: ("nllab.hope", "nllab.tasks") for name in NAMES}
IMPORTS["verify_fast"] = ("nllab.verify",)
