"""Token model assembling the self-modifying core with a multi-frequency MLP tail.

A block normalizes its input, runs the core (self-modifying fast weights,
causal softmax attention, or a plain linear-attention baseline), normalizes
again, and feeds the multi-frequency MLP chain.  Fast state is sequence-local:
every sequence restarts from the meta-learned snapshots, which live in the
model's parameter dict and receive gradients through the full in-context
recurrence (no truncation).

Chain weights update through the buffered-frequency rule: gradients (or a
substituted optimizer's step direction) accumulate per level and apply only
when the token counter crosses the level's boundary.  An independent chain's
blend weights are the outer optimizer's parameters `b{b}.cms.agg`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import reduce
from typing import Optional, Sequence

import numpy as np

from . import cms as cms_mod
from . import optim
from . import tensor as T
from .cms import CmsChain, cms_accumulate, cms_tick, make_chain
from .memory import LINEAR
from .srt import SLOTS, SrtConfig, init_srt, srt_forward_nodes
from .tensor import Node, Tape

CORES = ("srt", "attention", "linear_attention")


class DivergenceError(RuntimeError):
    def __init__(self, step: int, log: list):
        super().__init__(f"training diverged (non-finite value) at step {step}")
        self.step = step
        self.log = log


@dataclass(frozen=True)
class HopeConfig:
    vocab: int
    dim: int = 32
    blocks: int = 1
    num_classes: int = 0  # 0 -> next-token model; >0 -> sequence classifier head
    core: str = "srt"
    objective: str = "l2"
    chunk: int = 8
    mem_hidden: int = 0
    retention: bool = True  # ablation hook: plain decay+gradient inner rule when off
    frozen_slots: tuple = ()  # ablation hook: slots without in-context updates ("q" accepted, no-op)
    conv: bool = False
    use_cms: bool = True
    cms_chunks: tuple = (1, 4)  # boundaries in training steps of the token counter
    cms_variant: str = "sequential"
    cms_hidden: int = 0
    cms_lr: float = 0.05
    cms_optimizer: str = "sgd"
    eta_bias: float = -2.0
    alpha_bias: float = 3.0
    fixed_eta: Optional[float] = None
    fixed_alpha: Optional[float] = None
    fast_weight_penalty: float = 0.01  # keeps meta-learning away from explosive fast-weight regimes
    tie_readout: bool = False  # next-token head reads logits through the embedding table

    def __post_init__(self):
        if self.core not in CORES:
            raise ValueError(f"unknown core {self.core!r}; expected one of {CORES}")

    def srt_config(self) -> SrtConfig:
        """SrtConfig with every field it shares with HopeConfig by name, `mem_hidden`
        as `hidden`, and the slots not in `frozen_slots` as `update_slots`."""
        names = {f.name for f in fields(self)}
        shared = {f.name: getattr(self, f.name) for f in fields(SrtConfig) if f.name in names}
        update = tuple(s for s in SLOTS if s not in self.frozen_slots)
        return SrtConfig(**shared, hidden=self.mem_hidden, update_slots=update)


class HopeModel:
    """Parameter dict + per-block chain state; all methods deterministic.  `build_loss`
    records on the caller's tape; each value-level head (`score` included) records one forward."""

    def __init__(self, config: HopeConfig, seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        d = config.dim
        self.params: dict[str, np.ndarray] = {}
        self.params["emb"] = rng.normal(size=(config.vocab, d)) / np.sqrt(d)
        if config.tie_readout and config.num_classes:
            raise ValueError("tie_readout applies to the next-token head only")
        if not config.tie_readout:
            out_rows = config.num_classes if config.num_classes else config.vocab
            self.params["readout"] = np.zeros((out_rows, d))
        self.srt_cfg = config.srt_config()
        self.chains: list[Optional[CmsChain]] = []
        for b in range(config.blocks):
            # unit-norm columns at init keep the fast-weight recurrence in its
            # stable regime; the gains are learnable
            self.params[f"b{b}.norm1"] = np.ones(d) / np.sqrt(d)
            self.params[f"b{b}.norm2"] = np.ones(d) / np.sqrt(d)
            if config.core == "srt":
                state = init_srt(self.srt_cfg, seed=int(rng.integers(0, 2**31)))
                self.params.update({f"b{b}.srt.{slot}.{j}": w for slot, ws in state.weights.items() for j, w in enumerate(ws)})
                self.params[f"b{b}.wq"] = state.wq.copy()
                if config.conv:
                    self.params[f"b{b}.conv"] = state.conv_kernel.copy()
            else:
                for name in ("wq", "wk", "wv"):
                    self.params[f"b{b}.{name}"] = rng.normal(size=(d, d)) / np.sqrt(d)
            if config.use_cms:
                chain = make_chain(
                    d,
                    config.cms_hidden or d,
                    list(config.cms_chunks),
                    variant=config.cms_variant,
                    eta=config.cms_lr,
                    seed=int(rng.integers(0, 2**31)),
                    optimizer=config.cms_optimizer,
                )
                self.chains.append(chain)
                if chain.variant == "independent":
                    self.params[f"b{b}.cms.agg"] = np.ones(len(chain.levels)) / len(chain.levels)
            else:
                self.chains.append(None)
        self.token_count = 0

    # ------------------------------------------------------------------
    # graph construction

    def _register(self, tape: Tape) -> dict:
        """Parameter nodes by name, the head's again as "head", each chain's level nodes as "b{b}.cms"."""
        nodes = {name: tape.param(name, value) for name, value in self.params.items()}
        nodes["head"] = nodes["emb"] if self.config.tie_readout else nodes["readout"]
        for b, chain in enumerate(self.chains):
            if chain is not None:
                nodes[f"b{b}.cms"] = cms_mod.register_nodes(chain, tape, f"b{b}.cms.")
        return nodes

    def _rms(self, x: Node, gain: Node) -> Node:
        m = T.mean_axis0(T.mul(x, x))
        r = T.reciprocal(T.sqrt(T.add(m, 1e-6)))
        return T.scale_rows(T.scale_columns(x, r), gain)

    def _block(self, tape: Tape, nodes: dict, b: int, x: Node, lengths: Sequence[int], collect_penalty=None) -> Node:
        """Block `b` over time-major (d, L*B) columns of B sequences of the given lengths."""
        cfg = self.config
        batch = len(lengths)
        xn = self._rms(x, nodes[f"b{b}.norm1"])
        if cfg.core == "srt":
            weights = {
                slot: (
                    (nodes[f"b{b}.srt.{slot}.0"],)
                    if self.srt_cfg.kinds[slot] == LINEAR
                    else (nodes[f"b{b}.srt.{slot}.0"], nodes[f"b{b}.srt.{slot}.1"])
                )
                for slot in SLOTS
            }
            kernel = nodes.get(f"b{b}.conv")
            out, final = srt_forward_nodes(
                tape, self.srt_cfg, weights, nodes[f"b{b}.wq"], xn, conv_kernel=kernel, lengths=lengths
            )
            if collect_penalty is not None:
                # the mean over a (B,p,n) stack is the mean of the B samples' own means
                for ws in final.values():
                    for w in ws:
                        collect_penalty.append(T.mean_all(T.mul(w, w)))
        else:
            # the attention cores form one (d, L) matrix per sample, so each
            # sample sees only its own tokens
            q = T.sample_stack(T.l2_normalize_columns(T.matmul(nodes[f"b{b}.wq"], xn)), batch)
            k = T.sample_stack(T.l2_normalize_columns(T.matmul(nodes[f"b{b}.wk"], xn)), batch)
            v = T.sample_stack(T.matmul(nodes[f"b{b}.wv"], xn), batch)
            scores = T.matmul(T.transpose(k), q)
            if cfg.core == "attention":
                mix = T.causal_softmax_columns(T.mul(scores, math.sqrt(cfg.dim)))
            else:
                # linear attention baseline: M_t = M_{t-1} + v_t k_t^T read after
                # the update as y_t = M_t q_t / (t+1), i.e. V (triu(K^T Q) / (t+1))
                # in closed form; verify's linear-attention-closed-form check
                # holds it to the per-token prefix-sum graph
                n = scores.value.shape[-1]
                mask = np.triu(np.ones((n, n))) / np.arange(1, n + 1)
                mix = T.mul(scores, tape.constant(np.broadcast_to(mask, scores.value.shape)))
            out = T.time_major(T.matmul(v, mix))
        if not cfg.use_cms:
            return out
        on = self._rms(out, nodes[f"b{b}.norm2"])
        return cms_mod.forward_with_nodes(self.chains[b], nodes[f"b{b}.cms"], on, agg_node=nodes.get(f"b{b}.cms.agg"))

    def _hidden(self, tape: Tape, nodes: dict, sequences: Sequence[Sequence[int]], collect_penalty=None) -> Node:
        """Hidden states of B sequences as time-major (d, L*B) columns, shorter ones padded with token 0."""
        lengths = [len(tokens) for tokens in sequences]
        if 0 in lengths:
            raise ValueError(f"empty token sequence at sample {lengths.index(0)}")
        ids = [tokens[t] if t < len(tokens) else 0 for t in range(max(lengths)) for tokens in sequences]
        x = T.embedding(nodes["emb"], ids)
        for b in range(self.config.blocks):
            x = self._block(tape, nodes, b, x, lengths, collect_penalty=collect_penalty)
        return x  # readout applied by the heads

    def _sample_loss(self, nodes: dict, h: Node, sample: dict, b: int = 0, batch: int = 1) -> Node:
        """Loss of sample `b` of a time-major batch from its real columns of `h`:
        next-token, per-prefix or last-token head."""
        tokens = sample["tokens"]
        head = nodes["head"]
        if not self.config.num_classes:
            if len(tokens) < 2:
                raise ValueError("next-token loss needs sequences of length >= 2")
            logits = T.matmul(head, T.slice_columns(h, b, (len(tokens) - 1) * batch, batch))
            return T.cross_entropy_columns(logits, list(tokens[1:]))
        prefix = sample.get("prefix_labels")
        if prefix is not None:
            logits = T.matmul(head, T.slice_columns(h, b, len(tokens) * batch, batch))
            return T.cross_entropy_columns(logits, prefix)
        if sample["label"] is None:
            raise ValueError("a classifier's loss needs a label")
        last = (len(tokens) - 1) * batch + b
        return T.cross_entropy_columns(T.matmul(head, T.slice_columns(h, last, last + 1)), [sample["label"]])

    def build_loss(self, tape: Tape, batch: Sequence[dict], with_penalty: bool = False) -> Node:
        """Mean loss over a batch of samples ({"tokens", "label"} dicts), from one forward graph.

        `with_penalty` adds the fast-weight norm regularizer (training only;
        the plain loss surface stays the task loss).
        """
        if not batch:
            raise ValueError("empty batch")
        nodes = self._register(tape)
        penalties = [] if (with_penalty and self.config.core == "srt" and self.config.fast_weight_penalty > 0) else None
        h = self._hidden(tape, nodes, [sample["tokens"] for sample in batch], collect_penalty=penalties)
        losses = [self._sample_loss(nodes, h, sample, b, len(batch)) for b, sample in enumerate(batch)]
        total = T.mul(1.0 / len(losses), reduce(T.add, losses))
        if penalties:
            total = T.add(total, T.mul(self.config.fast_weight_penalty / len(penalties), reduce(T.add, penalties)))
        return total

    # ------------------------------------------------------------------
    # value-level heads: each records one forward on its own tape

    def _forward(self, tokens: Sequence[int]) -> tuple:
        """(tape, nodes, hidden states, head argmax at the last position); nodes hold only a weak proxy to the tape."""
        tape = Tape()
        nodes = self._register(tape)
        h = self._hidden(tape, nodes, [tokens])
        return tape, nodes, h, int(np.argmax(nodes["head"].value @ h.value[:, -1]))

    def predict(self, tokens: Sequence[int]) -> int:
        return self._forward(tokens)[3]

    def score(self, tokens: Sequence[int], label=None) -> tuple[int, float]:
        """(predicted label or next token, loss) from one forward."""
        _, nodes, h, prediction = self._forward(tokens)
        return prediction, float(self._sample_loss(nodes, h, {"tokens": tokens, "label": label}).value)

    def loss(self, tokens: Sequence[int], label=None) -> float:
        return self.score(tokens, label)[1]

    # ------------------------------------------------------------------
    # parameter access (checkpointing, finite differences)

    def named_parameters(self) -> dict[str, np.ndarray]:
        out = dict(self.params)
        for b, chain in enumerate(self.chains):
            if chain is None:
                continue
            for i, lv in enumerate(chain.levels):
                out[f"b{b}.cms.level{i}.w1"] = lv.w1
                out[f"b{b}.cms.level{i}.w2"] = lv.w2
        return out

    def set_parameter(self, name: str, value: np.ndarray) -> None:
        """Replace one tensor of `named_parameters()`; name and shape must match.

        A chain level's init snapshot is left alone.
        """
        value = np.asarray(value, dtype=float)
        current = self.named_parameters()
        if name not in current:
            raise KeyError(f"unknown parameter {name!r}")
        if value.shape != current[name].shape:
            raise T.ShapeError(f"parameter {name!r} has shape {current[name].shape}, got {value.shape}")
        if name in self.params:
            self.params[name] = value.copy()
            return
        block, key = name.split(".cms.", 1)
        cms_mod.set_tensor(self.chains[int(block.removeprefix("b"))], key, value.copy())


# train()'s outer Adam hyperparameters; a caller's opt_hp overrides them key by key
ADAM_HP = dict(eta=0.01, beta1=0.9, beta2=0.999, eps=1e-8, ema=True, bias_correction=True, weight_decay=0.01)


def _global_grad_norm(grads: dict) -> float:
    """L2 norm over all gradients; finite gradients whose squares overflow
    have no finite norm to clip by, which raises NonFiniteError."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    if not math.isfinite(total):
        raise T.NonFiniteError("non-finite values in the global gradient norm")
    return math.sqrt(total)


def outer_optimizer_states(model: HopeModel, opt_kind: str, opt_hp: Optional[dict] = None) -> dict:
    """Fresh outer optimizer state for every array of `model.params`, which train() steps with it."""
    hp = {**(ADAM_HP if opt_kind == "adam" else {}), **(opt_hp or {})}
    return {name: optim.init_state(opt_kind, value.shape, **hp) for name, value in model.params.items()}


def train(
    model: HopeModel,
    samples: Sequence[dict],
    opt_kind: str = "adam",
    steps: int = 200,
    seed: int = 0,
    batch_size: int = 4,
    eval_every: int = 0,
    eval_fn=None,
    opt_hp: Optional[dict] = None,
    clip_norm: float = 1.0,
) -> list[dict]:
    """Deterministic training loop; returns one log record per step.

    `model.params` follow the outer optimizer.  Chain level weights follow
    the buffered-frequency rule: their directions accumulate and apply only at
    token-counter boundaries.  A non-finite value in a step or in `eval_fn`
    ends the run with a DivergenceError whose last record names that step;
    a non-finite optimizer step also names its parameter, and leaves
    `model.params` as the step found them.
    """
    rng = np.random.default_rng(seed)
    opt_states = outer_optimizer_states(model, opt_kind, opt_hp)
    log: list[dict] = []
    clip = clip_norm if clip_norm and clip_norm > 0 else None

    for step_idx in range(1, steps + 1):
        idx = rng.integers(0, len(samples), size=batch_size)
        batch = [samples[int(i)] for i in idx]
        try:
            tape = Tape()
            loss_node = model.build_loss(tape, batch, with_penalty=True)
            grads = tape.backward(loss_node)
            gnorm = _global_grad_norm(grads)
        except T.NonFiniteError as exc:
            log.append({"step": step_idx, "event": "diverged", "detail": str(exc)})
            raise DivergenceError(step_idx, log) from exc

        if clip is not None and gnorm > clip:
            scale = clip / gnorm
            grads = {k: v * scale for k, v in grads.items()}

        # every outer update is computed before any is committed
        stepped = {}
        try:
            for name in sorted(model.params):
                where = name
                stepped[name] = optim.step(opt_kind, opt_states[name], model.params[name], grads[name])
            for b, chain in enumerate(model.chains):
                if chain is not None:
                    where = f"b{b}.cms"
                    levels = [f"b{b}.cms.level{i}" for i in range(len(chain.levels))]
                    cms_accumulate(chain, [(grads[f"{key}.w1"], grads[f"{key}.w2"]) for key in levels])
        except T.NonFiniteError as exc:
            log.append({"step": step_idx, "event": "diverged", "detail": f"{exc} of {where!r}"})
            raise DivergenceError(step_idx, log) from exc
        for name, (value, state) in stepped.items():
            model.params[name], opt_states[name] = value, state

        tokens_used = sum(len(s["tokens"]) for s in batch)
        for b, chain in enumerate(model.chains):
            if chain is not None:
                cms_tick(chain, model.token_count + 1, tokens_used)
        model.token_count += tokens_used

        record = {"step": step_idx, "loss": float(loss_node.value), "grad_norm": gnorm}
        if eval_every and eval_fn and step_idx % eval_every == 0:
            try:
                record.update(eval_fn(model))
            except T.NonFiniteError as exc:
                log.append({**record, "event": "diverged", "detail": str(exc)})
                raise DivergenceError(step_idx, log) from exc
        log.append(record)
    return log
