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
from functools import lru_cache, reduce
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


class _Attention:
    """Value function and VJP of one attention core over time-major (d, L*B)
    columns, recorded as one tape node (op "attention_core" or
    "linear_attention_core").

    The parents are the normed input xn and wq, wk, wv.  Each sample forms
    its own (d, L) matrices, so it sees only its own tokens: unit-norm
    columns q = wq xn and k = wk xn, and v = wv xn, then Y = V mix with

        attention:         mix = causal_softmax(sqrt(d) K^T Q)
        linear attention:  mix = triu(K^T Q) / (t+1)

    The second is the linear-attention baseline M_t = M_{t-1} + v_t k_t^T
    read after the update as y_t = M_t q_t / (t+1), in closed form; verify's
    linear-attention-closed-form check holds it to the per-token prefix-sum
    graph.  The value takes the numpy steps of the per-op graph
    (`verify._attention_oracle`) on operands of the same layout, and the VJP
    replays its chain rule, adding xn's terms from v, k and q in that order as
    the tape does, so both match it bit for bit.  Only v's projection is
    finite-checked inside: an overflow in q's or k's is nan in its unit
    column and every score it meets, the scores of unit columns lie in
    [-1, 1], and a column of v may meet only zero weights.
    """

    def __init__(self, linear: bool, dim: int, batch: int):
        self.linear, self.scale, self.batch = linear, math.sqrt(dim), batch
        self.saved = ()

    def value(self, xn, wq, wk, wv):
        batch = self.batch
        (q, nq), (k, nk) = T._unit_columns(wq @ xn), T._unit_columns(wk @ xn)
        v = wv @ xn
        T._check_finite(v, "v's projection")
        qb, kb, vb = (T._batch_major(a, batch) for a in (q, k, v))
        kt = np.swapaxes(kb, -1, -2).copy()
        scores = kt @ qb
        if self.linear:
            weight = _linear_weight(scores.shape[-1])
            mix = scores * weight
        else:
            weight = self.scale
            mix = T._causal_softmax(scores * weight)
        self.saved = (xn, wq, wk, wv, q, nq, k, nk, qb, vb, kt, weight, mix)
        return T._time_major(vb @ mix)

    def vjp(self, g):
        xn, wq, wk, wv, q, nq, k, nk, qb, vb, kt, weight, mix = self.saved
        self.saved = ()  # a tape runs one backward pass
        gy = T._batch_major(g, self.batch)
        gv, gmix = gy @ np.swapaxes(mix, -1, -2), np.swapaxes(vb, -1, -2) @ gy
        gs = gmix * weight if self.linear else T._softmax_grad(mix, gmix) * weight
        gkt, gq = gs @ np.swapaxes(qb, -1, -2), np.swapaxes(kt, -1, -2) @ gs
        gv = T._time_major(gv)
        gk = T._unit_grad(k, nk, T._time_major(np.swapaxes(gkt, -1, -2)))
        gq = T._unit_grad(q, nq, T._time_major(gq))
        gxn = (wv.T @ gv + wk.T @ gk) + wq.T @ gq
        return gxn, gq @ xn.T, gk @ xn.T, gv @ xn.T


@lru_cache(maxsize=64)
def _linear_weight(n: int) -> np.ndarray:
    """The linear-attention mix of n tokens, triu(1) / (t+1) per query column t; shared, read-only."""
    weight = np.triu(np.ones((n, n))) / np.arange(1, n + 1)
    weight.setflags(write=False)
    return weight


class _LossHead:
    """Value function and VJP of the loss head of a time-major (d, L*B) batch,
    recorded as one tape node (op "loss_head").

    The parents are the hidden columns h and the head matrix W.  Sample b's
    loss is the mean cross-entropy of W h[:, cols[b]], its next-token,
    per-prefix or last-token columns, against its targets; the value is the
    mean of the B losses.  It takes the numpy steps of the per-op graph
    (`verify._loss_head_oracle`): one product per sample on a contiguous copy
    of its columns, then one log-softmax over all the logits, which is
    column-wise, except that a one-column sample gets its own, as numpy sums
    a lone column in another order.  The VJP sums W's gradient last sample
    first, as the tape does.  The logits are finite-checked inside, where the
    per-op graph checks them.
    """

    def __init__(self, cols: list, targets: np.ndarray):
        self.cols, self.targets = cols, targets
        self.saved = ()

    def value(self, h, w):
        xs = [h[:, c].copy() for c in self.cols]
        parts = [w @ x for x in xs]
        logits = np.concatenate(parts, axis=1)
        T._check_finite(logits, "the logits")
        ls = T._log_softmax(logits)
        stops = np.cumsum([x.shape[1] for x in xs])
        if len(xs) > 1:
            for part, stop in zip(parts, stops):
                if part.shape[1] == 1:
                    ls[:, stop - 1 : stop] = T._log_softmax(part)
        picked = ls[self.targets, np.arange(len(self.targets))]
        losses = [-picked[stop - x.shape[1] : stop].mean() for x, stop in zip(xs, stops)]
        self.saved = (h.shape, w, xs, ls, stops)
        return (1.0 / len(losses)) * reduce(np.add, losses)

    def vjp(self, g):
        shape, w, xs, ls, stops = self.saved
        self.saved = ()  # a tape runs one backward pass
        g = g * (1.0 / len(xs))
        grad = np.exp(ls)
        grad[self.targets, np.arange(len(self.targets))] -= 1.0
        gh, gws = np.zeros(shape), []
        for c, x, stop in zip(self.cols, xs, stops):
            n = x.shape[1]
            gl = g * grad[:, stop - n : stop] / n
            gws.append(gl @ x.T)
            gh[:, c] = w.T @ gl
        return gh, reduce(np.add, reversed(gws))


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

    def _block(self, tape: Tape, nodes: dict, b: int, x: Node, lengths: Sequence[int], collect_penalty=None) -> Node:
        """Block `b` over time-major (d, L*B) columns of B sequences of the given lengths."""
        cfg = self.config
        batch = len(lengths)
        xn = T.rms_norm(x, nodes[f"b{b}.norm1"])
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
            core = _Attention(cfg.core == "linear_attention", cfg.dim, batch)
            parents = (xn, nodes[f"b{b}.wq"], nodes[f"b{b}.wk"], nodes[f"b{b}.wv"])
            out = tape._record(core.value, parents, core.vjp, f"{cfg.core}_core")
        if not cfg.use_cms:
            return out
        on = T.rms_norm(out, nodes[f"b{b}.norm2"])
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

    def _loss_head(self, h: Node, head: Node, samples: Sequence[dict]) -> Node:
        """Mean loss of a time-major batch's samples from their real columns of `h`,
        as one `_LossHead` node: next-token, per-prefix or last-token head."""
        batch, classes = len(samples), head.value.shape[0]
        cols, targets = [], []
        for b, sample in enumerate(samples):
            n = len(sample["tokens"])
            if not self.config.num_classes:
                if n < 2:
                    raise ValueError("next-token loss needs sequences of length >= 2")
                col, width, target = slice(b, (n - 1) * batch, batch), n - 1, list(sample["tokens"][1:])
            elif sample.get("prefix_labels") is not None:
                col, width, target = slice(b, n * batch, batch), n, sample["prefix_labels"]
            elif sample["label"] is None:
                raise ValueError("a classifier's loss needs a label")
            else:
                last = (n - 1) * batch + b
                col, width, target = slice(last, last + 1), 1, [sample["label"]]
            cols.append(col)
            targets.append(T._targets(target, classes, width))
        node = _LossHead(cols, np.concatenate(targets))
        return h.tape._record(node.value, (h, head), node.vjp, "loss_head")

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
        total = self._loss_head(h, nodes["head"], batch)
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
        return prediction, float(self._loss_head(h, nodes["head"], [{"tokens": tokens, "label": label}]).value)

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


def outer_optimizer_states(model: HopeModel, opt_kind: str, opt_hp: Optional[dict] = None) -> list:
    """Fresh outer optimizer groups that train() steps `model.params` with, as
    (names, packed parameter, state) triples: for a kind in `optim.ELEMENTWISE`
    one group of every array in sorted-name order, otherwise one group per array."""
    hp = {**(ADAM_HP if opt_kind == "adam" else {}), **(opt_hp or {})}
    names = sorted(model.params)
    groups = [names] if opt_kind in optim.ELEMENTWISE else [[name] for name in names]
    packed = [_packed(model.params, group) for group in groups]
    return [(group, p, optim.init_state(opt_kind, p.shape, **hp)) for group, p in zip(groups, packed)]


def _packed(arrays: dict, names: list) -> np.ndarray:
    """The named arrays as one: a lone array as it is, several raveled and concatenated."""
    if len(names) == 1:
        return arrays[names[0]]
    return np.concatenate([arrays[name].ravel() for name in names])


def _unpacked(packed: np.ndarray, like: dict, names: list) -> dict:
    """`_packed`'s inverse: views of `packed` shaped as the named arrays of `like`."""
    if len(names) == 1:
        return {names[0]: packed}
    parts = np.split(packed, np.cumsum([like[name].size for name in names])[:-1])
    return {name: part.reshape(like[name].shape) for name, part in zip(names, parts)}


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
    groups = outer_optimizer_states(model, opt_kind, opt_hp)
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

        scale = clip / gnorm if clip is not None and gnorm > clip else None

        # every outer update is computed before any is committed
        stepped = []
        try:
            for names, p, state in groups:
                where = names[0] if len(names) == 1 else None  # None: found only if the step fails
                g = _packed(grads, names)
                if scale is not None:
                    g = g * scale
                stepped.append(optim.step(opt_kind, state, p, g))
            for b, chain in enumerate(model.chains):
                if chain is not None:
                    where = f"b{b}.cms"
                    keys = [f"b{b}.cms.level{i}" for i in range(len(chain.levels))]
                    levels = [(grads[f"{key}.w1"], grads[f"{key}.w2"]) for key in keys]
                    cms_accumulate(chain, levels if scale is None else [(g1 * scale, g2 * scale) for g1, g2 in levels])
        except T.NonFiniteError as exc:
            if where is None:  # the first array that the step over several made non-finite
                new = _unpacked(optim._update(opt_kind, state, p, g)[0], model.params, names)
                where = next(name for name in names if not np.isfinite(new[name]).all())
            log.append({"step": step_idx, "event": "diverged", "detail": f"{exc} of {where!r}"})
            raise DivergenceError(step_idx, log) from exc
        groups = [(names, p, state) for (names, _, _), (p, state) in zip(groups, stepped)]
        for names, p, _ in groups:
            model.params.update(_unpacked(p, model.params, names))

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
