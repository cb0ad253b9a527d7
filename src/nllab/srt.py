"""Self-modifying fast-weight block: a family of memories that generate their
own training targets and update by a decaying proximal rule.

The family holds five fast memories (key, value, learning-rate gate, retention
gate, storage) plus one static query projection.  Every token: read the output
from the storage memory *before* any update, generate per-slot targets by
reading each memory at the value vector, then update every adaptive memory.

Chunked processing freezes the memories "as of the chunk start" for all
element computations (keys, values, gates, targets, outputs, and the gradient
terms).  Each chunk therefore does its element work as (d,C) matrix ops over
the chunk's C columns, which makes it order-independent, and then advances
each fast weight with one `tensor.decay_scan` node: the decay recurrence over
the columns in token order, taken in closed form (a weighted sum, or with the
retention factor one C x C unit-triangular solve) rather than column by
column.  A chunk of 1 recovers exact token-by-token stepping.  The S updated
linear slots share keys, gates and objective, and the rule acts on each row
alone, so they run as one row-stacked (S*d, d) fast weight in SLOTS order: per
chunk one read per distinct input (row slices for single-slot reads), one
residual and one scan, bit-identical to S separate ones.  MLP2 and frozen slots keep their own weights.

A batch of B sequences runs as one time-major (d, L*B) matrix (column t*B + b
holds token t of sample b; see `tensor`), so a chunk is a (d, C*B) slice.
Each snapshot or stack is broadcast once to a (B,p,n) fast weight that every
read multiplies sample by sample (`tensor.bmatmul`).  Padded columns at the
end of shorter samples reach no real column, and `decay_scan` pins the gates
there to eta = 0, alpha = 1, so each sample's fast weights end bit-identical
to those of its own run on the same input.  B = 1 is a plain sequence.

Linear-memory update with the retention factor (objective `l2`):
    M_t = M_{t-1} (a_t I - e_t k_t k_t^T) - e_t (M_b k_t - vhat_t) k_t^T
where M_b is the chunk-boundary state, i.e. a decay_scan with residuals
U = M_b K - Vhat.  Without retention the update is a plain decay-plus-gradient
step.  The `dot` objective scans U = -Vhat.  MLP memories always use the
weight-space variant of the same objective: W1 scans the residual R against
the hidden keys H = silu(W2_b K), W2 scans (W1_b^T R) * silu'(W2_b K) against
K, both without retention.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .memory import LINEAR, MLP2, Memory, UnsupportedCombination, read_node
from .tensor import Node, Tape, Tensor

SLOTS = ("k", "v", "eta", "alpha", "mem")
STACK = "stack"  # key of the row-stacked fast weight of the updated linear slots


@dataclass(frozen=True)
class SrtConfig:
    dim: int
    hidden: int = 0  # 0 -> same as dim
    kinds: dict = field(default_factory=lambda: {"k": LINEAR, "v": LINEAR, "eta": LINEAR, "alpha": LINEAR, "mem": MLP2})
    objective: str = "l2"  # inner objective: "l2" or "dot"
    chunk: int = 8
    retention: bool = True  # apply the (a*I - e*k k^T) factor on linear memories
    self_values: bool = True  # targets read from each memory; False stores v_t directly
    normalize_q: bool = True
    normalize_k: bool = True
    normalize_v: bool = True  # stability: unit-norm values break the quadratic self-target loop
    update_slots: tuple = SLOTS
    fixed_eta: Optional[float] = None
    fixed_alpha: Optional[float] = None
    eta_bias: float = -2.0  # pre-softplus shift, keeps early inner steps small
    alpha_bias: float = 3.0  # pre-sigmoid shift, keeps early retention high
    conv: bool = False  # window-4 depthwise causal conv before k/v reads

    def __post_init__(self):
        if self.objective not in ("l2", "dot"):
            raise ValueError(f"inner objective must be 'l2' or 'dot', got {self.objective!r}")
        unknown = set(self.update_slots) - set(SLOTS) - {"q"}
        if unknown:
            raise ValueError(f"unknown update slots {sorted(unknown)}")

    @property
    def width(self) -> int:
        return self.hidden or self.dim


@dataclass(frozen=True)
class SrtState:
    """Fast weights plus the meta-learned snapshots they restart from."""

    config: SrtConfig
    weights: dict
    inits: dict
    wq: np.ndarray
    conv_kernel: Optional[np.ndarray] = None

    def memory(self, slot: str) -> Memory:
        w = self.weights[slot]
        return Memory.linear(w[0]) if self.config.kinds[slot] == LINEAR else Memory.mlp2(*w)


def init_srt(config: SrtConfig, seed: int = 0) -> SrtState:
    rng = np.random.default_rng(seed)
    d, h = config.dim, config.width
    weights = {}
    for slot in SLOTS:
        kind = config.kinds[slot]
        if kind == LINEAR:  # gates at their bias points, storage empty
            weights[slot] = (np.eye(d) if slot in ("k", "v") else np.zeros((d, d)),)
        elif kind == MLP2:
            w1 = 0.1 * rng.normal(size=(d, h)) / np.sqrt(h)
            w2 = rng.normal(size=(h, d)) / np.sqrt(d)
            weights[slot] = (w1, w2)
        else:
            raise ValueError(f"unknown memory kind {kind!r} for slot {slot!r}")
    wq = np.eye(d) + 0.1 * rng.normal(size=(d, d)) / np.sqrt(d)
    kernel = None
    if config.conv:
        kernel = np.zeros((d, 4))
        kernel[:, -1] = 1.0  # identity at init: conv output == input
    inits = {slot: tuple(w.copy() for w in ws) for slot, ws in weights.items()}
    return SrtState(config, weights, inits, wq, kernel)


def reset(state: SrtState) -> SrtState:
    """Per-sequence restart: fast weights return to the snapshots bit-exactly."""
    return replace(state, weights={slot: tuple(w.copy() for w in ws) for slot, ws in state.inits.items()})


def _permute(x: Node, order: Sequence[int], batch: int) -> Node:
    return T.concat_columns([T.slice_columns(x, i * batch, (i + 1) * batch) for i in order])


def _rows(stack: Node, i: int, d: int, count: int) -> Node:
    """Rows of the i-th of `count` d-row blocks of `stack`; the stack itself when it holds one."""
    return stack if count == 1 else T.slice_rows(stack, i * d, (i + 1) * d)


def _elements(cfg: SrtConfig, boundary: dict, stacked: list, wq: Node, x: Node, xkv: Node, slots: Sequence[str], widths) -> dict:
    """Element work of one chunk as (d, C*B) matrices, every read against the boundary memories.

    The `stacked` slots read through one product of their row-stacked fast
    weight `boundary[STACK]` per distinct input.  Holds the output `y`, the key
    `k`, the gate reads `eta`/`alpha` (unless fixed) and one self-generated
    target `vhat.<slot>` per updated slot or STACK.
    """
    products = {}  # input node -> its product with the stacked fast weight

    def read(slot: str, cols: Node) -> Node:
        if slot not in stacked:
            return read_node(boundary[slot], cols, cfg.kinds[slot], widths)
        if cols not in products:
            products[cols] = T.bmatmul(boundary[STACK][0], cols, widths)
        return _rows(products[cols], stacked.index(slot), cfg.dim, len(stacked))

    def norm(cols: Node, on: bool) -> Node:
        return T.l2_normalize_columns_safe(cols) if on else cols

    q = norm(T.matmul(wq, x), cfg.normalize_q)
    v = norm(read("v", xkv), cfg.normalize_v)
    out = {"y": read("mem", q), "k": norm(read("k", xkv), cfg.normalize_k)}
    if cfg.fixed_eta is None:
        out["eta"] = read("eta", x)
    if cfg.fixed_alpha is None:
        out["alpha"] = read("alpha", x)
    for slot in slots:
        if slot == STACK:
            out["vhat." + slot] = T.bmatmul(boundary[STACK][0], v, widths) if cfg.self_values else T.concat_rows([v] * len(stacked))
        else:
            out["vhat." + slot] = read(slot, v) if cfg.self_values else v
    return out


def _gate(tape: Tape, fixed: Optional[float], reads: Optional[Node], bias: float, squash, n: int) -> Node:
    if fixed is not None:
        return tape.constant(np.full(n, fixed))
    return squash(T.add(T.mean_axis0(reads), bias))


def _advance(cfg: SrtConfig, kind: str, boundary: tuple, k: Node, vhat: Node, eta: Node, alpha: Node, widths) -> tuple:
    """One chunk's update of a memory or of the linear stack: one decay_scan per weight, from the boundary state."""
    if kind == LINEAR:
        (m,) = boundary
        u = T.sub(T.bmatmul(m, k, widths), vhat) if cfg.objective == "l2" else T.neg(vhat)
        return (T.decay_scan(m, k, u, eta, alpha, cfg.retention, widths),)
    # weight-space gradient of the residual MLP read, no retention factor
    w1, w2 = boundary
    z = T.bmatmul(w2, k, widths)
    h = T.silu(z)
    r = T.sub(T.add(k, T.bmatmul(w1, h, widths)), vhat) if cfg.objective == "l2" else T.neg(vhat)
    u2 = T.mul(T.bmatmul(T.transpose(w1), r, widths), T.silu_grad(z))
    return (T.decay_scan(w1, h, r, eta, alpha, False, widths), T.decay_scan(w2, k, u2, eta, alpha, False, widths))


def srt_forward_nodes(
    tape: Tape,
    cfg: SrtConfig,
    weights: dict,
    wq: Node,
    x: Node,
    chunk: Optional[int] = None,
    conv_kernel: Optional[Node] = None,
    element_order: Optional[Sequence[int]] = None,
    lengths: Optional[Sequence[int]] = None,
):
    """Graph-level forward over a (d,L) token matrix, or over a time-major
    (d, L*B) batch of B sequences of the given `lengths` (each at most L).

    `weights` maps slot -> tuple of snapshot nodes (params for meta-training,
    constants for plain evaluation).  Returns (Y node, final (B,p,n) weight
    nodes per slot).  `element_order` permutes the tokens of each chunk before
    the element work and restores them after it; outputs are positional, so
    any order must give identical results.
    """
    d, width = x.value.shape
    if d != cfg.dim:
        raise T.ShapeError(f"token width {d} does not match configured width {cfg.dim}")
    chunk = chunk or cfg.chunk
    if chunk < 1:
        raise ValueError(f"chunk size must be >= 1, got {chunk}")
    lengths = [width] if lengths is None else [int(n) for n in lengths]
    batch = len(lengths)
    L = width // batch
    if width % batch or min(lengths) < 1 or max(lengths) > L:
        raise T.ShapeError(f"{width} columns do not hold {batch} sequences of lengths {lengths}")
    padded = min(lengths) < L
    if padded and element_order is not None:
        raise ValueError("element_order applies to unpadded sequences only")

    xkv = T.causal_depthwise_conv(x, conv_kernel, batch) if conv_kernel is not None else x
    stacked = [slot for slot in SLOTS if slot in cfg.update_slots and cfg.kinds[slot] == LINEAR]
    slots = [STACK] * bool(stacked) + [slot for slot in SLOTS if slot in cfg.update_slots and slot not in stacked]
    cur = {slot: tuple(T.broadcast_batch(w, batch) for w in ws) for slot, ws in weights.items() if slot not in stacked}
    if stacked:
        cur[STACK] = (T.broadcast_batch(T.concat_rows([weights[slot][0] for slot in stacked]), batch),)
    outputs = []
    for start in range(0, L, chunk):
        n = min(start + chunk, L) - start
        widths = [min(max(length - start, 0), n) for length in lengths] if padded else None  # real columns
        xc = T.slice_columns(x, start * batch, (start + n) * batch)
        xkvc = T.slice_columns(xkv, start * batch, (start + n) * batch) if conv_kernel is not None else xc
        if element_order is None:
            e = _elements(cfg, cur, stacked, wq, xc, xkvc, slots, widths)
        else:
            order = [i for i in element_order if i < n]
            xp = _permute(xc, order, batch)
            xkvp = _permute(xkvc, order, batch) if conv_kernel is not None else xp
            inverse = np.argsort(order)
            e = {name: _permute(m, inverse, batch) for name, m in _elements(cfg, cur, stacked, wq, xp, xkvp, slots, None).items()}
        eta = _gate(tape, cfg.fixed_eta, e.get("eta"), cfg.eta_bias, T.softplus, n * batch)
        alpha = _gate(tape, cfg.fixed_alpha, e.get("alpha"), cfg.alpha_bias, T.sigmoid, n * batch)
        for slot in slots:
            kind = LINEAR if slot == STACK else cfg.kinds[slot]
            cur[slot] = _advance(cfg, kind, cur[slot], e["k"], e["vhat." + slot], eta, alpha, widths)
        outputs.append(e["y"])
    rows = {slot: (_rows(cur[STACK][0], i, d, len(stacked)),) for i, slot in enumerate(stacked)}
    return T.concat_columns(outputs), {slot: rows.get(slot) or cur[slot] for slot in weights}


def _as_nodes(tape: Tape, state: SrtState):
    weights = {slot: tuple(tape.constant(w) for w in ws) for slot, ws in state.weights.items()}
    wq = tape.constant(state.wq)
    kernel = tape.constant(state.conv_kernel) if state.conv_kernel is not None else None
    return weights, wq, kernel


def _extract(state: SrtState, nodes: dict) -> SrtState:
    return replace(state, weights={slot: tuple(np.array(n.value[0]) for n in ns) for slot, ns in nodes.items()})


def srt_step(state: SrtState, x: Tensor):
    """One token: output read with the pre-update memories, then all updates."""
    if x.shape != (state.config.dim,):
        raise T.ShapeError(f"token shape {x.shape} does not match width {state.config.dim}")
    tape = Tape()
    weights, wq, kernel = _as_nodes(tape, state)
    xn = tape.constant(x.data.reshape(-1, 1))
    y, new_weights = srt_forward_nodes(tape, state.config, weights, wq, xn, chunk=1, conv_kernel=kernel)
    return Tensor(y.value[:, 0]), _extract(state, new_weights)


def srt_chunked_forward(state: SrtState, xs: Tensor, chunk: Optional[int] = None, element_order=None):
    """Chunk-wise forward over a (d,L) matrix; returns (Y, advanced state)."""
    tape = Tape()
    weights, wq, kernel = _as_nodes(tape, state)
    y, new_weights = srt_forward_nodes(
        tape, state.config, weights, wq, tape.constant(xs.data), chunk=chunk, conv_kernel=kernel, element_order=element_order
    )
    return Tensor(y.value), _extract(state, new_weights)


def srt_linear_recurrence(objective: str, memory: Memory, k: Tensor, vhat: Tensor, eta: float, alpha: float) -> Memory:
    """Closed-form retention-factor step for linear memories (value level)."""
    if memory.kind != LINEAR:
        raise UnsupportedCombination("closed-form recurrence applies to linear memories only")
    m = memory.matrix.data
    kv, vv = k.data, vhat.data
    retain = alpha * np.eye(m.shape[1]) - eta * np.outer(kv, kv)
    if objective == "l2":
        grad = np.outer(m @ kv - vv, kv)
    elif objective == "dot":
        grad = -np.outer(vv, kv)
    else:
        raise ValueError(f"objective must be 'l2' or 'dot', got {objective!r}")
    return Memory.linear(m @ retain - eta * grad)


def linear_attention_config(dim: int, chunk: int = 1) -> SrtConfig:
    """Degenerate configuration whose storage trajectory is plain linear attention.

    Key/value memories frozen at identity reads, gates pinned to (eta, alpha)
    = (1, 1), no self-generated targets, no retention factor, dot objective:
    the storage update collapses to M <- M + v k^T.
    """
    return SrtConfig(
        dim=dim,
        kinds={"k": LINEAR, "v": LINEAR, "eta": LINEAR, "alpha": LINEAR, "mem": LINEAR},
        objective="dot",
        chunk=chunk,
        retention=False,
        self_values=False,
        normalize_q=False,
        normalize_k=False,
        normalize_v=False,
        update_slots=("mem",),
        fixed_eta=1.0,
        fixed_alpha=1.0,
    )
