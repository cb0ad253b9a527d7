"""Self-modifying fast-weight block: a family of memories that generate their
own training targets and update by a decaying proximal rule.

The family holds five fast memories (key, value, learning-rate gate, retention
gate, storage) plus one static query projection.  Every token: read the output
from the storage memory *before* any update, generate per-slot targets by
reading each memory at the value vector, then update every adaptive memory.

Chunked processing freezes the memories "as of the chunk start" for all
element computations (keys, values, gates, targets, outputs, and the gradient
terms).  Each chunk therefore does its element work as matrix ops over the
chunk's C columns, which makes it order-independent, and then advances each
fast weight by the decay recurrence over the columns in token order, taken in
closed form (a weighted sum, or with the retention factor one C x C
unit-triangular solve; see `tensor.decay_scan`) rather than column by column.
A chunk of 1 recovers exact token-by-token stepping.  The S updated linear
slots share keys, gates and objective, and the rule acts on each row alone,
so they run as one row-stacked (S*d, d) fast weight in SLOTS order: per chunk
one read per distinct input (row slices for single-slot reads), one residual
and one scan, bit-identical to S separate ones.  MLP2 and frozen slots keep
their own weights.

A batch of B sequences arrives as one time-major (d, L*B) matrix (column
t*B + b holds token t of sample b; see `tensor`), so a chunk is a (d, C*B)
slice, which the core works on as a (B,d,C) stack.  Each snapshot or stack is
broadcast once to a (B,p,n) fast weight that every read multiplies sample by
sample.  Padded columns at the end of shorter samples reach no real column,
and the scan pins the gates there to eta = 0, alpha = 1, so each sample's
fast weights end bit-identical to those of its own run on the same input.
B = 1 is a plain sequence.

On the tape, a block's whole chunk loop is one node (`_Core`) whose VJP is
written by hand and runs the chunks backwards: about 40 small nodes per chunk
become one.  Its forward takes the steps of the per-op graph that
`verify._srt_forward_oracle` keeps as the oracle, on operands of the same
layout, and matches it bit for bit.

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
from .memory import LINEAR, MLP2, Memory, UnsupportedCombination
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


def _layout(cfg: SrtConfig, x: Node, chunk: Optional[int], lengths, element_order) -> tuple:
    """Checked (chunk, lengths, L, padded) of a forward over the time-major columns of x."""
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
    return chunk, lengths, L, padded


def _chunks(L: int, chunk: int, lengths: Sequence[int], padded: bool) -> list:
    """(first token, tokens, widths) per chunk; widths counts each sample's real
    columns in the chunk, None when all of them are real."""
    out = []
    for start in range(0, L, chunk):
        n = min(start + chunk, L) - start
        out.append((start, n, [min(max(length - start, 0), n) for length in lengths] if padded else None))
    return out


def _plan(cfg: SrtConfig) -> tuple:
    """The updated linear slots that share the STACK, and the fast weights
    advanced each chunk: STACK (if any), then the updated MLP2 slots."""
    stacked = [slot for slot in SLOTS if slot in cfg.update_slots and cfg.kinds[slot] == LINEAR]
    slots = [STACK] * bool(stacked) + [slot for slot in SLOTS if slot in cfg.update_slots and slot not in stacked]
    return stacked, slots


def _broadcast(w: np.ndarray, batch: int) -> np.ndarray:
    return np.broadcast_to(w, (batch,) + w.shape).copy()


def _unit(a: np.ndarray, on: bool) -> tuple:
    """(B,n,C) columns scaled to unit norm as `tensor.l2_normalize_columns_safe`
    scales them, norms taken on the time-major layout; and the (B,1,C) norms."""
    if not on:
        return a, None
    batch = len(a)
    norms = T._safe_column_norms(T._time_major(a)).reshape(-1, batch).T[:, None, :]
    return a / norms, norms


def _unit_grad(out: np.ndarray, norms, g: np.ndarray) -> np.ndarray:
    return g if norms is None else (g - out * (out * g).sum(axis=1, keepdims=True)) / norms


def _silu(z: np.ndarray) -> tuple:
    """silu(z) and the sigmoid it is made from."""
    s = T._sigmoid(z)
    return z * s, s


def _read(kind: str, ws: tuple, cols: np.ndarray, partial) -> tuple:
    """`memory.read_node` of (B,p,n) weights at (B,n,C) columns, and what `_read_grad` reads."""
    if kind == LINEAR:
        return T._bmm(ws[0], cols, partial), None
    z = T._bmm(ws[1], cols, partial)
    h, s = _silu(z)
    return cols + T._bmm(ws[0], h, partial), (z, h, s)


def _read_grad(kind: str, ws: tuple, cols: np.ndarray, saved, g: np.ndarray, gws: list) -> np.ndarray:
    """Gradient of the columns of `_read`; adds the weights' gradients to gws."""
    if kind == LINEAR:
        gws[0] += T._bmm_dw(g, cols)
        return T._bmm_dx(ws[0], g)
    z, h, s = saved
    gws[0] += T._bmm_dw(g, h)
    gz = T._bmm_dx(ws[0], g) * T._silu_prime(z, s)
    gws[1] += T._bmm_dw(gz, cols)
    return g + T._bmm_dx(ws[1], gz)


def _gate(fixed: Optional[float], reads, bias: float, squash, batch: int, n: int) -> tuple:
    """The (B, C) gates of a chunk and their pre-activations (None when fixed),
    from (B,d,C) reads averaged on the time-major layout."""
    if fixed is not None:
        return np.full((batch, n), fixed), None
    pre = (T._time_major(reads).mean(axis=0) + bias).reshape(n, batch).T
    return squash(pre), pre


class _Core:
    """Value function and VJP of the whole chunk loop of one block core, recorded
    as one tape node (op "srt_core").

    The parents are the snapshots in SLOTS order, wq, x and, with the conv, its
    output.  The value is Y and then the final (B,p,n) fast weights of every
    slot in SLOTS order, packed into one flat array; `srt_forward_nodes` hands
    them out with `tensor.unpack`.  Inside, a chunk's columns are (B,d,C)
    stacks, the layout `tensor.bmatmul` multiplies in.  The value function
    takes the steps of the per-op graph (the oracle in `verify`) on operands of
    the same layout, so it matches that graph bit for bit; where the graph
    works on time-major (d, C*B) columns (the wq product, column norms, gate
    means), so does it.  It keeps each chunk's intermediates; the VJP runs the
    chunks backwards over them and then frees them.
    """

    def __init__(self, cfg: SrtConfig, batch: int, chunks: list, element_order, conv: bool):
        self.cfg, self.batch, self.chunks, self.order, self.conv = cfg, batch, chunks, element_order, conv
        self.stacked, self.slots = _plan(cfg)
        self.kv = "kv" if conv else "x"  # the columns the k and v memories read
        self.saved = []

    def _split(self, values) -> tuple:
        it = iter(values)
        snaps = {slot: tuple(next(it) for _ in range(1 if self.cfg.kinds[slot] == LINEAR else 2)) for slot in SLOTS}
        wq, x = next(it), next(it)
        return snaps, wq, x, next(it) if self.conv else x

    def _order(self, n: int) -> Optional[list]:
        """The chunk's tokens in `element_order`, or None."""
        return None if self.order is None else [i for i in self.order if i < n]

    # -- forward ----------------------------------------------------------

    def value(self, *values) -> np.ndarray:
        cfg, batch, stacked = self.cfg, self.batch, self.stacked
        snaps, wq, x, xkv = self._split(values)
        cur = {slot: tuple(_broadcast(w, batch) for w in ws) for slot, ws in snaps.items() if slot not in stacked}
        if stacked:
            cur[STACK] = (_broadcast(np.concatenate([snaps[slot][0] for slot in stacked]), batch),)
        ys, chunks = [], []
        for c, (start, n, widths) in enumerate(self.chunks):
            span = slice(start * batch, (start + n) * batch)
            partial, live = T._partial(widths, n), T._live_columns(widths, batch, n)
            xc, xkvc = x[:, span].copy(), xkv[:, span].copy() if self.conv else None
            order = self._order(n)
            if order is not None:  # permuted time-major columns, as the graph forms them
                cols = (np.asarray(order)[:, None] * batch + np.arange(batch)).reshape(-1)
                xc, xkvc = xc[:, cols], xkvc[:, cols] if self.conv else None
            e, se = self._elements(cur, wq, xc, xkvc, partial)
            if order is not None:
                e = {name: m[:, :, np.argsort(order)] for name, m in e.items()}
            eta, eta_pre = _gate(cfg.fixed_eta, e.get("eta"), cfg.eta_bias, T._softplus, batch, n)
            alpha, alpha_pre = _gate(cfg.fixed_alpha, e.get("alpha"), cfg.alpha_bias, T._sigmoid, batch, n)
            state, advanced = dict(cur), {}
            for slot in self.slots:
                kind = LINEAR if slot == STACK else cfg.kinds[slot]
                cur[slot], advanced[slot] = self._advance(kind, cur[slot], e["k"], e["vhat." + slot], eta, alpha, partial, live)
            ys.append(T._time_major(e["y"]))
            made = [e["y"]] + [p for p in (eta_pre, alpha_pre) if p is not None] + [w for slot in self.slots for w in cur[slot]]
            if not all(np.isfinite(a).all() for a in made):
                raise T.NonFiniteError(f"at chunk {c} (tokens {start} to {start + n - 1})")
            chunks.append((span, live, order, state, e["k"], se, alpha, eta_pre, advanced))
        self.saved[:] = [snaps, wq, x, xkv, chunks]
        final = self._final(cur)
        return np.concatenate([np.concatenate(ys, axis=1).reshape(-1)] + [w.reshape(-1) for slot in SLOTS for w in final[slot]])

    def _final(self, cur: dict) -> dict:
        """Final (B,p,n) fast weights per slot; a stacked slot's are its rows of the STACK."""
        d, count = self.cfg.dim, len(self.stacked)
        rows = {slot: (cur[STACK][0][:, i * d : (i + 1) * d] if count > 1 else cur[STACK][0],) for i, slot in enumerate(self.stacked)}
        return {slot: rows.get(slot) or cur[slot] for slot in SLOTS}

    def _elements(self, cur: dict, wq, xc, xkvc, partial) -> tuple:
        """Element work of one chunk of time-major columns xc (and conv columns
        xkvc), every read against the boundary weights `cur`: the output y, the
        key k, the gate reads eta/alpha (unless fixed) and one self-generated
        target vhat.<slot> per advanced weight, each (B,p,C).  The stacked slots
        read through one product of the STACK per distinct input and take their
        rows of it."""
        cfg, stacked, d, batch = self.cfg, self.stacked, self.cfg.dim, self.batch
        cols = {"x": T._batch_major(xc, batch)}
        if self.conv:
            cols["kv"] = T._batch_major(xkvc, batch)
        products, reads = {}, {}

        def product(name):
            if name not in products:
                products[name] = T._bmm(cur[STACK][0], cols[name], partial)
            return products[name]

        def read(slot, name):
            if slot in stacked:
                i = stacked.index(slot)
                return product(name) if len(stacked) == 1 else product(name)[:, i * d : (i + 1) * d]
            out, reads[slot, name] = _read(cfg.kinds[slot], cur[slot], cols[name], partial)
            return out

        q, nq = _unit(T._batch_major(wq @ xc, batch), cfg.normalize_q)
        cols["q"] = q
        v, nv = _unit(read("v", self.kv), cfg.normalize_v)
        cols["v"] = v
        k, nk = _unit(read("k", self.kv), cfg.normalize_k)
        out = {"y": read("mem", "q"), "k": k}
        if cfg.fixed_eta is None:
            out["eta"] = read("eta", "x")
        if cfg.fixed_alpha is None:
            out["alpha"] = read("alpha", "x")
        for slot in self.slots:
            if slot == STACK:
                out["vhat." + slot] = product("v") if cfg.self_values else np.concatenate([v] * len(stacked), axis=1)
            else:
                out["vhat." + slot] = read(slot, "v") if cfg.self_values else v
        return out, (xc, cols, products, reads, k, nq, nv, nk)

    def _advance(self, kind: str, state: tuple, k, vhat, eta, alpha, partial, live) -> tuple:
        """One chunk's update of a weight from its boundary state, and what `_advance_grad` reads."""
        l2 = self.cfg.objective == "l2"
        if kind == LINEAR:
            (m,) = state
            u = T._bmm(m, k, partial) - vhat if l2 else -vhat
            out, saved = T._scan_value(m, k, u, eta, alpha, self.cfg.retention, live, partial)
            return (out,), saved
        # weight-space gradient of the residual MLP read, no retention factor
        w1, w2 = state
        z = T._bmm(w2, k, partial)
        h, s = _silu(z)
        r = (k + T._bmm(w1, h, partial)) - vhat if l2 else -vhat
        t = T._bmm(np.swapaxes(w1, 1, 2).copy(), r, partial)
        sp = T._silu_prime(z, s)
        out1, s1 = T._scan_value(w1, h, r, eta, alpha, False, live, partial)
        out2, s2 = T._scan_value(w2, k, t * sp, eta, alpha, False, live, partial)
        return (out1, out2), (z, h, s, r, t, sp, s1, s2)

    # -- backward ---------------------------------------------------------

    def vjp(self, g: np.ndarray) -> tuple:
        cfg, batch, stacked = self.cfg, self.batch, self.stacked
        snaps, wq, x, xkv, chunks = self.saved
        # a tape runs one backward pass: free the saved arrays once it has run
        self.saved = []
        gy = g[: x.size].reshape(x.shape)
        final, offset = {}, x.size
        for slot in SLOTS:
            final[slot] = []
            for w in snaps[slot]:
                final[slot].append(g[offset : offset + batch * w.size].reshape((batch,) + w.shape).copy())
                offset += batch * w.size
        # gradients of the weights at the current chunk boundary, and of the frozen ones
        grads = {slot: final[slot] for slot in SLOTS if slot not in stacked}
        if stacked:
            grads[STACK] = [np.concatenate([final[slot][0] for slot in stacked], axis=1)]
        gwq, gx = np.zeros_like(wq), np.zeros_like(x)
        gxkv = np.zeros_like(xkv) if self.conv else None
        while chunks:
            span, live, order, state, k, se, alpha, eta_pre, advanced = chunks.pop()
            ge = ga = 0.0
            gk = np.zeros_like(k)
            gout = {"y": T._batch_major(gy[:, span], batch)}
            for slot in self.slots:
                kind = LINEAR if slot == STACK else cfg.kinds[slot]
                out = self._advance_grad(kind, state[slot], k, advanced[slot], grads[slot], live)
                grads[slot], gk, gout["vhat." + slot], ge, ga = out[0], gk + out[1], out[2], ge + out[3], ga + out[4]
            gout["k"] = gk
            rows = cfg.dim
            if cfg.fixed_eta is None:
                gout["eta"] = np.repeat((ge * T._sigmoid(eta_pre) / rows)[:, None, :], rows, axis=1)
            if cfg.fixed_alpha is None:
                gout["alpha"] = np.repeat((ga * (alpha * (1.0 - alpha)) / rows)[:, None, :], rows, axis=1)
            if order is not None:
                gout = {name: m[:, :, order] for name, m in gout.items()}
            gwqc, gxc, gxkvc = self._elements_grad(state, wq, se, gout, grads)
            if order is not None:
                back = np.argsort(order)
                gxc, gxkvc = gxc[:, :, back], None if gxkvc is None else gxkvc[:, :, back]
            gwq += gwqc
            gx[:, span] += T._time_major(gxc)
            if gxkvc is not None:
                gxkv[:, span] += T._time_major(gxkvc)
        snap_grads = {slot: [gw.sum(axis=0) for gw in grads[slot]] for slot in SLOTS if slot not in stacked}
        if stacked:
            stack = grads[STACK][0].sum(axis=0)
            for i, slot in enumerate(stacked):
                snap_grads[slot] = [stack[i * cfg.dim : (i + 1) * cfg.dim]]
        return tuple(gw for slot in SLOTS for gw in snap_grads[slot]) + (gwq, gx) + ((gxkv,) if self.conv else ())

    def _advance_grad(self, kind: str, state: tuple, k, saved, gnew: list, live) -> tuple:
        """Gradients of the boundary weights, keys, target, eta and alpha of `_advance`."""
        l2 = self.cfg.objective == "l2"
        if kind == LINEAR:
            (m,) = state
            gm, gk, gu, ge, ga = T._scan_grad(gnew[0], saved, self.cfg.retention, live)
            if l2:
                gm += T._bmm_dw(gu, k)
                gk = gk + T._bmm_dx(m, gu)
            return [gm], gk, -gu, ge, ga
        w1, w2 = state
        z, h, s, r, t, sp, s1, s2 = saved
        g1, gh, gr, ge, ga = T._scan_grad(gnew[0], s1, False, live)
        g2, gk, gu2, ge2, ga2 = T._scan_grad(gnew[1], s2, False, live)
        gt = gu2 * sp
        gz = gu2 * t * T._silu_second(z, s)
        g1 = g1 + np.swapaxes(T._bmm_dw(gt, r), 1, 2)
        gr = gr + w1 @ gt
        if l2:
            gk = gk + gr
            g1 += T._bmm_dw(gr, h)
            gh = gh + T._bmm_dx(w1, gr)
        gz += gh * sp
        g2 = g2 + T._bmm_dw(gz, k)
        gk = gk + T._bmm_dx(w2, gz)
        return [g1, g2], gk, -gr, ge + ge2, ga + ga2

    def _elements_grad(self, state: dict, wq, saved, gout: dict, grads: dict) -> tuple:
        """Gradients of wq and of the chunk's (B,d,C) columns and conv columns
        (None without the conv) from those of `_elements`' outputs; adds the
        boundary weights' gradients to `grads`."""
        cfg, stacked, d = self.cfg, self.stacked, self.cfg.dim
        xc, cols, products, reads, k, nq, nv, nk = saved
        gcols, gprod = {}, {}

        def add(acc, name, g):
            acc[name] = g if name not in acc else acc[name] + g

        def read_grad(slot, name, g):
            if slot in stacked:
                if name not in gprod:
                    gprod[name] = np.zeros_like(products[name])
                i = stacked.index(slot)
                gprod[name][:, i * d : (i + 1) * d] += g
            else:
                add(gcols, name, _read_grad(cfg.kinds[slot], state[slot], cols[name], reads.pop((slot, name)), g, grads[slot]))

        def product_grad(name):
            if name in gprod:
                grads[STACK][0] += T._bmm_dw(gprod[name], cols[name])
                add(gcols, name, T._bmm_dx(state[STACK][0], gprod.pop(name)))

        for slot in self.slots:
            g = gout["vhat." + slot]
            if slot == STACK:
                if cfg.self_values:
                    add(gprod, "v", g)
                else:
                    add(gcols, "v", g.reshape(len(g), len(stacked), d, -1).sum(axis=1))
            elif cfg.self_values:
                read_grad(slot, "v", g)
            else:
                add(gcols, "v", g)
        for gate in ("eta", "alpha"):
            if gate in gout:
                read_grad(gate, "x", gout[gate])
        read_grad("mem", "q", gout["y"])
        product_grad("v")
        product_grad("q")
        read_grad("k", self.kv, _unit_grad(k, nk, gout["k"]))
        if "v" in gcols:
            read_grad("v", self.kv, _unit_grad(cols["v"], nv, gcols.pop("v")))
        gq = T._time_major(_unit_grad(cols["q"], nq, gcols.pop("q")))
        product_grad(self.kv)
        product_grad("x")
        gx = T._batch_major(wq.T @ gq, self.batch)
        if "x" in gcols:
            gx += gcols["x"]
        return gq @ xc.T, gx, gcols.get("kv")


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
    any order must give identical results.  The conv is one node, the chunk
    loop one more (see `_Core`), and each output one `tensor.unpack` of it.
    """
    chunk, lengths, L, padded = _layout(cfg, x, chunk, lengths, element_order)
    batch = len(lengths)
    parents = [T._lift(x.tape, p) for p in [w for slot in SLOTS for w in weights[slot]] + [wq, x]]
    if conv_kernel is not None:
        parents.append(T.causal_depthwise_conv(x, conv_kernel, batch))
    core = _Core(cfg, batch, _chunks(L, chunk, lengths, padded), element_order, conv_kernel is not None)
    packed = tape._record(core.value, tuple(parents), core.vjp, "srt_core", check=False)
    y, offset, final = T.unpack(packed, 0, x.value.shape), x.value.size, {}
    for slot in SLOTS:
        final[slot] = []
        for w in weights[slot]:
            shape = (batch,) + w.value.shape
            final[slot].append(T.unpack(packed, offset, shape))
            offset += batch * w.value.size
        final[slot] = tuple(final[slot])
    return y, final


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
