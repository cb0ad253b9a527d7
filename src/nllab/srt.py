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
A chunk of 1 recovers exact token-by-token stepping; `verify`'s
`srt-fused-core` check holds both properties bit for bit.  The S updated
linear slots share keys, gates and objective, and the rule acts on each row
alone, so they run as one row-stacked (S*d, d) fast weight in SLOTS order:
per chunk one read per distinct input (row slices for single-slot reads), one
residual and one scan, bit-identical to S separate ones.  MLP2 and frozen
slots keep their own weights.

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
become one.  The oracle, `verify._srt_forward_oracle`, is the plain per-slot
graph: every slot its own fast weight, every read a `memory.read_node`, one
decay_scan per weight of each updated slot.  The core's forward matches it
bit for bit: each row block of a stacked read or scan equals that slot's own.

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

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import tensor as T
from .memory import LINEAR, MLP2
from .tensor import Node, Tape

SLOTS = ("k", "v", "eta", "alpha", "mem")
STACK = "stack"  # key of the row-stacked fast weight of the updated linear slots
OBJECTIVES = ("l2", "dot")  # inner objectives


@dataclass(frozen=True)
class SrtConfig:
    dim: int
    hidden: int = 0  # 0 -> same as dim
    kinds: dict = field(default_factory=lambda: {"k": LINEAR, "v": LINEAR, "eta": LINEAR, "alpha": LINEAR, "mem": MLP2})
    objective: str = "l2"  # inner objective: "l2" or "dot"
    chunk: int = 8
    retention: bool = True  # apply the (a*I - e*k k^T) factor on linear memories
    self_values: bool = True  # targets read from each memory; False stores v_t directly
    normalize: bool = True  # unit-norm q, k and v (stability: unit-norm values break the quadratic self-target loop)
    update_slots: tuple = SLOTS
    fixed_eta: Optional[float] = None
    fixed_alpha: Optional[float] = None
    eta_bias: float = -2.0  # pre-softplus shift, keeps early inner steps small
    alpha_bias: float = 3.0  # pre-sigmoid shift, keeps early retention high
    conv: bool = False  # window-4 depthwise causal conv before k/v reads

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise ValueError(f"inner objective must be one of {OBJECTIVES}, got {self.objective!r}")
        if self.chunk < 1:
            raise ValueError(f"chunk size must be >= 1, got {self.chunk}")
        unknown = set(self.update_slots) - set(SLOTS) - {"q"}
        if unknown:
            raise ValueError(f"unknown update slots {sorted(unknown)}")

    @property
    def width(self) -> int:
        return self.hidden or self.dim


@dataclass(frozen=True)
class SrtState:
    """The meta-learned snapshots every sequence's fast weights restart from."""

    config: SrtConfig
    weights: dict
    wq: np.ndarray
    conv_kernel: Optional[np.ndarray] = None


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
    return SrtState(config, weights, wq, kernel)


def _layout(cfg: SrtConfig, x: Node, lengths) -> tuple:
    """Checked (lengths, L, padded) of a forward over the time-major columns of x."""
    d, width = x.value.shape
    if d != cfg.dim:
        raise T.ShapeError(f"token width {d} does not match configured width {cfg.dim}")
    lengths = [width] if lengths is None else [int(n) for n in lengths]
    batch = len(lengths)
    L = width // batch
    if width % batch or min(lengths) < 1 or max(lengths) > L:
        raise T.ShapeError(f"{width} columns do not hold {batch} sequences of lengths {lengths}")
    return lengths, L, min(lengths) < L


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


def _unit(raw: dict, on: bool) -> tuple:
    """raw's (B,n,C) arrays, with the columns of q, v and k scaled to unit norm (if `on`) as
    `tensor.l2_normalize_columns_safe` scales them, in one stack; and their (B,1,C) norms, else None."""
    out, norms, batch = dict(raw), dict.fromkeys(raw), len(raw["q"])
    if on:
        stack = np.concatenate([raw[name] for name in "qvk"])
        scale = T._safe_row_norms(stack.transpose(0, 2, 1))[:, None, :]
        stack /= scale
        for i, name in enumerate("qvk"):
            out[name], norms[name] = stack[i * batch : (i + 1) * batch], scale[i * batch : (i + 1) * batch]
    return out, norms


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
    pre = (T._time_major(reads).sum(axis=0) / len(reads[0]) + bias).reshape(n, batch).T  # the mean, bit for bit, without its wrapper
    return squash(pre), pre


class _Core:
    """Value function and VJP of the whole chunk loop of one block core, recorded
    as one tape node (op "srt_core").

    The parents are the snapshots in SLOTS order, wq, x and, with the conv, its
    output.  The value is Y and then the final (B,p,n) fast weights of every
    slot in SLOTS order, packed into one flat array; `srt_forward_nodes` hands
    them out with `tensor.unpack`.  Inside, a chunk's columns are (B,d,C)
    stacks, the layout `tensor.bmatmul` multiplies in.  The value function
    takes the steps of the per-slot graph (the oracle in `verify`) on operands
    of the same layout, so it matches that graph bit for bit; the updated
    linear slots read and scan as one row stack, whose row blocks equal the
    per-slot reads and scans bit for bit, and where the graph works on
    time-major (d, C*B) columns (the wq product, column norms, gate means), so
    does it.  It keeps each chunk's intermediates; the VJP runs the chunks
    backwards over them and then frees them.
    """

    def __init__(self, cfg: SrtConfig, batch: int, chunks: list, conv: bool):
        self.cfg, self.batch, self.chunks, self.conv = cfg, batch, chunks, conv
        self.stacked, self.slots = _plan(cfg)
        # the rows of the STACK (or of its products) each slot takes: its own block; all for the STACK
        self.rows = {STACK: slice(None), **{slot: slice(i * cfg.dim, (i + 1) * cfg.dim) for i, slot in enumerate(self.stacked)}}
        self.kv = "kv" if conv else "x"  # the columns the k and v memories read
        self.saved = []

    def _split(self, values) -> tuple:
        it = iter(values)
        snaps = {slot: tuple(next(it) for _ in range(1 if self.cfg.kinds[slot] == LINEAR else 2)) for slot in SLOTS}
        wq, x = next(it), next(it)
        return snaps, wq, x, next(it) if self.conv else x

    # -- forward ----------------------------------------------------------

    def value(self, *values) -> np.ndarray:
        cfg, batch, stacked = self.cfg, self.batch, self.stacked
        snaps, wq, x, xkv = self._split(values)
        cur = {slot: tuple(_broadcast(w, batch) for w in ws) for slot, ws in snaps.items() if slot not in stacked}
        if stacked:
            cur[STACK] = (_broadcast(np.concatenate([snaps[slot][0] for slot in stacked]), batch),)
        ys, pres, chunks = [], [], []
        for start, n, widths in self.chunks:
            span = slice(start * batch, (start + n) * batch)
            partial, live = T._partial(widths, n), T._live_columns(widths, batch, n)
            xc, xkvc = x[:, span].copy(), xkv[:, span].copy() if self.conv else None
            e, se = self._elements(cur, wq, xc, xkvc, partial)
            eta, eta_pre = _gate(cfg.fixed_eta, e.get("eta"), cfg.eta_bias, T._softplus, batch, n)
            alpha, alpha_pre = _gate(cfg.fixed_alpha, e.get("alpha"), cfg.alpha_bias, T._sigmoid, batch, n)
            gates = T._pinned(eta, alpha, live)  # shared by every scan of the chunk
            state, advanced = dict(cur), {}
            for slot in self.slots:
                kind = LINEAR if slot == STACK else cfg.kinds[slot]
                cur[slot], advanced[slot] = self._advance(kind, cur[slot], e["k"], e["vhat." + slot], gates, partial)
            ys.append(T._time_major(e["y"]))
            pres.append([p for p in (eta_pre, alpha_pre) if p is not None])
            chunks.append((span, live, state, e["k"], se, alpha, eta_pre, advanced))
        # the final (B,p,n) fast weights per slot; a stacked slot's are its rows of the STACK
        final = [w for slot in SLOTS for w in ((cur[STACK][0][:, self.rows[slot]],) if slot in stacked else cur[slot])]
        packed = np.concatenate([np.concatenate(ys, axis=1).reshape(-1)] + [w.reshape(-1) for w in final])
        # one finite check per forward, a search only when it fails: a non-finite
        # entry of a fast weight stays non-finite through every later update, so
        # the final weights stand for the weights after each chunk
        gate_pres = [p for ps in pres for p in ps]
        if not (np.isfinite(packed).all() and (not gate_pres or np.isfinite(np.concatenate(gate_pres, axis=None)).all())):
            after = [state for _, _, state, *_ in chunks[1:]] + [cur]  # each chunk's advanced weights
            made = ([y, *ps] + [w for slot in self.slots for w in weights[slot]] for y, ps, weights in zip(ys, pres, after))
            c = next(c for c, arrays in enumerate(made) if not all(np.isfinite(a).all() for a in arrays))
            start, n, _ = self.chunks[c]
            raise T.NonFiniteError(f"at chunk {c} (tokens {start} to {start + n - 1})")
        self.saved[:] = [snaps, wq, x, xkv, chunks]
        return packed

    def _elements(self, cur: dict, wq, xc, xkvc, partial) -> tuple:
        """Element work of one chunk of time-major columns xc (and conv columns
        xkvc), every read against the boundary weights `cur`: the output y, the
        key k, the gate reads eta/alpha (unless fixed) and one self-generated
        target vhat.<slot> per advanced weight, each (B,p,C).  The stacked slots
        read through one product of the STACK per distinct input and take their
        rows of it."""
        cfg, rows, batch = self.cfg, self.rows, self.batch
        cols = {"x": T._batch_major(xc, batch)}
        if self.conv:
            cols["kv"] = T._batch_major(xkvc, batch)
        products, reads = {}, {}

        def read(slot, name):
            if slot not in rows:
                out, reads[slot, name] = _read(cfg.kinds[slot], cur[slot], cols[name], partial)
                return out
            if name not in products:
                products[name] = T._bmm(cur[STACK][0], cols[name], partial)
            return products[name][:, rows[slot]]

        raw = {"q": T._batch_major(wq @ xc, batch), "v": read("v", self.kv), "k": read("k", self.kv)}
        unit, norms = _unit(raw, cfg.normalize)
        cols["q"], cols["v"] = unit["q"], unit["v"]
        out = {"y": read("mem", "q"), "k": unit["k"]}
        if cfg.fixed_eta is None:
            out["eta"] = read("eta", "x")
        if cfg.fixed_alpha is None:
            out["alpha"] = read("alpha", "x")
        for slot in self.slots:
            if cfg.self_values:
                out["vhat." + slot] = read(slot, "v")
            else:
                out["vhat." + slot] = np.concatenate([cols["v"]] * len(self.stacked), axis=1) if slot == STACK else cols["v"]
        return out, (xc, cols, products, reads, unit["k"], norms)

    def _advance(self, kind: str, state: tuple, k, vhat, gates, partial) -> tuple:
        """One chunk's update of a weight from its boundary state (gates pinned), and what `_advance_grad` reads."""
        l2 = self.cfg.objective == "l2"
        if kind == LINEAR:
            (m,) = state
            u = T._bmm(m, k, partial) - vhat if l2 else -vhat
            out, saved = T._scan_value(m, k, u, *gates, self.cfg.retention, partial)
            return (out,), saved
        # weight-space gradient of the residual MLP read, no retention factor
        w1, w2 = state
        z = T._bmm(w2, k, partial)
        h, s = _silu(z)
        r = (k + T._bmm(w1, h, partial)) - vhat if l2 else -vhat
        t = T._bmm(w1.transpose(0, 2, 1).copy(), r, partial)
        sp = T._silu_prime(z, s)
        out1, s1 = T._scan_value(w1, h, r, *gates, False, partial)
        out2, s2 = T._scan_value(w2, k, t * sp, *gates, False, partial)
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
            span, live, state, k, se, alpha, eta_pre, advanced = chunks.pop()
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
            gwqc, gxc, gxkvc = self._elements_grad(state, wq, se, gout, grads)
            gwq += gwqc
            gx[:, span] += T._time_major(gxc)
            if gxkvc is not None:
                gxkv[:, span] += T._time_major(gxkvc)
        snap_grads = {slot: [gw.sum(axis=0) for gw in grads[slot]] for slot in SLOTS if slot not in stacked}
        if stacked:
            stack = grads[STACK][0].sum(axis=0)
            for slot in stacked:
                snap_grads[slot] = [stack[self.rows[slot]]]
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
        g1 = g1 + T._bmm_dw(gt, r).transpose(0, 2, 1)
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
        cfg, stacked, rows = self.cfg, self.stacked, self.rows
        xc, cols, products, reads, k, norms = saved
        gcols, gprod = {}, {}

        def add(acc, name, g):
            acc[name] = g if name not in acc else acc[name] + g

        def read_grad(slot, name, g):
            if slot in stacked:
                if name not in gprod:
                    gprod[name] = np.zeros_like(products[name])
                gprod[name][:, rows[slot]] += g
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
                    add(gcols, "v", g.reshape(len(g), len(stacked), cfg.dim, -1).sum(axis=1))
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
        read_grad("k", self.kv, _unit_grad(k, norms["k"], gout["k"]))
        if "v" in gcols:
            read_grad("v", self.kv, _unit_grad(cols["v"], norms["v"], gcols.pop("v")))
        gq = T._time_major(_unit_grad(cols["q"], norms["q"], gcols.pop("q")))
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
    conv_kernel: Optional[Node] = None,
    lengths: Optional[Sequence[int]] = None,
):
    """Graph-level forward over a (d,L) token matrix, or over a time-major
    (d, L*B) batch of B sequences of the given `lengths` (each at most L),
    in chunks of `cfg.chunk` tokens.

    `weights` maps slot -> tuple of snapshot nodes (params for meta-training,
    constants for plain evaluation).  Returns (Y node, final (B,p,n) weight
    nodes per slot).  The conv is one node, the chunk loop one more (see
    `_Core`), and each output one `tensor.unpack` of it.  Token order inside a
    chunk is an input of the per-op graph (`verify._srt_forward_oracle`), which
    this forward matches bit for bit.
    """
    lengths, L, padded = _layout(cfg, x, lengths)
    batch = len(lengths)
    parents = [T._lift(x.tape, p) for p in [w for slot in SLOTS for w in weights[slot]] + [wq, x]]
    if conv_kernel is not None:
        parents.append(T.causal_depthwise_conv(x, conv_kernel, batch))
    core = _Core(cfg, batch, _chunks(L, cfg.chunk, lengths, padded), conv_kernel is not None)
    packed = tape._record(core.value, tuple(parents), core.vjp, "srt_core", check=False)
    y, offset, final = T.unpack(packed, 0, x.value.shape), x.value.size, {}
    for slot in SLOTS:
        final[slot] = ()
        for w in weights[slot]:
            final[slot] += (T.unpack(packed, offset, (batch,) + w.value.shape),)
            offset += batch * w.value.size
    return y, final


def linear_attention_config(dim: int) -> SrtConfig:
    """Degenerate configuration whose storage trajectory is plain linear attention.

    Key/value memories frozen at identity reads, gates pinned to (eta, alpha)
    = (1, 1), no self-generated targets, no retention factor, dot objective:
    the storage update collapses to M <- M + v k^T.
    """
    return SrtConfig(
        dim=dim,
        kinds={"k": LINEAR, "v": LINEAR, "eta": LINEAR, "alpha": LINEAR, "mem": LINEAR},
        objective="dot",
        chunk=1,
        retention=False,
        self_values=False,
        normalize=False,
        update_slots=("mem",),
        fixed_eta=1.0,
        fixed_alpha=1.0,
    )
