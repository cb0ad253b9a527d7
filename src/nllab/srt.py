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
closed form (see `tensor.decay_scan`).  A chunk of 1 recovers exact
token-by-token stepping; `verify`'s `srt-fused-core` check holds both
properties bit for bit.  The S updated linear slots share keys, gates and
objective, and the rule acts on each row alone, so they run as one row stack,
an (S*d, d) fast weight in SLOTS order, bit-identical to S separate ones.

A batch of B sequences arrives as one time-major (d, L*B) matrix (column
t*B + b holds token t of sample b; see `tensor`), so a chunk is a (d, C*B)
slice.  Each snapshot or stack is broadcast once to a (B,p,n) fast weight
that every read multiplies sample by sample.  Padding sits at the end of the
shorter samples, so, taken longest first, the samples with a real column in a
chunk are a prefix of those in the chunk before: the core runs each chunk,
forward and VJP, as a (b,d,C) stack of only those b samples, and a sample
leaves the loop with the weights after its last chunk as its final ones.  In
that last chunk its padded columns reach no real column: the scan pins the
gates there to eta = 0, alpha = 1, and the sample is recomputed at its own
width, so each sample's fast weights end bit-identical to those of its own
run on the same input.  Y is 0 at every padded column and takes no gradient
there.

On the tape, a block's whole chunk loop is one node (`_Core`) whose VJP is
written by hand and runs the chunks backwards.  The oracle,
`verify._srt_forward_oracle`, is the plain per-slot graph: every slot its own
fast weight, every read a `memory.read_node`, one decay_scan per weight of
each updated slot.  The core matches it bit for bit: each row block of a
stacked product, and each product of a weight that reads several inputs at
once, equals that read's own product.

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


_X, _KV = 0, 1  # the first stage's inputs: token columns, conv columns
_Q, _V, _K = 0, 1, 2  # the second stage's: unit q, v and k, one (3,b,d,C) stack


def _sigmoids(parts: list) -> list:
    """`tensor._sigmoid` of each array in parts, from one call over their
    concatenation: the sigmoid is elementwise, so each is its own call's bits."""
    flat, out, start = T._sigmoid(np.concatenate(parts, axis=None)), [], 0
    for p in parts:
        out.append(flat[start : start + p.size].reshape(p.shape))
        start += p.size
    return out


def _pick(at: tuple):
    """Index of the second-stage inputs `at` (ascending): a view when they are adjacent."""
    return slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1 else list(at)


def _reads(specs: list, ws: list, cols: list, prods: list, partial) -> tuple:
    """The first stage's reads, (B,p,C) each.  A spec (slot, input, rows, mlp)
    reads the rows of a row-stack product in `prods` (rows not None), its own
    linear weight in `ws`, or its own residual MLP.  Returns the outputs and
    each MLP read's (z, s, h)."""
    # a spec's weight index is 1 for an MLP2 read (its pre-activation first), 0 for a linear one
    outs = [prods[inp][:, rows] if rows is not None else T._bmm(ws[i][mlp], cols[inp], partial) for i, inp, rows, mlp in specs]
    mlps, saves = [r for r, spec in enumerate(specs) if spec[3]], []
    for r, s in zip(mlps, _sigmoids([outs[r] for r in mlps]) if mlps else ()):
        (i, inp, _, _), z = specs[r], outs[r]
        h = z * s
        outs[r] = cols[inp] + T._bmm(ws[i][0], h, partial)
        saves.append((z, s, h))
    return outs, saves


def _reads_grad(specs: list, ws: list, cols: list, saves: list, gs: list, grads: list, gcols: list, gprod: list, rows: int) -> None:
    """Backward of `_reads` from the outputs' gradients `gs` (None: no gradient):
    adds to the slots' weight gradients `grads`, the inputs' `gcols` and the
    (B,rows,C) row-stack products' `gprod`."""
    saves = iter(saves)
    for (i, inp, block, mlp), g in zip(specs, gs):
        saved = next(saves) if mlp else None
        if g is None:
            continue
        if block is not None:
            if gprod[inp] is None:
                gprod[inp] = np.zeros((len(g), rows, g.shape[2]))
            gprod[inp][:, block] += g
            continue
        w, gw = ws[i], grads[i]
        if mlp:
            z, s, h = saved
            gw[0] += T._bmm_dw(g, h)
            gz = T._bmm_dx(w[0], g) * T._silu_prime(z, s)
            gw[1] += T._bmm_dw(gz, cols[inp])
            g = g + T._bmm_dx(w[1], gz)
        else:
            gw[0] += T._bmm_dw(g, cols[inp])
            g = T._bmm_dx(w[0], g)
        gcols[inp] = g if gcols[inp] is None else gcols[inp] + g


def _index(rows: list):
    """`rows` as an index of a batch axis: a slice when it is 0, 1, ..., so a view."""
    return slice(0, len(rows)) if rows == list(range(len(rows))) else np.array(rows)


def _scatter(y: np.ndarray, batch: int, rows) -> np.ndarray:
    """The (b, p, C) stack of the samples `rows` picks as time-major (p, C*B) columns, zero at the others'."""
    b, p, c = y.shape
    out = np.zeros((p, c, batch))
    out[:, :, rows] = y.transpose(1, 2, 0)
    return out.reshape(p, c * batch)


class _Core:
    """Value function and VJP of the whole chunk loop of one block core, recorded
    as one tape node (op "srt_core").

    The parents are the snapshots in SLOTS order, wq, x and, with the conv, its
    output.  The value is Y and then the final (B,p,n) fast weights of every
    slot in SLOTS order, packed into one flat array; `srt_forward_nodes` hands
    them out with `tensor.unpack`.  The value function takes the steps of the
    per-slot graph on operands of the same layout: (b,d,C) stacks as
    `tensor.bmatmul` multiplies them, and time-major (d, C*B) columns where
    the graph has them (the wq product, column norms, gate means).

    The configuration and the batch's lengths are resolved once, here: which
    slots stack, which weight serves each read, the gates and the flags; and
    per chunk, the b samples with a real column in it, longest first, and
    those of them that end inside it.  A chunk is then straight-line code over
    locals in two stages.  The first reads k, v and the gates from the token
    (or conv) columns.  After the unit norms, q, v and k form one (3,b,d,C)
    stack, and each weight of the second stage (the row stack, each updated
    MLP2 slot, a frozen MLP2 mem) reads the inputs it takes with one product
    over a leading axis.  One `tensor._sigmoid` call covers every MLP
    pre-activation of that stage and both gate pre-activations; the VJP reads
    eta's sigmoid from it.  The VJP runs the chunks backwards over the saved
    intermediates, forming the same products and sums, in the same order.

    The fast weights the loop carries shrink to the first b rows when samples
    end, at most B - 1 times; in the VJP the samples join again at their last
    chunk with their final weights' gradients.  Only the time-major products
    (`wq @ xc`, `wq.T @ gq`, `gq @ xc.T`) span every sample, zero at the ended
    samples' columns, because BLAS rounding depends on the width; and the
    snapshot gradients sum the batch in sample order.
    """

    def __init__(self, cfg: SrtConfig, lengths: list, L: int, conv: bool):
        batch = len(lengths)
        self.cfg, self.batch, self.conv, d = cfg, batch, conv, cfg.dim
        # the loop holds the samples longest first, so those with a real column
        # in a chunk are a prefix of the ones in the chunk before
        order = sorted(range(batch), key=lambda s: -lengths[s])
        self.order, self.inv = _index(order), _index(np.argsort(order).tolist())
        longest_first, firsts = [lengths[s] for s in order], [_index(order[:b]) for b in range(batch + 1)]
        # per chunk the b samples with a real column in it; and (chunk, rows) of the
        # samples whose last chunk it is, last chunk first, so the rows ascend
        self.chunks, self.ends, b = [], [], batch
        for c, start in enumerate(range(0, L, cfg.chunk)):
            n = min(cfg.chunk, L - start)
            if longest_first[b - 1] <= start:
                held, b = b, sum(length > start for length in longest_first)
                self.ends.insert(0, (c - 1, slice(b, held)))
            # each sample's real columns, if some end inside the chunk
            widths = [min(length - start, n) for length in longest_first[:b]] if longest_first[b - 1] < start + n else None
            span = slice(start * batch, (start + n) * batch)
            self.chunks.append((start, n, span, b, firsts[b], T._partial(widths, n), T._live_columns(widths, b, n)))
        self.ends.insert(0, (len(self.chunks) - 1, slice(0, b)))
        index = {slot: i for i, slot in enumerate(SLOTS)}
        self.mem, l2, sv = index["mem"], cfg.objective == "l2", cfg.self_values
        updated = [i for i, slot in enumerate(SLOTS) if slot in cfg.update_slots]
        mlp = [cfg.kinds[slot] == MLP2 for slot in SLOTS]
        # the updated linear slots share a row stack; the updated MLP2 slots advance on their own
        self.stacked = [i for i in updated if not mlp[i]]
        self.rows = {i: slice(j * d, (j + 1) * d) for j, i in enumerate(self.stacked)}
        # first stage: the learned gates' reads (their means shifted by a bias), then k and v
        learned = [(index[slot], bias) for slot, fixed, bias in (("eta", cfg.fixed_eta, cfg.eta_bias), ("alpha", cfg.fixed_alpha, cfg.alpha_bias)) if fixed is None]
        self.biases = np.array([[[bias]] for _, bias in learned])
        kv = _KV if conv else _X
        self.reads1 = [(i, inp, self.rows.get(i), mlp[i]) for i, inp in [(i, _X) for i, _ in learned] + [(index["k"], kv), (index["v"], kv)]]
        self.prods1 = sorted({inp for _, inp, rows, _ in self.reads1 if rows is not None}, reverse=True)  # backward order
        # second stage: the row stack reads q (mem's rows), v (its targets) and k (the l2 residual);
        # an updated MLP2 slot reads q (mem), v (its target) and k (its update); a frozen MLP2 mem reads q
        self.stack_at = tuple(inp for inp, on in ((_Q, self.mem in self.rows), (_V, sv), (_K, l2)) if on) if self.stacked else ()
        groups = [(i, (_Q,) * (i == self.mem) + (_V,) * sv + (_K,), True) for i in updated if mlp[i]]
        groups += [(self.mem, (_Q,), False)] * (mlp[self.mem] and self.mem not in updated)
        self.groups = [(i, at, _pick(at), adv) for i, at, adv in groups]
        self.pick_s = _pick(self.stack_at) if self.stack_at else None
        self.y_group = next((g for g, (i, *_) in enumerate(groups) if i == self.mem), None)
        self.advanced = bool(updated)
        self.saved = []

    # -- forward ----------------------------------------------------------

    def value(self, *values) -> np.ndarray:
        cfg, batch, d, stacked, mem, at_s = self.cfg, self.batch, self.cfg.dim, self.stacked, self.mem, self.stack_at
        l2, sv = cfg.objective == "l2", cfg.self_values
        it = iter(values)
        snaps = [tuple(next(it) for _ in range(1 if cfg.kinds[slot] == LINEAR else 2)) for slot in SLOTS]
        wq, x = next(it), next(it)
        xkv = next(it) if self.conv else None
        # each snapshot (the stacked ones as one) repeated along the batch axis
        ws = [None if i in self.rows else tuple(np.repeat(w[None], batch, 0) for w in snap) for i, snap in enumerate(snaps)]
        stack = np.repeat(np.concatenate([snaps[i][0] for i in stacked])[None], batch, 0) if stacked else None
        ys, pres, chunks, after, held = [], [], [], [], batch
        for start, n, span, b, samples, partial, live in self.chunks:
            if b < held:  # the samples that have ended leave; their weights after their last chunk are in `after`
                stack = stack[:b] if stacked else None
                ws = [None if w is None else tuple(a[:b] for a in w) for w in ws]
                held = b
            xc = x[:, span].copy()
            cols = [T._batch_major(xc, batch)[samples], T._batch_major(xkv[:, span].copy(), batch)[samples] if self.conv else None]
            prods = [None, None]
            for inp in self.prods1:
                prods[inp] = T._bmm(stack, cols[inp], partial)
            (*gate_reads, k, v), saves1 = _reads(self.reads1, ws, cols, prods, partial)
            qvk, norms = np.concatenate([T._batch_major(wq @ xc, batch)[samples], v, k]).reshape(3, b, d, n), None
            if cfg.normalize:  # columns scaled as `tensor.l2_normalize_columns` scales them
                norms = T._safe_row_norms(qvk.swapaxes(-1, -2))[..., None, :]
                qvk /= norms
            v, k = qvk[_V], qvk[_K]
            pre = []
            if gate_reads:  # the (G,b,C) gate means, bit for bit `mean_axis0` of each gate's time-major reads,
                # which numpy sums over d pairwise in a one-column chunk and row by row in a wider one, as here
                pre = [np.array(gate_reads).sum(axis=2) / d + self.biases]
            prod = T._bmm(stack, qvk[self.pick_s], partial) if at_s else None
            zs = [T._bmm(ws[i][1], qvk[pick], partial) for i, _, pick, _ in self.groups]
            sigs, hs, outs, sps = _sigmoids(zs + pre) if zs or pre else [], [], [], []
            for (i, _, pick, _), z, s in zip(self.groups, zs, sigs):
                hs.append(z * s)
                outs.append(qvk[pick] + T._bmm(ws[i][0], hs[-1], partial))
                sps.append(T._silu_prime(z, s))
            gsig = sigs[-1] if pre else None  # eta's (if learned), then alpha's
            eta = np.full((b, n), cfg.fixed_eta) if cfg.fixed_eta is not None else T._softplus(pre[0][0])
            alpha = np.full((b, n), cfg.fixed_alpha) if cfg.fixed_alpha is not None else gsig[-1]
            eb, ab = T._pinned(eta, alpha, live)  # shared by every scan of the chunk
            # mem reads q in its MLP2 group, as rows of the stack's product, or as a frozen linear weight
            y = outs[self.y_group][0] if self.y_group is not None else prod[0][:, self.rows[mem]] if mem in self.rows else None
            y = T._bmm(ws[mem][0], qvk[_Q], partial) if y is None else y
            m, state, advanced = stack, ws, [None]
            if stacked:
                vhat = prod[at_s.index(_V)] if sv else np.concatenate([v] * len(stacked), axis=1)
                u = prod[-1] - vhat if l2 else -vhat
                stack, advanced[0] = T._scan_value(m, k, u, eb, ab, cfg.retention, partial)
            ws = list(ws)
            for (i, at, _, adv), h, sp, out in zip(self.groups, hs, sps, outs):
                if adv:  # the weight-space gradient of the residual MLP read, no retention factor
                    w1, w2 = state[i]
                    vhat = out[at.index(_V)] if sv else v
                    r = out[-1] - vhat if l2 else -vhat
                    t = T._bmm(w1.transpose(0, 2, 1).copy(), r, partial)
                    out1, s1 = T._scan_value(w1, h[-1], r, eb, ab, False, partial)
                    out2, s2 = T._scan_value(w2, k, t * sp[-1], eb, ab, False, partial)
                    ws[i] = (out1, out2)
                    advanced.append((r, t, s1, s2))
            if live is not None:  # Y is 0 at the padded columns of the samples that end here
                y = np.where(live[:, None], y, 0.0)
            ys.append(_scatter(y, batch, samples))
            pres.append(pre)
            after.append((stack, ws))
            chunks.append((span, b, samples, live, xc, cols, m, state, qvk, norms, saves1, zs, sigs, hs, sps, advanced, alpha, gsig))
        # the final (B,p,n) fast weights per slot, each sample's rows of the weights
        # after its last chunk; a stacked slot's are its rows of the stack
        ends = [(after[c], rows) for c, rows in self.ends]
        final = []
        for i in range(len(SLOTS)):
            pieces = [(m[rows, self.rows[i]],) if i in self.rows else tuple(w[rows] for w in state[i]) for (m, state), rows in ends]
            final += [np.concatenate(block)[self.inv] for block in zip(*pieces)]
        y = np.concatenate(ys, axis=1)
        packed = np.concatenate([y.reshape(-1)] + [w.reshape(-1) for w in final])
        # one finite check per forward, a search only when it fails: a non-finite
        # entry of a fast weight stays non-finite through every later update, so
        # the final weights stand for the weights after each chunk
        gate_pres = [p for ps in pres for p in ps]
        if not (np.isfinite(packed).all() and (not gate_pres or np.isfinite(np.concatenate(gate_pres, axis=None)).all())):
            moving = [i for i, _, _, adv in self.groups if adv]
            made = ([y, *ps, *([m] if stacked else [])] + [w for i in moving for w in s[i]] for y, ps, (m, s) in zip(ys, pres, after))
            c = next(c for c, arrays in enumerate(made) if not all(np.isfinite(a).all() for a in arrays))
            start, n, *_ = self.chunks[c]
            raise T.NonFiniteError(f"at chunk {c} (tokens {start} to {start + n - 1})")
        self.saved[:] = [snaps, wq, x, chunks]
        return packed

    # -- backward ---------------------------------------------------------

    def vjp(self, g: np.ndarray) -> tuple:
        cfg, batch, d, stacked, mem, at_s = self.cfg, self.batch, self.cfg.dim, self.stacked, self.mem, self.stack_at
        l2, sv = cfg.objective == "l2", cfg.self_values
        snaps, wq, x, chunks = self.saved
        # a tape runs one backward pass: free the saved arrays once it has run
        self.saved = []
        gy = g[: x.size].reshape(x.shape)
        # the gradients of the final weights, longest sample first, as the loop holds them
        parts = iter(np.split(g, np.cumsum([x.size] + [batch * w.size for snap in snaps for w in snap]))[1:])
        gfinal = [[next(parts).reshape((batch,) + w.shape)[self.order] for w in snap] for snap in snaps]
        gfinal_stack = np.concatenate([gfinal[i][0] for i in stacked], axis=1) if stacked else None
        # gradients of the weights at the current chunk boundary, and of the frozen
        # ones; a sample joins them at its last chunk with its final weights' gradient
        grads, gstack, held = [[gw[:0] for gw in gws] for gws in gfinal], gfinal_stack[:0] if stacked else None, 0
        gwq, gx = np.zeros_like(wq), np.zeros_like(x)
        gxkv = np.zeros_like(x) if self.conv else None
        while chunks:
            span, b, samples, live, xc, cols, m, state, qvk, norms, saves1, zs, sigs, hs, sps, advanced, alpha, gsig = chunks.pop()
            if held < b:
                grads = [[np.concatenate([gw, gf[held:b]]) for gw, gf in zip(gws, gfs)] for gws, gfs in zip(grads, gfinal)]
                gstack = np.concatenate([gstack, gfinal_stack[held:b]]) if stacked else None
                held = b
            k = qvk[_K]
            gyc = T._batch_major(gy[:, span], batch)[samples]
            if live is not None:  # Y is 0 at padded columns: they take no gradient
                gyc = np.where(live[:, None], gyc, 0.0)
            gk = ge = ga = 0.0
            gq = gv = gv_stack = None
            if stacked:
                gm, gks, gu, ges, gas = T._scan_grad(gstack, advanced[0], cfg.retention, live)
                if not sv:
                    gv = (-gu).reshape(b, len(stacked), d, -1).sum(axis=1)
                if at_s:  # the gradients of the stack's products at q (mem's rows), v and k
                    parts = [-gu] * sv + [gu] * l2
                    if _Q in at_s:
                        parts.insert(0, np.zeros_like(gu))
                        parts[0][:, self.rows[mem]] += gyc
                    gprod = np.array(parts)
                    dx = T._bmm_dx(m, gprod)
                    for dw in T._bmm_dw(gprod, qvk[self.pick_s])[::-1]:  # k's, v's, then q's, as the per-slot graph adds them
                        gm += dw
                    gks = gks + dx[-1] if l2 else gks
                    gq = dx[0] if _Q in at_s else None
                    gv_stack = dx[at_s.index(_V)] if sv else None
                gstack, gk, ge, ga = gm, gk + gks, ge + ges, ga + gas
            adv_saves = iter(advanced[1:])
            for (i, at, pick, adv), z, s, h, sp in zip(self.groups, zs, sigs, hs, sps):
                w1, w2 = state[i]
                if adv:
                    r, t, s1, s2 = next(adv_saves)
                    g1, gh, gr, ge1, ga1 = T._scan_grad(grads[i][0], s1, False, live)
                    g2, gkm, gu2, ge2, ga2 = T._scan_grad(grads[i][1], s2, False, live)
                    gt = gu2 * sp[-1]
                    gzk = gu2 * t * T._silu_second(z[-1], s[-1])
                    g1 = g1 + T._bmm_dw(gt, r).transpose(0, 2, 1)
                    gr = gr + w1 @ gt
                    ngr = -gr
                else:
                    g1, g2 = grads[i]
                # the gradients of the read outputs at q (y), v (the target) and k (the l2 residual)
                parts = [gyc] * (_Q in at) + ([ngr] * sv + [gr] * l2 if adv else [])
                reads = len(at) - adv  # the positions other than the update's k
                gz = np.empty_like(z)
                if parts:
                    gout = np.array(parts)
                    dx1, dw1 = T._bmm_dx(w1, gout), T._bmm_dw(gout, h[: len(parts)])
                    np.multiply(dx1[:reads], sp[:reads], out=gz[:reads])
                if adv:
                    if l2:
                        gkm = gkm + gr
                        g1 += dw1[-1]
                        gh = gh + dx1[-1]
                    gzk += gh * sp[-1]
                    gz[-1] = gzk
                dw2, dx2 = T._bmm_dw(gz, qvk[pick]), T._bmm_dx(w2, gz)
                if adv:
                    g2 = g2 + dw2[-1]
                    gkm = gkm + dx2[-1]
                for j in reversed(range(reads)):  # after k's: v's, then q's
                    g1 += dw1[j]
                    g2 += dw2[j]
                if _Q in at:
                    gq = gyc + dx2[0]
                if adv:
                    gvi = ngr + dx2[at.index(_V)] if sv else ngr
                    gv = gvi if gv is None else gv + gvi
                    grads[i] = [g1, g2]
                    gk, ge, ga = gk + gkm, ge + (ge1 + ge2), ga + (ga1 + ga2)
            if gv_stack is not None:
                gv = gv_stack if gv is None else gv + gv_stack
            if gq is None:  # a frozen linear mem
                grads[mem][0] += T._bmm_dw(gyc, qvk[_Q])
                gq = T._bmm_dx(state[mem][0], gyc)
            if not self.advanced:
                gk = np.zeros_like(k)
            gates = [ge * gsig[0] / d] if cfg.fixed_eta is None else []
            if cfg.fixed_alpha is None:
                gates.append(ga * (alpha * (1.0 - alpha)) / d)
            # a gate's gradient is the same on every row of its read: a stacked read adds it by broadcasting
            gs = [g[:, None, :] if block is not None else np.repeat(g[:, None, :], d, axis=1) for g, (_, _, block, _) in zip(gates, self.reads1)]
            # q's, v's (zero if nothing read v) and k's column gradients, through the unit norms in one stack
            gqvk = T._unit_grad(qvk, norms, np.array([gq, np.zeros_like(gk) if gv is None else gv, gk]))
            gs += [gqvk[_K], None if gv is None else gqvk[_V]]
            # the time-major products over the whole chunk, zero at the ended samples' columns
            gqt = _scatter(gqvk[_Q], batch, samples)
            gcols, gprod = [None, None], [None, None]
            _reads_grad(self.reads1, state, cols, saves1, gs, grads, gcols, gprod, len(stacked) * d)
            for inp in self.prods1:
                if gprod[inp] is not None:
                    gstack += T._bmm_dw(gprod[inp], cols[inp])
                    gc = T._bmm_dx(m, gprod[inp])
                    gcols[inp] = gc if gcols[inp] is None else gcols[inp] + gc
            gxc = wq.T @ gqt
            if gcols[_X] is not None:
                gxc += _scatter(gcols[_X], batch, samples)
            gwq += gqt @ xc.T
            gx[:, span] += gxc
            if self.conv:
                gxkv[:, span] += _scatter(gcols[_KV], batch, samples)
        # the batch summed in sample order
        snap_grads = [[gw[self.inv].sum(axis=0) for gw in gws] for gws in grads]
        if stacked:
            total = gstack[self.inv].sum(axis=0)
            for i in stacked:
                snap_grads[i] = [total[self.rows[i]]]
        return tuple(gw for gws in snap_grads for gw in gws) + (gwq, gx) + ((gxkv,) if self.conv else ())


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
    lengths, L, _ = _layout(cfg, x, lengths)
    batch = len(lengths)
    parents = [T._lift(x.tape, p) for p in [w for slot in SLOTS for w in weights[slot]] + [wq, x]]
    if conv_kernel is not None:
        parents.append(T.causal_depthwise_conv(x, conv_kernel, batch))
    core = _Core(cfg, lengths, L, conv_kernel is not None)
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
