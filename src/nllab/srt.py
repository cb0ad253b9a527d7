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
written by hand and runs the chunks backwards.  Each of its reads, a slot's
own weight or the row stack over the inputs it takes, goes through one
forward (`_read`) and one VJP (`_read_grad`).  The oracle,
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
    if not lengths or width % len(lengths) or min(lengths) < 1 or max(lengths) > width // len(lengths):
        raise T.ShapeError(f"{width} columns do not hold {len(lengths)} sequences of lengths {lengths}")
    L = width // len(lengths)
    return lengths, L, min(lengths) < L


_X, _KV = 0, 1  # the first stage's inputs: token columns, conv columns
_Q, _V, _K = 0, 1, 2  # the second stage's: unit q, v and k, one (3,b,d,C) stack
_STACK = len(SLOTS)  # the row stack's index among the core's weights, after the slots'


def _pick(at: tuple):
    """Index of the inputs `at` (ascending) of a stage: a view when they are adjacent."""
    return slice(at[0], at[-1] + 1) if at[-1] - at[0] == len(at) - 1 else list(at)


def _read(reads: list, mlps: list, ws: list, xs: np.ndarray, partial, pre) -> tuple:
    """The reads of one stage from its (m,b,n,C) input stack xs.  A read
    (i, at, pick, adv) is weight i, a slot's own or the row stack, over the
    inputs `at` (`pick` indexes them), one product per layer over the leading
    axis, so each input's rows are that input's own product.  `mlps` lists
    the MLP2 reads, whose weight's last layer is the pre-activation one.  One
    `tensor._sigmoid` call covers every MLP pre-activation and the (G,b,C) gate
    pre-activations in `pre` (a list of at most one), so each keeps its own
    call's bits.  Returns the (m,b,p,C) outputs, each MLP2 read's
    (z, s, h, silu'(z)), and the gates' sigmoid (None without gates)."""
    outs = [T._bmm(ws[i][-1], xs[pick], partial) for i, _, pick, _ in reads]
    saves, gsig = [None] * len(reads), None
    if mlps or pre:
        flat, start = T._sigmoid(np.concatenate([outs[r] for r in mlps] + pre, axis=None)), 0
        for r in mlps:
            (i, _, pick, _), z = reads[r], outs[r]
            s = flat[start : start + z.size].reshape(z.shape)
            start += z.size
            h = z * s
            outs[r] = xs[pick] + T._bmm(ws[i][0], h, partial)
            saves[r] = (z, s, h, T._silu_prime(z, s))
        gsig = flat[start:].reshape(pre[0].shape) if pre else None
    return outs, saves, gsig


def _read_grad(w: tuple, gw: list, xs: np.ndarray, saved, gout, extra=None) -> np.ndarray:
    """VJP of one read of `_read` from the (m,b,p,C) gradient `gout` of its first
    m outputs (None: m = 0): adds to the weight gradients `gw`, last input first,
    and returns the gradients of its inputs xs.  An updated MLP2 slot's scans
    add `extra` = (gx, gh, gz) at its last input, that input's hidden layer and
    its pre-activation; the input's gradient adds them before the read's own."""
    if saved is None:
        for dw in T._bmm_dw(gout, xs)[::-1]:
            gw[0] += dw
        return T._bmm_dx(w[0], gout)
    (w1, w2), (z, s, h, sp) = w, saved
    m, plain = 0 if gout is None else len(gout), len(z) - (extra is not None)
    gz = np.empty_like(z)
    if m:
        dx1, dw1 = T._bmm_dx(w1, gout), T._bmm_dw(gout, h[:m])
        np.multiply(dx1[:plain], sp[:plain], out=gz[:plain])
    if extra is not None:
        gx, gh, gzx = extra
        gz[-1] = gzx + (gh + dx1[-1] if m > plain else gh) * sp[-1]
    dw2, dx = T._bmm_dw(gz, xs), T._bmm_dx(w2, gz)
    for j in reversed(range(len(z))):
        if j < m:
            gw[0] += dw1[j]
        gw[1] += dw2[j]
    if m:  # the residual
        dx[:plain] += gout[:plain]
    if extra is not None:
        dx[-1] += gx + gout[-1] if m > plain else gx
    return dx


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

    The configuration and the batch's lengths are resolved once, here: the
    read table, the gates and the flags; and per chunk, the b samples with a
    real column in it, longest first, and those of them that end inside it.
    A chunk is then straight-line code over locals in two stages, each a
    table of reads of one input stack (see `_read`).  The weights are the
    slots' own and, last, the row stack of the updated linear slots; a weight
    reads at most once per stage.  The first stage reads the learned gates
    from the token columns and k and v from the token (or conv) columns; a
    stacked slot's read is its rows of the stack's product.  After the unit
    norms, q, v and k form the second stage's stack: the row stack reads q
    (mem's rows), v (the targets) and k (the l2 residual), an updated MLP2
    slot q (if mem), v and k (its update), a frozen mem q.  The second
    stage's one `tensor._sigmoid` call also covers both gate pre-activations;
    the VJP reads eta's sigmoid from it.

    The VJP runs the chunks backwards over the saved intermediates, forming
    the same products and sums in the per-slot graph's order: a weight's
    gradient adds its inputs' products last input first; the token and conv
    columns' gradients add the own reads' in read order, then the stack's
    (last in the first stage's table); k's adds the stack's update (first in
    the second's), then each MLP2 slot's; v's adds the MLP2 slots' targets,
    then the stack's.

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
            partial, live = (), None
            if longest_first[b - 1] < start + n:  # each sample's real columns, as some end inside the chunk
                widths = [min(length - start, n) for length in longest_first[:b]]
                partial, live = T._partial(widths, n), T._live_columns(widths, b, n)
            self.chunks.append((start, n, slice(start * batch, (start + n) * batch), b, firsts[b], partial, live))
        self.ends.insert(0, (len(self.chunks) - 1, slice(0, b)))
        index = {slot: i for i, slot in enumerate(SLOTS)}
        self.mem, l2, sv = index["mem"], cfg.objective == "l2", cfg.self_values
        updated = [i for i, slot in enumerate(SLOTS) if slot in cfg.update_slots]
        mlp = [cfg.kinds[slot] == MLP2 for slot in SLOTS] + [False]
        # the updated linear slots share a row stack; the updated MLP2 slots advance on their own
        self.stacked = [i for i in updated if not mlp[i]]
        self.rows = {i: slice(j * d, (j + 1) * d) for j, i in enumerate(self.stacked)}
        # first stage: the learned gates' reads (their means shifted by a bias), then k and v, each
        # used as (read, its input's position, rows): rows of the stack's product, None for an own read
        first = [(index[slot], _X, bias) for slot, fixed, bias in (("eta", cfg.fixed_eta, cfg.eta_bias), ("alpha", cfg.fixed_alpha, cfg.alpha_bias)) if fixed is None]
        self.biases = np.array([[[bias]] for *_, bias in first])
        kv = _KV if conv else _X
        first += [(index["k"], kv, None), (index["v"], kv, None)]
        own = [(i, (inp,), False) for i, inp, _ in first if i not in self.rows]
        at = tuple(sorted({inp for i, inp, _ in first if i in self.rows}))
        self.uses1 = [(own.index((i, (inp,), False)), 0, None) if i not in self.rows else (len(own), at.index(inp), self.rows[i]) for i, inp, _ in first]
        table1 = own + [(_STACK, at, False)] * bool(at)
        # second stage: the row stack reads q (mem's rows), v (its targets) and k (the l2 residual);
        # an updated MLP2 slot reads q (mem), v (its target) and k (its update); a frozen mem reads q
        self.stack_at = tuple([inp for inp, on in ((_Q, self.mem in self.rows), (_V, sv), (_K, l2)) if on]) if self.stacked else ()
        table2 = [(_STACK, self.stack_at, False)] * bool(self.stack_at)
        table2 += [(i, (_Q,) * (i == self.mem) + (_V,) * sv + (_K,), True) for i in updated if mlp[i]]
        table2 += [(self.mem, (_Q,), False)] * (self.mem not in updated)
        self.y_read = ([i for i, *_ in table2].index(_STACK if self.mem in self.rows else self.mem), self.rows.get(self.mem, slice(None)))
        # each stage's reads (weight, inputs, their index, advances) and which of them are MLP2 reads
        self.stages = [([(i, at, _pick(at), adv) for i, at, adv in table], [r for r, (i, *_) in enumerate(table) if mlp[i]]) for table in (table1, table2)]
        self.advanced = bool(updated)
        self.saved = []

    # -- forward ----------------------------------------------------------

    def value(self, *values) -> np.ndarray:
        cfg, batch, d, stacked, at_s = self.cfg, self.batch, self.cfg.dim, self.stacked, self.stack_at
        l2, sv = cfg.objective == "l2", cfg.self_values
        it = iter(values)
        snaps = [tuple(next(it) for _ in range(1 if cfg.kinds[slot] == LINEAR else 2)) for slot in SLOTS]
        wq, x = next(it), next(it)
        xkv = next(it) if self.conv else None
        # each weight (the stacked slots' as one, last) repeated along the batch axis
        ws = [None if i in self.rows else tuple(np.repeat(w[None], batch, 0) for w in snap) for i, snap in enumerate(snaps)]
        ws.append((np.repeat(np.concatenate([snaps[i][0] for i in stacked])[None], batch, 0),) if stacked else None)
        # Y as (d, L, B): token t of sample b in [:, t, b]
        ys, pres, chunks, after, held = np.zeros((d, len(x[0]) // batch, batch)), [], [], [], batch
        for start, n, span, b, samples, partial, live in self.chunks:
            if b < held:  # the samples that have ended leave; their weights after their last chunk are in `after`
                ws = [None if w is None else tuple(a[:b] for a in w) for w in ws]
                held = b
            xc = x[:, span].copy()
            xs = T._batch_major(xc, batch)[samples][None]
            if self.conv:
                xs = np.array([xs[0], T._batch_major(xkv[:, span].copy(), batch)[samples]])
            outs, saves1, _ = _read(*self.stages[0], ws, xs, partial, [])
            *gate_reads, k, v = [outs[r][j] if rows is None else outs[r][j][:, rows] for r, j, rows in self.uses1]
            qvk, norms = np.concatenate([T._batch_major(wq @ xc, batch)[samples], v, k]).reshape(3, b, d, n), None
            if cfg.normalize:  # columns scaled as `tensor.l2_normalize_columns` scales them
                norms = T._safe_row_norms(qvk.swapaxes(-1, -2))[..., None, :]
                qvk /= norms
            v, k = qvk[_V], qvk[_K]
            # the (G,b,C) gate means, bit for bit `mean_axis0` of each gate's time-major reads,
            # which numpy sums over d pairwise in a one-column chunk and row by row in a wider one, as here
            pre = [np.array(gate_reads).sum(axis=2) / d + self.biases] if gate_reads else []
            outs, saves2, gsig = _read(*self.stages[1], ws, qvk, partial, pre)
            eta = np.full((b, n), cfg.fixed_eta) if cfg.fixed_eta is not None else T._softplus(pre[0][0])
            alpha = np.full((b, n), cfg.fixed_alpha) if cfg.fixed_alpha is not None else gsig[-1]
            eb, ab = T._pinned(eta, alpha, live)  # shared by every scan of the chunk
            y = outs[self.y_read[0]][0][:, self.y_read[1]]
            state, ws, advanced = ws, list(ws), [None]
            if stacked:
                vhat = outs[0][at_s.index(_V)] if sv else np.concatenate([v] * len(stacked), axis=1)
                u = outs[0][-1] - vhat if l2 else -vhat
                m, advanced[0] = T._scan_value(state[_STACK][0], k, u, eb, ab, cfg.retention, partial)
                ws[_STACK] = (m,)
            for (i, at, _, adv), out, saved in zip(self.stages[1][0], outs, saves2):
                if not adv:
                    continue
                # the weight-space gradient of the residual MLP read, no retention factor
                (w1, w2), (_, _, h, sp) = state[i], saved
                vhat = out[at.index(_V)] if sv else v
                r = out[-1] - vhat if l2 else -vhat
                t = T._bmm(w1.transpose(0, 2, 1).copy(), r, partial)
                out1, s1 = T._scan_value(w1, h[-1], r, eb, ab, False, partial)
                out2, s2 = T._scan_value(w2, k, t * sp[-1], eb, ab, False, partial)
                ws[i] = (out1, out2)
                advanced.append((r, t, s1, s2))
            if live is not None:  # Y is 0 at the padded columns of the samples that end here
                y = np.where(live[:, None], y, 0.0)
            ys[:, start : start + n, samples] = y.transpose(1, 2, 0)
            pres.append(pre)
            after.append(ws)
            chunks.append((span, b, samples, live, xc, xs, state, qvk, norms, saves1, saves2, advanced, alpha, gsig))
        # the final (B,p,n) fast weights per slot, each sample's rows of the weights
        # after its last chunk; a stacked slot's are its rows of the stack
        ends = [(after[c], rows) for c, rows in self.ends]
        final = []
        for i in range(len(SLOTS)):
            pieces = [(ws[_STACK][0][rows, self.rows[i]],) if i in self.rows else tuple(w[rows] for w in ws[i]) for ws, rows in ends]
            final += [np.concatenate(block)[self.inv] for block in zip(*pieces)]
        packed = np.concatenate([ys.reshape(-1)] + [w.reshape(-1) for w in final])
        # one finite check per forward, a search only when it fails: a non-finite
        # entry of a fast weight stays non-finite through every later update, so
        # the final weights stand for the weights after each chunk
        gate_pres = [p for ps in pres for p in ps]
        if not (np.isfinite(packed).all() and (not gate_pres or np.isfinite(np.concatenate(gate_pres, axis=None)).all())):
            moving = [i for i, *_, adv in self.stages[1][0] if adv] + [_STACK] * bool(stacked)
            made = ([ys[:, start : start + n], *ps] + [w for i in moving for w in ws[i]] for (start, n, *_), ps, ws in zip(self.chunks, pres, after))
            c = next(c for c, arrays in enumerate(made) if not all(np.isfinite(a).all() for a in arrays))
            start, n, *_ = self.chunks[c]
            raise T.NonFiniteError(f"at chunk {c} (tokens {start} to {start + n - 1})")
        self.saved[:] = [snaps, wq, x, chunks]
        return packed

    # -- backward ---------------------------------------------------------

    def vjp(self, g: np.ndarray) -> tuple:
        cfg, batch, d, stacked, mem, at_s = self.cfg, self.batch, self.cfg.dim, self.stacked, self.mem, self.stack_at
        l2, sv = cfg.objective == "l2", cfg.self_values
        (table1, _), (table2, _) = self.stages
        snaps, wq, x, chunks = self.saved
        gy = g[: x.size].reshape(x.shape)
        # the gradients of the final weights, longest sample first, as the loop holds them
        parts = iter(np.split(g, np.cumsum([x.size] + [batch * w.size for snap in snaps for w in snap]))[1:])
        gfinal = [[next(parts).reshape((batch,) + w.shape)[self.order] for w in snap] for snap in snaps]
        # a stacked slot's gradients are its rows of the stack's
        gfinal.append([np.concatenate([gfinal[i].pop() for i in stacked], axis=1)] if stacked else [])
        # gradients of the weights at the current chunk boundary, and of the frozen
        # ones; a sample joins them at its last chunk with its final weights' gradient
        grads, held = [[gw[:0] for gw in gws] for gws in gfinal], 0
        gwq, gx = np.zeros_like(wq), np.zeros_like(x)
        gxkv = np.zeros_like(x) if self.conv else None
        while chunks:
            span, b, samples, live, xc, xs, state, qvk, norms, saves1, saves2, advanced, alpha, gsig = chunks.pop()
            if held < b:
                grads = [[np.concatenate([gw, gf[held:b]]) for gw, gf in zip(gws, gfs)] for gws, gfs in zip(grads, gfinal)]
                held = b
            k = qvk[_K]
            gyc = T._batch_major(gy[:, span], batch)[samples]
            if live is not None:  # Y is 0 at padded columns: they take no gradient
                gyc = np.where(live[:, None], gyc, 0.0)
            gk = ge = ga = 0.0
            gq = gv = gv_stack = None
            if stacked:
                gm, gks, gu, ges, gas = T._scan_grad(grads[_STACK][0], advanced[0], cfg.retention, live)
                grads[_STACK] = [gm]
                if not sv:
                    gv = (-gu).reshape(b, len(stacked), d, -1).sum(axis=1)
                if at_s:  # the gradients of the stack's products at q (mem's rows), v and k
                    parts = [-gu] * sv + [gu] * l2
                    if _Q in at_s:
                        parts.insert(0, np.zeros_like(gu))
                        parts[0][:, self.rows[mem]] += gyc
                    dx = _read_grad(state[_STACK], grads[_STACK], qvk[table2[0][2]], None, np.array(parts))
                    gks = gks + dx[-1] if l2 else gks
                    gq = dx[0] if _Q in at_s else None
                    gv_stack = dx[at_s.index(_V)] if sv else None
                gk, ge, ga = gk + gks, ge + ges, ga + gas
            adv_saves = iter(advanced[1:])
            for (i, at, pick, adv), saved in zip(table2[bool(at_s) :], saves2[bool(at_s) :]):
                parts, extra = [gyc] * (_Q in at), None
                if adv:
                    r, t, s1, s2 = next(adv_saves)
                    (w1, _), (z, s, _, sp) = state[i], saved
                    g1, gh, gr, ge1, ga1 = T._scan_grad(grads[i][0], s1, False, live)
                    g2, gkm, gu2, ge2, ga2 = T._scan_grad(grads[i][1], s2, False, live)
                    gt = gu2 * sp[-1]
                    extra = (gkm, gh, gu2 * t * T._silu_second(z[-1], s[-1]))
                    grads[i] = [g1 + T._bmm_dw(gt, r).transpose(0, 2, 1), g2]
                    gr = gr + w1 @ gt
                    parts += [-gr] * sv + [gr] * l2
                # the gradients of the read outputs at q (y), v (the target) and k (the l2 residual)
                gout = parts[0][None] if len(parts) == 1 else np.array(parts) if parts else None
                dx = _read_grad(state[i], grads[i], qvk[pick], saved, gout, extra)
                if _Q in at:
                    gq = dx[0]
                if adv:
                    gvi = dx[at.index(_V)] if sv else -gr
                    gv = gvi if gv is None else gv + gvi
                    gk, ge, ga = gk + dx[-1], ge + (ge1 + ge2), ga + (ga1 + ga2)
            if gv_stack is not None:
                gv = gv_stack if gv is None else gv + gv_stack
            if not self.advanced:
                gk = np.zeros_like(k)
            # a gate's (b,1,C) gradient is the same on every row of its read
            gates = [(ge * gsig[0] / d)[:, None]] if cfg.fixed_eta is None else []
            if cfg.fixed_alpha is None:
                gates.append((ga * (alpha * (1.0 - alpha)) / d)[:, None])
            # q's, v's (zero if nothing read v) and k's column gradients, through the unit norms in one stack
            gqvk = T._unit_grad(qvk, norms, np.array([gq, np.zeros_like(gk) if gv is None else gv, gk]))
            # the first stage's output gradients: a row block of the stack's adds a gate's by broadcasting
            gouts = [None] * len(table1)
            if table1[-1][0] == _STACK:
                gouts[-1] = np.zeros((len(table1[-1][1]), b, len(stacked) * d, k.shape[-1]))
            for (r, j, rows), g in zip(self.uses1, gates + [gqvk[_K], None if gv is None else gqvk[_V]]):
                if rows is not None:
                    gouts[r][j][:, rows] += g
                elif g is not None:
                    gouts[r] = (g if g.shape == k.shape else np.repeat(g, d, axis=1))[None]
            gcols = [None, None]
            for (i, at, pick, _), saved, gout in zip(table1, saves1, gouts):
                if gout is not None:
                    for inp, gc in zip(at, _read_grad(state[i], grads[i], xs[pick], saved, gout)):
                        gcols[inp] = gc if gcols[inp] is None else gcols[inp] + gc
            # the time-major products over the whole chunk, zero at the ended samples' columns
            gqt = _scatter(gqvk[_Q], batch, samples)
            gxc = wq.T @ gqt
            if gcols[_X] is not None:
                gxc += _scatter(gcols[_X], batch, samples)
            gwq += gqt @ xc.T
            gx[:, span] += gxc
            if self.conv:
                gxkv[:, span] += _scatter(gcols[_KV], batch, samples)
        # the batch summed in sample order
        snap_grads = [[gw[self.inv].sum(axis=0) for gw in gws] for gws in grads]
        for i in stacked:
            snap_grads[i] = [snap_grads[_STACK][0][self.rows[i]]]
        return tuple(gw for gws in snap_grads[:_STACK] for gw in gws) + (gwq, gx) + ((gxkv,) if self.conv else ())


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
