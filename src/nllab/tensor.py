"""A recording tape for reverse-mode differentiation of float64 arrays.

Design constraints: row-major storage, no broadcasting beyond scalar-array,
explicit ops only.  Values are plain float64 numpy arrays, the one value type
of the package; a Tape records one forward pass as nodes over them and
permits exactly one backward pass.  A central finite-difference oracle
(`finite_diff_grad`) is kept deliberately independent of the tape so it can
verify every primitive's backward rule.
"""

from __future__ import annotations

import functools
import math
import weakref
from typing import Callable, Sequence

import numpy as np

_DEFAULT_DTYPE = np.float64


class ShapeError(ValueError):
    """Operands with incompatible shapes."""


class NonFiniteError(FloatingPointError):
    """NaN or Inf in a value where it is made."""


class TapeError(RuntimeError):
    """Tape misuse: double backward, non-scalar loss, cross-tape operands."""


def _check_finite(arr: np.ndarray, what: str) -> None:
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite values in {what}")


class Node:
    """One recorded value in a tape's computation graph.

    `vjp` maps the value's gradient to one per parent (None for leaves).
    """

    __slots__ = ("tape", "idx", "value", "parents", "vjp", "op", "param_name")

    def __init__(self, tape, idx, value, parents, vjp, op, param_name=None):
        self.tape = tape
        self.idx = idx
        self.value = value
        self.parents = parents
        self.vjp = vjp
        self.op = op
        self.param_name = param_name

    @property
    def shape(self) -> tuple:
        return self.value.shape


class Tape:
    """Ordered record of primitive applications; one backward pass allowed.

    Nodes refer to their tape through a weak proxy, so a finished tape is
    freed by reference counting alone, without waiting for the cyclic garbage
    collector.  The caller keeps the tape alive while it records and runs
    backward: a node whose tape is gone raises ReferenceError when used.
    """

    def __init__(self):
        self._proxy = weakref.proxy(self)
        self.nodes: list[Node] = []
        self.params: dict[str, Node] = {}
        self._backward_done = False

    def _record(self, fn: Callable, parents: tuple, vjp: Callable, op: str, check: bool = True) -> Node:
        """Record one primitive.  Its value is `fn(*parent values)`, computed here
        once and finite-checked.  A `vjp` that needs the value reads it from the
        returned node or, with other intermediates, from a list that `fn` fills.
        Ops that only copy or move checked values pass `check=False`; an `fn`
        that checks its own intermediates raises NonFiniteError, which is
        reported here with the op and the node."""
        try:
            value = fn(*[p.value for p in parents])
        except NonFiniteError as exc:
            raise NonFiniteError(f"non-finite values in the output of {op} (node {len(self.nodes)}) {exc}") from None
        if not isinstance(value, np.ndarray):
            value = np.asarray(value, dtype=_DEFAULT_DTYPE)
        if check and not np.isfinite(value).all():
            raise NonFiniteError(f"non-finite values in the output of {op} (node {len(self.nodes)})")
        node = Node(self._proxy, len(self.nodes), value, parents, vjp, op)
        self.nodes.append(node)
        return node

    def _leaf(self, x, param_name=None) -> Node:
        # a C-order copy: BLAS-backed ops round strided operands differently
        value = np.array(x, dtype=_DEFAULT_DTYPE, order="C")
        _check_finite(value, "constant" if param_name is None else f"param {param_name!r}")
        op = "const" if param_name is None else "param"
        node = Node(self._proxy, len(self.nodes), value, (), None, op, param_name)
        self.nodes.append(node)
        return node

    def constant(self, x) -> Node:
        return self._leaf(x)

    def param(self, name: str, x) -> Node:
        if name in self.params:
            raise TapeError(f"parameter {name!r} registered twice on one tape")
        node = self.params[name] = self._leaf(x, name)
        return node

    def backward(self, loss: Node) -> dict[str, np.ndarray]:
        """Gradients of a scalar loss for every registered parameter, each a
        C-order float64 copy; a non-finite one raises NonFiniteError naming it."""
        if self._backward_done:
            raise TapeError("backward already run once on this tape")
        if loss.tape is not self._proxy:
            raise TapeError("loss node belongs to a different tape")
        if loss.value.shape != ():
            raise TapeError(f"backward requires a scalar loss, got shape {loss.value.shape}")
        self._backward_done = True

        grads: dict[int, np.ndarray] = {loss.idx: np.asarray(1.0, dtype=loss.value.dtype)}
        reached: dict[str, np.ndarray] = {}
        for node in reversed(self.nodes[: loss.idx + 1]):
            g = grads.pop(node.idx, None)
            if g is None:
                continue
            if node.param_name is not None:
                # every consumer of a leaf comes after it, so its gradient is complete here
                reached[node.param_name] = g = np.array(g, dtype=_DEFAULT_DTYPE, order="C")
                _check_finite(g, f"gradient of {node.param_name!r}")
                continue
            if node.vjp is None:
                continue
            for parent, pg in zip(node.parents, node.vjp(g)):
                if pg is None:
                    continue
                acc = grads.get(parent.idx)
                grads[parent.idx] = pg if acc is None else acc + pg

        return {
            name: reached[name] if name in reached else np.zeros_like(node.value)
            for name, node in self.params.items()
        }


def _lift(tape: Tape, x) -> Node:
    if isinstance(x, Node):
        if x.tape is not tape:
            raise TapeError("operands recorded on different tapes")
        return x
    return tape.constant(x)


def _tape_of(*args) -> Tape:
    for a in args:
        if isinstance(a, Node):
            return a.tape
    raise TapeError("at least one operand must be a tape node")


def _unary(x: Node, f: Callable, df: Callable, op: str) -> Node:
    v = x.value

    def vjp(g):
        return (g * df(v, out),)

    node = x.tape._record(f, (x,), vjp, op)
    out = node.value  # the VJP reads the recorded value
    return node


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    if shape == () and g.shape != ():
        return np.asarray(g.sum())
    return g


# ---------------------------------------------------------------------------
# arithmetic primitives


def _binary(a, b, fn: Callable, op: str) -> Node:
    """add, sub or mul of two same-shaped operands, or of a scalar and anything."""
    t = _tape_of(a, b)
    a, b = _lift(t, a), _lift(t, b)
    va, vb = a.value, b.value
    if va.shape != vb.shape and va.shape != () and vb.shape != ():
        raise ShapeError(f"{op}: shapes {va.shape} and {vb.shape} differ (only scalar-tensor mixing allowed)")

    def vjp(g):
        if op == "mul":
            return (_reduce_to(g * vb, va.shape), _reduce_to(g * va, vb.shape))
        return (_reduce_to(g, va.shape), _reduce_to(-g if op == "sub" else g, vb.shape))

    return t._record(fn, (a, b), vjp, op)


def add(a, b) -> Node:
    return _binary(a, b, np.add, "add")


def sub(a, b) -> Node:
    return _binary(a, b, np.subtract, "sub")


def mul(a, b) -> Node:
    """Elementwise product; either operand may be a scalar."""
    return _binary(a, b, np.multiply, "mul")


def matmul(a, b) -> Node:
    """Matrix product: (m,n)@(n,k) -> (m,k) or (m,n)@(n,) -> (m,); or, for a pair of
    (B,m,n) and (B,n,k) stacks, their B products as a (B,m,k) stack."""
    t = _tape_of(a, b)
    a, b = _lift(t, a), _lift(t, b)
    va, vb = a.value, b.value
    if va.ndim == 3:
        if vb.ndim != 3 or va.shape[0] != vb.shape[0]:
            raise ShapeError(f"matmul: need two stacks of one batch size, got {va.shape} @ {vb.shape}")
    elif va.ndim != 2 or vb.ndim not in (1, 2):
        raise ShapeError(f"matmul: need 2-d lhs and 1- or 2-d rhs, got {va.shape} @ {vb.shape}")
    if va.shape[-1] != vb.shape[-2 if vb.ndim > 1 else 0]:
        raise ShapeError(f"matmul: inner dims differ, {va.shape} @ {vb.shape}")

    if vb.ndim == 1:

        def vjp(g):
            return (np.outer(g, vb), va.T @ g)

    else:

        def vjp(g):
            return (g @ np.swapaxes(vb, -1, -2), np.swapaxes(va, -1, -2) @ g)

    return t._record(np.matmul, (a, b), vjp, "matmul")


def transpose(a: Node) -> Node:
    """Matrix transpose; a (B,p,n) stack transposes each of its B matrices."""
    if a.value.ndim not in (2, 3):
        raise ShapeError(f"transpose: need a matrix or a stack of matrices, got shape {a.value.shape}")

    def vjp(g):
        return (np.swapaxes(g, -1, -2),)

    return a.tape._record(lambda v: np.swapaxes(v, -1, -2).copy(), (a,), vjp, "transpose", check=False)


def mean_all(a: Node) -> Node:
    v = a.value

    def vjp(g):
        return (np.full_like(v, g / v.size),)

    return a.tape._record(np.ndarray.mean, (a,), vjp, "mean_all")


def mean_axis0(a: Node) -> Node:
    if a.value.ndim != 2:
        raise ShapeError(f"mean_axis0: need a matrix, got {a.value.shape}")
    n = a.value.shape[0]

    def vjp(g):
        return (np.tile(g / n, (n, 1)),)

    return a.tape._record(lambda v: v.mean(axis=0), (a,), vjp, "mean_axis0")


def sqrt(a: Node) -> Node:
    return _unary(a, np.sqrt, lambda v, o: 0.5 / o, "sqrt")


def reciprocal(a: Node) -> Node:
    return _unary(a, lambda v: 1.0 / v, lambda v, o: -o * o, "reciprocal")


# ---------------------------------------------------------------------------
# nonlinearities


def _sigmoid(v: np.ndarray) -> np.ndarray:
    # exp of a non-positive argument never overflows: 1/(1+e^-v) for v >= 0,
    # e^v/(1+e^v) otherwise; as e <= 1, the numerator max(e, v >= 0) is 1 where v >= 0, e elsewhere
    e = np.exp(-np.abs(v))
    return np.maximum(e, v >= 0) / (1.0 + e)


def sigmoid(a: Node) -> Node:
    return _unary(a, _sigmoid, lambda v, o: o * (1.0 - o), "sigmoid")


def _softplus(v: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, v)


def softplus(a: Node) -> Node:
    return _unary(a, _softplus, lambda v, o: _sigmoid(v), "softplus")


def _silu(v: np.ndarray) -> np.ndarray:
    return v * _sigmoid(v)


def _silu_prime(v: np.ndarray, s=None) -> np.ndarray:
    """silu'(v); `s`, when given, is _sigmoid(v)."""
    s = _sigmoid(v) if s is None else s
    return s * (1.0 + v * (1.0 - s))


def silu(a: Node) -> Node:
    return _unary(a, _silu, lambda v, o: _silu_prime(v), "silu")


def _silu_second(v: np.ndarray, s=None) -> np.ndarray:
    """silu''(v); `s`, when given, is _sigmoid(v)."""
    s = _sigmoid(v) if s is None else s
    return s * (1.0 - s) * (2.0 + v * (1.0 - 2.0 * s))


def silu_grad(a: Node) -> Node:
    """Derivative of silu as a first-class op (needed by hand-formed MLP update rules)."""
    return _unary(a, _silu_prime, lambda v, o: _silu_second(v), "silu_grad")


def _safe_row_norms(rows: np.ndarray) -> np.ndarray:
    # one dot product per row, the sum np.linalg.norm forms for a contiguous
    # vector, so each norm is np.linalg.norm(row) bit for bit; a zero row divides by 1
    rows = np.ascontiguousarray(rows)
    norms = np.sqrt((rows[..., None, :] @ rows[..., :, None])[..., 0, 0])
    return norms + (norms == 0.0)


def _unit_grad(out: np.ndarray, norms, g: np.ndarray) -> np.ndarray:
    """Gradient of (...,d,C) columns from that of `out`, the columns divided by `norms` (None: not divided)."""
    return g if norms is None else (g - out * (out * g).sum(axis=-2, keepdims=True)) / norms


def l2_normalize_columns(x: Node) -> Node:
    """Each column of a matrix scaled to unit norm, bit for bit `col / np.linalg.norm(col)`
    of the contiguous column; a zero column stays zero and passes its gradient through."""
    if x.value.ndim != 2:
        raise ShapeError(f"l2_normalize_columns: need a matrix, got {x.value.shape}")
    saved = []  # the value and the norms, left by `unit` for the VJP

    def unit(a):
        norms = _safe_row_norms(a.T)
        saved[:] = a / norms, norms
        return saved[0]

    def vjp(g):
        return (_unit_grad(*saved, g),)

    return x.tape._record(unit, (x,), vjp, "l2_normalize_columns")


def causal_softmax_columns(s: Node) -> Node:
    """Column-wise softmax of an (L,L) score matrix, or of each matrix of a
    (B,L,L) stack, with rows i > j masked out.

    Row index = key position, column index = query position; each query only
    sees keys at or before it.
    """
    v = s.value
    if v.ndim not in (2, 3) or v.shape[-1] != v.shape[-2]:
        raise ShapeError(f"causal_softmax_columns: need square matrices, got {v.shape}")
    mask = np.triu(np.ones(v.shape[-2:], dtype=bool))  # [i, j] valid iff i <= j

    def softmax(v):
        m = np.where(mask, v, -np.inf)
        m = m - m.max(axis=-2, keepdims=True)
        e = np.exp(m)
        return e / e.sum(axis=-2, keepdims=True)

    def vjp(g):
        return (out * (g - (out * g).sum(axis=-2, keepdims=True)),)

    node = s.tape._record(softmax, (s,), vjp, "causal_softmax_columns")
    out = node.value  # the VJP reads the recorded value
    return node


# ---------------------------------------------------------------------------
# structural ops


def _take(x: Node, index: tuple, op: str) -> Node:
    """x.value[index] as a new node; the VJP scatters the gradient back into zeros."""
    v = x.value

    def vjp(g):
        full = np.zeros_like(v)
        full[index] = g
        return (full,)

    return x.tape._record(lambda a: a[index].copy(), (x,), vjp, op, check=False)


def element(v: Node, i: int) -> Node:
    if v.value.ndim != 1:
        raise ShapeError(f"element: need a vector, got {v.value.shape}")
    return _take(v, (i,), "element")


def slice_columns(x: Node, start: int, stop: int, step: int = 1) -> Node:
    """Columns start, start+step, ... before stop; a step of B picks one sample of a time-major batch."""
    if x.value.ndim != 2:
        raise ShapeError(f"slice_columns: need a matrix, got {x.value.shape}")
    return _take(x, (slice(None), slice(start, stop, step)), "slice_columns")


def concat_columns(blocks: Sequence[Node]) -> Node:
    if not blocks:
        raise ShapeError("concat_columns: empty block list")
    t = blocks[0].tape
    blocks = tuple(_lift(t, b) for b in blocks)
    cuts = np.cumsum([b.value.shape[1] for b in blocks])[:-1]

    def vjp(g):
        return tuple(part.copy() for part in np.split(g, cuts, axis=1))

    return t._record(lambda *vals: np.concatenate(vals, axis=1), blocks, vjp, "concat_columns", check=False)


def unpack(packed: Node, offset: int, shape: tuple) -> Node:
    """The block of a flat vector that starts at `offset`, as an array of `shape`:
    one output of an op that packs several into one value."""
    v = packed.value
    size = math.prod(shape)
    if v.ndim != 1 or not 0 <= offset <= v.size - size:
        raise ShapeError(f"unpack: {shape} at offset {offset} of shape {v.shape}")
    block = slice(offset, offset + size)

    def vjp(g):
        full = np.zeros(v.size)
        full[block] = g.reshape(-1)
        return (full,)

    return packed.tape._record(lambda a: a[block].reshape(shape), (packed,), vjp, "unpack", check=False)


def scale_columns(x: Node, s) -> Node:
    """x[:, j] * s[j] for a (d,L) matrix and an (L,) vector."""
    t = _tape_of(x, s)
    x, s = _lift(t, x), _lift(t, s)
    vx, vs = x.value, s.value
    if vx.ndim != 2 or vs.ndim != 1 or vx.shape[1] != vs.shape[0]:
        raise ShapeError(f"scale_columns: got {vx.shape} and {vs.shape}")

    def vjp(g):
        return (g * vs, (g * vx).sum(axis=0))

    return t._record(np.multiply, (x, s), vjp, "scale_columns")


def scale_rows(x: Node, s) -> Node:
    """x[i, :] * s[i] for a (d,L) matrix and a (d,) vector."""
    t = _tape_of(x, s)
    x, s = _lift(t, x), _lift(t, s)
    vx, vs = x.value, s.value
    if vx.ndim != 2 or vs.ndim != 1 or vx.shape[0] != vs.shape[0]:
        raise ShapeError(f"scale_rows: got {vx.shape} and {vs.shape}")

    def vjp(g):
        return (g * vs[:, None], (g * vx).sum(axis=1))

    return t._record(lambda a, b: a * b[:, None], (x, s), vjp, "scale_rows")


# ---------------------------------------------------------------------------
# batches
#
# A batch of B sequences is one time-major (d, L*B) matrix: column t*B + b
# holds token t of sample b, so a chunk of C tokens is one contiguous (d, C*B)
# slice and B = 1 is a plain sequence.  Samples shorter than L are padded at
# their end.  Fast weights carry a leading batch axis, (B,p,n).  Within a
# chunk, `widths[b]` counts the leading columns of sample b that are real
# tokens; None means all of them.


def _batch_major(x: np.ndarray, batch: int) -> np.ndarray:
    """(n, C*B) time-major columns as a contiguous (B, n, C) stack, sample by sample."""
    if batch == 1:
        return np.ascontiguousarray(x)[None]
    n, width = x.shape
    return np.ascontiguousarray(x.reshape(n, width // batch, batch).transpose(2, 0, 1))


def _time_major(y: np.ndarray) -> np.ndarray:
    """Inverse of `_batch_major`: a (B, p, C) stack as (p, C*B) time-major columns."""
    b, p, c = y.shape
    return y[0] if b == 1 else y.transpose(1, 2, 0).reshape(p, c * b)


def sample_stack(x: Node, batch: int) -> Node:
    """Time-major (d, L*B) columns as a (B, d, L) stack: one matrix per sample."""
    v = x.value
    if v.ndim != 2 or v.shape[1] % batch:
        raise ShapeError(f"sample_stack: {v.shape} is not a time-major batch of {batch}")

    def vjp(g):
        return (_time_major(g),)

    return x.tape._record(lambda a: _batch_major(a, batch), (x,), vjp, "sample_stack", check=False)


def time_major(x: Node) -> Node:
    """Inverse of `sample_stack`: a (B, d, L) stack as time-major (d, L*B) columns."""
    v = x.value
    if v.ndim != 3:
        raise ShapeError(f"time_major: need a (B, d, L) stack, got {v.shape}")
    batch = v.shape[0]

    def vjp(g):
        return (_batch_major(g, batch),)

    return x.tape._record(_time_major, (x,), vjp, "time_major", check=False)


def _live_columns(widths, batch: int, cols: int):
    """(B, C) mask of the real columns; None when every column is real."""
    if widths is None or min(widths) >= cols:
        return None
    if len(widths) != batch:
        raise ShapeError(f"{len(widths)} widths for a batch of {batch}")
    return np.arange(cols)[None, :] < np.asarray(widths)[:, None]


def _partial(widths, cols: int) -> tuple:
    """(sample, width) for the samples whose real columns end inside a chunk of `cols`."""
    return () if widths is None else tuple((b, n) for b, n in enumerate(widths) if 0 < n < cols)


def _pinned(eta: np.ndarray, alpha: np.ndarray, live) -> tuple:
    """The gates with eta = 0 and alpha = 1 at the columns `live` marks as padding."""
    if live is None:
        return eta, alpha
    return np.where(live, eta, 0.0), np.where(live, alpha, 1.0)


def broadcast_batch(w: Node, batch: int) -> Node:
    """A (p,n) weight repeated along a leading batch axis as (B,p,n); the VJP sums over B."""

    def vjp(g):
        return (g.sum(axis=0),)

    return w.tape._record(lambda a: np.broadcast_to(a, (batch,) + a.shape).copy(), (w,), vjp, "broadcast_batch", check=False)


def _bmm(vw: np.ndarray, xb: np.ndarray, partial) -> np.ndarray:
    """(B,p,C) products of (B,p,n) weights with (B,n,C) columns (or (m,B,p,C) with m column
    sets), sample by sample; `partial` lists (sample, width) for the samples whose real
    columns end inside the chunk, which get those columns from a product of that width."""
    out = vw @ xb
    for b, n in partial:
        out[..., b, :, :n] = vw[b] @ xb[..., b, :, :n]
    return out


def _bmm_dw(g: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Gradient of `_bmm`'s weights from its (B,p,C) (or (m,B,p,C)) output gradient g."""
    return g @ xb.swapaxes(-1, -2)


def _bmm_dx(vw: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient of `_bmm`'s columns from its (B,p,C) output gradient g."""
    return vw.transpose(0, 2, 1) @ g


def bmatmul(w, x, widths=None) -> Node:
    """Per-sample product of (B,p,n) weights with time-major (n, C*B) columns -> (p, C*B).

    Column t*B + b is w[b] @ x[:, t*B + b].  With `widths`, a sample whose real
    columns end inside the chunk gets them from one more product of exactly
    that width, the one the sample alone would form (BLAS rounding depends on
    the width); its padded columns hold finite values that no real column
    reads, and they must receive a zero gradient.  The per-slot SRT graph
    (`verify._srt_forward_oracle`) reads every sample of every chunk this way;
    the fused core (`srt._Core`) forms the same products for the samples with
    a real column in the chunk only.
    """
    t = _tape_of(w, x)
    w, x = _lift(t, w), _lift(t, x)
    vw, vx = w.value, x.value
    if vw.ndim != 3 or vx.ndim != 2 or vx.shape[0] != vw.shape[2] or vx.shape[1] % vw.shape[0]:
        raise ShapeError(f"bmatmul: need (B,p,n) weights and (n, C*B) columns, got {vw.shape} @ {vx.shape}")
    partial = _partial(widths, vx.shape[1] // vw.shape[0])

    # the closures capture little: every object they keep alive is one more
    # object per tape node for the cyclic garbage collector to scan
    def vjp(g):
        batch = vw.shape[0]
        gb = _batch_major(g, batch)
        return (_bmm_dw(gb, _batch_major(vx, batch)), _time_major(_bmm_dx(vw, gb)))

    def product(vw, vx):
        return _time_major(_bmm(vw, _batch_major(vx, vw.shape[0]), partial))

    return t._record(product, (w, x), vjp, "bmatmul")


def _step(m, kb, ub, eb, ab, retention):
    """One column: M_1 = alpha M_0 - eta w k^T, for (B,n,1) keys, (B,p,1)
    residuals and (B,1) gates.  Keys are used as (B,1,n) rows `kr` or (B,n,1)
    columns `kc`."""
    batch, p, n = m.shape
    # views of the keys as a time-major (n, B) matrix holds them, the layout
    # `m @ kc` has always seen: BLAS rounds by operand layout
    kr = np.ascontiguousarray(kb[:, :, 0].T).T.reshape(batch, 1, n)
    kc = kr.reshape(batch, n, 1)
    e, a = eb.reshape(batch, 1, 1), ab.reshape(batch, 1, 1)
    w = ub
    if retention:
        w = m @ kc + w
    return a * m - e * (w * kr), [w, kr, kc, e, a]


def _step_vjp(g, m, saved, retention):
    w, kr, kc, e, a = saved
    batch, wt = len(m), w.transpose(0, 2, 1)
    gmk = g @ kc
    gw = -e * gmk
    ga = g.reshape(batch, 1, -1) @ m.reshape(batch, -1, 1)
    ge = -(wt @ gmk)
    gk = -e * (wt @ g)
    g = a * g
    if retention:
        gk += gw.transpose(0, 2, 1) @ m
        g = g + gw * kr
    return g, gk.reshape(batch, -1, 1), gw, ge.reshape(batch, 1), ga.reshape(batch, 1)


@functools.lru_cache(maxsize=64)
def _masks(cols: int) -> tuple:
    """Constants of the closed form for C columns: `starts` (C+1,C), [s,m] = m >= s,
    selects the gates of the segments starting at s; `upper` (C,C+1), [m,t] = t > m;
    `lower` (C,C+1), [m,s] = s <= m; `strict` (C,C), [l,j] = l < j; and I."""
    lower = np.tri(cols, cols + 1, dtype=bool)
    upper = (~lower).astype(_DEFAULT_DTYPE)
    masks = (np.ascontiguousarray(lower.T), upper, lower.astype(_DEFAULT_DTYPE), upper[:, :cols].copy(), np.eye(cols))
    for mask in masks:  # shared by every caller
        mask.setflags(write=False)
    return masks


def _segments(ab: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """E[b,s,t] = prod_{s<=m<t} ab[b,m] for 0 <= s <= t <= C, by one cumprod; 1 where t <= s."""
    batch, cols = ab.shape
    seg = np.empty((batch, cols + 1, cols + 1))
    seg[:, :, 0] = 1.0
    np.cumprod(np.where(starts, ab[:, None, :], 1.0), axis=2, out=seg[:, :, 1:])
    return seg


def _unit_upper_inverse(t: np.ndarray, eye: np.ndarray) -> np.ndarray:
    """(I + T)^-1 for strictly upper triangular (B,C,C) T: (I - T)(I + T^2)(I + T^4)..., as T^C = 0."""
    nil = -t
    inv, span = eye + nil, 2
    while span < len(eye):
        nil = nil @ nil
        inv = inv @ (eye + nil)
        span *= 2
    return inv


def _closed(m, kb, w, eb, ab, retention):
    """C > 1 columns in closed form.  Per sample, with A = prod alpha,
    c_j = eta_j prod_{i>j} alpha_i and p_j = prod_{i<j} alpha_i:

        M_C = A M_0 - W diag(c) K^T,   W = U                                (no retention)
                                       W (I + T) = (M_0 K) diag(p) + U     (retention)

    with T[l,j] = eta_l prod_{l<m<j} alpha_m k_l^T k_j for l < j (the UT/WY
    form of the gated delta rule).  Every gate product is a segment product.
    """
    cols = kb.shape[2]
    starts, _, _, strict, eye = _masks(cols)
    seg = _segments(ab, starts)
    c = eb * seg[:, 1:, cols]
    kt = kb.transpose(0, 2, 1)
    q = None
    if retention:
        q = _unit_upper_inverse(eb[:, :, None] * seg[:, 1:, :cols] * strict * (kt @ kb), eye)
        w = ((m @ kb) * seg[:, :1, :cols] + w) @ q
    return seg[:, :1, cols, None] * m - (w * c[:, None, :]) @ kt, [kb, w, q, seg, eb, c]


def _closed_vjp(g, m, saved, retention):
    kb, w, q, seg, eb, c = saved
    batch, _, cols = kb.shape
    _, upper, lower, strict, _ = _masks(cols)
    kt = kb.transpose(0, 2, 1)
    gk = g @ kb
    du = gk * -c[:, None, :]  # dW
    dc = -(w * gk).sum(axis=1)
    dk = (g.transpose(0, 2, 1) @ w) * -c[:, None, :]
    dm = seg[:, :1, cols, None] * g
    dseg = np.zeros_like(seg)
    dseg[:, 0, cols] = (g.reshape(batch, 1, -1) @ m.reshape(batch, -1, 1)).reshape(batch)
    dseg[:, 1:, cols] = dc * eb
    de = dc * seg[:, 1:, cols]
    if retention:
        du = du @ q.transpose(0, 2, 1)  # dR, from dR (I + T)^T = dW
        dt = (w.transpose(0, 2, 1) @ du) * -strict
        dtg = dt * (kt @ kb)
        dseg[:, 1:, :cols] = dtg * eb[:, :, None]
        de += (dtg * seg[:, 1:, :cols]).sum(axis=2)
        dg = dt * eb[:, :, None] * seg[:, 1:, :cols]
        dk += kb @ (dg + dg.transpose(0, 2, 1))
        x = m.transpose(0, 2, 1) @ du
        dseg[:, 0, :cols] = (kb * x).sum(axis=1)
        p = seg[:, :1, :cols]
        dk += x * p
        dm += (du * p) @ kt
    # d prod_{s<=i<t} alpha_i / d alpha_m = E[s,m] E[m+1,t]: no division by alpha
    da = ((seg.transpose(0, 2, 1)[:, :cols] * lower) @ dseg * seg[:, 1:] * upper).sum(axis=2)
    return dm, dk, du, de, da


def _scan(m, kb, ub, eb, ab, retention, partial=()):
    """Final (B,p,n) state and the arrays the VJP reads, for (B,n,C) keys,
    (B,p,C) residuals and (B,C) gates; `partial` lists (sample, width) for the
    samples recomputed alone at their own width."""
    out, saved = (_step if kb.shape[2] == 1 else _closed)(m, kb, ub, eb, ab, retention)
    for b, n in partial:
        own = [np.ascontiguousarray(x[b : b + 1, ..., :n]) for x in (kb, ub, eb, ab)]
        out[b] = _scan(m[b : b + 1], *own, retention)[0][0]
    return out, saved


def _scan_value(m, kb, ub, eb, ab, retention, partial):
    """`decay_scan`'s value for a (B,p,n) state and batch-major operands whose
    gates are pinned at padded columns (see `_pinned`, `_scan`): the final
    state, and what `_scan_grad` reads."""
    m = np.ascontiguousarray(m)  # samples recomputed alone see the same layout
    out, arrays = _scan(m, kb, ub, eb, ab, retention, partial)
    return out, (m, arrays, _step_vjp if kb.shape[2] == 1 else _closed_vjp)


def _scan_grad(g, saved, retention, live):
    """Gradients of the state, keys, residuals and gates of `_scan_value`,
    batch-major; pinned gates take none."""
    m, arrays, scan_vjp = saved
    g, gk, gu, ge, ga = scan_vjp(g, m, arrays, retention)
    if live is not None:
        ge, ga = np.where(live, ge, 0.0), np.where(live, ga, 0.0)
    return g, gk, gu, ge, ga


def decay_scan(m0, keys, u, eta, alpha, retention: bool, widths=None) -> Node:
    """Final state of a decaying rank-one recurrence over the columns of a chunk.

        M_j = alpha_j M_{j-1} - eta_j w_j k_j^T,  w_j = u_j + M_{j-1} k_j  (retention)
                                                   w_j = u_j                (otherwise)

    for a (p,n) start state M_0, (n,C) keys, (p,C) residuals u and (C,) gates;
    or for B states (B,p,n) over a time-major batch chunk of C*B columns, each
    state scanning its own sample's columns.  One column takes the step above;
    more take its closed form (see `_closed`), forward and VJP, with no loop
    over the columns.  At padded columns (see `widths`) the gates are pinned to
    eta = 0, alpha = 1, so a fully padded sample keeps M_0 up to the sign of a
    zero entry (1*(-0.0) - 0*(w k) is +0.0 where w k < 0, which np.array_equal
    does not see), and a sample whose real columns end inside the chunk is
    recomputed at its own width, bit-identical to its own scan.  The pinning
    serves the per-slot SRT graph and the fused core's partly padded samples;
    the fused core leaves a sample's fully padded chunks out.  Only M_C is
    recorded.
    """
    t = _tape_of(m0, keys, u, eta, alpha)
    m0, keys, u, eta, alpha = (_lift(t, a) for a in (m0, keys, u, eta, alpha))
    vm, vk, vu, ve, va = m0.value, keys.value, u.value, eta.value, alpha.value
    stacked = vm.ndim == 3
    batch = vm.shape[0] if stacked else 1
    shapes = (vm.shape, vk.shape, vu.shape, ve.shape, va.shape)
    n_cols = vk.shape[1] if vk.ndim == 2 else -1
    if vm.ndim not in (2, 3) or n_cols % batch or shapes[1:] != (
        (vm.shape[-1], n_cols), (vm.shape[-2], n_cols), (n_cols,), (n_cols,)
    ):
        raise ShapeError(f"decay_scan: need (p,n) or (B,p,n), (n,C*B), (p,C*B), (C*B,), (C*B,) operands, got {shapes}")
    cols = n_cols // batch
    live = _live_columns(widths, batch, cols)
    partial = _partial(widths, cols)
    saved = []  # what `_scan_grad` reads, left by `scan`

    def scan(vm, vk, vu, ve, va):
        kb, ub = _batch_major(vk, batch), _batch_major(vu, batch)
        eb, ab = _pinned(ve.reshape(cols, batch).T, va.reshape(cols, batch).T, live)
        out, saved[:] = _scan_value(vm if stacked else vm[None], kb, ub, eb, ab, retention, partial)
        return out if stacked else out[0]

    # the closures capture little: every object they keep alive is one more
    # object per tape node for the cyclic garbage collector to scan
    def vjp(g):
        arrays = tuple(saved)
        # a tape runs one backward pass: free the saved arrays now rather than
        # when the caller drops the tape
        saved.clear()
        g, gk, gu, ge, ga = _scan_grad(g if stacked else g[None], arrays, retention, live)
        return (g if stacked else g[0], _time_major(gk), _time_major(gu), ge.T.reshape(-1), ga.T.reshape(-1))

    return t._record(scan, (m0, keys, u, eta, alpha), vjp, "decay_scan")


def _int_ids(values, what: str) -> np.ndarray:
    """Integer ids or class labels as an int64 array; one with a fractional part is an error, not truncated."""
    raw = np.asarray(values)
    ids = raw.astype(np.int64)
    bad = raw[ids != raw]
    if bad.size:
        raise ValueError(f"{what} {bad.item(0)!r} is not an integer")
    return ids


def embedding(table: Node, ids: Sequence[int]) -> Node:
    """Rows of a (vocab,d) table gathered for a token id sequence, as (d,L) columns."""
    ids = _int_ids(ids, "embedding: token id")
    v = table.value
    if v.ndim != 2:
        raise ShapeError(f"embedding: need a (vocab,d) table, got {v.shape}")
    if ids.ndim != 1 or np.any(ids < 0) or np.any(ids >= v.shape[0]):
        raise ValueError(f"embedding: ids out of range for vocab {v.shape[0]}")

    def vjp(g):
        full = np.zeros_like(v)
        np.add.at(full, ids, g.T)
        return (full,)

    return table.tape._record(lambda a: a[ids].T.copy(), (table,), vjp, "embedding")


def causal_depthwise_conv(x: Node, kernel, batch: int = 1) -> Node:
    """Per-channel causal convolution of a (d,L) sequence, or a time-major (d, L*B)
    batch, with a (d,w) kernel."""
    t = _tape_of(x, kernel)
    x, kernel = _lift(t, x), _lift(t, kernel)
    v, k = x.value, kernel.value
    if v.ndim != 2 or k.ndim != 2 or v.shape[0] != k.shape[0] or v.shape[1] % batch:
        raise ShapeError(f"causal_depthwise_conv: got {v.shape} and kernel {k.shape} for batch {batch}")
    w = k.shape[1]
    lag = (w - 1) * batch  # one token back is one batch of columns back

    def conv(vv, kk):
        padded = np.concatenate([np.zeros((vv.shape[0], lag), dtype=vv.dtype), vv], axis=1)
        o = np.zeros_like(vv)
        for i in range(w):
            o += kk[:, i : i + 1] * padded[:, i * batch : i * batch + vv.shape[1]]
        return o

    def vjp(g):
        gk = np.zeros_like(k)
        padded = np.concatenate([np.zeros((v.shape[0], lag), dtype=v.dtype), v], axis=1)
        gpad = np.zeros_like(padded)
        for i in range(w):
            cols = slice(i * batch, i * batch + v.shape[1])
            gk[:, i] = (g * padded[:, cols]).sum(axis=1)
            gpad[:, cols] += k[:, i : i + 1] * g
        return (gpad[:, lag:], gk)

    return t._record(conv, (x, kernel), vjp, "causal_depthwise_conv")


# ---------------------------------------------------------------------------
# losses


def dot(a, b) -> Node:
    """Full contraction <a, b> over identically shaped operands."""
    t = _tape_of(a, b)
    a, b = _lift(t, a), _lift(t, b)
    va, vb = a.value, b.value
    if va.shape != vb.shape:
        raise ShapeError(f"dot: shapes {va.shape} and {vb.shape} differ")

    def vjp(g):
        return (g * vb, g * va)

    return t._record(lambda x, y: (x * y).sum(), (a, b), vjp, "dot")


def _log_softmax(v: np.ndarray) -> np.ndarray:
    z = v - v.max(axis=0)
    return z - np.log(np.exp(z).sum(axis=0))


def cross_entropy_columns(logits: Node, targets: Sequence[int]) -> Node:
    """Mean cross-entropy of a (vocab,L) logit matrix against L integer targets."""
    v = logits.value
    targets = _int_ids(targets, "cross_entropy_columns: target")
    if v.ndim != 2:
        raise ShapeError(f"cross_entropy_columns: need a logit matrix, got {v.shape}")
    if targets.ndim != 1 or targets.shape[0] != v.shape[1]:
        raise ShapeError(f"cross_entropy_columns: {targets.shape[0]} targets for {v.shape[1]} columns")
    if np.any(targets < 0) or np.any(targets >= v.shape[0]):
        raise ValueError("cross_entropy_columns: target id out of range")
    picked, n = (targets, np.arange(v.shape[1])), v.shape[1]
    saved = []  # the log-softmax, left by `value` for the VJP

    def value(a):
        saved[:] = [_log_softmax(a)]
        return -saved[0][picked].mean()

    def vjp(g):
        grad = np.exp(saved[0])
        grad[picked] -= 1.0
        return (g * grad / n,)

    return logits.tape._record(value, (logits,), vjp, "cross_entropy_columns")


# ---------------------------------------------------------------------------
# finite-difference oracle


def finite_diff_grad(f: Callable[[np.ndarray], float], x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function; independent of the tape."""
    if h <= 0:
        raise ValueError(f"finite_diff_grad: step must be positive, got {h}")
    base = np.array(x, dtype=np.float64)
    flat = base.reshape(-1)
    grad = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f(base.copy()))
        flat[i] = orig - h
        fm = float(f(base.copy()))
        flat[i] = orig
        if not (math.isfinite(fp) and math.isfinite(fm)):
            raise NonFiniteError("finite_diff_grad: non-finite function value")
        grad[i] = (fp - fm) / (2.0 * h)
    return grad.reshape(base.shape)
