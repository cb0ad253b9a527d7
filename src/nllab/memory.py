"""Token-level associative-memory learning rules.

Every recurrence ships in two forms: a closed-form step (`rule_step`) and one
explicit gradient-descent step on the rule's internal objective, computed with
the tape (`gd_oracle_step`).  The two must agree to machine precision, which is
what the verification suite checks.

Objective conventions (scaled so closed form and autodiff gradient coincide):
    dot  L(M; k, v) = -<M(k), v>
    l2   L(M; k, v) = 0.5 * ||M(k) - v||^2
    oja  L(M; k, v) = -<M k, v> + 0.5 * ||M^T v||^2      (linear memories only)
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from . import tensor as T
from .tensor import Tape, Tensor


class UnsupportedCombination(ValueError):
    """Rule applied to a memory architecture it is not defined for."""


class RuleKind(str, Enum):
    HEBBIAN = "hebbian"
    DELTA = "delta"
    OJA = "oja"
    DGD = "dgd"


LINEAR = "linear"
MLP2 = "mlp2"


@dataclass(frozen=True)
class Memory:
    """A fast-weight associative memory: plain matrix or residual 2-layer MLP.

    Linear reads are M @ q.  Mlp2 reads are q + W1 @ silu(W2 @ q), which keeps
    the read dimension-preserving (d in, d out) with hidden width h.
    """

    kind: str
    weights: tuple[Tensor, ...]

    @staticmethod
    def linear(m) -> "Memory":
        m = m if isinstance(m, Tensor) else Tensor(m)
        if m.ndim != 2:
            raise T.ShapeError(f"linear memory needs a matrix, got shape {m.shape}")
        return Memory(LINEAR, (m,))

    @staticmethod
    def mlp2(w1, w2) -> "Memory":
        w1 = w1 if isinstance(w1, Tensor) else Tensor(w1)
        w2 = w2 if isinstance(w2, Tensor) else Tensor(w2)
        if w1.ndim != 2 or w2.ndim != 2 or w1.shape[1] != w2.shape[0] or w1.shape[0] != w2.shape[1]:
            raise T.ShapeError(f"mlp2 memory needs (d,h) and (h,d) weights, got {w1.shape} and {w2.shape}")
        return Memory(MLP2, (w1, w2))

    @property
    def matrix(self) -> Tensor:
        if self.kind != LINEAR:
            raise UnsupportedCombination("only linear memories expose a single matrix")
        return self.weights[0]


def read(memory: Memory, q: Tensor) -> Tensor:
    """Retrieve from memory: M@q for linear, residual MLP for mlp2."""
    qv = q.data
    if memory.kind == LINEAR:
        m = memory.matrix.data
        if m.shape[1] != qv.shape[0]:
            raise T.ShapeError(f"read: memory {m.shape} incompatible with query {qv.shape}")
        return Tensor(m @ qv)
    w1, w2 = memory.weights[0].data, memory.weights[1].data
    if w2.shape[1] != qv.shape[0]:
        raise T.ShapeError(f"read: memory {w2.shape} incompatible with query {qv.shape}")
    return Tensor(qv + w1 @ T._silu(w2 @ qv))


def read_node(weights, q, kind: str, widths=None):
    """Tape-graph version of `read`; weights are nodes, q is a node.

    Accepts a vector (one query) or a matrix of column queries.  Weights with a
    leading batch axis (B,p,n) read time-major batch columns with
    `tensor.bmatmul`, over the real columns `widths` names.
    """
    if weights[0].value.ndim == 3:
        def mm(w, x):
            return T.bmatmul(w, x, widths)
    else:
        mm = T.matmul
    if kind == LINEAR:
        return mm(weights[0], q)
    w1, w2 = weights
    return T.add(q, mm(w1, T.silu(mm(w2, q))))


def _check_gates(eta: float, alpha: float) -> None:
    if eta < 0:
        raise ValueError(f"learning rate must be >= 0, got {eta}")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"retention must lie in [0, 1], got {alpha}")


def rule_step(rule: RuleKind, memory: Memory, k: Tensor, v: Tensor, eta: float, alpha: float) -> Memory:
    """One closed-form memory update; the input memory is left untouched.

    Linear closed forms:
        hebbian  M' = a*M + e*v k^T
        delta    M' = a*M - e*(M k - v) k^T
        oja      M' = a*M + e*(v k^T - v v^T M)
        dgd      M' = M (a*I - e*k k^T) - e*(M k - v) k^T     (k normalized first)

    Mlp2 memories only support the weight-space variants of delta/dgd:
    each weight W <- a*W - e*dW where dW is the l2-objective gradient.
    """
    rule = RuleKind(rule)
    _check_gates(eta, alpha)
    kv, vv = k.data, v.data

    if memory.kind == MLP2:
        if rule in (RuleKind.HEBBIAN, RuleKind.OJA):
            raise UnsupportedCombination(f"{rule.value} rule is undefined for mlp2 memories")
        g1, g2 = mlp2_l2_gradients(memory, k, v)
        w1, w2 = memory.weights[0].data, memory.weights[1].data
        return Memory.mlp2(alpha * w1 - eta * g1.data, alpha * w2 - eta * g2.data)

    m = memory.matrix.data
    if m.shape[1] != kv.shape[0] or m.shape[0] != vv.shape[0]:
        raise T.ShapeError(f"rule_step: memory {m.shape} incompatible with key {kv.shape} / value {vv.shape}")

    if rule is RuleKind.HEBBIAN:
        out = alpha * m + eta * np.outer(vv, kv)
    elif rule is RuleKind.DELTA:
        out = alpha * m - eta * np.outer(m @ kv - vv, kv)
    elif rule is RuleKind.OJA:
        out = alpha * m + eta * (np.outer(vv, kv) - np.outer(vv, vv @ m))
    else:  # DGD: proximal-style retention factor, unit-norm keys assumed
        kn = kv / np.linalg.norm(kv)
        retain = alpha * np.eye(m.shape[1]) - eta * np.outer(kn, kn)
        out = m @ retain - eta * np.outer(m @ kn - vv, kn)
    return Memory.linear(out)


def dgd_proximal_step(memory: Memory, k: Tensor, v: Tensor, eta: float) -> Memory:
    """Exact minimizer of 0.5*||M k - v||^2 + (1/(2*eta))*||M - M0||^2.

    Requires a unit-norm key (normalized here); the rank-one structure of
    k k^T turns the matrix inverse into the closed form
        M' = M0 (I - e' k k^T) + e' v k^T,   e' = eta / (1 + eta).
    """
    if memory.kind != LINEAR:
        raise UnsupportedCombination("proximal closed form is defined for linear memories only")
    if eta <= 0:
        raise ValueError(f"proximal step size must be positive, got {eta}")
    m = memory.matrix.data
    kn = k.data / np.linalg.norm(k.data)
    e = eta / (1.0 + eta)
    out = m @ (np.eye(m.shape[1]) - e * np.outer(kn, kn)) + e * np.outer(v.data, kn)
    return Memory.linear(out)


def mlp2_l2_gradients(memory: Memory, k: Tensor, v: Tensor) -> tuple[Tensor, Tensor]:
    """Hand-derived gradients of 0.5*||read(k) - v||^2 for a residual 2-layer MLP.

    Verified against the tape in the test suite; written out so fast-weight
    recurrences can run without nesting a backward pass inside the forward.
    """
    w1, w2 = memory.weights[0].data, memory.weights[1].data
    kv, vv = k.data, v.data
    z = w2 @ kv
    h = T._silu(z)
    r = (kv + w1 @ h) - vv
    g1 = np.outer(r, h)
    g2 = np.outer((w1.T @ r) * T._silu_prime(z), kv)
    return Tensor(g1), Tensor(g2)


_OBJECTIVES = ("dot", "l2", "oja")


def _objective_node(objective: str, weights, kind: str, k_node, v_node):
    if objective == "dot":
        return T.dot_loss(read_node(weights, k_node, kind), v_node)
    if objective == "l2":
        diff = T.sub(read_node(weights, k_node, kind), v_node)
        return T.mul(0.5, T.dot(diff, diff))
    if objective == "oja":
        if kind != LINEAR:
            raise UnsupportedCombination("oja objective is defined for linear memories only")
        fit = T.dot_loss(T.matmul(weights[0], k_node), v_node)
        mtv = T.matmul(T.transpose(weights[0]), v_node)
        return T.add(fit, T.mul(0.5, T.dot(mtv, mtv)))
    raise ValueError(f"unknown objective {objective!r}; expected one of {_OBJECTIVES}")


def gd_oracle_step(objective: str, memory: Memory, k: Tensor, v: Tensor, eta: float, alpha: float) -> Memory:
    """M' = a*M - e*grad(L) with the gradient taken by the tape, never by hand."""
    _check_gates(eta, alpha)
    tape = Tape()
    if memory.kind == LINEAR:
        w = (tape.param("m", memory.matrix),)
    else:
        if objective == "oja":
            raise UnsupportedCombination("oja objective is defined for linear memories only")
        w = (tape.param("w1", memory.weights[0]), tape.param("w2", memory.weights[1]))
    loss = _objective_node(objective, w, memory.kind, tape.constant(k), tape.constant(v))
    grads = tape.backward(loss)
    if memory.kind == LINEAR:
        return Memory.linear(alpha * memory.matrix.data - eta * grads["m"].data)
    return Memory.mlp2(
        alpha * memory.weights[0].data - eta * grads["w1"].data,
        alpha * memory.weights[1].data - eta * grads["w2"].data,
    )


def softmax_read(
    keys: Sequence[Tensor],
    values: Sequence[Tensor],
    q: Tensor,
    window: int | None = None,
    temperature: float = 1.0,
) -> Tensor:
    """Kernel-weighted average of values, the non-parametric regression read.

    With a window it restricts attention to the most recent `window` pairs,
    matching a sliding-window variant.
    """
    if len(keys) != len(values) or len(keys) == 0:
        raise ValueError(f"softmax_read: need equal nonempty keys/values, got {len(keys)}/{len(values)}")
    if temperature <= 0:
        raise ValueError(f"softmax_read: temperature must be positive, got {temperature}")
    if window is not None:
        if window < 1 or window > len(keys):
            raise ValueError(f"softmax_read: window {window} out of range for {len(keys)} pairs")
        keys, values = keys[-window:], values[-window:]
    scores = np.array([k.data @ q.data for k in keys]) / temperature
    scores -= scores.max()
    w = np.exp(scores)
    w /= w.sum()
    out = np.zeros_like(values[0].data)
    for wi, vi in zip(w, values):
        out = out + wi * vi.data
    return Tensor(out)
