"""Optimizer variants as pluggable per-parameter step rules.

Each kind is a pure function of (state, param, grad), all float64 arrays: the
inputs are never written, so trajectories can be replayed and compared, and a
step whose new parameter is not finite raises NonFiniteError.  Several kinds
exist in two routes on purpose - e.g. `adam` (direct recurrence) vs `adam_am`
(closed-form optimal readout of the same accumulators) - and the verification
suite holds the routes to each other.

Kind registry (`KINDS`), every kind stepped as `step(kind, state, param, grad)`:
    sgd, momentum, adam, adam_am, adagrad_m, muon, delta_momentum, dmgd, m3
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .memory import Memory, mlp2_l2_gradients


class UnsupportedShape(ValueError):
    """Parameter shape the optimizer kind cannot handle."""


KINDS = (
    "sgd",
    "momentum",
    "adam",
    "adam_am",
    "adagrad_m",
    "muon",
    "delta_momentum",
    "dmgd",
    "m3",
)

# the kinds whose step reads and writes each coordinate alone: one step over the
# concatenation of several parameters is each parameter's own step, bit for bit
ELEMENTWISE = ("sgd", "momentum", "adam", "adam_am")

_DEFAULTS = {
    "sgd": dict(eta=0.1),
    "momentum": dict(eta=0.1, beta=0.9, feature_map="identity"),
    "adam": dict(eta=0.01, beta1=0.9, beta2=0.999, eps=0.0, ema=False, bias_correction=False, weight_decay=0.0),
    "adam_am": dict(eta=0.01, beta1=0.9, beta2=0.999, lam=0.0),
    "adagrad_m": dict(eta=0.1, beta1=1.0, beta2=1.0, lam=1e-8),
    "muon": dict(eta=0.02, beta=0.95, ns_iters=5),
    "delta_momentum": dict(eta=0.1, beta=0.9, eta_inner=0.5),
    "dmgd": dict(eta=0.1, beta=0.9, eta_inner=0.1, proj_dim=32, hidden=32, seed=0),
    "m3": dict(eta=0.02, beta1=0.9, beta2=0.999, beta3=0.9, alpha=0.5, eps=1e-8, ns_iters=5, slow_freq=4, ema=False),
}


@dataclass(frozen=True)
class OptimizerState:
    """Per-parameter slots plus hyperparameters; treated as an immutable value."""

    kind: str
    t: int
    hp: dict
    slots: dict

    def with_slots(self, **updates) -> "OptimizerState":
        new = dict(self.slots)
        new.update(updates)
        return OptimizerState(self.kind, self.t + 1, self.hp, new)


def init_state(kind: str, param_shape: tuple, **hp) -> OptimizerState:
    if kind not in KINDS:
        raise ValueError(f"unknown optimizer kind {kind!r}; expected one of {KINDS}")
    merged = dict(_DEFAULTS[kind])
    unknown = set(hp) - set(merged)
    if unknown:
        raise ValueError(f"unknown hyperparameters for {kind!r}: {sorted(unknown)}")
    merged.update(hp)
    shape = tuple(param_shape)
    n = int(np.prod(shape)) if shape else 1

    slots: dict = {}
    if kind == "momentum":
        slots["m"] = np.zeros(shape)
    elif kind in ("adam", "adam_am"):
        slots["m"] = np.zeros(shape)
        slots["h"] = np.zeros(shape)
    elif kind == "adagrad_m":
        if n > 64:
            raise UnsupportedShape(f"adagrad_m keeps a full {n}x{n} preconditioner; dimension {n} > 64")
        if merged["lam"] <= 0:
            raise ValueError(f"adagrad_m needs a positive ridge to keep H + lam*I invertible, got {merged['lam']}")
        slots["m"] = np.zeros(n)
        slots["h"] = np.zeros((n, n))
    elif kind == "muon":
        if len(shape) != 2:
            raise UnsupportedShape(f"muon needs a matrix-shaped parameter, got {shape}")
        slots["m"] = np.zeros(shape)
    elif kind == "delta_momentum":
        slots["m"] = np.zeros(n)
    elif kind == "dmgd":
        p = int(merged["proj_dim"])
        h = int(merged["hidden"])
        rng = np.random.default_rng(int(merged["seed"]))
        slots["proj"] = rng.normal(size=(p, n)) / np.sqrt(p)
        slots["w1"] = np.zeros((p, h))
        slots["w2"] = rng.normal(size=(h, p)) / np.sqrt(p)
    elif kind == "m3":
        if len(shape) != 2:
            raise UnsupportedShape(f"m3 needs a matrix-shaped parameter, got {shape}")
        slots["m1"] = np.zeros(shape)
        slots["m2"] = np.zeros(shape)
        slots["v"] = np.zeros(shape)
        slots["window"] = np.zeros(shape)
        slots["o2"] = np.zeros(shape)
    return OptimizerState(kind, 0, merged, slots)


def newton_schulz(g: np.ndarray, iters: int) -> np.ndarray:
    """Approximate orthogonal (polar) factor via a cubic matrix iteration.

    Frobenius-normalizes the input, then iterates O <- 1.5*O - 0.5*O O^T O.
    """
    if iters < 1:
        raise ValueError(f"newton_schulz needs at least 1 iteration, got {iters}")
    if g.ndim != 2:
        raise UnsupportedShape(f"newton_schulz needs a matrix, got shape {g.shape}")
    norm = np.linalg.norm(g)
    if norm == 0.0 and np.any(g):
        # the squares of a tiny nonzero matrix underflow; the polar factor does not depend on scale
        g = g / np.abs(g).max()
        norm = np.linalg.norm(g)
    if norm == 0.0:
        raise ValueError("newton_schulz is undefined for the zero matrix")
    x = g / norm
    for _ in range(iters):
        x = 1.5 * x - 0.5 * (x @ x.T @ x)
    return x


def _ns_or_zero(m: np.ndarray, iters: int) -> np.ndarray:
    """Zero momentum maps to a zero update; the iteration itself rejects zeros."""
    if iters == 0 or not np.any(m):
        return m.copy()
    return newton_schulz(m, iters)


def contribution_curve(beta: float, n: int) -> list[float]:
    """Cumulative share of the last j gradients in an exponential average: 1 - beta**j."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"decay must lie strictly inside (0, 1), got {beta}")
    if n < 1:
        raise ValueError(f"need at least one term, got {n}")
    return [1.0 - beta**j for j in range(1, n + 1)]


def step(kind: str, state: OptimizerState, param: np.ndarray, grad: np.ndarray):
    """One optimizer step: returns (new param, new state) without touching inputs.
    A non-finite new param raises NonFiniteError."""
    if kind != state.kind:
        raise ValueError(f"state built for kind {state.kind!r}, stepped as {kind!r}")
    if param.shape != grad.shape:
        raise T.ShapeError(f"grad shape {grad.shape} does not match param shape {param.shape}")
    new, state = _update(kind, state, param, grad)
    T._check_finite(new, f"the {kind} step")
    return new, state


def _update(kind: str, state: OptimizerState, p: np.ndarray, g: np.ndarray):
    hp = state.hp

    if kind == "sgd":
        return p - hp["eta"] * g, state.with_slots()

    if kind == "momentum":
        # optional higher-order feature map on the memory input, off by default
        if hp["feature_map"] == "square":
            g = g * g
        elif hp["feature_map"] != "identity":
            raise ValueError(f"unknown feature map {hp['feature_map']!r}")
        m = hp["beta"] * state.slots["m"] - hp["eta"] * g
        return p + m, state.with_slots(m=m)

    if kind == "adam":
        if hp["ema"]:
            m = hp["beta1"] * state.slots["m"] + (1.0 - hp["beta1"]) * g
            h = hp["beta2"] * state.slots["h"] + (1.0 - hp["beta2"]) * g * g
            t = state.t + 1
            if hp["bias_correction"]:
                mhat = m / (1.0 - hp["beta1"] ** t)
                hhat = h / (1.0 - hp["beta2"] ** t)
            else:
                mhat, hhat = m, h
        else:
            m = state.slots["m"] + hp["beta1"] * g
            h = state.slots["h"] + hp["beta2"] * g * g
            mhat, hhat = m, h
        denom = np.sqrt(hhat) + hp["eps"]
        update = np.divide(mhat, denom, out=np.zeros_like(mhat), where=denom != 0.0)
        new_p = p - hp["eta"] * hp["weight_decay"] * p - hp["eta"] * update
        return new_p, state.with_slots(m=m, h=h)

    if kind == "adam_am":
        # closed-form optimal readout of the gradient-to-variance memory:
        # accumulators M~ and H as in `adam`, readout m* = M~ * P / (H + lam)
        # with P = sqrt(H), the running variance target.
        m = state.slots["m"] + hp["beta1"] * g
        h = state.slots["h"] + hp["beta2"] * g * g
        target = np.sqrt(h)
        denom = h + hp["lam"]
        readout = np.divide(m * target, denom, out=np.zeros_like(m), where=denom != 0.0)
        return p - hp["eta"] * readout, state.with_slots(m=m, h=h)

    if kind == "adagrad_m":
        flat = g.reshape(-1)
        m = state.slots["m"] + hp["beta1"] * flat
        h = state.slots["h"] + hp["beta2"] * np.outer(flat, flat)
        vals, vecs = np.linalg.eigh(h + hp["lam"] * np.eye(h.shape[0]))
        inv_sqrt = (vecs / np.sqrt(vals)) @ vecs.T
        update = (inv_sqrt @ m).reshape(p.shape)
        return p - hp["eta"] * update, state.with_slots(m=m, h=h)

    if kind == "muon":
        if p.ndim != 2:
            raise UnsupportedShape(f"muon needs a matrix-shaped parameter, got {p.shape}")
        m = hp["beta"] * state.slots["m"] - hp["eta"] * g
        return p + _ns_or_zero(m, hp["ns_iters"]), state.with_slots(m=m)

    if kind == "delta_momentum":
        flat = g.reshape(-1)
        m = state.slots["m"]
        norm = np.linalg.norm(flat)
        if norm > 0.0:
            ghat = flat / norm
            m = hp["beta"] * m - hp["eta_inner"] * (m @ ghat) * ghat - hp["eta"] * flat
        else:
            m = hp["beta"] * m
        return p + m.reshape(p.shape), state.with_slots(m=m)

    if kind == "dmgd":
        flat = g.reshape(-1)
        proj = state.slots["proj"]
        if proj.shape[1] != flat.size:
            raise UnsupportedShape(f"dmgd state built for {proj.shape[1]} weights, got {flat.size}")
        z = proj @ flat
        mem = Memory.mlp2(state.slots["w1"], state.slots["w2"])
        if np.any(z):
            g1, g2 = mlp2_l2_gradients(mem, z, -z)
            w1 = hp["beta"] * state.slots["w1"] - hp["eta_inner"] * g1
            w2 = hp["beta"] * state.slots["w2"] - hp["eta_inner"] * g2
        else:
            w1 = hp["beta"] * state.slots["w1"]
            w2 = hp["beta"] * state.slots["w2"]
        correction = w1 @ T._silu(w2 @ z)
        update = (proj.T @ correction).reshape(p.shape)
        return p + hp["eta"] * update, state.with_slots(w1=w1, w2=w2)

    if kind == "m3":
        if p.ndim != 2:
            raise UnsupportedShape(f"m3 needs a matrix-shaped parameter, got {p.shape}")
        f = int(hp["slow_freq"])
        t = state.t  # completed steps so far
        m2, o2, window = state.slots["m2"], state.slots["o2"], state.slots["window"]
        if t % f == 0:
            # outer-iteration boundary: fold the previous window into the slow
            # momentum, re-orthogonalize it, restart the window
            if hp["ema"]:
                m2 = hp["beta3"] * m2 + (1.0 - hp["beta3"]) * window
            else:
                m2 = m2 + hp["beta3"] * window
            o2 = _ns_or_zero(m2, hp["ns_iters"])
            window = np.zeros_like(window)
        if hp["ema"]:
            m1 = hp["beta1"] * state.slots["m1"] + (1.0 - hp["beta1"]) * g
            v = hp["beta2"] * state.slots["v"] + (1.0 - hp["beta2"]) * g * g
        else:
            m1 = state.slots["m1"] + hp["beta1"] * g
            v = state.slots["v"] + hp["beta2"] * g * g
        window = window + g
        o1 = _ns_or_zero(m1, hp["ns_iters"])
        update = (o1 + hp["alpha"] * o2) / np.sqrt(v + hp["eps"])
        return p - hp["eta"] * update, state.with_slots(m1=m1, m2=m2, v=v, window=window, o2=o2)

    raise ValueError(f"unknown optimizer kind {kind!r}")
