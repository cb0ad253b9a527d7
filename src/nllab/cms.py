"""Chain of residual MLP levels updated at geometrically spaced frequencies.

Level l applies its buffered update every `chunk[l]` steps and keeps its
weights bit-frozen in between; `chunk=None` means the level never ticks (a
static feed-forward block).  A level buffers `eta·g`, or a substituted
optimizer's step direction.  Three wirings: "sequential" and "nested" compose
the levels, "independent" blends per-level reads with the caller's weights.
The nested wiring additionally restores a level to its init snapshot whenever
the next-slower level applies, so each fast level restarts its context.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import optim
from . import tensor as T
from .memory import MLP2, read_node
from .tensor import Tape, Tensor

VARIANTS = ("sequential", "nested", "independent")
INIT_SCALE = 0.1  # level output weights start small, so a fresh chain is near the identity


@dataclass
class CmsLevel:
    w1: np.ndarray
    w2: np.ndarray
    chunk: int | None
    eta: float
    acc1: np.ndarray = field(default=None)
    acc2: np.ndarray = field(default=None)
    snap1: np.ndarray = field(default=None)
    snap2: np.ndarray = field(default=None)
    opt_states: tuple = None  # (w1, w2) states of a substituted optimizer; None buffers eta * g

    def __post_init__(self):
        if self.w1.shape[1] != self.w2.shape[0] or self.w1.shape[0] != self.w2.shape[1]:
            raise T.ShapeError(f"level weights must be (d,h) and (h,d), got {self.w1.shape} and {self.w2.shape}")
        if self.chunk is not None and self.chunk < 1:
            raise ValueError(f"chunk size must be >= 1 or None, got {self.chunk}")
        if self.acc1 is None:
            self.acc1 = np.zeros_like(self.w1)
            self.acc2 = np.zeros_like(self.w2)
        if self.snap1 is None:
            self.snap1 = self.w1.copy()
            self.snap2 = self.w2.copy()


class CmsChain:
    def __init__(self, levels: list[CmsLevel], variant: str = "sequential"):
        if variant not in VARIANTS:
            raise ValueError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if not levels:
            raise ValueError("a chain needs at least one level")
        dims = {lv.w1.shape[0] for lv in levels}
        if len(dims) != 1:
            raise T.ShapeError(f"levels disagree on width: {sorted(dims)}")
        finite = [lv.chunk for lv in levels if lv.chunk is not None]
        for a, b in zip(levels, levels[1:]):
            ca = a.chunk if a.chunk is not None else math.inf
            cb = b.chunk if b.chunk is not None else math.inf
            if ca >= cb:
                raise ValueError("levels must be ordered by strictly ascending chunk size")
        if finite:
            cmax = max(finite)
            for c in finite:
                if cmax % c != 0:
                    raise ValueError(f"chunk {c} does not divide the largest chunk {cmax}")
        self.levels = levels
        self.variant = variant
        self.last_step = 0


def make_chain(
    dim: int,
    hidden: int,
    chunks: list[int | None],
    variant: str = "sequential",
    eta: float = 0.01,
    seed: int = 0,
    optimizer: str = "sgd",
) -> CmsChain:
    """Levels buffer `eta·g` with sgd, or another `optimizer`'s step direction at rate 1."""
    rng = np.random.default_rng(seed)
    levels = []
    for c in chunks:
        w1 = INIT_SCALE * rng.normal(size=(dim, hidden)) / np.sqrt(hidden)
        w2 = rng.normal(size=(hidden, dim)) / np.sqrt(dim)
        states = None if optimizer == "sgd" else tuple(optim.init_state(optimizer, w.shape) for w in (w1, w2))
        levels.append(CmsLevel(w1, w2, c, eta if states is None else 1.0, opt_states=states))
    return CmsChain(levels, variant=variant)


def register_nodes(chain: CmsChain, tape: Tape, prefix: str = "cms.") -> list[tuple]:
    """Register every level's weights as named tape parameters, so one backward
    yields all per-level gradients.  Returns the level nodes for `forward_with_nodes`."""
    return [
        (tape.param(f"{prefix}level{i}.w1", lv.w1), tape.param(f"{prefix}level{i}.w2", lv.w2))
        for i, lv in enumerate(chain.levels)
    ]


def forward_with_nodes(chain: CmsChain, level_nodes: list[tuple], x, agg_node=None):
    """Graph forward against pre-registered weight nodes; an independent chain blends by `agg_node`."""
    reads = []
    cur = x
    for (w1, w2) in level_nodes:
        src = x if chain.variant == "independent" else cur
        read = read_node((w1, w2), src, MLP2)
        reads.append(read)
        cur = read
    if chain.variant != "independent":
        return cur
    out = None
    for i, read in enumerate(reads):
        term = T.mul(T.element(agg_node, i), read)
        out = term if out is None else T.add(out, term)
    return out


def cms_accumulate(chain: CmsChain, grads: list[tuple]) -> None:
    """Buffer `eta·g` per level, or `w − step(w)` for a level with a substituted optimizer."""
    if len(grads) != len(chain.levels):
        raise ValueError(f"got {len(grads)} gradient pairs for {len(chain.levels)} levels")
    for lv, (g1, g2) in zip(chain.levels, grads):
        g1, g2 = T.as_array(g1), T.as_array(g2)
        if g1.shape != lv.w1.shape or g2.shape != lv.w2.shape:
            raise T.ShapeError(
                f"gradient shapes {g1.shape}/{g2.shape} do not match level weights {lv.w1.shape}/{lv.w2.shape}"
            )
        if lv.opt_states is not None:
            parts = zip(lv.opt_states, (lv.w1, lv.w2), (g1, g2))
            steps = [optim.step(s.kind, s, Tensor(w), Tensor(g)) for s, w, g in parts]
            lv.opt_states = tuple(state for _, state in steps)
            g1, g2 = (w - new.data for w, (new, _) in zip((lv.w1, lv.w2), steps))
        lv.acc1 = lv.acc1 + lv.eta * g1
        lv.acc2 = lv.acc2 + lv.eta * g2


def cms_tick(chain: CmsChain, i: int, n: int = 1) -> list[int]:
    """Tick steps i, ..., i+n-1: apply buffered updates for every level whose
    boundary divides one of them.

    Returns the indices of levels that applied at least once.  Nested chains
    then restore each level to its snapshot whenever the next-slower level
    applied.  The result is bit-identical to n single-step ticks: the
    accumulators are zero after a level's first application, so one
    application per range is all a level needs.
    """
    if i <= chain.last_step:
        raise ValueError(f"tick steps must strictly increase, got {i} after {chain.last_step}")
    if n < 1:
        raise ValueError(f"tick count must be >= 1, got {n}")
    chain.last_step = i + n - 1
    applied = []
    for idx, lv in enumerate(chain.levels):
        if lv.chunk is not None and (i + n - 1) // lv.chunk > (i - 1) // lv.chunk:
            lv.w1 = lv.w1 - lv.acc1
            lv.w2 = lv.w2 - lv.acc2
            lv.acc1 = np.zeros_like(lv.acc1)
            lv.acc2 = np.zeros_like(lv.acc2)
            applied.append(idx)
    if chain.variant == "nested":
        for idx in range(len(chain.levels) - 1):
            if idx + 1 in applied:
                lv = chain.levels[idx]
                lv.w1 = lv.snap1.copy()
                lv.w2 = lv.snap2.copy()
                lv.acc1 = np.zeros_like(lv.acc1)
                lv.acc2 = np.zeros_like(lv.acc2)
    return applied


def state_dict(chain: CmsChain) -> dict[str, Tensor]:
    out = {}
    for i, lv in enumerate(chain.levels):
        out[f"level{i}.w1"] = Tensor(lv.w1)
        out[f"level{i}.w2"] = Tensor(lv.w2)
    return out


def set_tensor(chain: CmsChain, key: str, value: np.ndarray) -> None:
    """Replace the weight `state_dict` names `key`; snapshots are left alone."""
    level, attr = key.split(".")
    setattr(chain.levels[int(level.removeprefix("level"))], attr, value)
