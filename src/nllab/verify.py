"""Registered oracle-equivalence and invariant checks.

A check returns `(passed, measured, detail)` from its artifact directory, and
`register` names it once; the measured error makes a failure diagnosable from
the verify output alone.  The acceptance tests run the same checks.  Each
entry of `FAULTS` patches one route a check holds to its oracle, so that the
check fails: `run_checks(faults=...)` and the CLI's `--inject-fault` apply it.
"""

from __future__ import annotations

import contextlib
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable, Iterable, Optional

import numpy as np

from . import bench, checkpoint, config as config_mod, runlog as runlog_mod
from . import cms as cms_mod
from . import hope as hope_mod
from . import tensor as T
from .hope import HopeConfig, HopeModel, train
from . import srt as srt_mod
from .memory import LINEAR, MLP2, Memory, RuleKind, dgd_proximal_step, gd_oracle_step, read_node, rule_step
from .optim import contribution_curve, init_state, newton_schulz, step
from .srt import SLOTS, SrtConfig, SrtState, init_srt, linear_attention_config, srt_forward_nodes
from .tasks import TaskSpec, evaluate, generate, vocabulary
from .tensor import Tape


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: float
    detail: str


_REGISTRY: list[tuple[str, Callable, bool]] = []


def register(name: str, slow: bool = False):
    """Register `fn(out_dir) -> (passed, measured, detail)` as the check `name`
    and return it as `check(out_dir=None) -> CheckResult`."""

    def wrap(fn):
        def check(out_dir=None) -> CheckResult:
            passed, measured, detail = fn(out_dir)
            return CheckResult(name, bool(passed), float(measured), detail)

        _REGISTRY.append((name, check, slow))
        return check

    return wrap


def registered_checks() -> list[tuple[str, bool]]:
    return [(name, slow) for name, _, slow in _REGISTRY]


def run_checks(pattern: Optional[str] = None, faults: Optional[Iterable[str]] = None, out_dir: Optional[str] = None) -> list[CheckResult]:
    """Run the registered checks whose names contain `pattern`, with the named
    `FAULTS` patched in; their artifacts go to `out_dir`, or to a temporary
    directory removed once they have run."""
    faults = list(faults or ())
    unknown = sorted(set(faults) - FAULTS.keys())
    if unknown:
        raise ValueError(f"unknown faults {unknown}; known: {sorted(FAULTS)}")
    if not out_dir:
        with tempfile.TemporaryDirectory(prefix="nllab-verify-") as tmp:
            return run_checks(pattern, faults, tmp)
    results = []
    with _injected(faults):
        for name, check, _slow in _REGISTRY:
            if pattern and pattern not in name:
                continue
            try:
                results.append(check(out_dir))
            except Exception as exc:  # a crashing check is a failing check
                results.append(CheckResult(name, False, float("nan"), f"raised {type(exc).__name__}: {exc}"))
    return results


@contextlib.contextmanager
def _injected(faults: list):
    """Set `object.attribute = wrap(original)` for each named fault, and put the originals back."""
    patched = []
    try:
        for fault in faults:
            _check, obj, attr, wrap = FAULTS[fault]
            original = getattr(obj, attr)
            setattr(obj, attr, wrap(original))
            patched.append((obj, attr, original))
        yield
    finally:
        for obj, attr, original in reversed(patched):
            setattr(obj, attr, original)


_OFF = 1 + 1e-9  # a fault far below what central differences resolve, far above the oracles' 1e-12


def _scaled(fn):
    return lambda *args: tuple(x * _OFF for x in fn(*args))


# fault name -> (the check it fails, object, attribute, wrap)
FAULTS = {
    "hebbian-sign": (
        "rule-oracle-hebbian", sys.modules[__name__], "rule_step",
        lambda fn: lambda rule, *args: Memory.linear(-fn(rule, *args).matrix) if rule is RuleKind.HEBBIAN else fn(rule, *args),
    ),
    "decay-scan-vjp": ("srt-decay-scan", T, "_closed_vjp", _scaled),
    "cms-accumulate": (
        "cms-frequency-and-sgd", cms_mod, "cms_accumulate",
        lambda fn: lambda chain, grads: fn(chain, [(g1 * _OFF, g2 * _OFF) for g1, g2 in grads]),
    ),
    "linear-attention-value": (
        "linear-attention-closed-form", hope_mod._Attention, "value",
        lambda fn: lambda self, *args: fn(self, *args) * _OFF if self.linear else fn(self, *args),
    ),
    "attention-vjp": ("attention-fused-core", hope_mod._Attention, "vjp", _scaled),
    "rms-norm-vjp": ("attention-fused-core", T, "_rms_grad", _scaled),
}


# ---------------------------------------------------------------------------
# 1. learning-rule / autodiff-oracle equivalence


def _rule_oracle(rule: RuleKind, objective: str, out_dir) -> tuple:
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d_out = int(rng.integers(2, 17))
        d_k = d_out if rule is RuleKind.OJA else int(rng.integers(2, 17))
        mem = Memory.linear(rng.normal(size=(d_out, d_k)))
        k = rng.normal(size=d_k)
        v = rng.normal(size=d_out)
        eta = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.0, 1.0))
        closed = rule_step(rule, mem, k, v, eta, alpha).matrix
        oracle = gd_oracle_step(objective, mem, k, v, eta, alpha).matrix
        worst = max(worst, float(np.abs(closed - oracle).max()))
    return worst < 1e-12, worst, "closed form vs tape gradient, 100 instances"


check_hebbian = register("rule-oracle-hebbian")(partial(_rule_oracle, RuleKind.HEBBIAN, "dot"))
check_delta = register("rule-oracle-delta")(partial(_rule_oracle, RuleKind.DELTA, "l2"))
check_oja = register("rule-oracle-oja")(partial(_rule_oracle, RuleKind.OJA, "oja"))


@register("dgd-proximal-argmin")
def check_dgd(out_dir) -> tuple:
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 9))
        w0 = rng.normal(size=(d, d))
        k = rng.normal(size=d)
        k /= np.linalg.norm(k)
        v = rng.normal(size=d)
        eta = float(rng.uniform(0.05, 2.0))
        lhs = np.outer(k, k) + np.eye(d) / eta
        rhs = np.outer(v, k) + w0 / eta
        direct = np.linalg.solve(lhs.T, rhs.T).T
        closed = dgd_proximal_step(Memory.linear(w0), k, v, eta).matrix
        worst = max(worst, float(np.abs(closed - direct).max()))
    return worst < 1e-8, worst, "rank-one closed form vs direct solve, 100 instances"


# ---------------------------------------------------------------------------
# optimizer identities


@register("adam-am-equivalence")
def check_adam_am(out_dir) -> tuple:
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for shape in ((1,), (4, 4)):
            p_a = p_b = rng.normal(size=shape)
            st_a = init_state("adam", shape, eta=0.05, beta1=0.9, beta2=0.999, eps=0.0)
            st_b = init_state("adam_am", shape, eta=0.05, beta1=0.9, beta2=0.999, lam=0.0)
            for _ in range(20):
                g = rng.normal(size=shape)
                p_a, st_a = step("adam", st_a, p_a, g)
                p_b, st_b = step("adam_am", st_b, p_b, g)
                worst = max(worst, float(np.abs(p_a - p_b).max()))
    return worst < 1e-12, worst, "direct recurrence vs closed-form readout, 50 seeds x 20 steps"


@register("momentum-ftrl-identity")
def check_ftrl(out_dir) -> tuple:
    rng = np.random.default_rng(0)
    eta = 0.37
    w1 = rng.normal(size=(3, 2))
    st = init_state("momentum", (3, 2), eta=eta, beta=1.0)
    acc = np.zeros_like(w1)
    for _ in range(100):
        g = rng.normal(size=(3, 2))
        _, st = step("momentum", st, w1, g)
        acc = acc + eta * g
    err = float(np.abs((w1 + st.slots["m"]) - (w1 - acc)).max())
    return err == 0.0, err, "unrolled memory vs accumulated-gradient solution, 100 steps"


@register("newton-schulz-polar")
def check_ns(out_dir) -> tuple:
    worst_sv = 0.0
    monotone = True
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u, _, vt = np.linalg.svd(rng.normal(size=(8, 8)))
        sv = rng.uniform(1.0, 10.0, size=8)  # condition number <= 10
        g = (u * sv) @ vt
        out = newton_schulz(g, 10)
        out_sv = np.linalg.svd(out, compute_uv=False)
        worst_sv = max(worst_sv, float(np.abs(out_sv - 1.0).max()))
        iterates = [g / np.linalg.norm(g)] + [newton_schulz(g, i) for i in range(1, 11)]
        errs = [np.linalg.norm(x.T @ x - np.eye(8)) for x in iterates]
        # strict decrease until the error reaches the float64 floor
        monotone = monotone and all(b < a or a < 1e-12 for a, b in zip(errs, errs[1:]))
    passed = worst_sv <= 0.05 and monotone
    return passed, worst_sv, f"max |sv-1|={worst_sv:.2e}, monotone-above-floor={monotone}"


@register("m3-structure")
def check_m3(out_dir) -> tuple:
    rng = np.random.default_rng(1)
    f = 2
    gs = [rng.normal(size=(3, 3)) for _ in range(3)]
    theta0 = rng.normal(size=(3, 3))
    eta, b1, b2, b3, alpha, eps, iters = 0.1, 0.9, 0.8, 0.7, 0.5, 1e-8, 5

    def ns(m):
        if not np.any(m):
            return m.copy()
        x = m / np.linalg.norm(m)
        for _ in range(iters):
            x = 1.5 * x - 0.5 * (x @ x.T @ x)
        return x

    m1 = np.zeros((3, 3))
    m2 = np.zeros((3, 3))
    v = np.zeros((3, 3))
    window = np.zeros((3, 3))
    theta = theta0.copy()
    expected = []
    for t, g in enumerate(gs):
        if t % f == 0:
            m2 = m2 + b3 * window
            o2 = ns(m2)
            window = np.zeros((3, 3))
        m1 = m1 + b1 * g
        v = v + b2 * g * g
        window = window + g
        theta = theta - eta * (ns(m1) + alpha * o2) / np.sqrt(v + eps)
        expected.append(theta.copy())

    st = init_state("m3", (3, 3), eta=eta, beta1=b1, beta2=b2, beta3=b3, alpha=alpha, eps=eps, ns_iters=iters, slow_freq=f)
    p = theta0
    worst = 0.0
    for g, exp in zip(gs, expected):
        p, st = step("m3", st, p, g)
        worst = max(worst, float(np.abs(p - exp).max()))

    # slow momentum changes only at boundaries
    st2 = init_state("m3", (4, 4), slow_freq=3)
    p2 = rng.normal(size=(4, 4))
    prev = st2.slots["m2"].copy()
    boundary_ok = True
    for t in range(1, 13):
        p2, st2 = step("m3", st2, p2, rng.normal(size=(4, 4)))
        if (t - 1) % 3 == 0:
            prev = st2.slots["m2"].copy()
        else:
            boundary_ok = boundary_ok and np.array_equal(st2.slots["m2"], prev)
    passed = worst < 1e-14 and boundary_ok
    return passed, worst, f"hand trace err={worst:.2e}, boundary-only slow updates={boundary_ok}"


# ---------------------------------------------------------------------------
# chain and fast-weight invariants


def _mse(out, target):
    diff = T.sub(out, target)
    return T.mean_all(T.mul(diff, diff))


@register("cms-frequency-and-sgd")
def check_cms(out_dir) -> tuple:
    rng = np.random.default_rng(2)
    lr = 0.05
    chain = cms_mod.make_chain(4, 3, [1], seed=3, eta=lr)
    w1 = chain.levels[0].w1.copy()
    w2 = chain.levels[0].w2.copy()
    worst = 0.0
    for i in range(1, 31):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        tape = Tape()
        level_nodes = cms_mod.register_nodes(chain, tape)
        out = cms_mod.forward_with_nodes(chain, level_nodes, tape.constant(x))
        grads = tape.backward(_mse(out, tape.constant(y)))
        cms_mod.cms_accumulate(chain, [(grads["cms.level0.w1"], grads["cms.level0.w2"])])
        cms_mod.cms_tick(chain, i)

        tape = Tape()
        w1n, w2n = tape.param("w1", w1), tape.param("w2", w2)
        out = T.add(tape.constant(x), T.matmul(w1n, T.silu(T.matmul(w2n, tape.constant(x)))))
        g = tape.backward(_mse(out, tape.constant(y)))
        w1 = w1 - lr * g["w1"]
        w2 = w2 - lr * g["w2"]
        worst = max(worst, float(np.abs(chain.levels[0].w1 - w1).max()))

    # off-boundary bit-freeze for a chunk-4 level
    chain4 = cms_mod.make_chain(4, 3, [4], seed=4)
    frozen = chain4.levels[0].w1.copy()
    bitfrozen = True
    for i in range(1, 4):
        cms_mod.cms_accumulate(chain4, [(rng.normal(size=(4, 3)), rng.normal(size=(3, 4)))])
        cms_mod.cms_tick(chain4, i)
        bitfrozen = bitfrozen and np.array_equal(chain4.levels[0].w1, frozen)
    passed = worst < 1e-12 and bitfrozen
    return passed, worst, f"C=1 vs SGD err={worst:.2e}, off-boundary bit-frozen={bitfrozen}"


def _permute(x, order, batch: int):
    return T.concat_columns([T.slice_columns(x, i * batch, (i + 1) * batch) for i in order])


def _elements(cfg: SrtConfig, boundary: dict, wq, x, xkv, slots, widths) -> dict:
    """Element work of one chunk as (d, C*B) matrices, every read by `read_node`
    against the slot's own boundary memory.  Holds the output `y`, the key `k`,
    the gate reads `eta`/`alpha` (unless fixed) and one self-generated target
    `vhat.<slot>` per updated slot.
    """

    def read(slot: str, cols):
        return read_node(boundary[slot], cols, cfg.kinds[slot], widths)

    def norm(cols):
        return T.l2_normalize_columns(cols) if cfg.normalize else cols

    q = norm(T.matmul(wq, x))
    v = norm(read("v", xkv))
    out = {"y": read("mem", q), "k": norm(read("k", xkv))}
    if cfg.fixed_eta is None:
        out["eta"] = read("eta", x)
    if cfg.fixed_alpha is None:
        out["alpha"] = read("alpha", x)
    for slot in slots:
        out["vhat." + slot] = read(slot, v) if cfg.self_values else v
    return out


def _gate(tape: Tape, fixed, reads, bias: float, squash, n: int):
    if fixed is not None:
        return tape.constant(np.full(n, fixed))
    return squash(T.add(T.mean_axis0(reads), bias))


def _advance(cfg: SrtConfig, kind: str, boundary: tuple, k, vhat, eta, alpha, widths) -> tuple:
    """One chunk's update of a memory: one decay_scan per weight, from the boundary state."""
    if kind == LINEAR:
        (m,) = boundary
        u = T.sub(T.bmatmul(m, k, widths), vhat) if cfg.objective == "l2" else T.mul(-1.0, vhat)
        return (T.decay_scan(m, k, u, eta, alpha, cfg.retention, widths),)
    # weight-space gradient of the residual MLP read, no retention factor
    w1, w2 = boundary
    z = T.bmatmul(w2, k, widths)
    h = T.silu(z)
    r = T.sub(T.add(k, T.bmatmul(w1, h, widths)), vhat) if cfg.objective == "l2" else T.mul(-1.0, vhat)
    u2 = T.mul(T.bmatmul(T.transpose(w1), r, widths), T.silu_grad(z))
    return (T.decay_scan(w1, h, r, eta, alpha, False, widths), T.decay_scan(w2, k, u2, eta, alpha, False, widths))


def _chunks(L: int, chunk: int, lengths, padded: bool) -> list:
    """(first token, tokens, widths) per chunk; widths counts each sample's real
    columns in the chunk, None when all of them are real."""
    out = []
    for start in range(0, L, chunk):
        n = min(start + chunk, L) - start
        out.append((start, n, [min(max(length - start, 0), n) for length in lengths] if padded else None))
    return out


def _srt_forward_oracle(tape, cfg, weights, wq, x, conv_kernel=None, lengths=None, element_order=None):
    """The per-slot graph that `srt_forward_nodes`' one node replaces, same
    arguments and outputs: every slot its own (B,p,n) fast weight; per chunk,
    element work, gates and one decay_scan per weight of each updated slot,
    each op its own tape node.  `element_order` (unpadded sequences only)
    permutes the tokens of each chunk before the element work and restores
    them after it; outputs are positional, so any order must give the same.
    Y is multiplied by the real-column mask: 0 at padded columns, which take
    no gradient, as the fused core gives it."""
    lengths, L, padded = srt_mod._layout(cfg, x, lengths)
    if padded and element_order is not None:
        raise ValueError("element_order applies to unpadded sequences only")
    batch = len(lengths)
    xkv = T.causal_depthwise_conv(x, conv_kernel, batch) if conv_kernel is not None else x
    slots = [slot for slot in SLOTS if slot in cfg.update_slots]
    cur = {slot: tuple(T.broadcast_batch(w, batch) for w in ws) for slot, ws in weights.items()}
    outputs = []
    for start, n, widths in _chunks(L, cfg.chunk, lengths, padded):
        xc = T.slice_columns(x, start * batch, (start + n) * batch)
        xkvc = T.slice_columns(xkv, start * batch, (start + n) * batch) if conv_kernel is not None else xc
        if element_order is None:
            e = _elements(cfg, cur, wq, xc, xkvc, slots, widths)
        else:
            order = [i for i in element_order if i < n]
            xp = _permute(xc, order, batch)
            xkvp = _permute(xkvc, order, batch) if conv_kernel is not None else xp
            inverse = np.argsort(order)
            e = {name: _permute(m, inverse, batch) for name, m in _elements(cfg, cur, wq, xp, xkvp, slots, None).items()}
        eta = _gate(tape, cfg.fixed_eta, e.get("eta"), cfg.eta_bias, T.softplus, n * batch)
        alpha = _gate(tape, cfg.fixed_alpha, e.get("alpha"), cfg.alpha_bias, T.sigmoid, n * batch)
        for slot in slots:
            cur[slot] = _advance(cfg, cfg.kinds[slot], cur[slot], e["k"], e["vhat." + slot], eta, alpha, widths)
        outputs.append(e["y"])
    y = T.concat_columns(outputs)
    real = np.arange(L)[:, None] < np.array(lengths)  # (L, B): each sample's real tokens
    return T.mul(y, np.broadcast_to(real.reshape(-1), y.value.shape).astype(float)), cur


def _rms_oracle(x, gain):
    """The per-op graph that `tensor.rms_norm` records as one node."""
    m = T.mean_axis0(T.mul(x, x))
    r = T.reciprocal(T.sqrt(T.add(m, 1e-6)))
    return T.scale_rows(T.scale_columns(x, r), gain)


def _attention_oracle(tape, linear: bool, dim: int, xn, wq, wk, wv, batch: int):
    """The per-op graph that the attention core (`hope._Attention`) records as one node."""
    q = T.sample_stack(T.l2_normalize_columns(T.matmul(wq, xn)), batch)
    k = T.sample_stack(T.l2_normalize_columns(T.matmul(wk, xn)), batch)
    v = T.sample_stack(T.matmul(wv, xn), batch)
    scores = T.matmul(T.transpose(k), q)
    if linear:
        n = scores.value.shape[-1]
        mask = np.triu(np.ones((n, n))) / np.arange(1, n + 1)
        mix = T.mul(scores, tape.constant(np.broadcast_to(mask, scores.value.shape)))
    else:
        mix = T.causal_softmax_columns(T.mul(scores, math.sqrt(dim)))
    return T.time_major(T.matmul(v, mix))


def _probed(run, vals: dict, probes: list, grads: bool = True):
    """Register `vals` as the parameters of a fresh tape, record the outputs
    `run(tape, nodes)` lists and sum each one's contraction with its probe:
    the output values and every input's gradient of that sum; or, without
    `grads`, the sum alone."""
    tape = Tape()
    nodes = {name: tape.param(name, v) for name, v in vals.items()}
    outs = run(tape, nodes)
    loss = T.dot(outs[0], tape.constant(probes[0]))
    for o, p in zip(outs[1:], probes[1:]):
        loss = T.add(loss, T.dot(o, tape.constant(p)))
    if not grads:
        return float(loss.value)
    return [o.value for o in outs], tape.backward(loss)


def _rel(a, b, floor: float = 1e-12):
    return abs(a - b) / max(abs(a), abs(b), floor)


def _against_graph(fused, graph, vals: dict, probes: list) -> tuple:
    """`_probed`'s runs of a fused route and of its per-op `graph`: whether every
    output is bit-identical, the worst gradient error relative to the graph
    gradient's largest entry, and the fused route's gradients."""
    outs, grads = _probed(fused, vals, probes)
    graph_outs, graph_grads = _probed(graph, vals, probes)
    worst = 0.0
    for key, g in graph_grads.items():
        worst = max(worst, float(np.abs(grads[key] - g).max()) / max(float(np.abs(g).max()), 1e-300))
    return all(np.array_equal(a, b) for a, b in zip(outs, graph_outs)), worst, grads


def _directional_error(run, vals: dict, probes: list, grads: dict, direction: dict) -> float:
    """The gradients' derivative of `_probed`'s sum along `direction`, a step of
    some or all of the inputs, against central differences; relative."""
    along = sum(float((grads[key] * d).sum()) for key, d in direction.items())
    fd = T.finite_diff_grad(
        lambda s: _probed(run, {key: v + float(s[0]) * direction[key] if key in direction else v for key, v in vals.items()}, probes, False),
        np.zeros(1),
    )
    return _rel(float(fd[0]), along)


_SCAN_INPUTS = ("m0", "keys", "u", "eta", "alpha")


def _decay_scan_oracle(m, keys, u, eta, alpha, retention):
    """The per-token graph that `decay_scan` replaces: the SRT linear-memory update."""
    for j in range(keys.value.shape[1]):
        k, w = T.slice_columns(keys, j, j + 1), T.slice_columns(u, j, j + 1)
        if retention:
            w = T.add(T.matmul(m, k), w)
        m = T.sub(T.mul(T.element(alpha, j), m), T.mul(T.element(eta, j), T.matmul(w, T.transpose(k))))
    return m


def _scan_run(scan, retention: bool):
    """`_probed`'s run of `scan`, `decay_scan` or its oracle, on the scan inputs."""
    return lambda tape, nodes: [scan(*(nodes[name] for name in _SCAN_INPUTS), retention)]


def _decay_scan_inputs(rng, d: int, n: int) -> dict:
    keys = rng.normal(size=(d, n))
    return {
        "m0": rng.normal(size=(d, d)),
        "keys": keys / np.linalg.norm(keys, axis=0),
        "u": rng.normal(size=(d, n)),
        "eta": rng.uniform(0.0, 0.5, size=n),
        "alpha": rng.uniform(0.5, 1.0, size=n),
    }


def _batched_scan(rng, retention: bool, cols: int, widths: list) -> tuple:
    """A ragged batch of d=3 states, alpha = 1 and 0 at two columns each, against
    every sample's per-token graph on its real columns: the largest error of
    the final state and the five gradients (padded columns must get none), and
    whether each partly padded sample ends bit-identical to its own-width scan."""
    batch = len(widths)
    samples = [_decay_scan_inputs(rng, 3, cols) for _ in widths]
    for vals in samples:
        vals["alpha"][[0, -1]] = 1.0, 0.0
    stacked = {name: np.stack([vals[name] for vals in samples], axis=-1) for name in _SCAN_INPUTS[1:]}
    stacked = {name: v.reshape(*v.shape[:-2], -1) for name, v in stacked.items()}  # time-major columns
    stacked["m0"] = np.stack([vals["m0"] for vals in samples])
    probe = rng.normal(size=(batch, 3, 3))
    (out,), grads = _probed(_scan_run(partial(T.decay_scan, widths=widths), retention), stacked, [probe])
    worst, exact = 0.0, True
    for b, n in enumerate(widths):
        own = {name: v if name == "m0" else v[..., :n] for name, v in samples[b].items()}
        state, g_own = samples[b]["m0"], {"m0": probe[b]}
        if n:
            (state,), g_own = _probed(_scan_run(_decay_scan_oracle, retention), own, [probe[b]])
        if 0 < n < cols:
            exact &= np.array_equal(out[b], _probed(_scan_run(T.decay_scan, retention), own, [probe[b]])[0][0])
        worst = max(worst, float(np.abs(out[b] - state).max()), float(np.abs(grads["m0"][b] - g_own["m0"]).max()))
        for name in _SCAN_INPUTS[1:]:
            g = grads[name][..., b::batch]
            real = np.abs(g[..., :n] - g_own[name]).max() if n else 0.0
            worst = max(worst, float(real), float(np.abs(g[..., n:]).max(initial=0.0)))
    return worst, exact


@register("srt-decay-scan")
def check_decay_scan(out_dir) -> tuple:
    worst = 0.0  # fused primitive vs per-token graph: forward and every VJP, d=6, and ragged batches at d=3
    exact = True  # partly padded samples bit-identical to their own-width scans
    fd_worst = 0.0  # fused VJP vs central differences, relative, d=3 and C=3
    for retention in (True, False):
        fused = _scan_run(T.decay_scan, retention)
        for n in (1, 3, 8):
            rng = np.random.default_rng(10 * n + retention)
            vals = _decay_scan_inputs(rng, 6, n)
            probe = rng.normal(size=(6, 6))
            (fast,), g_fast = _probed(fused, vals, [probe])
            (slow,), g_slow = _probed(_scan_run(_decay_scan_oracle, retention), vals, [probe])
            worst = max(worst, float(np.abs(fast - slow).max()))
            for name in _SCAN_INPUTS:
                worst = max(worst, float(np.abs(g_fast[name] - g_slow[name]).max()))

        rng = np.random.default_rng(retention)
        vals = _decay_scan_inputs(rng, 3, 3)
        probe = rng.normal(size=(3, 3))
        _, grads = _probed(fused, vals, [probe])
        for name in _SCAN_INPUTS:
            fd = T.finite_diff_grad(lambda x: _probed(fused, {**vals, name: x}, [probe], False), vals[name])
            scale = max(np.abs(fd).max(), np.abs(grads[name]).max(), 1e-12)
            fd_worst = max(fd_worst, float(np.abs(fd - grads[name]).max()) / scale)
        # ragged batches: full, one-column and empty samples; samples of C-1 and 2 columns
        for cols, widths in ((16, [16, 1, 0]), (5, [5, 4, 2])) if retention else ((6, [6, 1, 0]),):
            err, same = _batched_scan(rng, retention, cols, widths)
            worst, exact = max(worst, err), exact and same
    passed = worst <= 1e-12 and fd_worst < 1e-6 and exact
    return passed, worst, (
        f"fused vs per-token graph err={worst:.2e}, vs finite differences rel={fd_worst:.2e}, "
        f"partly padded samples bit-identical={exact}"
    )


def _fused_core_configs(d: int) -> dict:
    linear = {slot: LINEAR for slot in SLOTS}
    return {
        "default": SrtConfig(dim=d, hidden=d),
        "all-linear": SrtConfig(dim=d, kinds=linear),
        "frozen-subset": SrtConfig(dim=d, hidden=d, update_slots=("v", "alpha", "mem")),
        "dot": SrtConfig(dim=d, kinds=linear, objective="dot"),
        "no-retention": SrtConfig(dim=d, hidden=d, retention=False),
        "no-self-values": SrtConfig(dim=d, hidden=d, self_values=False),
        "fixed-gates": SrtConfig(dim=d, hidden=d, fixed_eta=0.3, fixed_alpha=0.9),
        "conv": SrtConfig(dim=d, hidden=d, conv=True),
        "linear-attention": linear_attention_config(d),
        "mlp2-key": SrtConfig(dim=d, hidden=d, kinds={**linear, "k": MLP2}),
    }


def _core_run(forward, cfg: SrtConfig, chunk: int, lengths: list):
    """`_probed`'s run of `forward`, the fused core or its per-op graph, in
    chunks of `chunk`: Y, then the final weights in SLOTS order."""

    def run(tape, nodes):
        snaps = {slot: tuple(nodes[f"{slot}.{j}"] for j in range(1 if cfg.kinds[slot] == LINEAR else 2)) for slot in SLOTS}
        y, final = forward(tape, replace(cfg, chunk=chunk), snaps, nodes["wq"], nodes["x"], nodes.get("conv"), lengths)
        return [y] + [w for slot in SLOTS for w in final[slot]]

    return run


def _srt_values(state: SrtState, x: np.ndarray, chunk=None, forward=srt_forward_nodes) -> tuple:
    """Y and each slot's (p,n) final weights of one (d,L) sequence run by `forward` from the state's
    snapshots, in chunks of `chunk` tokens (None: the config's).  A permuted run passes
    `functools.partial(_srt_forward_oracle, element_order=...)` as `forward`."""
    cfg = state.config if chunk is None else replace(state.config, chunk=chunk)
    tape = Tape()
    snaps = {slot: tuple(tape.constant(w) for w in ws) for slot, ws in state.weights.items()}
    kernel = None if state.conv_kernel is None else tape.constant(state.conv_kernel)
    y, final = forward(tape, cfg, snaps, tape.constant(state.wq), tape.constant(x), kernel)
    return y.value, {slot: tuple(w.value[0] for w in ws) for slot, ws in final.items()}


def _bit_identical(a: tuple, b: tuple) -> bool:
    return np.array_equal(a[0], b[0]) and all(np.array_equal(u, v) for slot in SLOTS for u, v in zip(a[1][slot], b[1][slot]))


def _carried(state: SrtState, x: np.ndarray, chunk: int, cuts, carry: bool = True) -> bool:
    """Whether x run in pieces cut before the tokens in `cuts`, each from the last piece's final
    weights (from the state's snapshots without `carry`), gives one run's outputs bit for bit."""
    ys, cur = [], state
    for piece in np.split(x, cuts, axis=1):
        y, final = _srt_values(cur, piece, chunk)
        ys.append(y)
        cur = replace(state, weights=final) if carry else state
    return _bit_identical(_srt_values(state, x, chunk), (np.concatenate(ys, axis=1), final))


@register("srt-fused-core")
def check_fused_core(out_dir) -> tuple:
    worst = 0.0  # fused core vs per-op graph: every gradient, relative to its largest entry
    exact = True  # forward bit-identical
    carried = ordered = True  # the carry and order rows, bit for bit
    rng, carry_rng, order_rng = np.random.default_rng(12), np.random.default_rng(14), np.random.default_rng(15)
    d = 3
    for name, cfg in _fused_core_configs(d).items():
        state = init_srt(cfg, seed=13)
        vals = {f"{slot}.{j}": w + 0.2 * rng.normal(size=w.shape) for slot, ws in state.weights.items() for j, w in enumerate(ws)}
        vals["wq"] = state.wq
        if cfg.conv:
            vals["conv"] = state.conv_kernel + 0.3 * rng.normal(size=state.conv_kernel.shape)
        # token steps on a ragged batch; closed-form chunks on a ragged batch,
        # whose short sample ends inside the first chunk and is all padding in
        # the second; one closed-form chunk on a single sequence
        for chunk, lengths in ((1, [3, 1]), (3, [5, 2]), (8, [5])):
            vals["x"] = rng.normal(size=(d, max(lengths) * len(lengths)))
            probes = [rng.normal(size=vals["x"].shape)] + [
                rng.normal(size=(len(lengths),) + vals[f"{slot}.{j}"].shape) for slot in SLOTS for j in range(1 if cfg.kinds[slot] == LINEAR else 2)
            ]
            core = _core_run(srt_forward_nodes, cfg, chunk, lengths)
            same, err, grads = _against_graph(core, _core_run(_srt_forward_oracle, cfg, chunk, lengths), vals, probes)
            exact, worst = exact and same, max(worst, err)
            if (name, chunk) == ("conv", 3):
                fd_case = (core, dict(vals), probes, grads)
        # the rows start from the same snapshots, on inputs drawn from their own generators
        weights = {slot: tuple(vals[f"{slot}.{j}"] for j in range(len(ws))) for slot, ws in state.weights.items()}
        state = replace(state, weights=weights, conv_kernel=vals.get("conv"))
        if not cfg.conv:  # carry: one token per call at chunk 1, a split at chunk 3; the conv's window would span a cut
            carried = carried and _carried(state, carry_rng.normal(size=(d, 8)), 1, range(1, 8))
            carried = carried and _carried(state, carry_rng.normal(size=(d, 12)), 3, [6])
        # order: the core at natural order gives the per-op graph's outputs at natural order and at a permuted one
        x = order_rng.normal(size=(d, 7))
        permuted = partial(_srt_forward_oracle, element_order=[2, 0, 1])
        runs = [_srt_values(state, x, 3), _srt_values(state, x, 3, _srt_forward_oracle), _srt_values(state, x, 3, permuted)]
        ordered = ordered and all(_bit_identical(runs[0], run) for run in runs[1:])
    # one directional derivative against central differences, along every input at once
    core, vals, probes, grads = fd_case
    fd_err = _directional_error(core, vals, probes, grads, {key: rng.normal(size=v.shape) for key, v in vals.items()})
    passed = exact and worst <= 1e-12 and fd_err < 1e-6 and carried and ordered
    return passed, worst, (
        f"forward bit-identical={exact}, gradients vs per-op graph rel={worst:.2e}, vs finite differences rel={fd_err:.2e}, "
        f"carried weights bit-identical={carried}, element_order bit-identical={ordered}"
    )


@register("linear-attention-recovery")
def check_linear_attention(out_dir) -> tuple:
    rng = np.random.default_rng(4)
    d, L = 6, 24
    state = init_srt(linear_attention_config(d), seed=5)
    xs = rng.normal(size=(d, L))
    _, after = _srt_values(state, xs, chunk=1)
    prefix = np.zeros((d, d))
    for t in range(L):
        prefix += np.outer(xs[:, t], xs[:, t])
    err = float(np.abs(after["mem"][0] - prefix).max())
    return err < 1e-12, err, "degenerate block vs prefix-sum oracle"


_LA_INPUTS = ("x", "b0.norm1", "b0.wq", "b0.wk", "b0.wv")


def _linear_attention_oracle(model: HopeModel, tape: Tape, nodes: dict) -> list:
    """`_probed`'s run of the per-token graph that the closed-form linear-attention
    block replaces: M_t = M_{t-1} + v_t k_t^T, read after the update as y_t = M_t q_t / (t+1)."""
    xn = _rms_oracle(nodes["x"], nodes["b0.norm1"])
    q = T.l2_normalize_columns(T.matmul(nodes["b0.wq"], xn))
    k = T.l2_normalize_columns(T.matmul(nodes["b0.wk"], xn))
    v = T.matmul(nodes["b0.wv"], xn)
    mem = tape.constant(np.zeros((model.config.dim, model.config.dim)))
    cols = []
    for t in range(xn.value.shape[1]):
        vt, kt, qt = (T.slice_columns(a, t, t + 1) for a in (v, k, q))
        mem = T.add(mem, T.matmul(vt, T.transpose(kt)))
        cols.append(T.mul(1.0 / (t + 1), T.matmul(mem, qt)))
    return [T.concat_columns(cols)]


def _linear_attention_block(model: HopeModel, tape: Tape, nodes: dict) -> list:
    """`_probed`'s run of the closed-form block."""
    return [model._block(tape, nodes, 0, nodes["x"], [nodes["x"].value.shape[1]])]


@register("linear-attention-closed-form")
def check_linear_attention_closed_form(out_dir) -> tuple:
    d = 6
    model = HopeModel(HopeConfig(vocab=2, dim=d, core="linear_attention", use_cms=False), seed=0)
    block = partial(_linear_attention_block, model)
    worst = 0.0  # closed-form block vs per-token graph: output and every gradient
    fd_worst = 0.0  # directional derivatives vs central differences, relative
    for n in (1, 2, 7):
        rng = np.random.default_rng(20 + n)
        vals = {name: rng.normal(size=(d, d)) for name in ("b0.wq", "b0.wk", "b0.wv")}
        vals["x"] = rng.normal(size=(d, n))
        vals["b0.norm1"] = rng.uniform(0.5, 1.5, size=d)
        probe = rng.normal(size=(d, n))
        (fast,), g_fast = _probed(block, vals, [probe])
        (slow,), g_slow = _probed(partial(_linear_attention_oracle, model), vals, [probe])
        worst = max(worst, float(np.abs(fast - slow).max()))
        for name in _LA_INPUTS:
            worst = max(worst, float(np.abs(g_fast[name] - g_slow[name]).max()))
            # one random direction per input keeps the check to two forwards each
            direction = {name: rng.normal(size=vals[name].shape)}
            fd_worst = max(fd_worst, _directional_error(block, vals, [probe], g_fast, direction))
    return worst <= 1e-12 and fd_worst < 1e-6, worst, f"closed form vs per-token graph err={worst:.2e}, vs finite differences rel={fd_worst:.2e}"


def _attention_block_oracle(model: HopeModel, tape: Tape, nodes: dict, b: int, x, lengths: list):
    """`HopeModel._block` of an attention core without the CMS tail, as the per-op graph."""
    cfg = model.config
    weights = (nodes[f"b{b}.{name}"] for name in ("wq", "wk", "wv"))
    return _attention_oracle(tape, cfg.core == "linear_attention", cfg.dim, _rms_oracle(x, nodes[f"b{b}.norm1"]), *weights, len(lengths))


def _blocks_run(model: HopeModel, block, lengths: list):
    """`_probed`'s run of the model's blocks over the input columns "x", each block run by `block`."""

    def run(tape, nodes):
        x = nodes["x"]
        for b in range(model.config.blocks):
            x = block(tape, nodes, b, x, lengths)
        return [x]

    return run


@register("attention-fused-core")
def check_attention_core(out_dir) -> tuple:
    worst = 0.0  # fused nodes vs per-op graph: every gradient, relative to its largest entry
    exact = True  # forward bit-identical
    fd_worst = 0.0  # one directional derivative per core vs central differences, relative
    rng = np.random.default_rng(30)
    d = 4
    for core in ("attention", "linear_attention"):
        # two blocks: the second block's RMS norm reads the first one's core
        model = HopeModel(HopeConfig(vocab=2, dim=d, blocks=2, core=core, use_cms=False), seed=0)
        vals = {f"b{b}.{name}": rng.normal(size=(d, d)) for b in range(2) for name in ("wq", "wk", "wv")}
        vals.update({f"b{b}.norm1": rng.uniform(0.5, 1.5, size=d) for b in range(2)})
        for lengths in ([5, 3], [4]):  # a ragged batch and a single sequence
            vals["x"] = rng.normal(size=(d, max(lengths) * len(lengths)))
            probes = [rng.normal(size=vals["x"].shape)]
            fused = _blocks_run(model, model._block, lengths)
            same, err, grads = _against_graph(fused, _blocks_run(model, partial(_attention_block_oracle, model), lengths), vals, probes)
            exact, worst = exact and same, max(worst, err)
        # along every input at once, on the single sequence
        direction = {key: rng.normal(size=v.shape) for key, v in vals.items()}
        fd_worst = max(fd_worst, _directional_error(fused, vals, probes, grads, direction))
    detail = f"forward bit-identical={exact}, gradients vs per-op graph rel={worst:.2e}, vs finite differences rel={fd_worst:.2e}"
    return exact and worst <= 1e-12 and fd_worst < 1e-6, worst, detail


@register("hope-gradient-integrity")
def check_hope_gradients(out_dir) -> tuple:
    cfg = HopeConfig(vocab=10, dim=8, blocks=1, chunk=2, cms_chunks=(1, 2), cms_hidden=4, mem_hidden=8)
    model = HopeModel(cfg, seed=6)
    batch = [{"tokens": [0, 3, 7, 2, 5, 1], "label": None}]
    tape = Tape()
    grads = tape.backward(model.build_loss(tape, batch))

    rng = np.random.default_rng(7)
    named = model.named_parameters()
    names = sorted(n for n in named if not n.endswith("agg"))
    worst = 0.0
    for _ in range(20):
        name = names[int(rng.integers(0, len(names)))]
        base = named[name]
        flat_idx = int(rng.integers(0, base.size))

        def f(x):
            perturbed = base.reshape(-1).copy()
            perturbed[flat_idx] = x[0]
            model.set_parameter(name, perturbed.reshape(base.shape))
            t2 = Tape()
            val = float(model.build_loss(t2, batch).value)
            model.set_parameter(name, base)
            return val

        fd = float(T.finite_diff_grad(f, base.reshape(-1)[flat_idx : flat_idx + 1], h=1e-6)[0])
        worst = max(worst, _rel(grads[name].reshape(-1)[flat_idx], fd, 1e-8))
    return worst < 1e-4, worst, "full-model gradient vs central differences, 20 parameters"


_BATCH_LENGTHS = (4, 2, 3)


def _batch_loss_and_grads(model: HopeModel, batch: list) -> tuple:
    tape = Tape()
    loss = model.build_loss(tape, batch, with_penalty=True)
    return float(loss.value), tape.backward(loss)


@register("batched-build-loss")
def check_batched_build_loss(out_dir) -> tuple:
    worst = 0.0  # one ragged batch vs the mean of one-sample calls: loss and every gradient
    fd_worst = 0.0  # batched directional derivative vs central differences, relative
    rng = np.random.default_rng(9)
    for core in ("srt", "attention", "linear_attention"):
        cfg = HopeConfig(vocab=5, dim=4, chunk=3, core=core, cms_chunks=(1, 2), cms_hidden=3, mem_hidden=4)
        model = HopeModel(cfg, seed=10)
        model.set_parameter("readout", rng.normal(size=model.params["readout"].shape))
        batch = [{"tokens": [int(t) for t in rng.integers(0, 5, size=n)], "label": None} for n in _BATCH_LENGTHS]
        loss, grads = _batch_loss_and_grads(model, batch)
        singles = [_batch_loss_and_grads(model, [sample]) for sample in batch]
        worst = max(worst, abs(loss - float(np.mean([s[0] for s in singles]))))
        for name, g in grads.items():
            worst = max(worst, float(np.abs(g - np.mean([s[1][name] for s in singles], axis=0)).max()))

        base = {name: value.copy() for name, value in model.named_parameters().items()}
        direction = {name: rng.normal(size=value.shape) for name, value in base.items()}

        def f(s):
            for name, value in base.items():
                model.set_parameter(name, value + s[0] * direction[name])
            out = float(model.build_loss(Tape(), batch, with_penalty=True).value)
            for name, value in base.items():
                model.set_parameter(name, value)
            return out

        fd = float(T.finite_diff_grad(f, np.zeros(1))[0])
        fd_worst = max(fd_worst, _rel(fd, sum(float((grads[name] * direction[name]).sum()) for name in base)))

    # padded columns leave each sample's fast weights bit-identical to its own run
    cfg = SrtConfig(dim=4, chunk=3, hidden=4)
    state = init_srt(cfg, seed=11)
    xs = [rng.normal(size=(4, n)) for n in _BATCH_LENGTHS]
    width = max(_BATCH_LENGTHS)
    x = rng.normal(size=(4, width * len(xs)))  # arbitrary values at the padded columns
    for b, xb in enumerate(xs):
        x[:, b :: len(xs)][:, : xb.shape[1]] = xb
    tape = Tape()
    snapshots = {slot: tuple(tape.constant(w) for w in ws) for slot, ws in state.weights.items()}
    _, final = srt_forward_nodes(tape, cfg, snapshots, tape.constant(state.wq), tape.constant(x), lengths=_BATCH_LENGTHS)
    bit_exact = True
    for b, xb in enumerate(xs):
        _, alone = _srt_values(state, xb)
        for slot in SLOTS:
            for w_batch, w_alone in zip(final[slot], alone[slot]):
                bit_exact = bit_exact and np.array_equal(w_batch.value[b], w_alone)
    passed = worst <= 1e-12 and fd_worst < 1e-6 and bit_exact
    return passed, worst, (
        f"ragged batch vs one-sample calls err={worst:.2e}, vs finite differences rel={fd_worst:.2e}, "
        f"padded fast weights bit-exact={bit_exact}"
    )


# ---------------------------------------------------------------------------
# experiments


@register("contribution-curve")
def check_contribution(out_dir) -> tuple:
    report = bench.run_contribution_report(out_dir)
    ok = report["crossings"] == {0.5: 7, 0.99: 44}
    curve = contribution_curve(0.9, 44)
    err = abs(curve[6] - (1 - 0.9**7)) + abs(curve[43] - (1 - 0.9**44))
    detail = f"computed crossings {report['crossings']} vs stated {report['stated']}"
    return ok and err < 1e-15, err, detail


@register("psi-delta-momentum", slow=True)
def check_psi(out_dir) -> tuple:
    results = bench.run_psi_benchmark(out_dir)
    mom = results["momentum"]["steps_to_threshold"]
    dm = results["delta_momentum"]["steps_to_threshold"]
    ok = mom is not None and dm is not None and dm < mom
    return ok, dm or -1, f"steps to 1e-3: delta={dm}, momentum={mom}"


@register("orthogonal-forgetting", slow=True)
def check_orthogonal(out_dir) -> tuple:
    report = bench.run_orthogonal_benchmark(out_dir)
    wins = report["wins_vs_momentum"]
    ok = all(w >= 9 for w in wins.values())
    return ok, min(wins.values()), f"wins vs momentum over {bench.ORTHO_SEEDS} seeds: {wins}"


LANGUAGE_BUDGET = dict(steps=1500, eval_every=250, batch_size=4, target=0.95)


def _language_check(kind: str, out_dir) -> tuple:
    train_data = generate(TaskSpec(kind, seed=1), 2048)
    eval_data = generate(TaskSpec(kind, seed=99, params={"bin1_fraction": 0.5}), 200)
    cfg = HopeConfig(
        vocab=len(vocabulary(kind)), dim=16, blocks=1, num_classes=2, chunk=1,
        cms_chunks=(1, 4), cms_hidden=8, mem_hidden=16,
    )
    model = HopeModel(cfg, seed=0)
    budget = LANGUAGE_BUDGET
    best0 = 0.0
    bin1_at_best = float("nan")
    done = 0
    while done < budget["steps"]:
        chunk = min(budget["eval_every"], budget["steps"] - done)
        train(model, train_data, steps=chunk, seed=5 + done, batch_size=budget["batch_size"])
        done += chunk
        metrics = evaluate(model, eval_data)
        if metrics["accuracy_bin0"] >= best0:
            best0 = metrics["accuracy_bin0"]
            bin1_at_best = metrics["accuracy_bin1"]
        if best0 >= budget["target"]:
            break
    detail = f"bin0={best0:.3f} (target {budget['target']}), bin1={bin1_at_best:.3f} reported, steps={done}"
    return best0 >= budget["target"], best0, detail


check_parity = register("formal-language-parity", slow=True)(partial(_language_check, "parity"))
check_anbn = register("formal-language-anbn", slow=True)(partial(_language_check, "anbn"))


SMOKE_SETTINGS = {
    "srt": dict(lr=0.01, batch_size=2),
    "attention": dict(lr=0.02, batch_size=2),
    "linear_attention": dict(lr=0.02, batch_size=4),
}


@register("char-lm-smoke", slow=True)
def check_smoke(out_dir) -> tuple:
    data = generate(TaskSpec("char_lm", seed=7, params={"window": 48}), 512)
    vocab = len(vocabulary("char_lm"))
    drops = {}
    for core, setting in SMOKE_SETTINGS.items():
        cfg = HopeConfig(vocab=vocab, dim=24, blocks=1, core=core, chunk=8, cms_chunks=(1, 4), cms_hidden=12, mem_hidden=24)
        model = HopeModel(cfg, seed=1)
        log = train(model, data, steps=500, seed=2, batch_size=setting["batch_size"], opt_hp={"eta": setting["lr"]})
        final = float(np.mean([r["loss"] for r in log[-25:]]))
        drops[core] = 1.0 - final / log[0]["loss"]
    ok = all(d >= 0.30 for d in drops.values())
    detail = ", ".join(f"{k}: {v * 100:.1f}%" for k, v in drops.items())
    return ok, min(drops.values()), f"loss drop within 500 steps ({detail})"


# ---------------------------------------------------------------------------
# harness invariants


@register("checkpoint-roundtrip")
def check_checkpoint(out_dir) -> tuple:
    rng = np.random.default_rng(8)
    tensors = {"a": rng.normal(size=(3, 4)), "b.c": rng.normal(size=7)}
    path = os.path.join(out_dir, "roundtrip.nlck")
    checkpoint.save(path, tensors)
    loaded = checkpoint.load(path)
    checkpoint.save(path + ".2", loaded)
    with open(path, "rb") as f1, open(path + ".2", "rb") as f2:
        identical = f1.read() == f2.read()
    values_ok = all(np.array_equal(tensors[k], loaded[k]) for k in tensors)
    return identical and values_ok, 0.0 if identical else 1.0, f"save-load-save byte-identical={identical}"


@register("config-roundtrip")
def check_config(out_dir) -> tuple:
    resolved = config_mod.resolve({"task": {"kind": "anbn"}, "train": {"steps": 7}})
    path = os.path.join(out_dir, "config.json")
    config_mod.write_json_atomic(path, resolved)
    reloaded = config_mod.load_config(path)
    ok = reloaded == resolved
    return ok, 0.0 if ok else 1.0, "resolved config reloads to an equal object"


@register("runlog-schema")
def check_runlog(out_dir) -> tuple:
    path = os.path.join(out_dir, "log.jsonl")
    records = [{"step": 1, "loss": 1.0}, {"step": 2, "loss": 0.5, "accuracy": 0.7}]
    runlog_mod.write_runlog(path, records)
    loaded = runlog_mod.read_runlog(path)
    ok = [r["step"] for r in loaded] == [1, 2] and all(r["version"] == 1 for r in loaded)
    return ok, 0.0 if ok else 1.0, "JSONL records versioned with increasing steps"
