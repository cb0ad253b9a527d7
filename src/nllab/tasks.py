"""Synthetic data generators and evaluators for the desk-scale experiments.

Token tasks emit samples of the form {"tokens": [...], "label": int, "bin": 0|1}
with deterministic balanced sampling per seed.  Length bins: bin 0 covers the
training range, bin 1 strictly longer extrapolation lengths.  Membership labels
are defined by the reference recognizers in this module; the test suite holds
them against independently written recognizers.
"""

from __future__ import annotations

import importlib.resources
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

LANGUAGE_KINDS = ("parity", "aa_star", "abab_star", "anbn", "anbncn", "shuffle2")
RECALL_KINDS = ("copy_recall", "niah_toy")
KINDS = LANGUAGE_KINDS + RECALL_KINDS + ("orthogonal_continual", "toy_psi", "char_lm")

ALPHABETS = {
    "parity": "01",
    "aa_star": "ab",
    "abab_star": "ab",
    "anbn": "ab",
    "anbncn": "abc",
    "shuffle2": "()[]",
}


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    seed: int = 0
    bin0: tuple = (2, 40)
    bin1: tuple = (41, 80)
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown task kind {self.kind!r}; expected one of {KINDS}")
        if self.bin1[0] <= self.bin0[1]:
            raise ValueError(f"bin1 must start beyond bin0, got {self.bin0} / {self.bin1}")


def vocabulary(kind: str) -> list[str]:
    """Token inventory for a task; index in the list is the token id."""
    if kind in ALPHABETS:
        return list(ALPHABETS[kind])
    if kind == "copy_recall":
        return [f"k{i}" for i in range(8)] + [f"v{i}" for i in range(8)] + ["?"]
    if kind == "niah_toy":
        return [f"f{i}" for i in range(8)] + [f"k{i}" for i in range(4)] + [f"v{i}" for i in range(4)] + ["?"]
    if kind == "char_lm":
        return sorted(set(load_corpus()))
    raise ValueError(f"{kind!r} has no token vocabulary")


# ---------------------------------------------------------------------------
# reference recognizers


def recognize(kind: str, s: str) -> bool:
    """Membership of a string; for parity, True means an odd number of ones."""
    if kind == "parity":
        return s.count("1") % 2 == 1
    if kind == "aa_star":
        return set(s) <= {"a"} and len(s) % 2 == 0
    if kind == "abab_star":
        return len(s) % 4 == 0 and s == "abab" * (len(s) // 4)
    if kind == "anbn":
        n = len(s) // 2
        return len(s) % 2 == 0 and s == "a" * n + "b" * n
    if kind == "anbncn":
        n = len(s) // 3
        return len(s) % 3 == 0 and s == "a" * n + "b" * n + "c" * n
    if kind == "shuffle2":
        c1 = c2 = 0
        for ch in s:
            if ch == "(":
                c1 += 1
            elif ch == ")":
                c1 -= 1
            elif ch == "[":
                c2 += 1
            elif ch == "]":
                c2 -= 1
            else:
                return False
            if c1 < 0 or c2 < 0:
                return False
        return c1 == 0 and c2 == 0
    raise ValueError(f"no recognizer for kind {kind!r}")


# ---------------------------------------------------------------------------
# language sample construction


def _length_in(rng, lo, hi, multiple=1, minimum=None):
    lo = max(lo, minimum or lo)
    choices = [n for n in range(lo, hi + 1) if n % multiple == 0]
    if not choices:
        raise ValueError(f"no lengths in [{lo},{hi}] divisible by {multiple}")
    return int(rng.choice(choices))


def _positive(kind: str, rng, lo: int, hi: int) -> str:
    if kind == "parity":
        length = _length_in(rng, lo, hi)
        bits = rng.integers(0, 2, size=length)
        if bits.sum() % 2 == 0:  # force odd number of ones
            bits[int(rng.integers(0, length))] ^= 1
        return "".join("01"[b] for b in bits)
    if kind == "aa_star":
        return "a" * _length_in(rng, lo, hi, multiple=2, minimum=2)
    if kind == "abab_star":
        return "abab" * (_length_in(rng, lo, hi, multiple=4, minimum=4) // 4)
    if kind == "anbn":
        n = _length_in(rng, lo, hi, multiple=2, minimum=2) // 2
        return "a" * n + "b" * n
    if kind == "anbncn":
        n = _length_in(rng, lo, hi, multiple=3, minimum=3) // 3
        return "a" * n + "b" * n + "c" * n
    if kind == "shuffle2":
        length = _length_in(rng, lo, hi, multiple=2, minimum=2)
        n1 = 2 * int(rng.integers(0, length // 2 + 1))
        parts = [_dyck(rng, n1), _dyck(rng, length - n1, brackets="[]")]
        out = []
        i = j = 0
        for _ in range(length):
            take_first = j >= len(parts[1]) or (i < len(parts[0]) and rng.random() < 0.5)
            if take_first:
                out.append(parts[0][i])
                i += 1
            else:
                out.append(parts[1][j])
                j += 1
        return "".join(out)
    raise ValueError(kind)


def _dyck(rng, length: int, brackets: str = "()") -> str:
    """Balanced single-type bracket string of the given even length."""
    opens = length // 2
    closes = length // 2
    out = []
    depth = 0
    while opens or closes:
        if opens and (depth == 0 or rng.random() < opens / (opens + closes)):
            out.append(brackets[0])
            opens -= 1
            depth += 1
        else:
            out.append(brackets[1])
            closes -= 1
            depth -= 1
    return "".join(out)


def _negative(kind: str, rng, lo: int, hi: int) -> str:
    if kind == "parity":
        length = _length_in(rng, lo, hi)
        bits = rng.integers(0, 2, size=length)
        if bits.sum() % 2 == 1:  # force even number of ones
            bits[int(rng.integers(0, length))] ^= 1
        return "".join("01"[b] for b in bits)
    alphabet = ALPHABETS[kind]
    for _ in range(200):
        if kind == "aa_star":
            s = "a" * _length_in(rng, lo, hi)
        elif rng.random() < 0.5:
            # corrupt a positive at one coordinate
            base = list(_positive(kind, rng, lo, hi))
            pos = int(rng.integers(0, len(base)))
            base[pos] = alphabet[int(rng.integers(0, len(alphabet)))]
            s = "".join(base)
        else:
            length = _length_in(rng, lo, hi)
            s = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=length))
        if not recognize(kind, s):
            return s
    raise RuntimeError(f"could not sample a negative string for {kind}")


def _encode(kind: str, s: str) -> list[int]:
    vocab = {ch: i for i, ch in enumerate(vocabulary(kind))}
    return [vocab[ch] for ch in s]


def _int_param(spec: TaskSpec, key: str, default: int, low: int, high: float) -> int:
    value = spec.params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ValueError(f"params.{key} must be an integer in [{low}, {high}], got {value!r}")
    return value


def generate(spec: TaskSpec, count: int) -> list[dict]:
    """Deterministic dataset of `count` samples; balanced labels for languages."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    rng = np.random.default_rng(spec.seed)
    samples = []
    if spec.kind in LANGUAGE_KINDS:
        for i in range(count):
            bin_id = int(rng.random() < spec.params.get("bin1_fraction", 0.0))
            lo, hi = spec.bin1 if bin_id else spec.bin0
            positive = i % 2 == 0
            s = _positive(spec.kind, rng, lo, hi) if positive else _negative(spec.kind, rng, lo, hi)
            samples.append(
                {
                    "tokens": _encode(spec.kind, s),
                    "label": int(recognize(spec.kind, s)),
                    # per-prefix membership: dense training signal whose last
                    # entry is the sequence label
                    "prefix_labels": [int(recognize(spec.kind, s[: j + 1])) for j in range(len(s))],
                    "bin": bin_id,
                }
            )
        return samples
    if spec.kind == "copy_recall":
        n_pairs = _int_param(spec, "pairs", 4, 1, 8)
        for _ in range(count):
            keys = rng.permutation(8)[:n_pairs]
            values = rng.integers(0, 8, size=n_pairs)
            tokens = []
            for k, v in zip(keys, values):
                tokens += [int(k), 8 + int(v)]
            probe = int(rng.integers(0, n_pairs))
            tokens += [16, int(keys[probe])]
            samples.append({"tokens": tokens, "label": 8 + int(values[probe]), "bin": 0})
        return samples
    if spec.kind == "niah_toy":
        length = _int_param(spec, "length", 24, 2, math.inf)
        for _ in range(count):
            tokens = list(rng.integers(0, 8, size=length))
            key = 8 + int(rng.integers(0, 4))
            value = 12 + int(rng.integers(0, 4))
            pos = int(rng.integers(0, length - 1))
            tokens[pos : pos + 2] = [key, value]
            tokens += [16, key]
            samples.append({"tokens": [int(t) for t in tokens], "label": value, "bin": 0})
        return samples
    if spec.kind == "char_lm":
        corpus = load_corpus()
        vocab = {ch: i for i, ch in enumerate(vocabulary("char_lm"))}
        ids = np.array([vocab[ch] for ch in corpus], dtype=np.int64)
        window = _int_param(spec, "window", 64, 1, len(ids) - 2)
        for _ in range(count):
            at = int(rng.integers(0, len(ids) - window - 1))
            samples.append({"tokens": [int(t) for t in ids[at : at + window + 1]], "label": None, "bin": 0})
        return samples
    raise ValueError(f"{spec.kind!r} is not a token-dataset task; use its dedicated stream constructor")


# ---------------------------------------------------------------------------
# toy objective and continual stream


def psi(r: float, theta: float, k: float = 5.0, alpha: float = 0.8, omega: float = 6.0):
    """Time-varying-curvature toy objective; returns (value, gradient).

    psi(r, t) = r^2 + k*(r - t + alpha*sin(omega*r))^2
    """
    inner = r - theta + alpha * np.sin(omega * r)
    value = r * r + k * inner * inner
    dr = 2.0 * r + 2.0 * k * inner * (1.0 + alpha * omega * np.cos(omega * r))
    dtheta = -2.0 * k * inner
    return float(value), np.array([dr, dtheta])


@dataclass(frozen=True)
class OrthogonalStream:
    directions: np.ndarray  # (n_tasks, d) orthonormal rows
    coefficients: np.ndarray  # per-task target slope along its direction
    tasks: tuple  # tuple of sample tuples [(x, y), ...] per task


def orthogonal_task_stream(n_tasks: int, d: int, samples_per_task: int, seed: int = 0) -> OrthogonalStream:
    """Regression tasks whose gradients live along mutually orthogonal directions.

    Task i draws x in span(u_i) with target y = b_i * <u_i, x>, so the gradient
    of (w^T x - y)^2 always lies along u_i.
    """
    if n_tasks > d:
        raise ValueError(f"cannot fit {n_tasks} orthogonal directions in dimension {d}")
    rng = np.random.default_rng(seed)
    raw = rng.normal(size=(n_tasks, d))
    us = np.linalg.qr(raw.T)[0].T[:n_tasks]  # orthonormal rows
    coeffs = rng.normal(size=n_tasks) * 2.0
    tasks = []
    for i in range(n_tasks):
        scales = rng.normal(size=samples_per_task) + np.sign(rng.normal(size=samples_per_task))
        samples = tuple((scales[j] * us[i], coeffs[i] * scales[j]) for j in range(samples_per_task))
        tasks.append(samples)
    return OrthogonalStream(us, coeffs, tuple(tasks))


def stream_task_loss(stream: OrthogonalStream, task: int, w: np.ndarray) -> float:
    xs = np.stack([x for x, _ in stream.tasks[task]])
    ys = np.array([y for _, y in stream.tasks[task]])
    w = np.asarray(w).reshape(-1)
    return float(((xs @ w - ys) ** 2).mean())


def forgetting_metric(losses_before: Sequence[float], losses_after: Sequence[float]) -> float:
    """Mean increase of earlier-task loss after later training, clipped at zero."""
    if len(losses_before) != len(losses_after):
        raise ValueError("before/after loss lists differ in length")
    if not losses_before:
        return 0.0
    return float(np.mean([max(0.0, a - b) for b, a in zip(losses_before, losses_after)]))


# ---------------------------------------------------------------------------
# evaluation


def evaluate(model, dataset: Sequence[dict]) -> dict:
    """Accuracy per length bin plus mean loss, one `model.score(tokens, label)
    -> (label, loss)` call (one forward) per sample."""
    if not dataset:
        raise ValueError("empty dataset")
    hits = {0: [], 1: []}
    losses = []
    for sample in dataset:
        pred, loss = model.score(sample["tokens"], sample["label"])
        losses.append(loss)
        hits[sample["bin"]].append(float(pred == sample["label"]))
    return {
        "accuracy": float(np.mean(hits[0] + hits[1])),
        "accuracy_bin0": float(np.mean(hits[0])) if hits[0] else float("nan"),
        "accuracy_bin1": float(np.mean(hits[1])) if hits[1] else float("nan"),
        "loss": float(np.mean(losses)),
    }


_CORPUS_CACHE = None


def load_corpus() -> str:
    global _CORPUS_CACHE
    if _CORPUS_CACHE is None:
        _CORPUS_CACHE = importlib.resources.files("nllab").joinpath("data/corpus.txt").read_text(encoding="utf-8")
    return _CORPUS_CACHE
