"""Synthetic data generators and evaluators for the desk-scale experiments.

Token tasks emit samples of the form {"tokens": [...], "label": int, "bin": 0|1}
with deterministic balanced sampling per seed.  Length bins: bin 0 covers the
training range, bin 1 strictly longer extrapolation lengths.  Membership labels
come from one left-to-right automaton per language (`prefix_membership`); the
test suite holds them against independently written recognizers.
"""

from __future__ import annotations

import functools
import importlib.resources
import itertools
import math
import operator
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
        return list(_char_lm_vocabulary())
    raise ValueError(f"{kind!r} has no token vocabulary")


# ---------------------------------------------------------------------------
# membership: one left-to-right automaton (start, step, accept) per language,
# over token ids; id len(alphabet) stands for a character outside the alphabet


def _periodic(word: tuple):
    """(word)*: the count of ids read while they repeat word; -1 once they stray."""
    return 0, lambda q, i: q + 1 if q >= 0 and i == word[q % len(word)] else -1, lambda q: int(q >= 0 and q % len(word) == 0)


def _runs(letters: int):
    """a^n b^n ...: each letter's count while the letters come in order; None once they do not."""

    def step(q, i):
        return None if q is None or i >= letters or any(q[i + 1 :]) else q[:i] + (q[i] + 1,) + q[i + 1 :]

    return (0,) * letters, step, lambda q: int(q is not None and len(set(q)) == 1)


def _depths(q, i):
    """shuffle2's two bracket depths, moved by the ids of ( ) [ ]; None once one goes below 0."""
    q = None if q is None or i > 3 else (q[0] + (1, -1, 0, 0)[i], q[1] + (0, 0, 1, -1)[i])
    return None if q is None or min(q) < 0 else q


_AUTOMATA = {
    # bit 0 of the ids' xor counts the ones mod 2; the outside id, 2, leaves it alone
    "parity": (0, operator.xor, (1).__and__),
    "aa_star": _periodic((0, 0)),  # "aa" over "ab"
    "abab_star": _periodic((0, 1, 0, 1)),  # "abab" over "ab"
    "anbn": _runs(2),
    "anbncn": _runs(3),
    "shuffle2": ((0, 0), _depths, lambda q: int(q == (0, 0))),
}


def prefix_membership(kind: str, ids: Sequence[int]) -> list[int]:
    """Membership (1 or 0) of every prefix of token ids, the empty prefix first; for parity, 1 means odd."""
    if kind not in _AUTOMATA:
        raise ValueError(f"no recognizer for kind {kind!r}")
    start, step, accept = _AUTOMATA[kind]
    return list(map(accept, itertools.accumulate(ids, step, initial=start)))


def recognize(kind: str, s: str) -> bool:
    """Membership of a string: the last entry of its kind's membership scan, `prefix_membership`."""
    return bool(prefix_membership(kind, token_ids(ALPHABETS.get(kind, ""), s))[-1])


@functools.cache
def _id_table(vocab: str) -> bytes:
    return bytes(vocab.index(chr(b)) if chr(b) in vocab else len(vocab) for b in range(256))


def token_ids(vocab: str, text: str) -> bytes:
    """Token ids of `text` over a latin-1 `vocab`, one byte each; any other character gets id len(vocab)."""
    return text.encode("latin-1", "replace").translate(_id_table(vocab))


# ---------------------------------------------------------------------------
# language sample construction


def _length_in(rng, lo, hi, multiple=1, minimum=None):
    lo = max(lo, minimum or lo)
    choices = range(-(-lo // multiple) * multiple, hi + 1, multiple)
    if not choices:
        raise ValueError(f"no lengths in [{lo},{hi}] divisible by {multiple}")
    return choices[int(rng.integers(0, len(choices)))]


def _parity(rng, lo: int, hi: int, odd: bool) -> str:
    length = _length_in(rng, lo, hi)
    bits = rng.integers(0, 2, size=length).tolist()
    if sum(bits) % 2 != odd:  # force an odd or even number of ones
        bits[int(rng.integers(0, length))] ^= 1
    return bytes(bits).hex()[1::2]  # each bit as "00" or "01"


def _positive(kind: str, rng, lo: int, hi: int) -> str:
    if kind == "parity":
        return _parity(rng, lo, hi, True)
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
        out, at = [], [0, 0]
        for _ in range(length):
            side = 0 if at[1] >= len(parts[1]) or (at[0] < len(parts[0]) and rng.random() < 0.5) else 1
            out.append(parts[side][at[side]])
            at[side] += 1
        return "".join(out)
    raise ValueError(kind)


def _dyck(rng, length: int, brackets: str = "()") -> str:
    """Balanced single-type bracket string of the given even length."""
    opens = closes = length // 2  # left to place; the depth is closes - opens
    out = []
    while closes:
        if opens and (opens == closes or rng.random() < opens / (opens + closes)):
            out.append(brackets[0])
            opens -= 1
        else:
            out.append(brackets[1])
            closes -= 1
    return "".join(out)


def _negative(kind: str, rng, lo: int, hi: int) -> str:
    if kind == "parity":
        return _parity(rng, lo, hi, False)
    alphabet = ALPHABETS[kind]
    for _ in range(200):
        if kind == "aa_star":
            s = "a" * _length_in(rng, lo, hi)
        elif rng.random() < 0.5:  # corrupt a positive at one coordinate
            base = list(_positive(kind, rng, lo, hi))
            pos = int(rng.integers(0, len(base)))
            base[pos] = alphabet[int(rng.integers(0, len(alphabet)))]
            s = "".join(base)
        else:
            s = "".join(map(alphabet.__getitem__, rng.integers(0, len(alphabet), size=_length_in(rng, lo, hi)).tolist()))
        if not recognize(kind, s):
            return s
    raise ValueError(f"could not sample a negative {kind} string with length in [{lo}, {hi}]")


def _int_param(spec: TaskSpec, key: str, default: int, low: int, high: float) -> int:
    value = spec.params.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value <= high:
        raise ValueError(f"params.{key} must be an integer in [{low}, {high}], got {value!r}")
    return value


def generate(spec: TaskSpec, count: int) -> list[dict]:
    """Deterministic dataset of `count` samples; balanced labels for languages, whose
    label and prefix_labels (the dense training signal) come from one membership scan."""
    if count < 1:
        raise ValueError(f"need at least one sample, got {count}")
    rng = np.random.default_rng(spec.seed)
    samples = []
    if spec.kind in LANGUAGE_KINDS:
        alphabet, bin1_fraction = ALPHABETS[spec.kind], spec.params.get("bin1_fraction", 0.0)
        for i in range(count):
            bin_id = int(rng.random() < bin1_fraction)
            s = (_negative if i % 2 else _positive)(spec.kind, rng, *(spec.bin1 if bin_id else spec.bin0))
            tokens = list(token_ids(alphabet, s))
            labels = prefix_membership(spec.kind, tokens)
            samples.append({"tokens": tokens, "label": labels[-1], "prefix_labels": labels[1:], "bin": bin_id})
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
            tokens = rng.integers(0, 8, size=length).tolist()
            key = 8 + int(rng.integers(0, 4))
            value = 12 + int(rng.integers(0, 4))
            pos = int(rng.integers(0, length - 1))
            tokens[pos : pos + 2] = [key, value]
            tokens += [16, key]
            samples.append({"tokens": tokens, "label": value, "bin": 0})
        return samples
    if spec.kind == "char_lm":
        ids = np.frombuffer(token_ids(_char_lm_vocabulary(), load_corpus()), dtype=np.uint8)
        window = _int_param(spec, "window", 64, 1, len(ids) - 2)
        for _ in range(count):
            at = int(rng.integers(0, len(ids) - window - 1))
            samples.append({"tokens": ids[at : at + window + 1].tolist(), "label": None, "bin": 0})
        return samples
    raise ValueError(f"{spec.kind!r} is not a token-dataset task; use its dedicated stream constructor")


# ---------------------------------------------------------------------------
# toy objective and continual stream


def psi(r: float, theta: float):
    """Time-varying-curvature toy objective; returns (value, gradient).

    psi(r, t) = r^2 + k*(r - t + alpha*sin(omega*r))^2, with k = 5, alpha = 0.8, omega = 6
    """
    k, alpha, omega = 5.0, 0.8, 6.0
    inner = r - theta + alpha * np.sin(omega * r)
    value = r * r + k * inner * inner
    dr = 2.0 * r + 2.0 * k * inner * (1.0 + alpha * omega * np.cos(omega * r))
    dtheta = -2.0 * k * inner
    return float(value), np.array([dr, dtheta])


def orthogonal_task_stream(n_tasks: int, d: int, samples_per_task: int, seed: int = 0) -> tuple:
    """Regression tasks whose gradients live along mutually orthogonal directions.

    Task i draws x in span(u_i) with target y = b_i * <u_i, x>, so the gradient
    of (w^T x - y)^2 always lies along u_i.  Returns one tuple of (x, y)
    samples per task.
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
    return tuple(tasks)


def stream_task_loss(stream: tuple, task: int, w: np.ndarray) -> float:
    xs = np.stack([x for x, _ in stream[task]])
    ys = np.array([y for _, y in stream[task]])
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


@functools.cache
def load_corpus() -> str:
    return importlib.resources.files("nllab").joinpath("data/corpus.txt").read_text(encoding="utf-8")


@functools.cache
def _char_lm_vocabulary() -> str:
    return "".join(sorted(set(load_corpus())))
