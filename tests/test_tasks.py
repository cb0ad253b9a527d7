import re

import numpy as np
import pytest

from nllab import tasks
from nllab.tasks import (
    TaskSpec,
    evaluate,
    forgetting_metric,
    generate,
    orthogonal_task_stream,
    psi,
    recognize,
    stream_task_loss,
    vocabulary,
)
from nllab.tensor import Tensor, finite_diff_grad


def decode(kind, tokens):
    vocab = vocabulary(kind)
    return "".join(vocab[t] for t in tokens)


def test_parity_definition():
    assert recognize("parity", "1101") is True
    assert recognize("parity", "1100") is False


def test_anbn_examples():
    assert recognize("anbn", "aabb") is True
    assert recognize("anbn", "aab") is False


def test_generators_are_deterministic_and_balanced():
    for kind in tasks.LANGUAGE_KINDS:
        spec = TaskSpec(kind, seed=5)
        a = generate(spec, 40)
        b = generate(spec, 40)
        assert a == b
        labels = [s["label"] for s in a]
        assert sum(labels) == 20
        for s in a:
            lo, hi = spec.bin0
            assert lo <= len(s["tokens"]) <= hi


def test_labels_agree_with_independent_recognizers():
    # independently written recognizers: regex for the regular languages,
    # counter machines for the rest
    independent = {
        "parity": lambda s: s.count("1") % 2 == 1,
        "aa_star": lambda s: re.fullmatch(r"(aa)*", s) is not None and len(s) > 0,
        "abab_star": lambda s: re.fullmatch(r"(abab)*", s) is not None and len(s) > 0,
        "anbn": lambda s: re.fullmatch(r"(a*)(b*)", s) is not None
        and re.fullmatch(r"(a*)(b*)", s).group(1).count("a") == re.fullmatch(r"(a*)(b*)", s).group(2).count("b")
        and len(s) > 0
        and set(s) <= {"a", "b"},
        "anbncn": lambda s: re.fullmatch(r"(a*)(b*)(c*)", s) is not None
        and len(set(len(g) for g in re.fullmatch(r"(a*)(b*)(c*)", s).groups())) == 1,
        "shuffle2": None,  # handled below with an explicit two-counter automaton
    }

    def two_counter(s):
        counts = {"(": 0, "[": 0}
        for ch in s:
            if ch == "(":
                counts["("] += 1
            elif ch == ")":
                counts["("] -= 1
            elif ch == "[":
                counts["["] += 1
            elif ch == "]":
                counts["["] -= 1
            else:
                return False
            if counts["("] < 0 or counts["["] < 0:
                return False
        return counts["("] == 0 and counts["["] == 0

    independent["shuffle2"] = two_counter

    rng = np.random.default_rng(0)
    for kind in tasks.LANGUAGE_KINDS:
        alphabet = tasks.ALPHABETS[kind]
        for _ in range(1000):
            length = int(rng.integers(1, 14))
            s = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=length))
            assert recognize(kind, s) == bool(independent[kind](s)), (kind, s)


def test_generated_samples_match_recognizer_label():
    for kind in tasks.LANGUAGE_KINDS:
        for s in generate(TaskSpec(kind, seed=9), 60):
            assert s["label"] == int(recognize(kind, decode(kind, s["tokens"])))


def test_bin1_samples_longer_than_bin0():
    spec = TaskSpec("parity", seed=3, params={"bin1_fraction": 0.5})
    data = generate(spec, 100)
    assert {s["bin"] for s in data} == {0, 1}
    for s in data:
        if s["bin"] == 1:
            assert len(s["tokens"]) >= spec.bin1[0]


def test_copy_recall_and_niah_probe_correct():
    data = generate(TaskSpec("copy_recall", seed=1), 30)
    for s in data:
        tokens = s["tokens"]
        q = tokens[-1]
        pairs = {tokens[i]: tokens[i + 1] for i in range(0, len(tokens) - 2, 2)}
        assert pairs[q] == s["label"]

    data = generate(TaskSpec("niah_toy", seed=2), 30)
    for s in data:
        tokens = s["tokens"]
        key = tokens[-1]
        pos = tokens.index(key)
        assert tokens[pos + 1] == s["label"]


def test_psi_trivial_points_and_finite_diff():
    v, g = psi(0.0, 0.0)
    assert v == 0.0 and np.array_equal(g, np.zeros(2))
    # where the penalty vanishes, theta = r + alpha*sin(omega*r): d/dtheta = 0
    _, g = psi(1.3, 1.3 + 0.8 * np.sin(6.0 * 1.3))
    assert abs(g[1]) < 1e-12

    rng = np.random.default_rng(4)
    for _ in range(100):
        r, th = rng.normal(size=2) * 3
        _, g = psi(r, th)
        fd = finite_diff_grad(lambda t: psi(t.data[0], t.data[1])[0], Tensor([r, th]), h=1e-6)
        denom = max(np.abs(g).max(), 1.0)
        assert np.abs(fd.data - g).max() / denom < 1e-6


def direction(task):
    """The task's unit direction, up to sign: every sample is x = s·u."""
    x = task[0][0]
    return x / np.linalg.norm(x)


def test_orthogonal_stream_construction():
    stream = orthogonal_task_stream(2, 2, 16, seed=7)
    u1, u2 = (direction(task) for task in stream)
    assert abs(u1 @ u2) < 1e-12
    for task, u in zip(stream, (u1, u2)):
        for x, _ in task:  # every sample lies in span(u)
            assert np.abs(x - (x @ u) * u).max() < 1e-12

    # task-1 gradients have no component along u2
    rng = np.random.default_rng(8)
    stream = orthogonal_task_stream(2, 6, 32, seed=9)
    w = rng.normal(size=6)
    xs = np.stack([x for x, _ in stream[0]])
    ys = np.array([y for _, y in stream[0]])
    grad = 2 * ((xs @ w - ys)[:, None] * xs).mean(axis=0)
    assert abs(grad @ direction(stream[1])) < 1e-10

    again = orthogonal_task_stream(2, 6, 32, seed=9)
    for task, same in zip(stream, again):
        assert np.array_equal(np.stack([x for x, _ in task]), np.stack([x for x, _ in same]))
        assert [y for _, y in task] == [y for _, y in same]

    with pytest.raises(ValueError):
        orthogonal_task_stream(5, 3, 4)


def test_stream_task_loss_minimized_at_target():
    stream = orthogonal_task_stream(2, 4, 64, seed=10)
    x, y = stream[0][0]
    w_star = y * x / (x @ x)
    assert stream_task_loss(stream, 0, w_star) < 1e-20


class RecognizerDouble:
    """Ground truth: predicts membership straight from the recognizer, 0-1 loss."""

    def __init__(self, kind: str):
        self.kind = kind

    def score(self, tokens, label):
        pred = int(recognize(self.kind, decode(self.kind, tokens)))
        return pred, float(pred != label)


class ConstantDouble:
    """Predicts one label for every sample, 0-1 loss."""

    def __init__(self, label: int):
        self.label = label

    def score(self, tokens, label):
        return self.label, float(self.label != label)


def test_evaluate_with_recognizer_and_constant_models():
    spec = TaskSpec("anbn", seed=11, params={"bin1_fraction": 0.3})
    data = generate(spec, 60)
    perfect = evaluate(RecognizerDouble("anbn"), data)
    assert perfect["accuracy"] == 1.0
    assert perfect["accuracy_bin0"] == 1.0 and perfect["accuracy_bin1"] == 1.0
    # labels alternate positive/negative, so a constant predictor sits at exactly one half
    constant = evaluate(ConstantDouble(1), data)
    assert constant["accuracy"] == 0.5
    # the loss is the mean of the scored losses, here 1 - accuracy
    assert set(perfect) == set(constant) == {"accuracy", "accuracy_bin0", "accuracy_bin1", "loss"}
    assert perfect["loss"] == 0.0 and constant["loss"] == 0.5
    hits1 = [s["label"] == 1 for s in data if s["bin"] == 1]
    assert constant["accuracy_bin1"] == np.mean(hits1)


def test_forgetting_metric_zero_for_untouched_model():
    assert forgetting_metric([1.0, 2.0], [1.0, 2.0]) == 0.0
    assert forgetting_metric([1.0], [0.5]) == 0.0  # improvement clips to zero
    assert forgetting_metric([1.0], [1.5]) == 0.5
    with pytest.raises(ValueError):
        forgetting_metric([1.0], [1.0, 2.0])


def test_char_lm_windows_and_corpus():
    corpus = tasks.load_corpus()
    assert len(corpus) >= 150_000
    vocab = vocabulary("char_lm")
    assert len(vocab) <= 64
    spec = TaskSpec("char_lm", seed=12, params={"window": 32})
    data = generate(spec, 10)
    for s in data:
        assert len(s["tokens"]) == 33
        assert all(0 <= t < len(vocab) for t in s["tokens"])
    assert generate(spec, 10) == data


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        TaskSpec("parity", bin0=(2, 40), bin1=(30, 80))
    with pytest.raises(ValueError):
        TaskSpec("mystery")
    with pytest.raises(ValueError):
        generate(TaskSpec("parity"), 0)
    with pytest.raises(ValueError):
        generate(TaskSpec("toy_psi"), 5)
    with pytest.raises(ValueError):
        evaluate(ConstantDouble(0), [])
