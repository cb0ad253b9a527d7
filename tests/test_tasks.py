import hashlib
import itertools
import json
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
    prefix_membership,
    psi,
    recognize,
    stream_task_loss,
    token_ids,
    vocabulary,
)
from nllab.tensor import finite_diff_grad


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


def _two_counter(s):
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


# independently written recognizers of non-empty strings: regex for the regular
# languages, counter machines for the rest
INDEPENDENT = {
    "parity": lambda s: s.count("1") % 2 == 1,
    "aa_star": lambda s: re.fullmatch(r"(aa)*", s) is not None and len(s) > 0,
    "abab_star": lambda s: re.fullmatch(r"(abab)*", s) is not None and len(s) > 0,
    "anbn": lambda s: re.fullmatch(r"(a*)(b*)", s) is not None
    and re.fullmatch(r"(a*)(b*)", s).group(1).count("a") == re.fullmatch(r"(a*)(b*)", s).group(2).count("b")
    and len(s) > 0
    and set(s) <= {"a", "b"},
    "anbncn": lambda s: re.fullmatch(r"(a*)(b*)(c*)", s) is not None
    and len(set(len(g) for g in re.fullmatch(r"(a*)(b*)(c*)", s).groups())) == 1,
    "shuffle2": _two_counter,
}

# the empty string's membership, as recognize gave it before the membership scan
EMPTY = {"parity": False, "aa_star": True, "abab_star": True, "anbn": True, "anbncn": True, "shuffle2": True}


def test_labels_agree_with_independent_recognizers():
    rng = np.random.default_rng(0)
    for kind in tasks.LANGUAGE_KINDS:
        alphabet = tasks.ALPHABETS[kind]
        for _ in range(1000):
            length = int(rng.integers(1, 14))
            s = "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=length))
            assert recognize(kind, s) == bool(INDEPENDENT[kind](s)), (kind, s)


def _independent_prefixes(kind, s):
    return [EMPTY[kind]] + [bool(INDEPENDENT[kind](s[:j])) for j in range(1, len(s) + 1)]


def test_prefix_membership_agrees_with_independent_recognizers():
    rng = np.random.default_rng(1)
    for kind in tasks.LANGUAGE_KINDS:
        alphabet = tasks.ALPHABETS[kind]
        letters = alphabet + "x€"  # and two characters outside it, one outside latin-1
        for _ in range(300):
            s = "".join(letters[i] for i in rng.integers(0, len(letters), size=int(rng.integers(0, 15))))
            assert prefix_membership(kind, token_ids(alphabet, s)) == _independent_prefixes(kind, s), (kind, s)
        for sample in generate(TaskSpec(kind, seed=13, params={"bin1_fraction": 0.5}), 40):
            expected = _independent_prefixes(kind, decode(kind, sample["tokens"]))[1:]
            assert sample["prefix_labels"] == [int(m) for m in expected] and sample["label"] == expected[-1], (kind, sample)


# sha256 of every membership bit of recognize on the strings of length 0-6 over
# the kind's alphabet plus "x", in itertools.product order, as computed before the
# membership scan
RECOGNIZE_SHA256 = {
    "parity": "b461ce64b19d95438156bc6e802e1b205b22bf90dac04614fb62245b995d1a60",
    "aa_star": "e541bfe73af0902a35811f9246a3d83c0935296700440d86dc036552809708e6",
    "abab_star": "34be94ea857cf7f2f14db1bd7d3ee859523a945a7208e420adcf8e06c340a6ab",
    "anbn": "f96aaceff2ed68d51c3beac35a8f1ab1762355796becfea6c238ea34d48df8d5",
    "anbncn": "4a655605883fb30f95fb9f4b2ccd4e5062062305897d2cc36c6cb65a5339f811",
    "shuffle2": "20abf9032871b5e54a8cfeab091ca435c2b1afd08aac8fc62ce89da2c20faae3",
}


def test_recognize_is_pinned_on_every_short_string():
    for kind, digest in RECOGNIZE_SHA256.items():
        assert recognize(kind, "") is EMPTY[kind]
        alphabet = tasks.ALPHABETS[kind] + "x"
        words = ("".join(w) for n in range(7) for w in itertools.product(alphabet, repeat=n))
        bits = "".join(str(int(recognize(kind, w))) for w in words)
        assert hashlib.sha256(bits.encode()).hexdigest() == digest, kind


# sha256 of json.dumps(generate(TaskSpec(kind, seed, params), 64)) per (kind,
# bin1_fraction or None, seed), as computed before the membership scan: a change that
# moves one draw, token or label fails here, before it moves perfbench's reference losses
DATASET_SHA256 = {
    ("parity", 0.0, 0): "e8ae31625231e56fab45b13eb9ffb722ed9894a0c60321b890a5f0fff199ace6",
    ("parity", 0.0, 1): "e81dfec21b46b8b57976b5e430a089cd951b8853ac72eca412c6a95a681a38b3",
    ("parity", 0.5, 0): "19f404f259d8261d7b60c61bbe1b40a1fbda947532eb463ee7e83c99f4a07f34",
    ("parity", 0.5, 1): "59db373520e6b650cba92d2886f49394e3b0f515c16543137d7ba828e43bf86a",
    ("aa_star", 0.0, 0): "0c43a7b09a35aa6ca6aef2d5f3f616a2dbff7613f26b8937c5fe58d6addf06e9",
    ("aa_star", 0.0, 1): "12defd924fc9e69aafcf5336476bc9e6312d529bd4d7c9ed27f1d308065807fb",
    ("aa_star", 0.5, 0): "ec7d3d6887f5cccdb2f790dfa15857f7135ae3e53b52c1ad5bded4aa6b510b54",
    ("aa_star", 0.5, 1): "9db2d8eda8fac06e069f8481c5e78169c3bd61cd29dd5c3fc4c212642ad10ba4",
    ("abab_star", 0.0, 0): "8b7cd83ddaf3d58f7c035cec08858e4771dcaa94d6698209aa2fcd7ad063511b",
    ("abab_star", 0.0, 1): "33c4b98728ccaa4383cf7641b5cabcb6bda0ab858f366f9433b933526e2d6fc3",
    ("abab_star", 0.5, 0): "8ad890dfbd91c1c0def1c483ac2b28aa12375c6d08d132075af61bf7726c9168",
    ("abab_star", 0.5, 1): "a30acc70d0ab4057013f013d6fefc7459ed40f6804bced6782ec3e535a4129f5",
    ("anbn", 0.0, 0): "87a4aa2b3858042bdaabad3f3f26611698b8e7f26d27210cd9a9f263a07077cb",
    ("anbn", 0.0, 1): "1d74206d4c9efc7887bfe308d33fd9b553481946d9b25b7dbca9e00bdf3c659f",
    ("anbn", 0.5, 0): "2d9908dd1441ec9d27c8b405fb0de50931a698ccb87c5a79e9af3aa17f4aefbf",
    ("anbn", 0.5, 1): "810b60173e0382b4a18570cebc857bf0d5bf9181369cde573fa33fa740f94d8e",
    ("anbncn", 0.0, 0): "de6de46a77280ebe8093f34207460ac3623cfee37e5ee90bf1a2f28cb34f0ed4",
    ("anbncn", 0.0, 1): "f8778c7fe3ce0857395902b7ac1eae1d48e905810db83c1c3097ebb03f4623da",
    ("anbncn", 0.5, 0): "27473aa452009e76b0aa753410292fe594ae3f20e5fe71d0d44e7a7e03dbfa23",
    ("anbncn", 0.5, 1): "019b91e13ccd7c3c24fbcd15b7e8a1cd3e38942bb4dff6de384852877367e0d1",
    ("shuffle2", 0.0, 0): "a22125f630bfe8121d875e33776196d8646588df42a1b76b790ad01e427d1583",
    ("shuffle2", 0.0, 1): "964616dd666f05c24347b76213371962b786d5673f639af9845f0af2d485c99f",
    ("shuffle2", 0.5, 0): "0ecb56ee9533ab9e826e523e9e271ed646d7cf20000d94cc9306df66f474bcf8",
    ("shuffle2", 0.5, 1): "72bb34cda5b6b618360d4ae76b6592811107c82fbf2b0854964c41a538986ffc",
    ("copy_recall", None, 0): "4b54873274d9c4bf26d4bd47e48bc8b2bf65b0e6e830e640058bc20ef785d703",
    ("copy_recall", None, 1): "fc5f595c90fcc23c17f9673a892e5d03e71240adfa1d04712ca038b55d7f3e3d",
    ("niah_toy", None, 0): "61d2a09d23a5ab4a279c11e26879f2b71ed8214070fcd6efbecde8a6a6ee4deb",
    ("niah_toy", None, 1): "7fa3201baf4cab3c9850115675879b292e1e970f6221c124728fccbba7626669",
    ("char_lm", None, 0): "4769e1a53d6a6bc89910efc0c818d8ff712365e4889282335bbac13ceb85b39a",
    ("char_lm", None, 1): "949286006076f778bcd04ba173921a42c06e79b342bb38dab3531b37ee5282cb",
}


@pytest.mark.parametrize("kind", tasks.LANGUAGE_KINDS + ("copy_recall", "niah_toy", "char_lm"))
def test_datasets_are_pinned(kind):
    for (name, fraction, seed), digest in DATASET_SHA256.items():
        if name == kind:
            spec = TaskSpec(kind, seed=seed, params={} if fraction is None else {"bin1_fraction": fraction})
            assert hashlib.sha256(json.dumps(generate(spec, 64)).encode()).hexdigest() == digest, (kind, fraction, seed)


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
        fd = finite_diff_grad(lambda t: psi(t[0], t[1])[0], np.array([r, th]), h=1e-6)
        denom = max(np.abs(g).max(), 1.0)
        assert np.abs(fd - g).max() / denom < 1e-6


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
