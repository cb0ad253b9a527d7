import gc
import math
import re
import weakref

import numpy as np
import pytest

from nllab import tasks
from nllab import tensor as T
from nllab.hope import DivergenceError, HopeConfig, HopeModel, train
from nllab.srt import SLOTS
from nllab.tensor import Tape, finite_diff_grad
from test_tensor import assert_records_bit_identically


def hidden_states(model, tokens):
    """Hidden states of one sequence, from the forward `predict` and `score` run."""
    return model._forward(tokens)[2].value


def block_forward(model, x, block=0):
    """One block applied to explicit (d,L) token representations; pure read."""
    tape = Tape()
    nodes = model._register(tape)
    return model._block(tape, nodes, block, tape.constant(x), [x.shape[1]]).value


def tiny_lm_config(**kw):
    base = dict(vocab=12, dim=8, blocks=1, chunk=4, cms_chunks=(1, 4), cms_hidden=4)
    base.update(kw)
    return HopeConfig(**base)


def test_uniform_logits_loss_is_log_vocab():
    # zero-initialized readout gives exactly uniform logits
    model = HopeModel(tiny_lm_config(), seed=0)
    tokens = [1, 2, 3, 4, 5]
    assert abs(model.loss(tokens) - math.log(12)) < 1e-12


def test_model_loss_rejects_bad_tokens_and_short_sequences():
    model = HopeModel(tiny_lm_config(), seed=0)
    with pytest.raises(ValueError):
        model.loss([0, 99])
    with pytest.raises(ValueError):
        model.loss([3])


def test_non_integer_token_ids_and_labels_raise_naming_them():
    model = HopeModel(HopeConfig(vocab=3, dim=8, num_classes=2, chunk=1, cms_chunks=(1,), cms_hidden=4), seed=0)
    for call in (model.score, model.loss):
        with pytest.raises(ValueError, match="a classifier's loss needs a label"):
            call([1, 2])
    with pytest.raises(ValueError, match=r"token id 1\.5 is not an integer"):
        model.score([1.5, 2], 1)
    with pytest.raises(ValueError, match=r"target 1\.5 is not an integer"):
        model.score([1, 2], 1.5)
    with pytest.raises(ValueError, match=r"target 0\.5 is not an integer"):
        model.build_loss(Tape(), [{"tokens": [1, 2], "label": 0, "prefix_labels": [1, 0.5]}])


def test_an_empty_batch_is_rejected_by_name():
    model = HopeModel(tiny_lm_config(), seed=0)
    with pytest.raises(ValueError, match="empty batch"):
        model.build_loss(Tape(), [])
    for call in (model.score, model.loss, model.predict):
        with pytest.raises(ValueError, match="empty token sequence"):
            call([])
    for core in ("srt", "attention", "linear_attention"):
        model = HopeModel(tiny_lm_config(core=core, num_classes=2), seed=0)
        empty = {"tokens": [], "label": 1}
        for batch, index in (([empty], 0), ([{"tokens": [1, 2], "label": 0}, empty], 1)):
            with pytest.raises(ValueError, match=f"empty token sequence at sample {index}"):
                model.build_loss(Tape(), batch)


@pytest.mark.parametrize(
    "field, value",
    [
        ("dim", 6), ("objective", "dot"), ("chunk", 3), ("retention", False), ("fixed_eta", 0.3),
        ("fixed_alpha", 0.9), ("eta_bias", -1.0), ("alpha_bias", 2.0), ("conv", True),
        ("mem_hidden", 5), ("frozen_slots", ("k", "mem")),
    ],
)
def test_srt_config_carries_every_shared_field(field, value):
    assert getattr(tiny_lm_config(), field) != value
    cfg = tiny_lm_config(**{field: value}).srt_config()
    renamed = {"mem_hidden": ("hidden", value), "frozen_slots": ("update_slots", ("v", "eta", "alpha"))}
    name, expect = renamed.get(field, (field, value))
    assert getattr(cfg, name) == expect


def test_loss_matches_primitive_recomputation():
    model = HopeModel(tiny_lm_config(), seed=3)
    tokens = [0, 5, 2, 9, 1, 7]
    got = model.loss(tokens)
    h = hidden_states(model, tokens)
    logits = model.params["readout"] @ h[:, :-1]
    z = logits - logits.max(axis=0)
    ls = z - np.log(np.exp(z).sum(axis=0))
    expect = float(-ls[tokens[1:], np.arange(len(tokens) - 1)].mean())
    assert abs(got - expect) < 1e-12


@pytest.mark.parametrize(
    "cfg",
    [
        HopeConfig(vocab=2, dim=8, num_classes=2, chunk=1, cms_chunks=(1, 4), cms_hidden=4),
        HopeConfig(vocab=17, dim=8, num_classes=17, chunk=4, cms_chunks=(1, 4), cms_hidden=4, cms_variant="independent"),
        tiny_lm_config(core="attention"),
        tiny_lm_config(core="linear_attention", tie_readout=True),
    ],
    ids=["classifier", "classifier-17-independent", "next-token-attention", "tied-linear-attention"],
)
def test_score_is_predict_and_loss_from_one_forward(cfg):
    model = HopeModel(cfg, seed=15)
    rng = np.random.default_rng(16)
    if "readout" in model.params:
        # a random readout, so neither predictions nor losses are those of all-zero logits
        model.set_parameter("readout", rng.normal(size=model.params["readout"].shape))
    head = model.params["emb"] if cfg.tie_readout else model.params["readout"]
    for length in (2, 3, 9):
        tokens = [int(t) for t in rng.integers(0, cfg.vocab, size=length)]
        label = int(rng.integers(0, cfg.num_classes)) if cfg.num_classes else None
        prediction, loss = model.score(tokens, label)
        assert prediction == model.predict(tokens) == int(np.argmax(head @ hidden_states(model, tokens)[:, -1]))
        # bit for bit the loss of a one-sample training tape
        assert loss == model.loss(tokens, label) == float(model.build_loss(Tape(), [{"tokens": tokens, "label": label}]).value)


def test_evaluate_records_one_tape_per_sample(monkeypatch):
    cfg = HopeConfig(vocab=2, dim=8, num_classes=2, chunk=1, cms_chunks=(1, 4), cms_hidden=4)
    model = HopeModel(cfg, seed=17)
    data = tasks.generate(tasks.TaskSpec("parity", seed=18, bin0=(2, 6), bin1=(7, 9)), 6)
    registered = []
    register = HopeModel._register
    monkeypatch.setattr(HopeModel, "_register", lambda self, tape: registered.append(tape) or register(self, tape))
    out = tasks.evaluate(model, data)
    assert len(registered) == len(data)
    assert out["loss"] == np.mean([model.loss(s["tokens"], s["label"]) for s in data])


def test_block_forward_pure_under_repeat():
    model = HopeModel(tiny_lm_config(), seed=4)
    x = np.random.default_rng(0).normal(size=(8, 8))
    y1 = block_forward(model, x)
    y2 = block_forward(model, x)
    assert np.array_equal(y1, y2)


def test_fast_state_isolation_between_sequences():
    model = HopeModel(tiny_lm_config(), seed=5)
    a = [1, 2, 3, 4, 5, 6]
    b = [7, 8, 9, 1, 0, 2]
    h_b_alone = hidden_states(model, b)
    hidden_states(model, a)  # evaluating A must not leak fast state into B
    assert np.array_equal(hidden_states(model, b), h_b_alone)


def test_attention_core_matches_hand_composed_pipeline():
    cfg = tiny_lm_config(core="attention", use_cms=True, cms_chunks=(None,))
    model = HopeModel(cfg, seed=6)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, 6))
    got = block_forward(model, x)

    # hand-composed attention + frozen residual MLP tail, mirroring the exact
    # primitive operations so the comparison is bit-for-bit
    def rms(v, gain):
        r = 1.0 / np.sqrt((v * v).mean(axis=0) + 1e-6)
        return (v * r) * gain[:, None]

    def unit(m):  # each column over the norm of its contiguous copy
        return m / np.array([np.linalg.norm(np.ascontiguousarray(c)) for c in m.T])

    xn = rms(x, model.params["b0.norm1"])
    q = unit(model.params["b0.wq"] @ xn)
    k = unit(model.params["b0.wk"] @ xn)
    v = model.params["b0.wv"] @ xn
    scores = (k.T.copy() @ q) * math.sqrt(8)
    masked = np.where(np.tril(np.ones((6, 6), dtype=bool)).T, scores, -np.inf)
    masked = masked - masked.max(axis=0)
    e = np.exp(masked)
    att = e / e.sum(axis=0)
    out = v @ att
    on = rms(out, model.params["b0.norm2"])
    lv = model.chains[0].levels[0]
    expect = on + lv.w1 @ (T._silu(lv.w2 @ on))
    assert np.array_equal(got, expect)


@pytest.mark.parametrize("length", [1, 2])
def test_linear_attention_core_matches_prefix_sum_reference(length):
    model = HopeModel(tiny_lm_config(core="linear_attention", use_cms=False), seed=8)
    x = np.random.default_rng(length).normal(size=(8, length))
    got = block_forward(model, x)

    xn = x / np.sqrt((x * x).mean(axis=0) + 1e-6) * model.params["b0.norm1"][:, None]
    q = model.params["b0.wq"] @ xn
    k = model.params["b0.wk"] @ xn
    q, k = q / np.linalg.norm(q, axis=0), k / np.linalg.norm(k, axis=0)
    v = model.params["b0.wv"] @ xn
    mem = np.zeros((8, 8))
    expect = np.empty_like(x)
    for t in range(length):
        mem += np.outer(v[:, t], k[:, t])
        expect[:, t] = mem @ q[:, t] / (t + 1)
    assert np.abs(got - expect).max() <= 1e-12


@pytest.mark.parametrize("core", ["srt", "attention", "linear_attention"])
def test_loss_tape_replays_bit_identically(core):
    model = HopeModel(tiny_lm_config(core=core), seed=9)

    def record():
        tape = Tape()
        model.build_loss(tape, [{"tokens": [0, 5, 2, 9, 1, 7], "label": None}, {"tokens": [3, 4], "label": None}])
        return tape

    assert_records_bit_identically(record)


@pytest.mark.parametrize("core", ["srt", "attention", "linear_attention"])
def test_finished_tape_is_freed_without_the_cyclic_collector(core):
    model = HopeModel(tiny_lm_config(core=core), seed=10)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        tape = Tape()
        loss = model.build_loss(tape, [{"tokens": [0, 5, 2, 9, 1, 7], "label": None}], with_penalty=True)
        tape.backward(loss)
        ref = weakref.ref(tape)
        del tape, loss
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_training_is_deterministic_given_seed():
    data = tasks.generate(tasks.TaskSpec("parity", seed=1, bin0=(2, 8), bin1=(9, 12)), 32)
    cfg = HopeConfig(vocab=2, dim=8, blocks=1, num_classes=2, chunk=4, cms_chunks=(1, 4), cms_hidden=4)
    log_a = train(HopeModel(cfg, seed=7), data, steps=5, seed=11, batch_size=2)
    log_b = train(HopeModel(cfg, seed=7), data, steps=5, seed=11, batch_size=2)
    assert log_a == log_b


def test_zero_learning_rate_flat_loss():
    data = tasks.generate(tasks.TaskSpec("parity", seed=2, bin0=(2, 8), bin1=(9, 12)), 16)
    cfg = HopeConfig(vocab=2, dim=8, num_classes=2, chunk=4, cms_chunks=(1,), cms_hidden=4, cms_lr=0.0)
    model = HopeModel(cfg, seed=8)
    log = train(model, data, opt_kind="sgd", opt_hp=dict(eta=0.0), steps=6, seed=3, batch_size=2)
    # same batch would give the same loss; different batches still hit identical weights,
    # so re-evaluating any fixed sample gives a flat curve
    probe = data[0]
    ref = model.loss(probe["tokens"], probe["label"])
    model2 = HopeModel(cfg, seed=8)
    assert abs(model2.loss(probe["tokens"], probe["label"]) - ref) < 1e-12
    for name, value in model2.named_parameters().items():
        assert np.array_equal(model.named_parameters()[name], value), name


def test_training_reduces_loss_on_char_lm_smoke():
    spec = tasks.TaskSpec("char_lm", seed=3, params={"window": 24})
    data = tasks.generate(spec, 64)
    vocab = len(tasks.vocabulary("char_lm"))
    cfg = HopeConfig(vocab=vocab, dim=12, blocks=1, chunk=6, cms_chunks=(1, 4), cms_hidden=6)
    model = HopeModel(cfg, seed=9)
    log = train(model, data, steps=60, seed=4, batch_size=2)
    first = np.mean([r["loss"] for r in log[:5]])
    last = np.mean([r["loss"] for r in log[-5:]])
    assert last < first


@pytest.mark.parametrize(
    "flags",
    [
        dict(retention=False),
        dict(use_cms=False),
        dict(frozen_slots=("k", "v", "q")),
        dict(core="attention"),
        dict(core="linear_attention"),
        dict(conv=True),
        dict(cms_variant="independent"),
        dict(cms_variant="nested"),
        dict(cms_optimizer="momentum"),
    ],
)
def test_ablation_flags_train_and_reduce_own_loss(flags):
    spec = tasks.TaskSpec("char_lm", seed=5, params={"window": 16})
    data = tasks.generate(spec, 48)
    vocab = len(tasks.vocabulary("char_lm"))
    cfg = HopeConfig(vocab=vocab, dim=10, blocks=1, chunk=4, cms_chunks=(1, 2), cms_hidden=5, **flags)
    model = HopeModel(cfg, seed=10)
    log = train(model, data, steps=40, seed=6, batch_size=2)
    first = np.mean([r["loss"] for r in log[:5]])
    last = np.mean([r["loss"] for r in log[-5:]])
    assert last < first


def test_gradients_match_finite_differences_spot_check():
    # small spot check here; the acceptance suite runs the full 20-parameter sweep
    cfg = tiny_lm_config(dim=6, cms_chunks=(1,), cms_hidden=3, chunk=2)
    model = HopeModel(cfg, seed=11)
    batch = [{"tokens": [0, 3, 7, 2, 5], "label": None}]
    tape = Tape()
    loss = model.build_loss(tape, batch)
    grads = tape.backward(loss)

    rng = np.random.default_rng(12)
    names = ["emb", "b0.wq", "b0.srt.mem.0", "b0.srt.k.0", "b0.cms.level0.w2", "b0.norm1", "readout"]
    for name in names:
        full = model.named_parameters()[name]
        flat_idx = int(rng.integers(0, full.size))
        base = full.copy()

        def f(x):
            perturbed = base.copy().reshape(-1)
            perturbed[flat_idx] = x[0]
            model.set_parameter(name, perturbed.reshape(base.shape))
            t2 = Tape()
            val = float(model.build_loss(t2, batch).value)
            model.set_parameter(name, base)
            return val

        fd = finite_diff_grad(f, np.array([base.reshape(-1)[flat_idx]]), h=1e-6)
        analytic = grads[name].reshape(-1)[flat_idx]
        denom = max(abs(analytic), abs(fd[0]), 1e-8)
        assert abs(analytic - fd[0]) / denom < 1e-4, name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_aborts_with_record():
    data = tasks.generate(tasks.TaskSpec("parity", seed=6, bin0=(2, 6), bin1=(7, 9)), 8)
    cfg = HopeConfig(vocab=2, dim=8, num_classes=2, cms_chunks=(1,), cms_hidden=4)
    model = HopeModel(cfg, seed=13)
    with pytest.raises(DivergenceError) as e:
        train(model, data, opt_kind="sgd", opt_hp=dict(eta=1e9), steps=30, seed=7, batch_size=2, clip_norm=0.0)
    assert e.value.log[-1]["event"] == "diverged"
    # the op or gradient that first went non-finite, not only the loss
    assert re.search(r"output of \w+ \(node \d+\)|gradient of '", e.value.log[-1]["detail"]), e.value.log[-1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_overflowing_gradient_norm_is_a_divergence():
    # every gradient is finite, but their squares overflow: no clip scale exists
    data = tasks.generate(tasks.TaskSpec("parity", seed=6, bin0=(2, 6), bin1=(7, 9)), 8)
    model = HopeModel(HopeConfig(vocab=2, dim=8, num_classes=2, cms_chunks=(1,), cms_hidden=4), seed=13)
    signs = np.where(np.random.default_rng(4).random(model.params["readout"].shape) < 0.5, -1.0, 1.0)
    model.set_parameter("readout", 1e170 * signs)
    with pytest.raises(DivergenceError) as e:
        train(model, data, steps=3, seed=7, batch_size=2)
    assert e.value.step == 1
    assert e.value.log == [{"step": 1, "event": "diverged", "detail": "non-finite values in the global gradient norm"}]


def test_nonfinite_evaluation_ends_training_as_a_divergence():
    data = tasks.generate(tasks.TaskSpec("parity", seed=6, bin0=(2, 6), bin1=(7, 9)), 8)
    model = HopeModel(HopeConfig(vocab=2, dim=8, num_classes=2, cms_chunks=(1,), cms_hidden=4), seed=13)

    def eval_fn(m):
        if m.token_count > 0 and len(evals) == 1:
            raise T.NonFiniteError("non-finite values in the output of probe (node 1)")
        evals.append(m.token_count)
        return {"probe": 1.0}

    evals = []
    with pytest.raises(DivergenceError) as e:
        train(model, data, steps=6, seed=7, batch_size=2, eval_every=2, eval_fn=eval_fn)
    assert e.value.step == 4
    assert [r["step"] for r in e.value.log] == [1, 2, 3, 4]
    last = e.value.log[-1]
    assert last["event"] == "diverged" and "probe (node 1)" in last["detail"] and "loss" in last


def test_independent_blend_weights_take_the_outer_optimizer_step():
    model = HopeModel(tiny_lm_config(cms_variant="independent"), seed=0)
    # a non-zero head, so the loss reaches the blend weights
    model.set_parameter("readout", np.random.default_rng(3).normal(size=model.params["readout"].shape))
    samples = [{"tokens": [1, 2, 3, 4, 5], "label": None}]
    agg = model.params["b0.cms.agg"].copy()
    assert np.array_equal(agg, [0.5, 0.5])
    tape = Tape()
    grad = tape.backward(model.build_loss(tape, samples, with_penalty=True))["b0.cms.agg"]
    train(model, samples, opt_kind="sgd", opt_hp={"eta": 0.1}, steps=1, batch_size=1, clip_norm=0.0)
    assert np.array_equal(model.params["b0.cms.agg"], agg - 0.1 * grad)
    assert np.any(grad != 0)


def test_tied_readout_head():
    cfg = tiny_lm_config(tie_readout=True)
    model = HopeModel(cfg, seed=14)
    assert "readout" not in model.params
    tokens = [1, 2, 3, 4]
    loss = model.loss(tokens)
    assert math.isfinite(loss)
    h = hidden_states(model, tokens)
    logits = model.params["emb"] @ h[:, -1]
    assert model.predict(tokens) == int(np.argmax(logits))
    with pytest.raises(ValueError):
        HopeModel(tiny_lm_config(tie_readout=True, num_classes=2), seed=0)


@pytest.mark.parametrize(
    "name, value, error",
    [
        ("b0.cms.level0.w1", np.zeros((7, 7)), T.ShapeError),  # wrong shape for a level weight
        ("b0.cms.level0.eta", np.array(0.5), KeyError),  # a level field that is not a parameter
        ("b0.cms.level5.w1", np.zeros((8, 4)), KeyError),  # a level the chain does not have
        ("zzz", np.zeros(3), KeyError),
        ("b0.norm1", np.zeros(3), T.ShapeError),
    ],
    ids=["cms-shape", "cms-eta", "cms-level-range", "unknown", "param-shape"],
)
def test_set_parameter_rejects_names_and_shapes_the_model_lacks(name, value, error):
    model = HopeModel(tiny_lm_config(), seed=0)
    before = {k: v.copy() for k, v in model.named_parameters().items()}
    eta = model.chains[0].levels[0].eta
    with pytest.raises(error):
        model.set_parameter(name, value)
    assert model.chains[0].levels[0].eta == eta
    for key, arr in model.named_parameters().items():
        assert np.array_equal(arr, before[key]), key


def test_set_parameter_replaces_chain_weights_but_not_snapshots():
    model = HopeModel(tiny_lm_config(cms_variant="independent"), seed=0)
    level = model.chains[0].levels[1]
    snap1 = level.snap1.copy()
    model.set_parameter("b0.cms.level1.w1", np.full(level.w1.shape, 0.25))
    model.set_parameter("b0.cms.agg", np.array([0.75, 0.25]))
    assert np.array_equal(level.w1, np.full(level.w1.shape, 0.25))
    assert np.array_equal(model.params["b0.cms.agg"], [0.75, 0.25])
    assert np.array_equal(level.snap1, snap1)


def _loss_and_grads(model, batch):
    tape = Tape()
    loss = model.build_loss(tape, batch, with_penalty=True)
    return float(loss.value), tape.backward(loss)


def _ragged_batch(cfg, head, seed):
    rng = np.random.default_rng(seed)
    lengths = (5, 2, 3) if head == "next-token" else (5, 1, 3)
    batch = []
    for n in lengths:
        sample = {"tokens": [int(t) for t in rng.integers(0, cfg.vocab, size=n)], "label": None}
        if head == "last-token":
            sample["label"] = int(rng.integers(0, cfg.num_classes))
        elif head == "per-prefix":
            sample["prefix_labels"] = [int(p) for p in rng.integers(0, cfg.num_classes, size=n)]
        batch.append(sample)
    return batch


@pytest.mark.parametrize("head", ["next-token", "per-prefix", "last-token"])
@pytest.mark.parametrize(
    "core, extra",
    [("srt", dict(chunk=1)), ("srt", dict(chunk=3, conv=True)), ("attention", {}), ("linear_attention", {})],
    ids=["srt-chunk1", "srt-chunk3-conv", "attention", "linear_attention"],
)
def test_ragged_batch_equals_mean_of_one_sample_calls(core, extra, head):
    classes = 0 if head == "next-token" else 3
    cfg = tiny_lm_config(core=core, num_classes=classes, vocab=12, **extra)
    model = HopeModel(cfg, seed=18)
    model.set_parameter("readout", np.random.default_rng(19).normal(size=model.params["readout"].shape))
    batch = _ragged_batch(cfg, head, seed=20)
    loss, grads = _loss_and_grads(model, batch)
    singles = [_loss_and_grads(model, [sample]) for sample in batch]
    assert abs(loss - np.mean([s[0] for s in singles])) <= 1e-12
    assert set(grads) == set(singles[0][1])
    for name, g in grads.items():
        assert np.abs(g - np.mean([s[1][name] for s in singles], axis=0)).max() <= 1e-12, name


def test_batch_tape_is_the_longest_samples_tape_plus_a_head_per_sample():
    cfg = HopeConfig(vocab=2, dim=8, num_classes=2, chunk=1, cms_chunks=(1, 4), cms_hidden=4, mem_hidden=8)
    model = HopeModel(cfg, seed=21)
    rng = np.random.default_rng(22)
    batch = [{"tokens": [int(t) for t in rng.integers(0, 2, size=n)], "label": 1} for n in (29, 9, 5, 3)]
    counts = []
    for samples in (batch, batch[:1]):
        tape = Tape()
        model.build_loss(tape, samples)
        counts.append(len(tape.nodes))
    # per extra sample: its head's column, matmul, cross entropy and one add into the total
    assert counts[0] <= counts[1] + 4 * (len(batch) - 1)


def test_train_ticks_each_chain_once_per_step(monkeypatch):
    from nllab import hope

    calls = []
    tick = hope.cms_tick
    monkeypatch.setattr(hope, "cms_tick", lambda chain, i, n=1: calls.append((i, n)) or tick(chain, i, n))
    data = tasks.generate(tasks.TaskSpec("parity", seed=23, bin0=(2, 6), bin1=(7, 9)), 8)
    cfg = HopeConfig(vocab=2, dim=8, num_classes=2, chunk=2, cms_chunks=(1, 4), cms_hidden=4)
    model = HopeModel(cfg, seed=24)
    train(model, data, steps=3, seed=25, batch_size=2)
    assert len(calls) == 3
    assert [i for i, _ in calls] == [1, 1 + calls[0][1], 1 + calls[0][1] + calls[1][1]]
    assert sum(n for _, n in calls) == model.token_count == model.chains[0].last_step


@pytest.mark.parametrize(
    "frozen, per_chunk", [((), 3), (("mem",), 1), (("k", "v", "eta", "alpha"), 2), (("v", "mem"), 1), (tuple(SLOTS), 0)]
)
def test_build_loss_scans_the_linear_slots_once_per_chunk(frozen, per_chunk, monkeypatch):
    # the fused core scans the row-stacked updated linear slots once and each
    # updated MLP2 slot's two weights once each
    calls = []
    scan = T._scan_value
    monkeypatch.setattr(T, "_scan_value", lambda *args: calls.append(1) or scan(*args))
    cfg = tiny_lm_config(blocks=2, chunk=3, frozen_slots=frozen)
    model = HopeModel(cfg, seed=26)
    rng = np.random.default_rng(27)
    batch = [{"tokens": [int(t) for t in rng.integers(0, cfg.vocab, size=n)], "label": None} for n in (7, 4)]
    tape = Tape()
    model.build_loss(tape, batch, with_penalty=True)
    chunks = cfg.blocks * math.ceil(7 / cfg.chunk)
    assert len(calls) == per_chunk * chunks


@pytest.mark.parametrize("chunk", [1, 3])
def test_build_loss_records_one_fused_core_node_per_block(chunk):
    cfg = tiny_lm_config(blocks=2, chunk=chunk, mem_hidden=6)
    model = HopeModel(cfg, seed=28)
    rng = np.random.default_rng(29)
    batch = [{"tokens": [int(t) for t in rng.integers(0, cfg.vocab, size=n)], "label": None} for n in (7, 4)]
    tape = Tape()
    model.build_loss(tape, batch, with_penalty=True)
    ops = [node.op for node in tape.nodes]
    assert ops.count("srt_core") == cfg.blocks
    assert "decay_scan" not in ops and "bmatmul" not in ops
    # Y and the six final fast weights (four linear slots, the MLP2 storage's two) per block
    assert ops.count("unpack") == cfg.blocks * 7


COPY_ONLY_OPS = {
    "element", "slice_columns", "sample_stack", "time_major", "transpose",
    "broadcast_batch", "concat_columns", "unpack",
}


def test_a_training_step_checks_each_value_once_where_it_is_made(monkeypatch):
    # the char-LM attention step: copy-only ops move values their inputs' ops
    # already checked, so only the other ops, the leaves and the parameter
    # gradients are finite-checked
    cfg = HopeConfig(vocab=12, dim=8, core="attention", chunk=4, cms_chunks=(1, 4), cms_hidden=4)
    model = HopeModel(cfg, seed=30)
    rng = np.random.default_rng(31)
    batch = [{"tokens": [int(t) for t in rng.integers(0, cfg.vocab, size=n)], "label": None} for n in (9, 6)]
    counted = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda a: counted.append(np.size(a)) or isfinite(a))
    tape = Tape()
    tape.backward(model.build_loss(tape, batch, with_penalty=True))
    monkeypatch.undo()
    copies = sum(node.value.size for node in tape.nodes if node.op in COPY_ONLY_OPS)
    made = sum(node.value.size for node in tape.nodes if node.op not in COPY_ONLY_OPS)
    assert copies > 0
    assert sum(counted) == made + sum(node.value.size for node in tape.params.values())
