from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nllab import srt as S
from nllab import tensor as T
from nllab.memory import LINEAR, MLP2, Memory, RuleKind, gd_oracle_step, rule_step
from nllab import verify as V
from nllab.hope import HopeConfig, HopeModel
from nllab.srt import SrtConfig, init_srt, linear_attention_config
from test_tensor import assert_records_bit_identically


def all_linear_config(d, **kw):
    kinds = {slot: LINEAR for slot in S.SLOTS}
    return SrtConfig(dim=d, kinds=kinds, **kw)


def constants(tape, state):
    """The state's snapshots, wq and conv kernel as constants on the tape."""
    weights = {slot: tuple(tape.constant(w) for w in ws) for slot, ws in state.weights.items()}
    kernel = tape.constant(state.conv_kernel) if state.conv_kernel is not None else None
    return weights, tape.constant(state.wq), kernel


def test_null_memory_outputs_zero_and_pure_decay():
    d = 4
    cfg = all_linear_config(d)
    state = init_srt(cfg, seed=0)
    zeroed = {slot: (np.zeros((d, d)),) for slot in S.SLOTS}
    state = replace(state, weights=zeroed)
    x = np.random.default_rng(0).normal(size=(d, 1))
    y, _ = V._srt_values(state, x, chunk=1)
    assert np.array_equal(y, np.zeros((d, 1)))
    # the same zero memories with the column normalization off: the reads are
    # zero either way, and the memories only decay
    cfg2 = all_linear_config(d, normalize=False)
    state2 = replace(init_srt(cfg2, seed=0), weights=zeroed)
    y2, new2 = V._srt_values(state2, x, chunk=1)
    assert np.array_equal(y2, np.zeros((d, 1)))
    for slot in ("v", "mem"):
        alpha = 1.0 / (1.0 + np.exp(-cfg2.alpha_bias))
        assert np.abs(new2[slot][0] - alpha * zeroed[slot][0]).max() < 1e-12

    # chunk 4 over a ragged 6-token stream: every key, value and output column
    # reads zero, stays zero through the normalizations, and the memories only decay
    xs = np.random.default_rng(1).normal(size=(d, 6))
    for st in (state, state2):
        y4, new4 = V._srt_values(st, xs, chunk=4)
        assert np.array_equal(y4, np.zeros((d, 6)))
        for slot in S.SLOTS:
            assert np.array_equal(new4[slot][0], np.zeros((d, d)))


def test_forced_zero_eta_gives_decay_only():
    d = 5
    cfg = SrtConfig(dim=d, fixed_eta=0.0, fixed_alpha=0.7)
    state = init_srt(cfg, seed=1)
    x = np.random.default_rng(1).normal(size=(d, 1))
    _, new_weights = V._srt_values(state, x, chunk=1)
    for slot in S.SLOTS:
        for w_new, w_old in zip(new_weights[slot], state.weights[slot]):
            assert np.abs(w_new - 0.7 * w_old).max() < 1e-12


def test_linear_update_matches_oracle_composition():
    # update == gd_oracle_step gradient plus the retention factor, d=8
    d = 8
    rng = np.random.default_rng(2)
    cfg = all_linear_config(d)
    state = init_srt(cfg, seed=3)
    weights = {slot: (rng.normal(size=(d, d)),) for slot in S.SLOTS}
    state = replace(state, weights=weights)
    x = rng.normal(size=d)
    _, new_weights = V._srt_values(state, x[:, None], chunk=1)

    # recompute the elements by hand from the pre-update memories
    q = state.wq @ x
    q /= np.linalg.norm(q)
    k = weights["k"][0] @ x
    k /= np.linalg.norm(k)
    v = weights["v"][0] @ x
    v /= np.linalg.norm(v)
    eta = np.logaddexp(0.0, (weights["eta"][0] @ x).mean() + cfg.eta_bias)
    alpha = 1.0 / (1.0 + np.exp(-((weights["alpha"][0] @ x).mean() + cfg.alpha_bias)))

    for slot in S.SLOTS:
        vhat = weights[slot][0] @ v
        m = Memory.linear(weights[slot][0])
        # oracle: autodiff gradient of the l2 objective, then the retention factor
        grad_step = gd_oracle_step("l2", m, k, vhat, 1.0, 0.0).matrix  # = -grad
        retain = m.matrix @ (alpha * np.eye(d) - eta * np.outer(k, k))
        expect = retain + eta * grad_step
        assert np.abs(new_weights[slot][0] - expect).max() < 1e-12


def _unit(v):
    n = np.linalg.norm(v)
    return v / n if n else v


def reference_linear_chunked(cfg, weights, wq, xs, chunk):
    """Value-level all-linear chunked forward: every element read at the chunk
    boundary, tokens folded one by one with the closed-form recurrence."""
    d, L = xs.shape
    cur = {slot: weights[slot][0] for slot in S.SLOTS}
    ys = np.zeros((d, L))
    for start in range(0, L, chunk):
        b = dict(cur)
        for t in range(start, min(start + chunk, L)):
            x = xs[:, t]
            q, k, v = _unit(wq @ x), _unit(b["k"] @ x), _unit(b["v"] @ x)
            eta, alpha = cfg.fixed_eta, cfg.fixed_alpha
            if eta is None:
                eta = np.logaddexp(0.0, (b["eta"] @ x).mean() + cfg.eta_bias)
            if alpha is None:
                alpha = 1.0 / (1.0 + np.exp(-((b["alpha"] @ x).mean() + cfg.alpha_bias)))
            ys[:, t] = b["mem"] @ q
            for slot in S.SLOTS:
                vhat = b[slot] @ v
                # the l2 gradient is taken at the boundary: (M_b k - vhat) k^T
                target = vhat - b[slot] @ k if cfg.objective == "l2" else vhat
                if cfg.retention:
                    cur[slot] = cur[slot] @ (alpha * np.eye(d) - eta * np.outer(k, k)) + eta * np.outer(target, k)
                else:
                    cur[slot] = alpha * cur[slot] + eta * np.outer(target, k)
    return ys, cur


@pytest.mark.parametrize("chunk", [1, 3, 8])
def test_chunk_form_matches_value_level_reference(chunk):
    d, L = 5, 20
    rng = np.random.default_rng(30 + chunk)
    xs = rng.normal(size=(d, L))
    for objective in ("l2", "dot"):
        for retention in (True, False):
            for gates in ({}, {"fixed_eta": 0.3, "fixed_alpha": 0.9}):
                cfg = all_linear_config(d, objective=objective, retention=retention, **gates)
                state = init_srt(cfg, seed=31)
                weights = {slot: (0.5 * rng.normal(size=(d, d)) / np.sqrt(d) + np.eye(d) * (slot in ("k", "v")),) for slot in S.SLOTS}
                state = replace(state, weights=weights)
                y, after = V._srt_values(state, xs, chunk=chunk)
                y_ref, w_ref = reference_linear_chunked(cfg, weights, state.wq, xs, chunk)
                assert np.abs(y - y_ref).max() < 1e-12
                for slot in S.SLOTS:
                    assert np.abs(after[slot][0] - w_ref[slot]).max() < 1e-12


def test_chunked_c1_equals_token_stepping():
    # one run at chunk 1 against one call per token, each from the last
    # call's final weights: Y and every final weight bit for bit
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d, L = 6, 16
        state = init_srt(SrtConfig(dim=d, chunk=1), seed=seed)
        assert V._carried(state, rng.normal(size=(d, L)), 1, range(1, L))


def test_the_carry_comparison_fails_without_the_carried_weights():
    rng = np.random.default_rng(3)
    for cfg in V._fused_core_configs(3).values():
        if cfg.conv:
            continue
        state = init_srt(cfg, seed=13)
        for length, chunk, cuts in ((8, 1, range(1, 8)), (12, 3, [6])):
            x = rng.normal(size=(3, length))
            assert V._carried(state, x, chunk, cuts)
            assert not V._carried(state, x, chunk, cuts, carry=False)


def test_single_chunk_reads_against_initial_memories():
    rng = np.random.default_rng(11)
    d, L = 5, 7
    cfg = SrtConfig(dim=d)
    state = init_srt(cfg, seed=12)
    xs = rng.normal(size=(d, L))
    y, _ = V._srt_values(state, xs, chunk=L)
    w1, w2 = state.weights["mem"]
    for t in range(L):
        q = state.wq @ xs[:, t]
        q /= np.linalg.norm(q)
        expect = q + w1 @ (T._silu(w2 @ q))
        assert np.abs(y[:, t] - expect).max() < 1e-12


def test_element_order_independence_is_bit_exact():
    rng = np.random.default_rng(13)
    d, L, Cn = 6, 16, 4
    cfg = SrtConfig(dim=d, chunk=Cn)
    state = init_srt(cfg, seed=14)
    xs = rng.normal(size=(d, L))
    natural = V._srt_values(state, xs)
    for perm_seed in range(5):
        order = list(np.random.default_rng(perm_seed).permutation(Cn))
        assert V._bit_identical(V._srt_values(state, xs, forward=partial(V._srt_forward_oracle, element_order=order)), natural)


def test_gate_ranges_hold_on_random_streams():
    rng = np.random.default_rng(15)
    d = 4
    cfg = SrtConfig(dim=d)
    state = init_srt(cfg, seed=16)
    for _ in range(3):
        xs = rng.normal(size=(d, 12))
        xs /= np.sqrt((xs * xs).mean(axis=0))  # unit-scale tokens, as the block sees in a model
        for t in range(12):
            x = xs[:, t]
            eta = np.logaddexp(0.0, (state.weights["eta"][0] @ x).mean() + cfg.eta_bias)
            alpha = 1.0 / (1.0 + np.exp(-((state.weights["alpha"][0] @ x).mean() + cfg.alpha_bias)))
            assert eta >= 0.0
            assert 0.0 < alpha < 1.0
            _, weights = V._srt_values(state, x[:, None], chunk=1)
            state = replace(state, weights=weights)


def test_reset_restores_inits_bit_exact_and_isolates_sequences():
    # per-sequence restart: a run advances its own fast weights and leaves
    # the snapshots, which the next sequence starts from, bit-exactly as they were
    rng = np.random.default_rng(17)
    d = 5
    state = init_srt(SrtConfig(dim=d), seed=18)
    snapshots = {slot: tuple(w.copy() for w in ws) for slot, ws in state.weights.items()}
    xs_a = rng.normal(size=(d, 9))
    xs_b = rng.normal(size=(d, 9))
    y_b_alone, _ = V._srt_values(state, xs_b)
    _, after_a = V._srt_values(state, xs_a)
    assert any(not np.array_equal(a, b) for slot in S.SLOTS for a, b in zip(after_a[slot], state.weights[slot]))
    for slot in S.SLOTS:
        for a, b in zip(state.weights[slot], snapshots[slot]):
            assert np.array_equal(a, b)
    y_b_after_a, _ = V._srt_values(state, xs_b)
    assert np.array_equal(y_b_after_a, y_b_alone)


def test_degenerate_config_recovers_linear_attention_prefix_sum():
    rng = np.random.default_rng(19)
    d, L = 6, 12
    cfg = linear_attention_config(d)
    state = init_srt(cfg, seed=20)
    assert np.array_equal(state.weights["mem"][0], np.zeros((d, d)))
    xs = rng.normal(size=(d, L))
    _, new_weights = V._srt_values(state, xs, chunk=1)
    prefix = np.zeros((d, d))
    for t in range(L):
        prefix = prefix + np.outer(xs[:, t], xs[:, t])  # identity k/v reads
    assert np.abs(new_weights["mem"][0] - prefix).max() < 1e-12


def test_closed_form_recurrence_equals_generic_path():
    # the dgd closed form (the l2 objective with the retention factor) against
    # the tape gradient composed with the retention factor, at a unit-norm key
    rng = np.random.default_rng(21)
    d = 7
    m = Memory.linear(rng.normal(size=(d, d)))
    k = _unit(rng.normal(size=d))
    vhat = rng.normal(size=d)
    eta, alpha = 0.3, 0.9
    closed = rule_step(RuleKind.DGD, m, k, vhat, eta, alpha).matrix
    grad_step = gd_oracle_step("l2", m, k, vhat, 1.0, 0.0).matrix  # -grad
    expect = m.matrix @ (alpha * np.eye(d) - eta * np.outer(k, k)) + eta * grad_step
    assert np.abs(closed - expect).max() < 1e-12


def test_closed_form_l2_fitted_pair_is_pure_retention():
    rng = np.random.default_rng(22)
    d = 4
    m = rng.normal(size=(d, d))
    k = rng.normal(size=d)
    k /= np.linalg.norm(k)
    v = m @ k  # fitted
    eta, alpha = 0.5, 0.8
    out = rule_step(RuleKind.DGD, Memory.linear(m), k, v, eta, alpha).matrix
    expect = m @ (alpha * np.eye(d) - eta * np.outer(k, k))
    assert np.abs(out - expect).max() < 1e-14


def test_width_mismatch_rejected():
    state = init_srt(SrtConfig(dim=4), seed=0)
    with pytest.raises(T.ShapeError):
        V._srt_values(state, np.array([[1.0], [2.0]]))


def test_chunk_below_one_is_rejected():
    for build in (lambda: SrtConfig(dim=4, chunk=0), lambda: HopeModel(HopeConfig(vocab=3, dim=4, chunk=0))):
        with pytest.raises(ValueError, match="chunk size must be >= 1, got 0"):
            build()
    # an explicit chunk of 0 is not the config's chunk
    state = init_srt(SrtConfig(dim=4, chunk=2), seed=0)
    with pytest.raises(ValueError, match="chunk size must be >= 1, got 0"):
        V._srt_values(state, np.ones((4, 3)), chunk=0)


def test_conv_flag_identity_at_init():
    rng = np.random.default_rng(23)
    d, L = 4, 6
    state_conv = init_srt(SrtConfig(dim=d, conv=True), seed=24)
    state_plain = init_srt(SrtConfig(dim=d, conv=False), seed=24)
    xs = rng.normal(size=(d, L))
    y_conv, _ = V._srt_values(state_conv, xs)
    y_plain, _ = V._srt_values(state_plain, xs)
    assert np.abs(y_conv - y_plain).max() < 1e-12


@pytest.mark.parametrize("chunk", [1, 3, 8])
@pytest.mark.parametrize("d", [6, 16])
@pytest.mark.parametrize(
    "extra", [{}, {"conv": True}, {"retention": False, "objective": "dot"}], ids=["default", "conv", "dot-no-retention"]
)
def test_padded_samples_keep_their_own_fast_weights_bit_for_bit(chunk, d, extra):
    cfg = SrtConfig(dim=d, chunk=chunk, **extra)
    state = init_srt(cfg, seed=25)
    rng = np.random.default_rng(26)
    lengths = [11, 1, 5, 8]
    batch, width = len(lengths), max(lengths)
    xs = [rng.normal(size=(d, n)) for n in lengths]
    x = rng.normal(size=(d, width * batch))  # arbitrary values at the padded columns
    for b, xb in enumerate(xs):
        x[:, b : lengths[b] * batch : batch] = xb

    def record():
        tape = T.Tape()
        weights, wq, kernel = constants(tape, state)
        return tape, S.srt_forward_nodes(tape, cfg, weights, wq, tape.constant(x), conv_kernel=kernel, lengths=lengths)

    assert_records_bit_identically(lambda: record()[0])
    tape, (y, final) = record()
    for b, xb in enumerate(xs):
        y_alone, alone = V._srt_values(state, xb)
        for slot in S.SLOTS:
            for w_batch, w_alone in zip(final[slot], alone[slot]):
                assert np.array_equal(w_batch.value[b], w_alone), slot
        assert np.abs(y.value[:, b : lengths[b] * batch : batch] - y_alone).max() < 1e-12

    # in both routes Y is 0 at every padded column, and a probe there reaches no input
    padded = (np.arange(width)[:, None] >= np.array(lengths)).reshape(-1)
    for forward in (S.srt_forward_nodes, V._srt_forward_oracle):
        tape = T.Tape()
        weights = {slot: tuple(tape.param(f"{slot}.{j}", w) for j, w in enumerate(ws)) for slot, ws in state.weights.items()}
        kernel = tape.param("conv", state.conv_kernel) if cfg.conv else None
        y, _ = forward(tape, cfg, weights, tape.param("wq", state.wq), tape.param("x", x), conv_kernel=kernel, lengths=lengths)
        assert np.all(y.value[:, padded] == 0.0)
        grads = tape.backward(T.dot(y, rng.normal(size=y.value.shape) * padded))
        assert all(np.all(g == 0.0) for g in grads.values()), forward


@pytest.mark.parametrize("chunk", [1, 3])
def test_each_scan_runs_only_the_samples_with_a_real_column_in_the_chunk(monkeypatch, chunk):
    cfg = SrtConfig(dim=4, chunk=chunk)  # three scans per chunk: the row stack and mem's two weights
    lengths = [11, 1, 5, 8]
    tape = T.Tape()
    weights, wq, _ = constants(tape, init_srt(cfg, seed=0))
    x = tape.constant(np.random.default_rng(4).normal(size=(4, max(lengths) * len(lengths))))
    scan, rows = T._scan_value, []
    monkeypatch.setattr(T, "_scan_value", lambda m, *rest: rows.append(len(m)) or scan(m, *rest))
    y, _ = S.srt_forward_nodes(tape, cfg, weights, wq, x, lengths=lengths)
    tape.backward(T.dot(y, x))
    assert len(rows) == 3 * -(-max(lengths) // chunk)
    assert sum(rows) == 3 * sum(-(-n // chunk) for n in lengths)


def test_batch_lengths_must_fit_the_columns():
    cfg = SrtConfig(dim=4, chunk=2)
    state = init_srt(cfg, seed=27)
    tape = T.Tape()
    weights, wq, _ = constants(tape, state)
    x = tape.constant(np.ones((4, 6)))
    for lengths in ([3, 4], [3, 0], [2, 2, 2, 2]):
        with pytest.raises(T.ShapeError):
            S.srt_forward_nodes(tape, cfg, weights, wq, x, lengths=lengths)
    with pytest.raises(ValueError):
        V._srt_forward_oracle(tape, cfg, weights, wq, x, lengths=[3, 2], element_order=[1, 0])


STACK_CONFIGS = {
    "default": lambda d: SrtConfig(dim=d, chunk=3),
    "all-linear": lambda d: all_linear_config(d, chunk=3),
    "frozen-subset": lambda d: SrtConfig(dim=d, chunk=3, update_slots=("v", "alpha", "mem")),
    "dot": lambda d: all_linear_config(d, chunk=3, objective="dot"),
    "no-retention": lambda d: SrtConfig(dim=d, chunk=3, retention=False),
    "no-self-values": lambda d: all_linear_config(d, chunk=3, self_values=False),
    "fixed-gates": lambda d: SrtConfig(dim=d, chunk=3, fixed_eta=0.3, fixed_alpha=0.9),
    "conv": lambda d: SrtConfig(dim=d, chunk=3, conv=True),
    "linear-attention": lambda d: replace(linear_attention_config(d), chunk=3),
    "mlp2-key": lambda d: SrtConfig(dim=d, chunk=3, kinds={**{slot: LINEAR for slot in S.SLOTS}, "k": MLP2}),
}


@pytest.mark.parametrize("lengths", [[7], [7, 3, 5]], ids=["single", "ragged"])
@pytest.mark.parametrize("d", [6, 16])
@pytest.mark.parametrize("name", sorted(STACK_CONFIGS))
def test_stacked_linear_slots_match_the_per_slot_route(name, d, lengths):
    cfg = STACK_CONFIGS[name](d)
    rng = np.random.default_rng(28)
    state = init_srt(cfg, seed=29)
    weights = {slot: tuple(w + 0.2 * rng.normal(size=w.shape) for w in ws) for slot, ws in state.weights.items()}
    width = max(lengths) * len(lengths)
    x = rng.normal(size=(d, width))
    probes = [rng.normal(size=(d, width))] + [rng.normal(size=(len(lengths),) + w.shape) for ws in weights.values() for w in ws]
    linear = [slot for slot in S.SLOTS if cfg.kinds[slot] == LINEAR]
    direction = {slot: rng.normal(size=(d, d)) for slot in linear}

    def run(route, shift=0.0):
        tape = T.Tape()
        snaps = {
            slot: tuple(
                tape.param(f"{slot}.{j}", w + shift * direction[slot] if slot in direction else w) for j, w in enumerate(ws)
            )
            for slot, ws in weights.items()
        }
        wq = tape.param("wq", state.wq)
        kernel = tape.param("conv", state.conv_kernel) if cfg.conv else None
        forward = S.srt_forward_nodes if route == "stacked" else V._srt_forward_oracle
        y, final = forward(tape, cfg, snaps, wq, tape.constant(x), conv_kernel=kernel, lengths=lengths)
        outs = [y] + [w for slot in S.SLOTS for w in final[slot]]
        loss = T.dot(y, probes[0])
        for o, p in zip(outs[1:], probes[1:]):
            loss = T.add(loss, T.dot(o, p))
        return tape, outs, loss

    tape, outs, loss = run("stacked")
    oracle_tape, oracle_outs, oracle_loss = run("per-slot")
    for a, b in zip(outs, oracle_outs):
        assert np.array_equal(a.value, b.value)
    assert_records_bit_identically(lambda: run("stacked")[0])
    grads, oracle = tape.backward(loss), oracle_tape.backward(oracle_loss)
    for pname, g in oracle.items():
        assert np.abs(grads[pname] - g).max() <= 1e-12 * np.abs(g).max(), pname
    along = sum(float((grads[f"{slot}.0"] * direction[slot]).sum()) for slot in linear)
    fd = T.finite_diff_grad(lambda t: float(run("stacked", float(t[0]))[2].value), np.array([0.0]))
    assert abs(fd[0] - along) <= 1e-6 * abs(along)


@st.composite
def _srt_cases(draw):
    """A random configuration, chunk size and batch, and a seed for the values."""
    d = draw(st.integers(2, 6))
    flags = {name: draw(st.booleans()) for name in ("retention", "self_values", "normalize", "conv")}
    cfg = SrtConfig(
        dim=d,
        hidden=draw(st.sampled_from((0, 3))),
        kinds={slot: draw(st.sampled_from((LINEAR, MLP2))) for slot in S.SLOTS},
        objective=draw(st.sampled_from(("l2", "dot"))),
        chunk=draw(st.integers(1, 5)),
        update_slots=tuple(draw(st.lists(st.sampled_from(S.SLOTS + ("q",)), unique=True))),
        # a fixed eta near 0 leaves gradients that are pure rounding noise
        fixed_eta=draw(st.one_of(st.none(), st.just(0.0), st.floats(0.05, 1.0))),
        fixed_alpha=draw(st.one_of(st.none(), st.floats(0.0, 1.0))),
        **flags,
    )
    lengths = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    order = None
    if min(lengths) == max(lengths) and draw(st.booleans()):
        order = list(draw(st.permutations(range(cfg.chunk))))
    return cfg, lengths, order, draw(st.integers(0, 2**32 - 1))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_srt_cases())
# an order that is not its own inverse, on a chunk long enough to tell
@example((SrtConfig(dim=3, chunk=3), [6], [1, 2, 0], 7))
def test_fused_core_matches_the_per_op_graph_on_random_configs(case):
    cfg, lengths, order, seed = case
    d, batch = cfg.dim, len(lengths)
    rng = np.random.default_rng(seed)
    state = init_srt(cfg, seed=int(rng.integers(0, 2**31)))
    vals = {f"{slot}.{j}": w + 0.2 * rng.normal(size=w.shape) for slot, ws in state.weights.items() for j, w in enumerate(ws)}
    vals["wq"] = state.wq
    vals["x"] = rng.normal(size=(d, max(lengths) * batch))
    if cfg.conv:
        vals["conv"] = state.conv_kernel + 0.3 * rng.normal(size=state.conv_kernel.shape)
    probes = [rng.normal(size=vals["x"].shape)] + [rng.normal(size=(batch,) + w.shape) for ws in state.weights.values() for w in ws]

    def run(forward, **extra):
        tape = T.Tape()
        nodes = {name: tape.param(name, v) for name, v in vals.items()}
        snaps = {slot: tuple(nodes[f"{slot}.{j}"] for j in range(len(ws))) for slot, ws in state.weights.items()}
        y, final = forward(tape, cfg, snaps, nodes["wq"], nodes["x"], conv_kernel=nodes.get("conv"), lengths=lengths, **extra)
        outs = [y] + [w for slot in S.SLOTS for w in final[slot]]
        loss = T.dot(y, probes[0])
        for o, p in zip(outs[1:], probes[1:]):
            loss = T.add(loss, T.dot(o, p))
        return tape, outs, loss

    try:
        oracle_tape, oracle_outs, oracle_loss = run(V._srt_forward_oracle, element_order=order)
        oracle = oracle_tape.backward(oracle_loss)
    except T.NonFiniteError:  # a diverging recurrence or gradient: the fused route must say so too
        with pytest.raises(T.NonFiniteError):
            tape, _, loss = run(S.srt_forward_nodes)
            tape.backward(loss)
        return
    tape, outs, loss = run(S.srt_forward_nodes)
    assert sum(node.op == "srt_core" for node in tape.nodes) == 1
    for a, b in zip(outs, oracle_outs):
        assert np.array_equal(a.value, b.value)
    assert_records_bit_identically(lambda: run(S.srt_forward_nodes)[0])
    grads = tape.backward(loss)
    for name, g in oracle.items():
        assert np.abs(grads[name] - g).max() <= 1e-12 * np.abs(g).max(), name


def test_finite_checks_do_not_grow_with_the_chunk_count(monkeypatch):
    cfg = SrtConfig(dim=4, chunk=1)
    state = init_srt(cfg, seed=0)
    isfinite, counts = np.isfinite, {}
    for length in (8, 64):
        tape = T.Tape()
        weights, wq, _ = constants(tape, state)
        x = tape.constant(np.random.default_rng(length).normal(size=(4, length)))
        calls = []
        monkeypatch.setattr(np, "isfinite", lambda a: calls.append(1) or isfinite(a))
        S.srt_forward_nodes(tape, cfg, weights, wq, x)
        monkeypatch.undo()
        counts[length] = len(calls)
    assert 0 < counts[64] <= counts[8]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_value_in_the_core_names_the_op_node_and_chunk():
    x = np.zeros((4, 7))
    x[:, 3:] = 1.0  # the gate read overflows from the second chunk on
    rows = [
        (S.SLOTS, "eta", 1e308),  # eta reads +inf: the fast weights go non-finite
        # a frozen alpha reads -inf, so alpha = 0 while Y and every fast weight
        # stay finite: only the gate pre-activation shows it
        (("k", "v", "eta", "mem"), "alpha", -1e308),
        # mem's MLP pre-activations overflow: the non-finite value starts inside the chunk's one sigmoid input
        (S.SLOTS, "mem", 1.7e308),
    ]
    for update_slots, slot, entry in rows:
        cfg = SrtConfig(dim=4, chunk=3, update_slots=update_slots)
        state = init_srt(cfg, seed=0)
        *first, last = state.weights[slot]  # a linear slot's weight, or an MLP2 slot's pre-activation weight
        state = replace(state, weights={**state.weights, slot: (*first, np.full(last.shape, entry))})
        tape = T.Tape()
        weights, wq, _ = constants(tape, state)
        xn = tape.constant(x)
        with pytest.raises(T.NonFiniteError, match=rf"srt_core \(node {xn.idx + 1}\) at chunk 1 \(tokens 3 to 5\)"):
            S.srt_forward_nodes(tape, cfg, weights, wq, xn)
        assert len(tape.nodes) == xn.idx + 1  # the bad value is not recorded


def test_one_sigmoid_call_per_chunk(monkeypatch):
    # the MLP pre-activations at q, v and k and both gates share one call; the VJP makes none
    cfg, length = SrtConfig(dim=4, chunk=1), 5
    tape = T.Tape()
    weights, wq, _ = constants(tape, init_srt(cfg, seed=0))
    x = tape.constant(np.random.default_rng(3).normal(size=(4, length)))
    sigmoid, calls = T._sigmoid, []
    monkeypatch.setattr(T, "_sigmoid", lambda v: calls.append(v.size) or sigmoid(v))
    y, _ = S.srt_forward_nodes(tape, cfg, weights, wq, x)
    forward = len(calls)
    tape.backward(T.dot(y, x))
    assert (forward, len(calls) - forward) == (length, 0)
