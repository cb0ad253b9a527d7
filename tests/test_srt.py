import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nllab import srt as S
from nllab import tensor as T
from nllab.memory import LINEAR, MLP2, Memory, UnsupportedCombination, gd_oracle_step, read_node
from nllab import verify as V
from nllab.srt import SrtConfig, init_srt, linear_attention_config, srt_chunked_forward, srt_linear_recurrence, srt_step
from nllab.tensor import Tensor


def all_linear_config(d, **kw):
    kinds = {slot: LINEAR for slot in S.SLOTS}
    return SrtConfig(dim=d, kinds=kinds, **kw)


def test_null_memory_outputs_zero_and_pure_decay():
    d = 4
    cfg = all_linear_config(d)
    state = init_srt(cfg, seed=0)
    zeroed = {slot: (np.zeros((d, d)),) for slot in S.SLOTS}
    state = S.replace(state, weights=zeroed, inits={s: (w[0].copy(),) for s, w in zeroed.items()})
    x = Tensor(np.random.default_rng(0).normal(size=d))
    y, new_state = srt_step(state, x)
    assert np.array_equal(y.data, np.zeros(d))
    # k_t reads to zero... normalize would fail; with zero M_k the key is the
    # zero read of the identity-free memory, so disable normalization instead
    cfg2 = all_linear_config(d, normalize_k=False, normalize_q=False)
    state2 = S.replace(init_srt(cfg2, seed=0), weights=zeroed, inits={s: (w[0].copy(),) for s, w in zeroed.items()})
    y2, new2 = srt_step(state2, x)
    assert np.array_equal(y2.data, np.zeros(d))
    for slot in ("v", "mem"):
        alpha = 1.0 / (1.0 + np.exp(-cfg2.alpha_bias))
        assert np.abs(new2.weights[slot][0] - alpha * zeroed[slot][0]).max() < 1e-12

    # chunk 4 over a ragged 6-token stream: every key, value and output column
    # reads zero, stays zero through the normalizations, and the memories only decay
    xs = Tensor(np.random.default_rng(1).normal(size=(d, 6)))
    for st in (state, state2):
        y4, new4 = srt_chunked_forward(st, xs, chunk=4)
        assert np.array_equal(y4.data, np.zeros((d, 6)))
        for slot in S.SLOTS:
            assert np.array_equal(new4.weights[slot][0], np.zeros((d, d)))


def test_forced_zero_eta_gives_decay_only():
    d = 5
    cfg = SrtConfig(dim=d, fixed_eta=0.0, fixed_alpha=0.7)
    state = init_srt(cfg, seed=1)
    x = Tensor(np.random.default_rng(1).normal(size=d))
    _, new_state = srt_step(state, x)
    for slot in S.SLOTS:
        for w_new, w_old in zip(new_state.weights[slot], state.weights[slot]):
            assert np.abs(w_new - 0.7 * w_old).max() < 1e-12


def test_linear_update_matches_oracle_composition():
    # update == gd_oracle_step gradient plus the retention factor, d=8
    d = 8
    rng = np.random.default_rng(2)
    cfg = all_linear_config(d)
    state = init_srt(cfg, seed=3)
    weights = {slot: (rng.normal(size=(d, d)),) for slot in S.SLOTS}
    state = S.replace(state, weights=weights)
    x = Tensor(rng.normal(size=d))
    _, new_state = srt_step(state, x)

    # recompute the elements by hand from the pre-update memories
    q = state.wq @ x.data
    q /= np.linalg.norm(q)
    k = weights["k"][0] @ x.data
    k /= np.linalg.norm(k)
    v = weights["v"][0] @ x.data
    v /= np.linalg.norm(v)
    eta = np.logaddexp(0.0, (weights["eta"][0] @ x.data).mean() + cfg.eta_bias)
    alpha = 1.0 / (1.0 + np.exp(-((weights["alpha"][0] @ x.data).mean() + cfg.alpha_bias)))

    for slot in S.SLOTS:
        vhat = weights[slot][0] @ v
        m = Memory.linear(weights[slot][0])
        # oracle: autodiff gradient of the l2 objective, then the retention factor
        grad_step = gd_oracle_step("l2", m, Tensor(k), Tensor(vhat), 1.0, 0.0).matrix.data  # = -grad
        retain = m.matrix.data @ (alpha * np.eye(d) - eta * np.outer(k, k))
        expect = retain + eta * grad_step
        assert np.abs(new_state.weights[slot][0] - expect).max() < 1e-12


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
                    # M (a I - e k k^T) + e target k^T is the dot-objective closed form
                    step = srt_linear_recurrence("dot", Memory.linear(cur[slot]), Tensor(k), Tensor(target), eta, alpha)
                    cur[slot] = step.matrix.data
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
                state = S.replace(state, weights=weights)
                y, after = srt_chunked_forward(state, Tensor(xs), chunk=chunk)
                y_ref, w_ref = reference_linear_chunked(cfg, weights, state.wq, xs, chunk)
                assert np.abs(y.data - y_ref).max() < 1e-12
                for slot in S.SLOTS:
                    assert np.abs(after.weights[slot][0] - w_ref[slot]).max() < 1e-12


def test_chunked_c1_equals_token_stepping():
    for seed in range(10):
        rng = np.random.default_rng(seed)
        d, L = 6, 16
        cfg = SrtConfig(dim=d, chunk=1)
        state = init_srt(cfg, seed=seed)
        xs = rng.normal(size=(d, L))
        y_chunked, state_chunked = srt_chunked_forward(state, Tensor(xs), chunk=1)

        state_seq = state
        ys = []
        for t in range(L):
            y_t, state_seq = srt_step(state_seq, Tensor(xs[:, t]))
            ys.append(y_t.data)
        y_seq = np.stack(ys, axis=1)
        assert np.abs(y_chunked.data - y_seq).max() < 1e-12
        for slot in S.SLOTS:
            for a, b in zip(state_chunked.weights[slot], state_seq.weights[slot]):
                assert np.abs(a - b).max() < 1e-12


def test_single_chunk_reads_against_initial_memories():
    rng = np.random.default_rng(11)
    d, L = 5, 7
    cfg = SrtConfig(dim=d)
    state = init_srt(cfg, seed=12)
    xs = rng.normal(size=(d, L))
    y, _ = srt_chunked_forward(state, Tensor(xs), chunk=L)
    mem = state.memory("mem")
    for t in range(L):
        q = state.wq @ xs[:, t]
        q /= np.linalg.norm(q)
        expect = q + mem.weights[0].data @ (T._silu(mem.weights[1].data @ q))
        assert np.abs(y.data[:, t] - expect).max() < 1e-12


def test_element_order_independence_is_bit_exact():
    rng = np.random.default_rng(13)
    d, L, Cn = 6, 16, 4
    cfg = SrtConfig(dim=d, chunk=Cn)
    state = init_srt(cfg, seed=14)
    xs = Tensor(rng.normal(size=(d, L)))
    y_fwd, st_fwd = srt_chunked_forward(state, xs)
    for perm_seed in range(5):
        order = list(np.random.default_rng(perm_seed).permutation(Cn))
        y_perm, st_perm = srt_chunked_forward(state, xs, element_order=order)
        assert np.array_equal(y_fwd.data, y_perm.data)
        for slot in S.SLOTS:
            for a, b in zip(st_fwd.weights[slot], st_perm.weights[slot]):
                assert np.array_equal(a, b)


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
            eta = np.logaddexp(0.0, (state.memory("eta").matrix.data @ x).mean() + cfg.eta_bias)
            alpha = 1.0 / (1.0 + np.exp(-((state.memory("alpha").matrix.data @ x).mean() + cfg.alpha_bias)))
            assert eta >= 0.0
            assert 0.0 < alpha < 1.0
            _, state = srt_step(state, Tensor(x))


def reset(state):
    """Per-sequence restart: fast weights return to the snapshots bit-exactly."""
    return S.replace(state, weights={slot: tuple(w.copy() for w in ws) for slot, ws in state.inits.items()})


def test_reset_restores_inits_bit_exact_and_isolates_sequences():
    rng = np.random.default_rng(17)
    d = 5
    state = init_srt(SrtConfig(dim=d), seed=18)
    xs_a = Tensor(rng.normal(size=(d, 9)))
    xs_b = Tensor(rng.normal(size=(d, 9)))
    _, after_a = srt_chunked_forward(state, xs_a)
    assert any(
        not np.array_equal(a, b)
        for slot in S.SLOTS
        for a, b in zip(after_a.weights[slot], state.weights[slot])
    )
    restored = reset(after_a)
    for slot in S.SLOTS:
        for a, b in zip(restored.weights[slot], state.inits[slot]):
            assert np.array_equal(a, b)
    y_b_after_a, _ = srt_chunked_forward(reset(after_a), xs_b)
    y_b_alone, _ = srt_chunked_forward(state, xs_b)
    assert np.array_equal(y_b_after_a.data, y_b_alone.data)


def test_degenerate_config_recovers_linear_attention_prefix_sum():
    rng = np.random.default_rng(19)
    d, L = 6, 12
    cfg = linear_attention_config(d)
    state = init_srt(cfg, seed=20)
    assert np.array_equal(state.weights["mem"][0], np.zeros((d, d)))
    xs = rng.normal(size=(d, L))
    _, new_state = srt_chunked_forward(state, Tensor(xs), chunk=1)
    prefix = np.zeros((d, d))
    for t in range(L):
        prefix = prefix + np.outer(xs[:, t], xs[:, t])  # identity k/v reads
    assert np.abs(new_state.weights["mem"][0] - prefix).max() < 1e-12


def test_closed_form_recurrence_equals_generic_path():
    rng = np.random.default_rng(21)
    d = 7
    for objective in ("dot", "l2"):
        m = Memory.linear(rng.normal(size=(d, d)))
        k = Tensor(rng.normal(size=d))
        vhat = Tensor(rng.normal(size=d))
        eta, alpha = 0.3, 0.9
        closed = srt_linear_recurrence(objective, m, k, vhat, eta, alpha).matrix.data
        # generic: tape gradient composed with the retention factor
        grad_step = gd_oracle_step(objective, m, k, vhat, 1.0, 0.0).matrix.data  # -grad
        expect = m.matrix.data @ (alpha * np.eye(d) - eta * np.outer(k.data, k.data)) + eta * grad_step
        assert np.abs(closed - expect).max() < 1e-12


def test_closed_form_dot_from_zero_memory():
    d = 3
    m = Memory.linear(np.zeros((d, d)))
    k = Tensor([1.0, 0.0, 0.0])
    vhat = Tensor([0.0, 2.0, 0.0])
    out = srt_linear_recurrence("dot", m, k, vhat, 1.0, 1.0).matrix.data
    assert np.array_equal(out, np.outer(vhat.data, k.data))


def test_closed_form_l2_fitted_pair_is_pure_retention():
    rng = np.random.default_rng(22)
    d = 4
    m = rng.normal(size=(d, d))
    k = rng.normal(size=d)
    k /= np.linalg.norm(k)
    v = m @ k  # fitted
    eta, alpha = 0.5, 0.8
    out = srt_linear_recurrence("l2", Memory.linear(m), Tensor(k), Tensor(v), eta, alpha).matrix.data
    expect = m @ (alpha * np.eye(d) - eta * np.outer(k, k))
    assert np.abs(out - expect).max() < 1e-14


def test_closed_form_rejects_mlp2():
    mem = Memory.mlp2(np.zeros((3, 2)), np.zeros((2, 3)))
    with pytest.raises(UnsupportedCombination):
        srt_linear_recurrence("l2", mem, Tensor([1.0, 0, 0]), Tensor([1.0, 0, 0]), 0.1, 1.0)


def test_width_mismatch_rejected():
    state = init_srt(SrtConfig(dim=4), seed=0)
    with pytest.raises(T.ShapeError):
        srt_step(state, Tensor([1.0, 2.0]))


def test_conv_flag_identity_at_init():
    rng = np.random.default_rng(23)
    d, L = 4, 6
    state_conv = init_srt(SrtConfig(dim=d, conv=True), seed=24)
    state_plain = init_srt(SrtConfig(dim=d, conv=False), seed=24)
    xs = Tensor(rng.normal(size=(d, L)))
    y_conv, _ = srt_chunked_forward(state_conv, xs)
    y_plain, _ = srt_chunked_forward(state_plain, xs)
    assert np.abs(y_conv.data - y_plain.data).max() < 1e-12


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
    tape = T.Tape()
    weights, wq, kernel = S._as_nodes(tape, state)
    y, final = S.srt_forward_nodes(tape, cfg, weights, wq, tape.constant(x), conv_kernel=kernel, lengths=lengths)
    assert tape.replay() is True
    for b, xb in enumerate(xs):
        y_alone, alone = srt_chunked_forward(state, Tensor(xb))
        for slot in S.SLOTS:
            for w_batch, w_alone in zip(final[slot], alone.weights[slot]):
                assert np.array_equal(w_batch.value[b], w_alone), slot
        assert np.abs(y.value[:, b : lengths[b] * batch : batch] - y_alone.data).max() < 1e-12


def test_batch_lengths_must_fit_the_columns():
    cfg = SrtConfig(dim=4, chunk=2)
    state = init_srt(cfg, seed=27)
    tape = T.Tape()
    weights, wq, _ = S._as_nodes(tape, state)
    x = tape.constant(np.ones((4, 6)))
    for lengths in ([3, 4], [3, 0], [2, 2, 2, 2]):
        with pytest.raises(T.ShapeError):
            S.srt_forward_nodes(tape, cfg, weights, wq, x, lengths=lengths)
    with pytest.raises(ValueError):
        S.srt_forward_nodes(tape, cfg, weights, wq, x, lengths=[3, 2], element_order=[1, 0])


def _per_slot_forward(tape, cfg, weights, wq, x, kernel, lengths):
    """The per-slot route the row-stacked fast weight replaces: every slot its
    own (B,p,n) fast weight, every read by `read_node`, one decay_scan per
    updated linear slot."""
    width = x.value.shape[1]
    batch = len(lengths)
    L = width // batch
    padded = min(lengths) < L
    xkv = T.causal_depthwise_conv(x, kernel, batch) if kernel is not None else x
    slots = [slot for slot in S.SLOTS if slot in cfg.update_slots]
    cur = {slot: tuple(T.broadcast_batch(w, batch) for w in ws) for slot, ws in weights.items()}

    def norm(cols, on):
        return T.l2_normalize_columns_safe(cols) if on else cols

    outputs = []
    for start in range(0, L, cfg.chunk):
        n = min(start + cfg.chunk, L) - start
        widths = [min(max(length - start, 0), n) for length in lengths] if padded else None
        xc = T.slice_columns(x, start * batch, (start + n) * batch)
        xkvc = T.slice_columns(xkv, start * batch, (start + n) * batch)
        q = norm(T.matmul(wq, xc), cfg.normalize_q)
        v = norm(read_node(cur["v"], xkvc, cfg.kinds["v"], widths), cfg.normalize_v)
        k = norm(read_node(cur["k"], xkvc, cfg.kinds["k"], widths), cfg.normalize_k)
        outputs.append(read_node(cur["mem"], q, cfg.kinds["mem"], widths))
        gates = {slot: None if fixed is not None else read_node(cur[slot], xc, LINEAR, widths)
                 for slot, fixed in (("eta", cfg.fixed_eta), ("alpha", cfg.fixed_alpha))}
        eta = V._gate(tape, cfg.fixed_eta, gates["eta"], cfg.eta_bias, T.softplus, n * batch)
        alpha = V._gate(tape, cfg.fixed_alpha, gates["alpha"], cfg.alpha_bias, T.sigmoid, n * batch)
        vhat = {slot: read_node(cur[slot], v, cfg.kinds[slot], widths) if cfg.self_values else v for slot in slots}
        for slot in slots:
            if cfg.kinds[slot] == MLP2:
                cur[slot] = V._advance(cfg, MLP2, cur[slot], k, vhat[slot], eta, alpha, widths)
                continue
            (m,) = cur[slot]
            u = T.sub(T.bmatmul(m, k, widths), vhat[slot]) if cfg.objective == "l2" else T.neg(vhat[slot])
            cur[slot] = (T.decay_scan(m, k, u, eta, alpha, cfg.retention, widths),)
    return T.concat_columns(outputs), cur


STACK_CONFIGS = {
    "default": lambda d: SrtConfig(dim=d, chunk=3),
    "all-linear": lambda d: all_linear_config(d, chunk=3),
    "frozen-subset": lambda d: SrtConfig(dim=d, chunk=3, update_slots=("v", "alpha", "mem")),
    "dot": lambda d: all_linear_config(d, chunk=3, objective="dot"),
    "no-retention": lambda d: SrtConfig(dim=d, chunk=3, retention=False),
    "no-self-values": lambda d: all_linear_config(d, chunk=3, self_values=False),
    "conv": lambda d: SrtConfig(dim=d, chunk=3, conv=True),
    "linear-attention": lambda d: S.replace(linear_attention_config(d), chunk=3),
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
        if route == "stacked":
            y, final = S.srt_forward_nodes(tape, cfg, snaps, wq, tape.constant(x), conv_kernel=kernel, lengths=lengths)
        else:
            y, final = _per_slot_forward(tape, cfg, snaps, wq, tape.constant(x), kernel, lengths)
        outs = [y] + [w for slot in S.SLOTS for w in final[slot]]
        loss = T.dot(y, probes[0])
        for o, p in zip(outs[1:], probes[1:]):
            loss = T.add(loss, T.dot(o, p))
        return tape, outs, loss

    tape, outs, loss = run("stacked")
    oracle_tape, oracle_outs, oracle_loss = run("per-slot")
    for a, b in zip(outs, oracle_outs):
        assert np.array_equal(a.value, b.value)
    assert tape.replay() is True
    grads, oracle = tape.backward(loss), oracle_tape.backward(oracle_loss)
    for pname, g in oracle.items():
        assert np.abs(grads[pname].data - g.data).max() <= 1e-12 * np.abs(g.data).max(), pname
    along = sum(float((grads[f"{slot}.0"].data * direction[slot]).sum()) for slot in linear)
    fd = T.finite_diff_grad(lambda t: float(run("stacked", float(t.data[0]))[2].value), Tensor([0.0]))
    assert abs(fd.data[0] - along) <= 1e-6 * abs(along)


@st.composite
def _srt_cases(draw):
    """A random configuration, chunk size and batch, and a seed for the values."""
    d = draw(st.integers(2, 6))
    flags = {name: draw(st.booleans()) for name in ("retention", "self_values", "normalize_q", "normalize_k", "normalize_v", "conv")}
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

    def run(forward):
        tape = T.Tape()
        nodes = {name: tape.param(name, v) for name, v in vals.items()}
        snaps = {slot: tuple(nodes[f"{slot}.{j}"] for j in range(len(ws))) for slot, ws in state.weights.items()}
        y, final = forward(tape, cfg, snaps, nodes["wq"], nodes["x"], conv_kernel=nodes.get("conv"), element_order=order, lengths=lengths)
        outs = [y] + [w for slot in S.SLOTS for w in final[slot]]
        loss = T.dot(y, probes[0])
        for o, p in zip(outs[1:], probes[1:]):
            loss = T.add(loss, T.dot(o, p))
        return tape, outs, loss

    try:
        oracle_tape, oracle_outs, oracle_loss = run(V._srt_forward_oracle)
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
    assert tape.replay() is True
    grads = tape.backward(loss)
    for name, g in oracle.items():
        assert np.abs(grads[name].data - g.data).max() <= 1e-12 * np.abs(g.data).max(), name


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_value_in_the_core_names_the_op_node_and_chunk():
    cfg = SrtConfig(dim=4, chunk=3)
    state = init_srt(cfg, seed=0)
    state = S.replace(state, weights={**state.weights, "eta": (np.full((4, 4), 1e308),)})
    x = np.zeros((4, 7))
    x[:, 3:] = 1.0  # the eta read overflows from the second chunk on
    tape = T.Tape()
    weights, wq, _ = S._as_nodes(tape, state)
    xn = tape.constant(x)
    with pytest.raises(T.NonFiniteError, match=rf"srt_core \(node {xn.idx + 1}\) at chunk 1 \(tokens 3 to 5\)"):
        S.srt_forward_nodes(tape, cfg, weights, wq, xn)
    assert len(tape.nodes) == xn.idx + 1  # the bad value is not recorded
