import numpy as np
import pytest

from nllab import optim, tensor as T
from nllab.optim import contribution_curve, init_state, newton_schulz, step


def _state_for(kind, shape, **hp):
    return init_state(kind, shape, **hp)


@pytest.mark.parametrize("kind", optim.KINDS)
def test_zero_gradient_fresh_state_leaves_param_unchanged(kind):
    shape = (3, 3) if kind in ("muon", "m3") else (5,)
    st = _state_for(kind, shape)
    p = np.random.default_rng(0).normal(size=shape)
    new_p, _ = step(kind, st, p, np.zeros(shape))
    assert np.array_equal(new_p, p)


@pytest.mark.parametrize("kind", optim.KINDS)
def test_step_is_pure(kind):
    shape = (3, 3) if kind in ("muon", "m3") else (4,)
    rng = np.random.default_rng(1)
    st = _state_for(kind, shape)
    p = rng.normal(size=shape)
    g = rng.normal(size=shape)
    before = {k: v.copy() for k, v in st.slots.items()}
    p_bytes, g_bytes = p.tobytes(), g.tobytes()
    p1, st1 = step(kind, st, p, g)
    p2, st2 = step(kind, st, p, g)
    assert np.array_equal(p1, p2)
    assert p.tobytes() == p_bytes and g.tobytes() == g_bytes
    for k in before:
        assert np.array_equal(st.slots[k], before[k])
    for k in st1.slots:
        assert np.array_equal(st1.slots[k], st2.slots[k])


def test_grad_shape_mismatch_and_nan_grad_rejected():
    st = init_state("sgd", (3,))
    p = np.array([1.0, 2.0, 3.0])
    with pytest.raises(T.ShapeError):
        step("sgd", st, p, np.array([1.0, 2.0]))
    with pytest.raises(T.NonFiniteError, match="sgd step"):
        step("sgd", st, p, np.array([np.nan, 0.0, 0.0]))


def test_adam_scalar_hand_value():
    # additive accumulators: m = 2, h = 4, update = -eta*m/sqrt(h) = -0.1
    st = init_state("adam", (1,), eta=0.1, beta1=1.0, beta2=1.0, eps=0.0)
    new_p, st = step("adam", st, np.array([0.0]), np.array([2.0]))
    assert abs(new_p[0] - (-0.1)) < 1e-15
    assert np.array_equal(st.slots["m"], [2.0])
    assert np.array_equal(st.slots["h"], [4.0])


def test_adam_am_equals_adam_50_trajectories():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for shape in ((), (4, 4)):
            shape = shape or (1,)
            p_a = p_b = rng.normal(size=shape)
            st_a = init_state("adam", shape, eta=0.05, beta1=0.9, beta2=0.999, eps=0.0)
            st_b = init_state("adam_am", shape, eta=0.05, beta1=0.9, beta2=0.999, lam=0.0)
            for _ in range(20):
                g = rng.normal(size=shape)
                p_a, st_a = step("adam", st_a, p_a, g)
                p_b, st_b = step("adam_am", st_b, p_b, g)
                assert np.abs(p_a - p_b).max() < 1e-12


def test_momentum_ftrl_identity_100_steps():
    rng = np.random.default_rng(9)
    eta = 0.37
    w1 = rng.normal(size=(3, 2))
    st = init_state("momentum", (3, 2), eta=eta, beta=1.0)
    p = w1
    acc = np.zeros_like(w1)
    for _ in range(100):
        g = rng.normal(size=(3, 2))
        _, st = step("momentum", st, p, g)
        acc = acc + eta * g
    # the unrolled memory equals the accumulated-gradient solution W1 - eta*sum(g)
    assert np.array_equal(w1 + st.slots["m"], w1 - acc)


def test_momentum_beta_zero_is_sgd():
    rng = np.random.default_rng(10)
    p0 = rng.normal(size=4)
    g = rng.normal(size=4)
    p_m, _ = step("momentum", init_state("momentum", (4,), eta=0.2, beta=0.0), p0, g)
    p_s, _ = step("sgd", init_state("sgd", (4,), eta=0.2), p0, g)
    assert np.allclose(p_m, p_s, atol=0, rtol=0)


def test_muon_t0_degenerates_to_momentum():
    rng = np.random.default_rng(11)
    p0 = rng.normal(size=(4, 4))
    st_mu = init_state("muon", (4, 4), eta=0.1, beta=0.9, ns_iters=0)
    st_mo = init_state("momentum", (4, 4), eta=0.1, beta=0.9)
    p_mu, p_mo = p0, p0
    for _ in range(7):
        g = rng.normal(size=(4, 4))
        p_mu, st_mu = step("muon", st_mu, p_mu, g)
        p_mo, st_mo = step("momentum", st_mo, p_mo, g)
        assert np.array_equal(p_mu, p_mo)


def test_muon_rejects_vector_params():
    with pytest.raises(optim.UnsupportedShape):
        init_state("muon", (4,))
    with pytest.raises(optim.UnsupportedShape):
        init_state("m3", (4,))


def test_newton_schulz_fixed_point_on_rotation():
    theta = 0.7
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    out = newton_schulz(rot, 5)
    assert np.abs(out - rot).max() < 1e-9


def test_newton_schulz_diag_and_monotone_decrease():
    out = newton_schulz(np.diag([2.0, 0.5]), 10)
    sv = np.linalg.svd(out, compute_uv=False)
    assert np.all(sv >= 0.97) and np.all(sv <= 1.03)

    rng = np.random.default_rng(12)
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 4)) + 2.0 * np.eye(4)
        iterates = [g / np.linalg.norm(g)] + [newton_schulz(g, i) for i in range(1, 9)]
        errs = [np.linalg.norm(x.T @ x - np.eye(4)) for x in iterates]
        assert all(b < a for a, b in zip(errs, errs[1:]))


def test_newton_schulz_against_svd_polar_factor():
    for seed in range(20):
        rng = np.random.default_rng(seed)
        # condition number <= 10 by construction
        u, _, vt = np.linalg.svd(rng.normal(size=(8, 8)))
        sv = rng.uniform(1.0, 10.0, size=8)
        g = (u * sv) @ vt
        out = newton_schulz(g, 10)
        out_sv = np.linalg.svd(out, compute_uv=False)
        assert np.all(out_sv >= 0.95) and np.all(out_sv <= 1.05)
        polar = u @ vt
        assert np.abs(out - polar).max() < 0.05


def test_newton_schulz_of_a_matrix_whose_norm_underflows():
    rng = np.random.default_rng(14)
    g = rng.normal(size=(5, 3))
    tiny = 1e-200 * g
    assert np.linalg.norm(tiny) == 0.0
    assert np.abs(newton_schulz(tiny, 5) - newton_schulz(g, 5)).max() < 1e-12


def test_newton_schulz_domain_errors_and_gd_mode():
    with pytest.raises(ValueError):
        newton_schulz(np.eye(2), 0)
    with pytest.raises(ValueError):
        newton_schulz(np.zeros((2, 2)), 3)
    rng = np.random.default_rng(13)
    g = rng.normal(size=(3, 3))
    # the GD view: a descent step on ||O^T O - I||^2 with a pull toward the
    # normalized start g0; from O = g0 it is the cubic with a = 1+2z, b = -2z
    zeta = 0.25
    x = g0 = g / np.linalg.norm(g)
    got = x - zeta * (x - g0 + 2.0 * x @ (x.T @ x - np.eye(3)))
    assert np.abs(got - newton_schulz(g, 1)).max() < 1e-12


def test_contribution_curve_values_and_limits():
    curve = contribution_curve(0.9, 50)
    assert abs(curve[6] - (1 - 0.9**7)) < 1e-15
    assert abs(curve[6] - 0.5217031) < 1e-6
    assert abs(curve[43] - (1 - 0.9**44)) < 1e-15
    # first index exceeding the 50% / 99% thresholds
    assert next(j + 1 for j, c in enumerate(curve) if c > 0.5) == 7
    assert next(j + 1 for j, c in enumerate(curve) if c > 0.99) == 44
    assert contribution_curve(0.999999, 5)[-1] < 1e-4
    with pytest.raises(ValueError):
        contribution_curve(1.0, 5)
    with pytest.raises(ValueError):
        contribution_curve(0.0, 5)


def test_m3_hand_executed_three_step_trace():
    # independent transcription of the multi-scale loop, f=2, three steps
    rng = np.random.default_rng(14)
    theta0 = rng.normal(size=(3, 3))
    gs = [rng.normal(size=(3, 3)) for _ in range(3)]
    eta, b1, b2, b3, alpha, eps, T_ns, f = 0.1, 0.9, 0.8, 0.7, 0.5, 1e-8, 5, 2

    def ns(m):
        if not np.any(m):
            return m.copy()
        x = m / np.linalg.norm(m)
        for _ in range(T_ns):
            x = 1.5 * x - 0.5 * (x @ x.T @ x)
        return x

    # hand execution
    m1 = np.zeros((3, 3))
    m2 = np.zeros((3, 3))
    v = np.zeros((3, 3))
    theta = theta0.copy()
    expected = []
    window = np.zeros((3, 3))
    for t, g in enumerate(gs):
        if t % f == 0:
            m2 = m2 + b3 * window
            o2 = ns(m2)
            window = np.zeros((3, 3))
        m1 = m1 + b1 * g
        v = v + b2 * g * g
        window = window + g
        o1 = ns(m1)
        theta = theta - eta * (o1 + alpha * o2) / np.sqrt(v + eps)
        expected.append(theta.copy())

    st = init_state("m3", (3, 3), eta=eta, beta1=b1, beta2=b2, beta3=b3, alpha=alpha, eps=eps, ns_iters=T_ns, slow_freq=f)
    p = theta0
    for g, exp in zip(gs, expected):
        p, st = step("m3", st, p, g)
        assert np.abs(p - exp).max() < 1e-14


def test_m3_slow_momentum_changes_only_at_boundaries():
    rng = np.random.default_rng(15)
    f = 4
    st = init_state("m3", (3, 3), slow_freq=f)
    p = rng.normal(size=(3, 3))
    prev_m2 = st.slots["m2"].copy()
    for t in range(1, 17):
        p, st = step("m3", st, p, rng.normal(size=(3, 3)))
        if t % f == 1 and t > 1:
            prev_m2 = st.slots["m2"].copy()
        else:
            assert np.array_equal(st.slots["m2"], prev_m2)


def test_m3_alpha_zero_is_inner_loop_only():
    rng = np.random.default_rng(16)
    gs = [rng.normal(size=(3, 3)) for _ in range(6)]
    p0 = rng.normal(size=(3, 3))

    p_a = p0
    st_a = init_state("m3", (3, 3), alpha=0.0, slow_freq=2)
    for g in gs:
        p_a, st_a = step("m3", st_a, p_a, g)

    # inner loop alone: additive momentum + additive variance + NS, no slow branch
    hp = st_a.hp
    m1 = np.zeros((3, 3))
    v = np.zeros((3, 3))
    theta = p0.copy()
    for g in gs:
        m1 = m1 + hp["beta1"] * g
        v = v + hp["beta2"] * g * g
        o1 = newton_schulz(m1, hp["ns_iters"])
        theta = theta - hp["eta"] * o1 / np.sqrt(v + hp["eps"])
    assert np.abs(p_a - theta).max() < 1e-14


def test_adagrad_m_dimension_cap_and_ridge():
    with pytest.raises(optim.UnsupportedShape):
        init_state("adagrad_m", (65,))
    with pytest.raises(ValueError):
        init_state("adagrad_m", (4,), lam=0.0)
    st = init_state("adagrad_m", (3,), eta=1.0, beta1=1.0, beta2=1.0)
    g = np.array([2.0, 0.0, 0.0])
    p, st = step("adagrad_m", st, np.zeros(3), g)
    assert np.isfinite(p).all()
    assert p[0] < 0


def test_adagrad_m_matches_direct_inverse_sqrt():
    # oracle: explicit eigendecomposition of the accumulated H, recomputed here
    rng = np.random.default_rng(19)
    st = init_state("adagrad_m", (4,), eta=0.3, beta1=0.7, beta2=0.9, lam=1e-6)
    p = np.zeros(4)
    m_acc = np.zeros(4)
    h_acc = np.zeros((4, 4))
    for _ in range(5):
        g = rng.normal(size=4)
        p_prev = p.copy()
        p, st = step("adagrad_m", st, p, g)
        m_acc = m_acc + 0.7 * g
        h_acc = h_acc + 0.9 * np.outer(g, g)
        vals, vecs = np.linalg.eigh(h_acc + 1e-6 * np.eye(4))
        expect = p_prev - 0.3 * (vecs @ np.diag(vals**-0.5) @ vecs.T @ m_acc)
        assert np.abs(p - expect).max() < 1e-10


def test_dmgd_structural_and_projection_roundtrip():
    rng = np.random.default_rng(18)
    st = init_state("dmgd", (6,), proj_dim=8, hidden=5, seed=3)
    p = rng.normal(size=6)
    g = rng.normal(size=6)
    p1, st1 = step("dmgd", st, p, g)
    assert p1.shape == p.shape
    assert st1.slots["w1"].shape == (8, 5)
    # repeated identical gradients build up a consistent descent direction
    p_cur, st_cur = p, st
    for _ in range(30):
        p_cur, st_cur = step("dmgd", st_cur, p_cur, g)
    moved = p_cur - p
    assert moved @ g < 0  # net displacement descends along the repeated gradient


def test_unknown_kind_and_hyper_rejected():
    with pytest.raises(ValueError):
        init_state("nadam", (3,))
    with pytest.raises(ValueError):
        init_state("sgd", (3,), gamma=0.1)
    st = init_state("sgd", (3,))
    with pytest.raises(ValueError):
        step("momentum", st, np.array([1.0, 2.0, 3.0]), np.array([0.0, 0.0, 0.0]))


def test_momentum_square_feature_map():
    st = init_state("momentum", (3,), eta=0.5, beta=0.4, feature_map="square")
    p = np.array([0.0, 0.0, 0.0])
    g = np.array([2.0, -3.0, 0.0])
    p1, st1 = step("momentum", st, p, g)
    assert np.allclose(p1, [-2.0, -4.5, 0.0], atol=0, rtol=0)
    p2, _ = step("momentum", st1, p1, g)
    expect_m = 0.4 * st1.slots["m"] - 0.5 * g**2
    assert np.array_equal(p2, p1 + expect_m)
    with pytest.raises(ValueError):
        step("momentum", init_state("momentum", (3,), feature_map="cubic"), p, g)


@pytest.mark.parametrize(
    "kind, hp",
    [
        ("sgd", {}),
        ("momentum", {}),
        ("momentum", {"feature_map": "square"}),
        ("adam", {}),
        ("adam", {"ema": True}),
        ("adam", {"ema": True, "bias_correction": True, "eps": 1e-8}),
        ("adam", {"ema": True, "bias_correction": True, "weight_decay": 0.01}),
        ("adam", {"weight_decay": 0.1}),
        ("adam_am", {}),
        ("adam_am", {"lam": 1e-3}),
    ],
    ids=lambda x: x if isinstance(x, str) else "-".join(f"{k}={v}" for k, v in x.items()) or "defaults",
)
def test_an_elementwise_step_over_concatenated_parameters_is_each_ones_own_step(kind, hp):
    assert kind in optim.ELEMENTWISE
    rng = np.random.default_rng(2)
    shapes = [(3, 4), (5,), (2, 2), (1,)]
    params = [rng.normal(size=shape) for shape in shapes]
    states = [init_state(kind, shape, **hp) for shape in shapes]
    flat = np.concatenate([p.ravel() for p in params])
    flat_state = init_state(kind, flat.shape, **hp)
    for _ in range(50):
        # exact zeros too, where adam's denominator vanishes
        grads = [rng.normal(size=shape) * (rng.random(shape) < 0.8) for shape in shapes]
        stepped = [step(kind, st, p, g) for st, p, g in zip(states, params, grads)]
        params, states = [p for p, _ in stepped], [st for _, st in stepped]
        flat, flat_state = step(kind, flat_state, flat, np.concatenate([g.ravel() for g in grads]))
        assert flat.tobytes() == np.concatenate([p.ravel() for p in params]).tobytes()
        for slot, value in flat_state.slots.items():
            assert value.tobytes() == np.concatenate([st.slots[slot].ravel() for st in states]).tobytes(), slot
