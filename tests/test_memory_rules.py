import numpy as np
import pytest

from nllab import memory as M
from nllab.memory import Memory, RuleKind, gd_oracle_step, read, rule_step, softmax_read
from nllab.tensor import Tape, Tensor
from nllab import tensor as T


def random_linear(rng, d_out=None, d_k=None):
    d_out = d_out or int(rng.integers(2, 17))
    d_k = d_k or int(rng.integers(2, 17))
    return Memory.linear(rng.normal(size=(d_out, d_k)))


def test_hebbian_single_outer_product():
    m = rule_step(RuleKind.HEBBIAN, Memory.linear(np.zeros((2, 2))), Tensor([1.0, 0.0]), Tensor([0.0, 1.0]), 1.0, 1.0)
    assert np.array_equal(m.matrix.data, [[0.0, 0.0], [1.0, 0.0]])


def test_delta_fixed_point_on_fitted_pair():
    m = Memory.linear(np.eye(2))
    out = rule_step(RuleKind.DELTA, m, Tensor([1.0, 0.0]), Tensor([1.0, 0.0]), 0.37, 1.0)
    assert np.array_equal(out.matrix.data, np.eye(2))


def test_dgd_equals_proximal_argmin_direct_solve():
    # independent oracle: solve the normal equations of
    #   0.5*||W k - v||^2 + (1/(2*eta))*||W - W0||^2
    # directly, then compare with the Sherman-Morrison closed form.
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = 4
        w0 = rng.normal(size=(d, d))
        k = rng.normal(size=d)
        k /= np.linalg.norm(k)
        v = rng.normal(size=d)
        eta = float(rng.uniform(0.05, 2.0))
        lhs = np.outer(k, k) + np.eye(d) / eta
        rhs = np.outer(v, k) + w0 / eta
        expect = np.linalg.solve(lhs.T, rhs.T).T
        got = M.dgd_proximal_step(Memory.linear(w0), Tensor(k), Tensor(v), eta).matrix.data
        assert np.abs(got - expect).max() < 1e-8


@pytest.mark.parametrize(
    "rule,objective",
    [(RuleKind.HEBBIAN, "dot"), (RuleKind.DELTA, "l2"), (RuleKind.OJA, "oja")],
)
def test_rule_equals_autodiff_oracle_100_instances(rule, objective):
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d_out = int(rng.integers(2, 17))
        d_k = d_out if rule is RuleKind.OJA else int(rng.integers(2, 17))
        mem = Memory.linear(rng.normal(size=(d_out, d_k)))
        k = Tensor(rng.normal(size=d_k))
        v = Tensor(rng.normal(size=d_out))
        eta = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.0, 1.0))
        a = rule_step(rule, mem, k, v, eta, alpha).matrix.data
        b = gd_oracle_step(objective, mem, k, v, eta, alpha).matrix.data
        assert np.abs(a - b).max() < 1e-12


def test_oracle_dot_from_zero_matches_hebbian_example():
    mem = Memory.linear(np.zeros((3, 3)))
    k, v = Tensor([1.0, 0.0, 0.0]), Tensor([0.0, 1.0, 0.0])
    a = rule_step(RuleKind.HEBBIAN, mem, k, v, 1.0, 1.0).matrix.data
    b = gd_oracle_step("dot", mem, k, v, 1.0, 1.0).matrix.data
    assert np.array_equal(a, b)


def test_mlp2_hand_gradients_match_tape():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d, h = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        mem = Memory.mlp2(rng.normal(size=(d, h)), rng.normal(size=(h, d)))
        k = Tensor(rng.normal(size=d))
        v = Tensor(rng.normal(size=d))
        g1, g2 = M.mlp2_l2_gradients(mem, k, v)
        oracle = gd_oracle_step("l2", mem, k, v, 1.0, 1.0)
        assert np.abs((mem.weights[0].data - g1.data) - oracle.weights[0].data).max() < 1e-12
        assert np.abs((mem.weights[1].data - g2.data) - oracle.weights[1].data).max() < 1e-12


def test_mlp2_rejects_hebbian_and_oja():
    mem = Memory.mlp2(np.zeros((3, 2)), np.zeros((2, 3)))
    with pytest.raises(M.UnsupportedCombination):
        rule_step(RuleKind.HEBBIAN, mem, Tensor([1.0, 0, 0]), Tensor([1.0, 0, 0]), 0.1, 1.0)
    with pytest.raises(M.UnsupportedCombination):
        rule_step(RuleKind.OJA, mem, Tensor([1.0, 0, 0]), Tensor([1.0, 0, 0]), 0.1, 1.0)


def test_gate_domain_errors():
    mem = Memory.linear(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        rule_step(RuleKind.HEBBIAN, mem, Tensor([1.0, 0]), Tensor([1.0, 0]), -0.1, 1.0)
    with pytest.raises(ValueError):
        rule_step(RuleKind.HEBBIAN, mem, Tensor([1.0, 0]), Tensor([1.0, 0]), 0.1, 1.2)


def test_hebbian_prefix_sum_identity():
    rng = np.random.default_rng(17)
    d = 5
    mem = Memory.linear(np.zeros((d, d)))
    acc = np.zeros((d, d))
    for _ in range(20):
        k, v = rng.normal(size=d), rng.normal(size=d)
        mem = rule_step(RuleKind.HEBBIAN, mem, Tensor(k), Tensor(v), 1.0, 1.0)
        acc += np.outer(v, k)
        assert np.array_equal(mem.matrix.data, acc)


def test_delta_never_increases_residual():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 10))
        mem = random_linear(rng, d, d)
        k = rng.normal(size=d)
        v = rng.normal(size=d)
        eta = float(rng.uniform(1e-4, 1.0)) / (k @ k)
        before = np.linalg.norm(mem.matrix.data @ k - v)
        after = rule_step(RuleKind.DELTA, mem, Tensor(k), Tensor(v), eta, 1.0)
        assert np.linalg.norm(after.matrix.data @ k - v) <= before + 1e-12


def test_dgd_identity_update_limit():
    rng = np.random.default_rng(23)
    mem = random_linear(rng, 6, 6)
    k = rng.normal(size=6)
    v = rng.normal(size=6)
    out = rule_step(RuleKind.DGD, mem, Tensor(k), Tensor(v), 1e-12, 1.0)
    assert np.abs(out.matrix.data - mem.matrix.data).max() < 1e-9


def test_read_linear_and_mlp2():
    assert np.array_equal(read(Memory.linear(np.eye(2)), Tensor([2.0, 3.0])).data, [2.0, 3.0])
    mem = Memory.mlp2(np.zeros((3, 4)), np.random.default_rng(0).normal(size=(4, 3)))
    q = Tensor([0.5, -1.0, 2.0])
    assert np.array_equal(read(mem, q).data, q.data)

    rng = np.random.default_rng(1)
    w1, w2 = rng.normal(size=(3, 4)), rng.normal(size=(4, 3))
    mem = Memory.mlp2(w1, w2)
    got = read(mem, q).data
    # recomposition from primitives on a tape, bit for bit
    tape = Tape()
    expect = T.add(
        tape.constant(q.data),
        T.matmul(tape.constant(w1), T.silu(T.matmul(tape.constant(w2), tape.constant(q.data)))),
    ).value
    assert np.array_equal(got, expect)


def test_softmax_read_basics_and_bruteforce():
    rng = np.random.default_rng(2)
    k, v = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    assert np.array_equal(softmax_read([k], [v], Tensor(rng.normal(size=4))).data, v.data)

    key = rng.normal(size=4)
    v1, v2 = rng.normal(size=4), rng.normal(size=4)
    out = softmax_read([Tensor(key), Tensor(key)], [Tensor(v1), Tensor(v2)], Tensor(rng.normal(size=4)))
    assert np.allclose(out.data, (v1 + v2) / 2, atol=1e-15)

    keys = [Tensor(rng.normal(size=4)) for _ in range(8)]
    values = [Tensor(rng.normal(size=4)) for _ in range(8)]
    q = Tensor(rng.normal(size=4))
    tau = 0.7
    scores = np.array([np.exp(kk.data @ q.data / tau) for kk in keys])
    expect = sum(s * vv.data for s, vv in zip(scores, values)) / scores.sum()
    assert np.abs(softmax_read(keys, values, q, temperature=tau).data - expect).max() < 1e-12


def test_softmax_read_window_and_errors():
    rng = np.random.default_rng(3)
    keys = [Tensor(rng.normal(size=3)) for _ in range(5)]
    values = [Tensor(rng.normal(size=3)) for _ in range(5)]
    q = Tensor(rng.normal(size=3))
    windowed = softmax_read(keys, values, q, window=2)
    direct = softmax_read(keys[-2:], values[-2:], q)
    assert np.array_equal(windowed.data, direct.data)
    with pytest.raises(ValueError):
        softmax_read([], [], q)
    with pytest.raises(ValueError):
        softmax_read(keys, values, q, temperature=0.0)


def test_softmax_read_convex_hull():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        keys = [Tensor(rng.normal(size=3)) for _ in range(6)]
        values = [Tensor(rng.normal(size=3)) for _ in range(6)]
        out = softmax_read(keys, values, Tensor(rng.normal(size=3))).data
        stacked = np.stack([v.data for v in values])
        assert np.all(out <= stacked.max(axis=0) + 1e-12)
        assert np.all(out >= stacked.min(axis=0) - 1e-12)
