import numpy as np
import pytest

from nllab import memory as M
from nllab.memory import Memory, RuleKind, gd_oracle_step, rule_step
from nllab.tensor import Tape
from nllab import tensor as T


def random_linear(rng, d_out=None, d_k=None):
    d_out = d_out or int(rng.integers(2, 17))
    d_k = d_k or int(rng.integers(2, 17))
    return Memory.linear(rng.normal(size=(d_out, d_k)))


def test_hebbian_single_outer_product():
    m = rule_step(RuleKind.HEBBIAN, Memory.linear(np.zeros((2, 2))), np.array([1.0, 0.0]), np.array([0.0, 1.0]), 1.0, 1.0)
    assert np.array_equal(m.matrix, [[0.0, 0.0], [1.0, 0.0]])


def test_delta_fixed_point_on_fitted_pair():
    m = Memory.linear(np.eye(2))
    out = rule_step(RuleKind.DELTA, m, np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.37, 1.0)
    assert np.array_equal(out.matrix, np.eye(2))


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
        got = M.dgd_proximal_step(Memory.linear(w0), k, v, eta).matrix
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
        k = rng.normal(size=d_k)
        v = rng.normal(size=d_out)
        eta = float(rng.uniform(0.0, 1.0))
        alpha = float(rng.uniform(0.0, 1.0))
        a = rule_step(rule, mem, k, v, eta, alpha).matrix
        b = gd_oracle_step(objective, mem, k, v, eta, alpha).matrix
        assert np.abs(a - b).max() < 1e-12


def test_oracle_dot_from_zero_matches_hebbian_example():
    mem = Memory.linear(np.zeros((3, 3)))
    k, v = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    a = rule_step(RuleKind.HEBBIAN, mem, k, v, 1.0, 1.0).matrix
    b = gd_oracle_step("dot", mem, k, v, 1.0, 1.0).matrix
    assert np.array_equal(a, b)


def test_mlp2_hand_gradients_match_tape():
    for seed in range(50):
        rng = np.random.default_rng(seed)
        d, h = int(rng.integers(2, 9)), int(rng.integers(2, 9))
        mem = Memory.mlp2(rng.normal(size=(d, h)), rng.normal(size=(h, d)))
        k = rng.normal(size=d)
        v = rng.normal(size=d)
        g1, g2 = M.mlp2_l2_gradients(mem, k, v)
        oracle = gd_oracle_step("l2", mem, k, v, 1.0, 1.0)
        assert np.abs((mem.weights[0] - g1) - oracle.weights[0]).max() < 1e-12
        assert np.abs((mem.weights[1] - g2) - oracle.weights[1]).max() < 1e-12


def test_mlp2_rejects_hebbian_and_oja():
    mem = Memory.mlp2(np.zeros((3, 2)), np.zeros((2, 3)))
    with pytest.raises(M.UnsupportedCombination):
        rule_step(RuleKind.HEBBIAN, mem, np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), 0.1, 1.0)
    with pytest.raises(M.UnsupportedCombination):
        rule_step(RuleKind.OJA, mem, np.array([1.0, 0, 0]), np.array([1.0, 0, 0]), 0.1, 1.0)


def test_gate_domain_errors():
    mem = Memory.linear(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        rule_step(RuleKind.HEBBIAN, mem, np.array([1.0, 0]), np.array([1.0, 0]), -0.1, 1.0)
    with pytest.raises(ValueError):
        rule_step(RuleKind.HEBBIAN, mem, np.array([1.0, 0]), np.array([1.0, 0]), 0.1, 1.2)


def test_hebbian_prefix_sum_identity():
    rng = np.random.default_rng(17)
    d = 5
    mem = Memory.linear(np.zeros((d, d)))
    acc = np.zeros((d, d))
    for _ in range(20):
        k, v = rng.normal(size=d), rng.normal(size=d)
        mem = rule_step(RuleKind.HEBBIAN, mem, k, v, 1.0, 1.0)
        acc += np.outer(v, k)
        assert np.array_equal(mem.matrix, acc)


def test_delta_never_increases_residual():
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 10))
        mem = random_linear(rng, d, d)
        k = rng.normal(size=d)
        v = rng.normal(size=d)
        eta = float(rng.uniform(1e-4, 1.0)) / (k @ k)
        before = np.linalg.norm(mem.matrix @ k - v)
        after = rule_step(RuleKind.DELTA, mem, k, v, eta, 1.0)
        assert np.linalg.norm(after.matrix @ k - v) <= before + 1e-12


def test_dgd_identity_update_limit():
    rng = np.random.default_rng(23)
    mem = random_linear(rng, 6, 6)
    k = rng.normal(size=6)
    v = rng.normal(size=6)
    out = rule_step(RuleKind.DGD, mem, k, v, 1e-12, 1.0)
    assert np.abs(out.matrix - mem.matrix).max() < 1e-9


def test_read_linear_and_mlp2():
    tape = Tape()
    assert np.array_equal(M.read_node((tape.constant(np.eye(2)),), tape.constant([2.0, 3.0]), M.LINEAR).value, [2.0, 3.0])
    q = np.array([0.5, -1.0, 2.0])
    passthrough = (tape.constant(np.zeros((3, 4))), tape.constant(np.random.default_rng(0).normal(size=(4, 3))))
    assert np.array_equal(M.read_node(passthrough, tape.constant(q), M.MLP2).value, q)

    rng = np.random.default_rng(1)
    w1, w2 = rng.normal(size=(3, 4)), rng.normal(size=(4, 3))
    for query in (q, rng.normal(size=(3, 5))):
        got = M.read_node((tape.constant(w1), tape.constant(w2)), tape.constant(query), M.MLP2).value
        # the residual MLP formula in numpy, bit for bit
        assert np.array_equal(got, query + w1 @ T._silu(w2 @ query))
