import numpy as np
import pytest

from nllab import cms as C
from nllab import optim
from nllab import tensor as T
from nllab.cms import CmsChain, CmsLevel, cms_accumulate, cms_tick, make_chain
from nllab.tensor import Tape, Tensor


def forward_nodes(chain, tape, x, agg=None):
    """Register the chain's weights on `tape`, then run the graph forward on constant `x`
    (an independent chain blends its reads with the constant weights `agg`)."""
    agg_node = None if agg is None else tape.constant(agg)
    return C.forward_with_nodes(chain, C.register_nodes(chain, tape), tape.constant(x), agg_node)


def forward(chain, x, agg=None):
    """The chain's output at its current weights, through the graph forward programs run."""
    return forward_nodes(chain, Tape(), x, agg).value


def loss_and_grads(chain, x, target):
    """Task loss backprop through the whole chain; per-level gradient pairs."""
    tape = Tape()
    out = forward_nodes(chain, tape, x)
    loss = T.mse(out, tape.constant(target))
    grads = tape.backward(loss)
    pairs = [(grads[f"cms.level{i}.w1"].data, grads[f"cms.level{i}.w2"].data) for i in range(len(chain.levels))]
    return float(loss.value), pairs


def test_single_level_passthrough_when_w1_zero():
    lv = CmsLevel(np.zeros((4, 3)), np.random.default_rng(0).normal(size=(3, 4)), chunk=None, eta=0.1)
    chain = CmsChain([lv])
    x = np.array([1.0, -2.0, 0.5, 3.0])
    assert np.array_equal(forward(chain, x), x)


def test_independent_masked_aggregation():
    rng = np.random.default_rng(1)
    chain = make_chain(4, 3, [1, 4], variant="independent", seed=2)
    x = rng.normal(size=4)
    lv = chain.levels[0]
    assert np.array_equal(forward(chain, x, np.array([1.0, 0.0])), x + lv.w1 @ T._silu(lv.w2 @ x))


def test_sequential_forward_equals_manual_composition():
    rng = np.random.default_rng(3)
    chain = make_chain(5, 4, [1, 2, 4], seed=4)
    x = rng.normal(size=5)
    v = x
    for lv in chain.levels:
        v = v + lv.w1 @ T._silu(lv.w2 @ v)
    assert np.array_equal(forward(chain, x), v)


def test_accumulate_linearity_and_zero():
    chain = make_chain(3, 2, [2], seed=5, eta=0.5)
    g = (np.ones((3, 2)), np.ones((2, 3)))
    cms_accumulate(chain, [g])
    cms_accumulate(chain, [g])
    acc_double = chain.levels[0].acc1.copy()
    chain2 = make_chain(3, 2, [2], seed=5, eta=0.5)
    cms_accumulate(chain2, [(2 * g[0], 2 * g[1])])
    assert np.array_equal(acc_double, chain2.levels[0].acc1)

    before = chain.levels[0].acc1.copy()
    cms_accumulate(chain, [(np.zeros((3, 2)), np.zeros((2, 3)))])
    assert np.array_equal(chain.levels[0].acc1, before)


def test_accumulator_equals_direct_sum():
    rng = np.random.default_rng(6)
    chain = make_chain(3, 2, [4], seed=7, eta=0.3)
    total1 = np.zeros((3, 2))
    for _ in range(3):
        g1, g2 = rng.normal(size=(3, 2)), rng.normal(size=(2, 3))
        cms_accumulate(chain, [(g1, g2)])
        total1 = total1 + 0.3 * g1
    assert np.array_equal(chain.levels[0].acc1, total1)


@pytest.mark.parametrize("optimizer", ["momentum", "adam"])
def test_substituted_level_optimizer_buffers_its_own_step_at_rate_one(optimizer):
    rng = np.random.default_rng(30)
    chain = make_chain(3, 2, [4, 8], seed=31, eta=0.3, optimizer=optimizer)
    # the hand-run oracle: fresh states stepped on the same weights and gradients
    states = [(optim.init_state(optimizer, (3, 2)), optim.init_state(optimizer, (2, 3))) for _ in chain.levels]
    expect = [(np.zeros((3, 2)), np.zeros((2, 3))) for _ in chain.levels]
    for _ in range(3):
        grads = [(rng.normal(size=(3, 2)), rng.normal(size=(2, 3))) for _ in chain.levels]
        for i, lv in enumerate(chain.levels):
            assert lv.eta == 1.0
            parts = zip(states[i], (lv.w1, lv.w2), grads[i])
            stepped = [optim.step(optimizer, s, Tensor(w), Tensor(g)) for s, w, g in parts]
            states[i] = tuple(state for _, state in stepped)
            expect[i] = tuple(acc + (w - new.data) for acc, w, (new, _) in zip(expect[i], (lv.w1, lv.w2), stepped))
        cms_accumulate(chain, grads)
    for lv, (acc1, acc2), pair in zip(chain.levels, expect, states):
        assert np.array_equal(lv.acc1, acc1) and np.array_equal(lv.acc2, acc2)
        for state, oracle in zip(lv.opt_states, pair):
            assert state.t == oracle.t == 3
            for slot, value in oracle.slots.items():
                assert np.array_equal(state.slots[slot], value), slot


def test_sgd_levels_buffer_eta_times_gradient():
    rng = np.random.default_rng(32)
    chain = make_chain(3, 2, [1, 2], seed=33, eta=0.3, optimizer="sgd")
    grads = [(rng.normal(size=(3, 2)), rng.normal(size=(2, 3))) for _ in chain.levels]
    cms_accumulate(chain, grads)
    for lv, (g1, g2) in zip(chain.levels, grads):
        assert lv.opt_states is None and lv.eta == 0.3
        assert np.array_equal(lv.acc1, 0.3 * g1) and np.array_equal(lv.acc2, 0.3 * g2)


def test_off_boundary_steps_leave_weights_bit_identical():
    rng = np.random.default_rng(8)
    chain = make_chain(3, 2, [4], seed=9)
    w_before = chain.levels[0].w1.copy()
    for i in (1, 2, 3):
        cms_accumulate(chain, [(rng.normal(size=(3, 2)), rng.normal(size=(2, 3)))])
        cms_tick(chain, i)
        assert np.array_equal(chain.levels[0].w1, w_before)
    cms_tick(chain, 4)
    assert not np.array_equal(chain.levels[0].w1, w_before)


def test_c1_single_level_matches_plain_sgd():
    rng = np.random.default_rng(10)
    lr = 0.05
    chain = make_chain(4, 3, [1], seed=11, eta=lr)
    w1_sgd, w2_sgd = chain.levels[0].w1.copy(), chain.levels[0].w2.copy()
    for i in range(1, 41):
        x = rng.normal(size=4)
        y = rng.normal(size=4)
        _, grads = loss_and_grads(chain, x, y)
        cms_accumulate(chain, [grads[0]])
        cms_tick(chain, i)

        # plain SGD oracle on the same stream
        tape = Tape()
        w1n, w2n = tape.param("w1", w1_sgd), tape.param("w2", w2_sgd)
        out = T.add(tape.constant(x), T.matmul(w1n, T.silu(T.matmul(w2n, tape.constant(x)))))
        g = tape.backward(T.mse(out, tape.constant(y)))
        w1_sgd = w1_sgd - lr * g["w1"].data
        w2_sgd = w2_sgd - lr * g["w2"].data
    assert np.abs(chain.levels[0].w1 - w1_sgd).max() < 1e-12
    assert np.abs(chain.levels[0].w2 - w2_sgd).max() < 1e-12


def test_frozen_level_never_ticks():
    chain = make_chain(3, 2, [None], seed=12)
    w = chain.levels[0].w1.copy()
    cms_accumulate(chain, [(np.ones((3, 2)), np.ones((2, 3)))])
    for i in range(1, 100):
        cms_tick(chain, i)
    assert np.array_equal(chain.levels[0].w1, w)


def test_tick_requires_strictly_increasing_steps():
    chain = make_chain(3, 2, [1], seed=13)
    cms_tick(chain, 1)
    with pytest.raises(ValueError):
        cms_tick(chain, 1)


def test_frequency_invariant_multi_level():
    rng = np.random.default_rng(14)
    chain = make_chain(3, 2, [1, 4, 16], seed=15, eta=0.01)
    snapshots = {i: [] for i in range(3)}
    for i in range(1, 33):
        _, grads = loss_and_grads(chain, rng.normal(size=3), rng.normal(size=3))
        cms_accumulate(chain, grads)
        for idx, lv in enumerate(chain.levels):
            snapshots[idx].append(lv.w1.copy())
        cms_tick(chain, i)
    # level 1 (chunk 4): weights constant within each window of 4 steps
    for start in range(0, 32, 4):
        window = snapshots[1][start : start + 4]
        for w in window[1:]:
            assert np.array_equal(w, window[0])
    for start in range(0, 32, 16):
        window = snapshots[2][start : start + 16]
        for w in window[1:]:
            assert np.array_equal(w, window[0])


def test_nested_reset_restores_snapshot_bit_exact():
    rng = np.random.default_rng(16)
    chain = make_chain(3, 2, [1, 4], variant="nested", seed=17, eta=0.05)
    snap = chain.levels[0].snap1.copy()
    for i in range(1, 9):
        _, grads = loss_and_grads(chain, rng.normal(size=3), rng.normal(size=3))
        cms_accumulate(chain, grads)
        applied_once = chain.levels[0].w1 - chain.levels[0].acc1
        applied = cms_tick(chain, i)
        if 1 in applied:
            assert applied == [0, 1] and i % 4 == 0
            assert np.array_equal(chain.levels[0].w1, snap)
        else:
            # the fast level applies at every step and drifts between resets
            assert applied == [0]
            assert np.array_equal(chain.levels[0].w1, applied_once)
            assert not np.array_equal(chain.levels[0].w1, snap)


def test_independent_aggregation_linear_in_weights():
    rng = np.random.default_rng(18)
    chain = make_chain(4, 3, [1, 2], variant="independent", seed=19)
    x = rng.normal(size=4)
    w_a = rng.normal(size=2)
    w_b = rng.normal(size=2)
    out_a = forward(chain, x, w_a)
    out_b = forward(chain, x, w_b)
    out_sum = forward(chain, x, w_a + w_b)
    assert np.abs(out_sum - (out_a + out_b)).max() < 1e-12


def test_zero_eta_keeps_loaded_weights_close():
    # eta -> 0 regime: ticks leave the forward of the starting weights
    rng = np.random.default_rng(21)
    chain = make_chain(3, 2, [1], seed=22, eta=0.0)
    x = rng.normal(size=3)
    before = forward(chain, x)
    for i in range(1, 6):
        _, grads = loss_and_grads(chain, rng.normal(size=3), rng.normal(size=3))
        cms_accumulate(chain, grads)
        cms_tick(chain, i)
    assert np.array_equal(forward(chain, x), before)


def test_chain_validation():
    with pytest.raises(ValueError):
        make_chain(3, 2, [4, 1])  # not ascending
    with pytest.raises(ValueError):
        make_chain(3, 2, [3, 4])  # 3 does not divide 4
    with pytest.raises(ValueError):
        CmsChain([], variant="sequential")
    with pytest.raises(ValueError):
        make_chain(3, 2, [1], variant="blended")


def test_forward_nodes_matches_value_forward():
    rng = np.random.default_rng(24)
    for variant in ("sequential", "independent"):
        chain = make_chain(4, 3, [1, 2], variant=variant, seed=25)
        x = rng.normal(size=(4, 5))
        a = rng.normal(size=2)
        tape = Tape()
        node = forward_nodes(chain, tape, x, a if variant == "independent" else None)
        # the chain read in numpy on (d,L) columns, bit for bit
        lv0, lv1 = chain.levels
        if variant == "sequential":
            h = x + lv0.w1 @ T._silu(lv0.w2 @ x)
            expect = h + lv1.w1 @ T._silu(lv1.w2 @ h)
        else:
            expect = a[0] * (x + lv0.w1 @ T._silu(lv0.w2 @ x)) + a[1] * (x + lv1.w1 @ T._silu(lv1.w2 @ x))
        assert np.array_equal(node.value, expect)
        assert list(tape.params) == [f"cms.{key}" for key in C.state_dict(chain)]


@pytest.mark.parametrize("variant", ["sequential", "nested", "independent"])
def test_range_tick_equals_single_ticks_bit_for_bit(variant):
    rng = np.random.default_rng(40)
    one = make_chain(3, 2, [1, 4, 8, None], variant=variant, seed=41)
    many = make_chain(3, 2, [1, 4, 8, None], variant=variant, seed=41)
    step = 0
    for _ in range(30):
        grads = [(rng.normal(size=(3, 2)), rng.normal(size=(2, 3))) for _ in range(4)]
        cms_accumulate(one, grads)
        cms_accumulate(many, grads)
        n = int(rng.integers(1, 13))
        applied = set()
        for i in range(step + 1, step + n + 1):
            applied.update(cms_tick(one, i))
        assert cms_tick(many, step + 1, n) == sorted(applied)
        step += n
        assert many.last_step == one.last_step == step
        for a, b in zip(one.levels, many.levels):
            for attr in ("w1", "w2", "acc1", "acc2"):
                assert np.array_equal(getattr(a, attr), getattr(b, attr)), attr
    with pytest.raises(ValueError):
        cms_tick(many, step + 1, 0)
