import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nllab import tensor as T
from nllab.verify import _decay_scan_oracle, _rms_oracle
from nllab.tensor import Tape, finite_diff_grad


def rel_err(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    denom = max(np.abs(a).max(), np.abs(b).max(), 1e-12)
    return np.abs(a - b).max() / denom


def assert_records_bit_identically(record):
    """`record()` records a computation on a fresh tape and returns it.  Two
    recordings make the same op at every node, with the same value bytes."""
    first, second = record(), record()
    assert [node.op for node in first.nodes] == [node.op for node in second.nodes]
    for a, b in zip(first.nodes, second.nodes):
        assert a.value.shape == b.value.shape and a.value.tobytes() == b.value.tobytes(), (a.idx, a.op)


def test_matmul_identity():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(2, 2))
    tape = Tape()
    out = T.matmul(tape.constant(np.eye(2)), tape.constant(a))
    assert np.array_equal(out.value, a)


def test_matmul_shape_error_names_both_shapes():
    tape = Tape()
    with pytest.raises(T.ShapeError) as e:
        T.matmul(tape.constant(np.zeros((2, 3))), tape.constant(np.zeros((2, 3))))
    assert "(2, 3)" in str(e.value)


def test_l2_normalize_345():
    tape = Tape()
    out = T.l2_normalize_columns(tape.constant([[3.0], [4.0]]))
    assert np.allclose(out.value[:, 0], [0.6, 0.8], atol=0, rtol=0)


def test_l2_normalize_unit_norm_property():
    rng = np.random.default_rng(7)
    for _ in range(50):
        v = rng.normal(size=(rng.integers(1, 9), 1))
        tape = Tape()
        out = T.l2_normalize_columns(tape.constant(v))
        assert abs(np.linalg.norm(out.value) - 1.0) <= 1e-12


def test_backward_linear_map():
    tape = Tape()
    w = tape.param("w", np.zeros((2, 2)))
    y = T.matmul(w, tape.constant([1.0, 1.0]))
    loss = T.dot(y, tape.constant([1.0, 1.0]))
    grads = tape.backward(loss)
    assert np.array_equal(grads["w"], np.ones((2, 2)))


def test_backward_requires_scalar_and_runs_once():
    tape = Tape()
    x = tape.param("x", [1.0, 2.0])
    y = T.mul(x, 2.0)
    with pytest.raises(T.TapeError):
        tape.backward(y)
    loss = T.mean_all(y)
    tape.backward(loss)
    with pytest.raises(T.TapeError):
        tape.backward(loss)


def test_cross_tape_operands_rejected():
    t1, t2 = Tape(), Tape()
    a = t1.constant([1.0])
    b = t2.constant([1.0])
    with pytest.raises(T.TapeError):
        T.add(a, b)


def _random_mlp_loss(rng):
    """3-layer MLP graph builder used for the finite-difference check."""
    d0, d1, d2 = 4, 5, 3
    w1 = rng.normal(size=(d1, d0))
    w2 = rng.normal(size=(d2, d1))
    w3 = rng.normal(size=(1, d2))
    x = rng.normal(size=d0)
    target = rng.normal(size=1)

    def build(tape, w1v, w2v, w3v):
        h1 = T.silu(T.matmul(tape.param("w1", w1v), tape.constant(x)))
        h2 = T.sigmoid(T.matmul(tape.param("w2", w2v), h1))
        diff = T.sub(T.matmul(tape.param("w3", w3v), h2), tape.constant(target))
        return T.dot(diff, diff)

    return build, (w1, w2, w3)


def test_backward_matches_finite_diff_on_random_mlp():
    rng = np.random.default_rng(3)
    build, (w1, w2, w3) = _random_mlp_loss(rng)
    tape = Tape()
    grads = tape.backward(build(tape, w1, w2, w3))

    for name, wv, idx in (("w1", w1, 0), ("w2", w2, 1), ("w3", w3, 2)):
        def f(wt, idx=idx):
            ws = [w1, w2, w3]
            ws[idx] = wt
            t2 = Tape()
            return t2.backward.__self__ and build(t2, *ws).value  # build only; value of loss

        fd = finite_diff_grad(lambda wt: float(f(wt)), wv, h=1e-5)
        assert rel_err(grads[name], fd) < 1e-4


# every differentiable primitive gets a finite-difference check over random seeds
_PRIMITIVE_CASES = {
    "add": lambda t, a, b: T.add(a, b),
    "sub": lambda t, a, b: T.sub(a, b),
    "mul": lambda t, a, b: T.mul(a, b),
    "dot": lambda t, a, b: T.dot(a, b),
}

_UNARY_CASES = {
    "sigmoid": T.sigmoid,
    "softplus": T.softplus,
    "silu": T.silu,
    "silu_grad": T.silu_grad,
    "mean_all": T.mean_all,
}


@pytest.mark.parametrize("name", sorted(_PRIMITIVE_CASES))
def test_binary_primitive_gradients(name):
    op = _PRIMITIVE_CASES[name]
    for seed in range(100):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=4)
        b = rng.normal(size=4)
        tape = Tape()
        out = op(tape, tape.param("a", a), tape.constant(b))
        loss = out if out.value.shape == () else T.dot(out, tape.constant(rng.normal(size=out.value.shape)))
        grads = tape.backward(loss)

        def f(at):
            t2 = Tape()
            o = op(t2, t2.constant(at), t2.constant(b))
            if o.value.shape == ():
                return float(o.value)
            rng2 = np.random.default_rng(seed)
            rng2.normal(size=4), rng2.normal(size=4)
            return float((o.value * rng2.normal(size=o.value.shape)).sum())

        fd = finite_diff_grad(f, a)
        assert rel_err(grads["a"], fd) < 1e-4, name


@pytest.mark.parametrize("name", sorted(_UNARY_CASES))
def test_unary_primitive_gradients(name):
    op = _UNARY_CASES[name]
    for seed in range(100):
        rng = np.random.default_rng(1000 + seed)
        a = rng.normal(size=5)
        weights = rng.normal(size=5)
        tape = Tape()
        out = op(tape.param("a", a))
        loss = out if out.value.shape == () else T.dot(out, tape.constant(weights))
        grads = tape.backward(loss)

        def f(at):
            t2 = Tape()
            o = op(t2.constant(at))
            if o.value.shape == ():
                return float(o.value)
            return float(o.value @ weights)

        fd = finite_diff_grad(f, a)
        assert rel_err(grads["a"], fd) < 1e-4, name


def test_matrix_primitive_gradients():
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        a = rng.normal(size=(3, 4))
        b = rng.normal(size=(4, 2))
        w = rng.normal(size=(3, 2))
        tape = Tape()
        out = T.matmul(tape.param("a", a), tape.constant(b))
        grads = tape.backward(T.dot(out, tape.constant(w)))

        def f(at):
            return float(((at @ b) * w).sum())

        fd = finite_diff_grad(f, a)
        assert rel_err(grads["a"], fd) < 1e-4


# primitive -> (operand shapes for a drawn (rows, inner, cols), op)
_VJP_CASES = {
    "sigmoid": (lambda r, i, c: [(r, c)], T.sigmoid),
    "softplus": (lambda r, i, c: [(r, c)], T.softplus),
    "silu": (lambda r, i, c: [(r, c)], T.silu),
    "silu_grad": (lambda r, i, c: [(r, c)], T.silu_grad),
    "add": (lambda r, i, c: [(r, c), (r, c)], T.add),
    "sub": (lambda r, i, c: [(r, c), (r, c)], T.sub),
    "mul": (lambda r, i, c: [(r, c), (r, c)], T.mul),
    "matmul": (lambda r, i, c: [(r, i), (i, c)], T.matmul),
    "l2_normalize_columns": (lambda r, i, c: [(r, c)], T.l2_normalize_columns),
    "mean_axis0": (lambda r, i, c: [(r, c)], T.mean_axis0),
    "rms_norm": (lambda r, i, c: [(r, c), (r,)], T.rms_norm),
}


@pytest.mark.parametrize("name", sorted(_VJP_CASES))
@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(dims=st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 5)), scale=st.floats(0.1, 4.0), seed=st.integers(0, 2**32 - 1))
def test_primitive_vjps_match_finite_differences_on_random_shapes(name, dims, scale, seed):
    shapes, op = _VJP_CASES[name]
    rng = np.random.default_rng(seed)
    operands = [scale * rng.normal(size=shape) for shape in shapes(*dims)]
    tape = Tape()
    out = op(*[tape.param(f"x{i}", v) for i, v in enumerate(operands)])
    probe = rng.normal(size=out.value.shape)
    grads = tape.backward(T.dot(out, tape.constant(probe)))
    for i, v in enumerate(operands):

        def f(xt, i=i):
            t = Tape()
            args = [t.constant(xt if j == i else w) for j, w in enumerate(operands)]
            return float((op(*args).value * probe).sum())

        fd = finite_diff_grad(f, v)
        assert np.abs(grads[f"x{i}"] - fd).max() <= 1e-6 * max(np.abs(fd).max(), 1.0), (name, i)


def test_structural_primitive_gradients():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(3, 6))
    w = rng.normal(size=(3, 2))
    tape = Tape()
    xn = tape.param("x", x)
    sl = T.slice_columns(xn, 1, 3)
    grads = tape.backward(T.dot(sl, tape.constant(w)))

    def f(xt):
        return float((xt[:, 1:3] * w).sum())

    fd = finite_diff_grad(f, x)
    assert rel_err(grads["x"], fd) < 1e-4


def test_outer_product_and_transpose_gradients():
    # an outer product, as the per-token oracles form it: a column times a transposed column
    rng = np.random.default_rng(6)
    u = rng.normal(size=(3, 1))
    v = rng.normal(size=(4, 1))
    w = rng.normal(size=(3, 4))
    tape = Tape()
    un = tape.param("u", u)
    o = T.matmul(un, T.transpose(tape.constant(v)))
    assert np.array_equal(o.value, np.outer(u, v))
    grads = tape.backward(T.dot(o, tape.constant(w)))
    fd = finite_diff_grad(lambda ut: float((np.outer(ut, v) * w).sum()), u)
    assert rel_err(grads["u"], fd) < 1e-4

    tape = Tape()
    xn = tape.param("x", w)
    grads = tape.backward(T.element(T.mean_axis0(T.transpose(T.slice_columns(xn, 2, 3))), 1))
    expect = np.zeros_like(w)
    expect[1, 2] = 1.0
    assert np.array_equal(grads["x"], expect)


SLICES_AND_CONCATS = {
    "column": ([(3, 5)], lambda xs: T.slice_columns(xs[0], 3, 4)),
    "element": ([(4,)], lambda xs: T.element(xs[0], 2)),
    "slice_columns-strided": ([(3, 8)], lambda xs: T.slice_columns(xs[0], 1, 7, 2)),
    "concat_columns": ([(3, 2), (3, 4)], lambda xs: T.concat_columns(xs)),
    "unpack": ([(20,)], lambda xs: T.unpack(xs[0], 6, (3, 4))),
    "sample_stack": ([(3, 8)], lambda xs: T.sample_stack(xs[0], 2)),
    "time_major": ([(2, 3, 4)], lambda xs: T.time_major(xs[0])),
}


@pytest.mark.parametrize("name", sorted(SLICES_AND_CONCATS))
def test_slice_and_concat_gradients_match_finite_differences_and_replay(name):
    shapes, op = SLICES_AND_CONCATS[name]
    rng = np.random.default_rng(24)
    vals = [rng.normal(size=shape) for shape in shapes]
    scratch = Tape()
    probe = rng.normal(size=op([scratch.constant(v) for v in vals]).value.shape)

    def loss(tape, xs):
        return T.dot(T.silu(op(xs)), tape.constant(probe))

    def record():
        tape = Tape()
        loss(tape, [tape.param(f"x{i}", v) for i, v in enumerate(vals)])
        return tape

    assert_records_bit_identically(record)
    tape = Tape()
    grads = tape.backward(loss(tape, [tape.param(f"x{i}", v) for i, v in enumerate(vals)]))
    for i, v in enumerate(vals):

        def f(xt, i=i):
            t = Tape()
            return float(loss(t, [t.constant(xt if j == i else u) for j, u in enumerate(vals)]).value)

        assert rel_err(grads[f"x{i}"], finite_diff_grad(f, v)) < 1e-8


def test_scale_rows_columns_and_rms_composite_gradients():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(4, 3))
    srow = rng.normal(size=4)
    scol = rng.normal(size=3)
    w = rng.normal(size=(4, 3))

    tape = Tape()
    xn = tape.param("x", x)
    out = T.scale_rows(T.scale_columns(xn, tape.param("sc", scol)), tape.param("sr", srow))
    grads = tape.backward(T.dot(out, tape.constant(w)))
    for name, base, f in (
        ("x", x, lambda v: float(((v * scol) * srow[:, None] * w).sum())),
        ("sc", scol, lambda v: float(((x * v) * srow[:, None] * w).sum())),
        ("sr", srow, lambda v: float(((x * scol) * v[:, None] * w).sum())),
    ):
        fd = finite_diff_grad(f, base)
        assert rel_err(grads[name], fd) < 1e-4


def test_softmax_columns_causal_and_embedding_gradients():
    rng = np.random.default_rng(9)
    s = rng.normal(size=(4, 4))
    w = rng.normal(size=(4, 4))
    tape = Tape()
    sn = tape.param("s", s)
    out = T.causal_softmax_columns(sn)
    # column j only attends rows <= j
    assert np.all(out.value[np.triu_indices(4, 1)[::-1]] == 0.0)
    assert np.allclose(out.value.sum(axis=0), 1.0)
    grads = tape.backward(T.dot(out, tape.constant(w)))

    def f(st):
        m = np.where(np.tril(np.ones((4, 4), dtype=bool)).T, st, -np.inf)
        m = m - m.max(axis=0)
        e = np.exp(m)
        return float(((e / e.sum(axis=0)) * w).sum())

    fd = finite_diff_grad(f, s)
    assert rel_err(grads["s"], fd) < 1e-4

    table = rng.normal(size=(7, 3))
    ids = [2, 2, 5, 0]
    wemb = rng.normal(size=(3, 4))
    tape = Tape()
    en = tape.param("e", table)
    grads = tape.backward(T.dot(T.embedding(en, ids), tape.constant(wemb)))
    fd = finite_diff_grad(lambda et: float((et[ids].T * wemb).sum()), table)
    assert rel_err(grads["e"], fd) < 1e-4


def test_cross_entropy_gradients_and_uniform_value():
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(6, 1))
    tape = Tape()
    ln = tape.param("l", logits)
    loss = T.cross_entropy_columns(ln, [2])
    grads = tape.backward(loss)

    def f(lt):
        z = lt[:, 0] - lt.max()
        return float(np.log(np.exp(z).sum()) - z[2])

    fd = finite_diff_grad(f, logits)
    assert rel_err(grads["l"], fd) < 1e-4

    tape = Tape()
    uniform = T.cross_entropy_columns(tape.constant(np.zeros((8, 1))), [3])
    assert abs(uniform.value - np.log(8)) < 1e-12

    mat = rng.normal(size=(5, 4))
    targets = [1, 0, 4, 2]
    tape = Tape()
    mn = tape.param("m", mat)
    grads = tape.backward(T.cross_entropy_columns(mn, targets))

    def fm(mt):
        z = mt - mt.max(axis=0)
        ls = z - np.log(np.exp(z).sum(axis=0))
        return float(-ls[targets, np.arange(4)].mean())

    fd = finite_diff_grad(fm, mat)
    assert rel_err(grads["m"], fd) < 1e-4


def test_conv_sqrt_reciprocal_mean_axis0_gradients():
    rng = np.random.default_rng(12)
    x = rng.normal(size=(3, 6))
    k = rng.normal(size=(3, 4))
    w = rng.normal(size=(3, 6))
    tape = Tape()
    xn, kn = tape.param("x", x), tape.param("k", k)
    grads = tape.backward(T.dot(T.causal_depthwise_conv(xn, kn), tape.constant(w)))

    def conv_val(xv, kv):
        padded = np.concatenate([np.zeros((3, 3)), xv], axis=1)
        o = np.zeros_like(xv)
        for i in range(4):
            o += kv[:, i : i + 1] * padded[:, i : i + 6]
        return o

    fd = finite_diff_grad(lambda xt: float((conv_val(xt, k) * w).sum()), x)
    assert rel_err(grads["x"], fd) < 1e-4
    fd = finite_diff_grad(lambda kt: float((conv_val(x, kt) * w).sum()), k)
    assert rel_err(grads["k"], fd) < 1e-4

    pos = np.abs(rng.normal(size=4)) + 0.5
    wv = rng.normal(size=4)
    tape = Tape()
    pn = tape.param("p", pos)
    grads = tape.backward(T.dot(T.reciprocal(T.sqrt(pn)), tape.constant(wv)))
    fd = finite_diff_grad(lambda pt: float((1.0 / np.sqrt(pt) * wv).sum()), pos)
    assert rel_err(grads["p"], fd) < 1e-4

    m = rng.normal(size=(4, 3))
    wv = rng.normal(size=3)
    tape = Tape()
    mn = tape.param("m", m)
    grads = tape.backward(T.dot(T.mean_axis0(mn), tape.constant(wv)))
    fd = finite_diff_grad(lambda mt: float((mt.mean(axis=0) * wv).sum()), m)
    assert rel_err(grads["m"], fd) < 1e-4


def test_stack_concat_l2_columns_gradients():
    rng = np.random.default_rng(13)
    a = rng.normal(size=(3, 1))
    b = rng.normal(size=(3, 1))
    w = rng.normal(size=(3, 2))
    tape = Tape()
    an = tape.param("a", a)
    out = T.concat_columns([an, tape.constant(b)])
    assert np.array_equal(out.value, np.hstack([a, b]))
    grads = tape.backward(T.dot(out, tape.constant(w)))
    assert np.array_equal(grads["a"], w[:, :1])

    x = rng.normal(size=(3, 4)) + 2.0
    wx = rng.normal(size=(3, 4))
    tape = Tape()
    xn = tape.param("x", x)
    grads = tape.backward(T.dot(T.l2_normalize_columns(xn), tape.constant(wx)))
    fd = finite_diff_grad(
        lambda xt: float((xt / np.linalg.norm(xt, axis=0) * wx).sum()), x
    )
    assert rel_err(grads["x"], fd) < 1e-4

    blocks = [rng.normal(size=(2, 2)), rng.normal(size=(2, 3))]
    wc = rng.normal(size=(2, 5))
    tape = Tape()
    b0 = tape.param("b0", blocks[0])
    grads = tape.backward(T.dot(T.concat_columns([b0, tape.constant(blocks[1])]), tape.constant(wc)))
    assert np.array_equal(grads["b0"], wc[:, :2])


def test_l2_normalize_columns_matches_vector_form_and_keeps_zero_columns():
    rng = np.random.default_rng(14)
    x = rng.normal(size=(5, 7))
    x[:, 3] = 0.0
    w = rng.normal(size=(5, 7))
    tape = Tape()
    out = T.l2_normalize_columns(tape.param("x", x))
    grads = tape.backward(T.dot(out, tape.constant(w)))
    for j in range(7):
        if j == 3:
            # a zero column stays zero and passes its gradient through
            assert np.array_equal(out.value[:, j], np.zeros(5))
            assert np.array_equal(grads["x"][:, j], w[:, j])
        else:
            c = np.ascontiguousarray(x[:, j])
            assert np.array_equal(out.value[:, j], c / np.linalg.norm(c))


def test_replay_reproduces_forward_bit_identically():
    rng = np.random.default_rng(21)
    w, x = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))

    def record():
        tape = Tape()
        out = T.causal_softmax_columns(T.silu(T.matmul(tape.param("w", w), tape.constant(x))))
        T.dot(out, tape.constant(np.ones((4, 4)) / 4))
        return tape

    assert_records_bit_identically(record)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_value_names_the_op_that_made_it():
    tape = Tape()
    x = tape.constant([2.0, 0.0])
    with pytest.raises(T.NonFiniteError, match=r"reciprocal \(node 1\)"):
        T.reciprocal(x)
    assert len(tape.nodes) == 1  # the bad value is not recorded


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_rms_norm_raises_where_its_mean_square_overflows():
    # the per-op graph raises at x*x; in one node the inf mean square would zero the column
    x = np.ones((3, 2))
    x[1, 0] = 1e200
    for rms, where in ((T.rms_norm, r"rms_norm \(node 2\).*mean square"), (_rms_oracle, r"mul \(node 2\)")):
        tape = Tape()
        with pytest.raises(T.NonFiniteError, match=where):
            rms(tape.constant(x), tape.constant(np.ones(3)))
        assert len(tape.nodes) == 2


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nonfinite_parameter_gradient_names_the_parameter():
    # 1/p is finite at p = 1e-300, its gradient -1/p**2 is not
    tape = Tape()
    p = tape.param("p", [1e-300, 1.0])
    loss = T.mean_all(T.reciprocal(p))
    assert np.isfinite(loss.value)
    with pytest.raises(T.NonFiniteError, match="gradient of 'p'"):
        tape.backward(loss)


def test_strided_leaves_round_like_their_contiguous_copies():
    # BLAS rounds a strided operand differently; tape leaves are C-order copies
    rng = np.random.default_rng(29)
    state = np.moveaxis(rng.normal(size=(7, 6, 3)), 2, 0)  # (B,p,n) = (3,7,6), not C-contiguous
    x = rng.normal(size=(6, 9))
    keys, u = rng.normal(size=(6, 9)), rng.normal(size=(7, 9))
    eta, alpha = rng.uniform(0.0, 0.5, size=9), rng.uniform(0.5, 1.0, size=9)
    widths = [3, 2, 1]
    outs = []
    for m in (state, np.ascontiguousarray(state)):
        tape = Tape()
        mn = tape.constant(m)
        assert mn.value.flags.c_contiguous
        outs.append([
            T.bmatmul(mn, tape.constant(x), widths).value,
            T.decay_scan(mn, *(tape.constant(v) for v in (keys, u, eta, alpha)), True, widths).value,
        ])
    for strided, contiguous in zip(*outs):
        assert np.array_equal(strided, contiguous)


def _decay_scan_inputs(rng, d=4, n=3):
    keys = rng.normal(size=(d, n))
    return [
        rng.normal(size=(d, d)),
        keys / np.linalg.norm(keys, axis=0),
        rng.normal(size=(d, n)),
        rng.uniform(0.0, 0.5, size=n),
        rng.uniform(0.5, 1.0, size=n),
    ]


@pytest.mark.parametrize("retention", [True, False])
def test_decay_scan_gradients_match_finite_differences(retention):
    rng = np.random.default_rng(23)
    vals = _decay_scan_inputs(rng)
    probe = rng.normal(size=(4, 4))
    tape = Tape()
    names = ["m0", "keys", "u", "eta", "alpha"]
    out = T.decay_scan(*(tape.param(n, v) for n, v in zip(names, vals)), retention)
    grads = tape.backward(T.dot(out, tape.constant(probe)))
    for i, name in enumerate(names):

        def f(x):
            args = [x if j == i else v for j, v in enumerate(vals)]
            t = Tape()
            return float((T.decay_scan(*(t.constant(a) for a in args), retention).value * probe).sum())

        fd = finite_diff_grad(f, vals[i])
        assert rel_err(grads[name], fd) < 1e-7


def test_decay_scan_replays_bit_identically_and_rejects_bad_input():
    rng = np.random.default_rng(24)
    vals = _decay_scan_inputs(rng, n=5)

    def record():
        tape = Tape()
        nodes = [tape.param(f"p{i}", v) for i, v in enumerate(vals)]
        T.mean_all(T.matmul(T.decay_scan(*nodes, True), T.decay_scan(*nodes, False)))
        return tape

    assert_records_bit_identically(record)

    for i in range(len(vals)):
        bad = vals[i].copy()
        bad.flat[0] = np.nan
        with pytest.raises(T.NonFiniteError, match="constant"):
            Tape().constant(bad)  # a NaN input never reaches the scan

    tape = Tape()
    with pytest.raises(T.ShapeError):
        T.decay_scan(*(tape.constant(v) for v in vals[:3]), tape.constant(vals[3][:-1]), tape.constant(vals[4]), True)


def test_finite_diff_quadratic_and_constant():
    fd = finite_diff_grad(lambda t: float(t[0] ** 2), np.array([3.0]), h=1e-5)
    assert abs(fd[0] - 6.0) <= 1e-6
    fd = finite_diff_grad(lambda t: 7.5, np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(fd, np.zeros(3))
    with pytest.raises(ValueError):
        finite_diff_grad(lambda t: 0.0, np.array([1.0]), h=0.0)


def _sigmoid_masked(v):
    # the boolean-mask formulation `_sigmoid` replaced
    out = np.empty_like(v)
    pos = v >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
    ev = np.exp(v[~pos])
    out[~pos] = ev / (1.0 + ev)
    return out


def test_sigmoid_matches_masked_formula_bit_for_bit():
    tiny = np.finfo(float).tiny
    special = np.array([0.0, -0.0, tiny, -tiny, tiny / 2**10, -tiny / 2**10, 5e-324, -5e-324, 1e3, -1e3, 1e-300, 40.0, -40.0])
    rng = np.random.default_rng(25)
    for v in (special, rng.normal(size=1000), 30 * rng.normal(size=(20, 50)), np.array(0.7), np.array(-0.0)):
        new, old = T._sigmoid(v), _sigmoid_masked(v)
        assert new.shape == old.shape
        assert np.array_equal(new, old) and np.array_equal(np.signbit(new), np.signbit(old))


def _time_major(per_sample, width):
    """Stack (n, L_b) matrices as time-major (n, width*B) columns, padding with random values."""
    batch = len(per_sample)
    out = np.random.default_rng(26).normal(size=(per_sample[0].shape[0], width * batch))
    for b, x in enumerate(per_sample):
        out[:, b : x.shape[1] * batch : batch] = x
    return out


def test_bmatmul_is_the_per_sample_product_and_its_gradients_match_finite_differences():
    rng = np.random.default_rng(27)
    w = rng.normal(size=(3, 4, 5))
    widths = [4, 1, 2]
    xs = [rng.normal(size=(5, n)) for n in widths]
    tape = Tape()
    out = T.bmatmul(tape.constant(w), tape.constant(_time_major(xs, 4)), widths)
    for b, x in enumerate(xs):
        # real columns bit for bit the 2-d product of the sample's own width
        assert np.array_equal(out.value[:, b : x.shape[1] * 3 : 3], w[b] @ x)

    base = rng.normal(size=(4, 5))
    x = rng.normal(size=(5, 12))
    probe = rng.normal(size=(4, 12))
    tape = Tape()
    y = T.bmatmul(T.broadcast_batch(tape.param("w", base), 3), tape.param("x", x))
    grads = tape.backward(T.dot(y, tape.constant(probe)))

    def f_w(wt):
        t = Tape()
        return float((T.bmatmul(T.broadcast_batch(t.constant(wt), 3), t.constant(x)).value * probe).sum())

    def f_x(xt):
        t = Tape()
        return float((T.bmatmul(T.broadcast_batch(t.constant(base), 3), t.constant(xt)).value * probe).sum())

    assert rel_err(grads["w"], finite_diff_grad(f_w, base)) < 1e-7
    assert rel_err(grads["x"], finite_diff_grad(f_x, x)) < 1e-7
    with pytest.raises(T.ShapeError):
        T.bmatmul(tape.constant(w), tape.constant(rng.normal(size=(5, 4))))


@pytest.mark.parametrize("retention", [True, False])
def test_batched_decay_scan_is_each_samples_own_scan(retention):
    rng = np.random.default_rng(28)
    widths = [3, 1, 2, 0]
    cols = 3
    per_sample = [_decay_scan_inputs(rng, n=cols) for _ in widths]
    m0 = np.stack([v[0] for v in per_sample])
    keys, u = (_time_major([v[i] for v in per_sample], cols) for i in (1, 2))
    eta, alpha = (_time_major([v[i][None, :] for v in per_sample], cols)[0] for i in (3, 4))
    tape = Tape()
    names = ["m0", "keys", "u", "eta", "alpha"]
    params = [tape.param(n, v) for n, v in zip(names, (m0, keys, u, eta, alpha))]
    out = T.decay_scan(*params, retention, widths)
    probe = rng.normal(size=out.value.shape)
    grads = tape.backward(T.dot(out, tape.constant(probe)))
    for b, (vals, n) in enumerate(zip(per_sample, widths)):
        t = Tape()
        if n == 0:
            # every column padded: the state passes through untouched
            assert np.array_equal(out.value[b], vals[0])
            continue
        args = [t.param("m0", vals[0])] + [t.param(name, v[..., :n]) for name, v in zip(names[1:], vals[1:])]
        alone = T.decay_scan(*args, retention)
        assert np.array_equal(out.value[b], alone.value)
        g_alone = t.backward(T.dot(alone, t.constant(probe[b])))
        assert np.abs(grads["m0"][b] - g_alone["m0"]).max() < 1e-12
        for name in names[1:]:
            g = grads[name][..., b::4]
            assert np.abs(g[..., :n] - g_alone[name]).max() < 1e-12
            assert not np.any(g[..., n:]), name  # padded columns receive no gradient


# alpha in [0, 1]; eta = softplus(.) has no upper bound, and large eta on
# keys that are not unit-norm is where the triangular solve is worst conditioned
_ALPHA = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))
_ETA = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 3.0))


@st.composite
def _scan_cases(draw):
    batch, p, n, cols = draw(st.integers(1, 3)), draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 10))
    widths = draw(st.lists(st.integers(0, cols), min_size=batch, max_size=batch))
    gates = [draw(st.lists(gate, min_size=cols * batch, max_size=cols * batch)) for gate in (_ETA, _ALPHA)]
    unit_keys = draw(st.booleans())
    return widths, cols, p, n, draw(st.booleans()), unit_keys, np.array(gates), draw(st.integers(0, 2**32 - 1))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(_scan_cases())
def test_decay_scan_matches_the_per_token_graph_on_random_batches(case):
    widths, cols, p, n, retention, unit_keys, gates, seed = case
    batch = len(widths)
    rng = np.random.default_rng(seed)
    keys = rng.normal(size=(n, cols * batch))
    if unit_keys:
        keys = keys / np.linalg.norm(keys, axis=0)
    vals = [rng.normal(size=(batch, p, n)), keys, rng.normal(size=(p, cols * batch)), *gates]
    probe = rng.normal(size=(batch, p, n))

    def scan(tape, shift=0.0, direction=None):
        args = [tape.param(f"p{i}", v if direction is None else v + shift * direction[i]) for i, v in enumerate(vals)]
        return T.decay_scan(*args, retention, widths)

    tape = Tape()
    out = scan(tape)
    grads = tape.backward(T.dot(out, tape.constant(probe)))
    out = out.value
    for b, w in enumerate(widths):
        state, g_own = vals[0][b], {"p0": probe[b]}
        if w:
            t = Tape()
            own = [t.param("p0", vals[0][b])] + [t.param(f"p{i}", v[..., b::batch][..., :w]) for i, v in enumerate(vals) if i]
            oracle = _decay_scan_oracle(*own, retention)
            state, g_own = oracle.value, t.backward(T.dot(oracle, t.constant(probe[b])))
        for got, want in [(out[b], state), (grads["p0"][b], g_own["p0"])] + [
            (grads[f"p{i}"][..., b::batch][..., :w], g_own.get(f"p{i}", 0.0)) for i in range(1, 5)
        ]:
            assert np.abs(got - want).max(initial=0.0) <= 1e-12 * max(np.abs(want).max(initial=1.0), 1.0)
        for i in range(1, 5):  # padded columns receive no gradient
            assert not np.any(grads[f"p{i}"][..., b::batch][..., w:])

    direction = [rng.normal(size=v.shape) for v in vals]
    along = sum(float((grads[f"p{i}"] * d).sum()) for i, d in enumerate(direction))
    fd = finite_diff_grad(lambda s: float((scan(Tape(), float(s[0]), direction).value * probe).sum()), np.array([0.0]))
    assert abs(fd[0] - along) <= 1e-6 * max(abs(along), 1.0)
