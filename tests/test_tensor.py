"""Tensor engine: forward values against independent oracles, gradients
against central finite differences, stop-gradient and determinism contracts."""

import math
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from doprompt import tensor as T
from doprompt.tensor import ShapeError, Tensor

from conftest import (
    central_diff,
    check_gradient,
    count_gelu_derivatives,
    erf64,
    rel_error,
    unfused_attention,
    unfused_mlp,
)


def series_erf(x: float, terms: int = 40) -> float:
    """erf via its Maclaurin series; independent of `math.erf`."""
    total = 0.0
    for n in range(terms):
        total += (-1) ** n * x ** (2 * n + 1) / (math.factorial(n) * (2 * n + 1))
    return 2.0 / math.sqrt(math.pi) * total


# ---------------------------------------------------------------------------
# matmul


def test_matmul_identity():
    eye = Tensor(np.eye(2))
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(eye, a)
    np.testing.assert_allclose(out.data, [[1, 2], [3, 4]])


def test_matmul_all_ones_sum():
    out = T.matmul(Tensor([[1.0, 1.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_allclose(out.data, [[2.0]])


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_matmul_gradient_finite_difference_32bit():
    rng = np.random.default_rng(0)
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    loss = T.tensor_sum(T.matmul(a, b))
    T.backward(loss)

    def f():
        return float(np.matmul(a.data, b.data).sum())

    for p in (a, b):
        numeric = central_diff(f, p.data, h=1e-3)
        assert rel_error(p.grad, numeric) < 1e-3


# ---------------------------------------------------------------------------
# softmax


def test_softmax_symmetry():
    out = T.softmax(Tensor([0.0, 0.0, 0.0]), axis=-1)
    np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-7)


def test_softmax_exp_log_identity():
    out = T.softmax(Tensor([math.log(1), math.log(2), math.log(3)]), axis=-1)
    np.testing.assert_allclose(out.data, [1 / 6, 1 / 3, 1 / 2], atol=1e-6)


def test_softmax_large_inputs_no_overflow():
    out = T.softmax(Tensor([1000.0, 0.0]), axis=-1)
    assert np.all(np.isfinite(out.data))
    np.testing.assert_allclose(out.data, [1.0, 0.0], atol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_softmax_rows_on_simplex(seed):
    rng = np.random.default_rng(seed)
    out = T.softmax(Tensor(rng.normal(scale=5.0, size=(4, 7))), axis=-1)
    assert np.all(out.data > 0) and np.all(out.data < 1)
    np.testing.assert_allclose(out.data.sum(axis=-1), 1.0, atol=1e-6)


# ---------------------------------------------------------------------------
# layer norm


def test_layer_norm_constant_row_is_zero():
    g = Tensor(np.ones(4))
    b = Tensor(np.zeros(4))
    out = T.layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), g, b)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-6)


def test_layer_norm_already_normalized():
    g = Tensor(np.ones(2))
    b = Tensor(np.zeros(2))
    out = T.layer_norm(Tensor([[1.0, -1.0]]), g, b, eps=1e-12)
    np.testing.assert_allclose(out.data, [[1.0, -1.0]], atol=1e-5)


def test_layer_norm_matches_direct_formula():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(2, 6))
    gamma = rng.normal(size=6)
    beta = rng.normal(size=6)
    out = T.layer_norm(Tensor(x), Tensor(gamma), Tensor(beta), eps=1e-5)
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    expected = gamma * (x - mu) / np.sqrt(var + 1e-5) + beta
    np.testing.assert_allclose(out.data, expected, atol=1e-6)


def var_layer_norm(x, gamma, beta, g, eps=1e-5):
    """The `x.var` form of layer norm and its backward: the oracle for the
    single-centring form `tensor.layer_norm` computes."""
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    gxhat = g * gamma
    gx = inv * (
        gxhat
        - gxhat.mean(axis=-1, keepdims=True)
        - xhat * (gxhat * xhat).mean(axis=-1, keepdims=True)
    )

    def to_row(a):  # the engine sums broadcast axes off one at a time
        while a.ndim > 1:
            a = a.sum(axis=0)
        return a

    return gamma * xhat + beta, gx, to_row(g * xhat), to_row(g)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("shape", [(48, 21, 64), (128, 21, 64), (2, 3)])
def test_layer_norm_is_bitwise_the_var_formula(dtype, shape):
    rng = np.random.default_rng(7)
    x, g = (rng.normal(1.0, 2.0, size=shape).astype(dtype) for _ in range(2))
    gamma, beta = (rng.normal(size=shape[-1]).astype(dtype) for _ in range(2))
    with T.default_dtype(dtype):
        xt, gt, bt = Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True), Tensor(beta, requires_grad=True)
        out = T.layer_norm(xt, gt, bt)
        T.backward(T.tensor_sum(out * Tensor(g)))
    for got, want in zip((out.data, xt.grad, gt.grad, bt.grad), var_layer_norm(x, gamma, beta, g)):
        assert got.dtype == want.dtype == np.dtype(dtype)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("axis", [1, -1])
def test_concat_backward_is_bitwise_that_of_np_split(axis):
    rng = np.random.default_rng(3)
    shapes = [(2, 1, 3), (2, 4, 3), (2, 2, 3)] if axis == 1 else [(2, 3, 1), (2, 3, 5), (2, 3, 2)]
    parts = [Tensor(rng.normal(size=shape), requires_grad=True) for shape in shapes]
    out = T.concat(parts, axis=axis)
    g = rng.normal(size=out.shape).astype(np.float32)
    T.backward(T.tensor_sum(out * Tensor(g)))
    splits = np.cumsum([shape[axis] for shape in shapes])[:-1]
    for p, want in zip(parts, np.split(g, splits, axis=axis)):
        assert p.grad.shape == want.shape and p.grad.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# gelu


def test_gelu_zero():
    assert T.gelu(Tensor(0.0)).item() == 0.0


def test_gelu_saturating_tail():
    assert abs(T.gelu(Tensor(-10.0)).item()) < 1e-9


def test_gelu_at_one_matches_erf_series():
    phi_1 = 0.5 * (1.0 + series_erf(1.0 / math.sqrt(2.0)))
    assert abs(T.gelu(Tensor(1.0)).item() - 1.0 * phi_1) < 1e-6
    assert abs(1.0 * phi_1 - 0.8413) < 5e-4


@pytest.mark.parametrize("x", [-2.0, -0.5, 0.3, 1.7])
def test_gelu_matches_erf_series_pointwise(x):
    expected = x * 0.5 * (1.0 + series_erf(x / math.sqrt(2.0)))
    assert abs(T.gelu(Tensor(x)).item() - expected) < 1e-6


def test_gelu_float32_within_2e6_of_float64_scipy():
    # 400001 points span several evaluation chunks and end in a partial one
    x32 = np.linspace(-10.0, 10.0, 400001).astype(np.float32)
    x64 = x32.astype(np.float64)
    exact = x64 * 0.5 * (1.0 + erf64(x64 / math.sqrt(2.0)))
    out = T.gelu(Tensor(x32)).data
    assert out.dtype == np.float32
    assert np.abs(out - exact).max() < 2e-6
    # a strided view gives the values of its contiguous copy
    grid = x32[:400000].reshape(800, 500)
    np.testing.assert_array_equal(T.gelu(Tensor(grid.T)).data, T.gelu(Tensor(grid)).data.T)
    with T.default_dtype("float64"):
        np.testing.assert_array_equal(T.gelu(Tensor(x64)).data, exact)


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_logits():
    logits = Tensor(np.zeros((2, 4)))
    loss = T.cross_entropy(logits, np.array([0, 3]))
    assert abs(loss.item() - math.log(4)) < 1e-6


def test_cross_entropy_saturated_correct_prediction():
    logits = np.zeros((1, 3))
    logits[0, 1] = 1e4
    assert T.cross_entropy(Tensor(logits), np.array([1])).item() < 1e-6


def test_cross_entropy_matches_hand_evaluation():
    rng = np.random.default_rng(7)
    logits = rng.normal(size=(2, 3))
    targets = np.array([2, 0])
    loss = T.cross_entropy(Tensor(logits), targets)
    expected = 0.0
    for i, t in enumerate(targets):
        row = logits[i]
        expected += -(row[t] - np.log(np.exp(row).sum()))
    expected /= 2
    assert abs(loss.item() - expected) < 1e-6


def test_cross_entropy_target_out_of_range():
    with pytest.raises(IndexError):
        T.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))


# ---------------------------------------------------------------------------
# backward

def test_backward_quadratic():
    x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
    loss = T.tensor_sum(x * x)
    T.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * x.data, atol=1e-6)


def test_backward_requires_scalar():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        T.backward(x * 2.0)


def test_backward_accumulates_on_shared_input():
    x = Tensor([2.0], requires_grad=True)
    loss = T.tensor_sum(x * 3.0) + T.tensor_sum(x * 5.0)
    T.backward(loss)
    np.testing.assert_allclose(x.grad, [8.0])


def test_a_repeated_backward_doubles_the_leaf_gradients_and_releases_the_interior_ones():
    rng = np.random.default_rng(3)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    c = Tensor([2.0], requires_grad=True)
    h = T.matmul(x, w)
    loss = T.tensor_sum(h * h + h) + T.tensor_sum(c * 3.0)  # h fans out to two nodes
    T.backward(loss)
    once = [x.grad.copy(), w.grad.copy(), c.grad.copy()]
    assert h.grad is None and loss.grad is None
    T.backward(loss)
    for leaf, grad in zip((x, w, c), once):
        np.testing.assert_array_equal(leaf.grad, 2 * grad)
    np.testing.assert_array_equal(c.grad, [6.0])


def test_backward_two_layer_mlp_finite_difference():
    with T.default_dtype("float64"):
        rng = np.random.default_rng(11)
        params = {
            "w1": Tensor(rng.normal(size=(4, 5)), requires_grad=True),
            "b1": Tensor(rng.normal(size=5), requires_grad=True),
            "w2": Tensor(rng.normal(size=(5, 2)), requires_grad=True),
            "b2": Tensor(rng.normal(size=2), requires_grad=True),
        }
        x = rng.normal(size=(3, 4))
        y = np.array([0, 1, 0])

        def build():
            h = T.gelu(T.matmul(Tensor(x), params["w1"]) + params["b1"])
            return T.cross_entropy(T.matmul(h, params["w2"]) + params["b2"], y)

        check_gradient(build, params, h=1e-6, tol=1e-6)


# ---------------------------------------------------------------------------
# detach


def test_detach_preserves_values():
    x = Tensor([1.0, 2.0], requires_grad=True)
    d = T.detach(x)
    np.testing.assert_array_equal(d.data, x.data)
    assert not d.requires_grad


def test_detach_blocks_gradient():
    x = Tensor([1.0, 2.0], requires_grad=True)
    loss = T.tensor_sum(T.detach(x) * 3.0)
    T.backward(loss)
    assert x.grad is None


def test_detach_mixed_graph_gradient_is_one():
    # y = x + detach(x): only the live branch contributes, dy/dx = 1 not 2
    with T.default_dtype("float64"):
        x = Tensor([1.5], requires_grad=True)
        loss = T.tensor_sum(x + T.detach(x))
        T.backward(loss)
        np.testing.assert_allclose(x.grad, [1.0])

        def f():
            return float(x.data[0] + 1.5)  # detached copy frozen at its value

        numeric = central_diff(f, x.data, h=1e-6)
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)


# ---------------------------------------------------------------------------
# dropout and no_grad


def test_dropout_eval_is_identity():
    x = Tensor(np.ones((4, 4)), requires_grad=True)
    out = T.dropout(x, 0.5, None)
    assert out is x


def test_dropout_deterministic_given_seed():
    x = Tensor(np.ones((8, 8)))
    a = T.dropout(x, 0.3, np.random.default_rng(5))
    b = T.dropout(x, 0.3, np.random.default_rng(5))
    np.testing.assert_array_equal(a.data, b.data)


def test_keep_mask_keeps_one_minus_the_16_bit_threshold_share():
    keep = T._keep_mask((1024, 1024), 0.1, np.random.default_rng(17))
    assert keep.dtype == np.bool_ and keep.nbytes == keep.size
    p = 1.0 - 6554 / 65536  # threshold round(0.1 * 65536)
    assert abs(keep.mean() - p) < 5.0 * math.sqrt(p * (1.0 - p) / keep.size)


def test_dropout_just_below_rate_one_keeps_the_top_16_bit_value_and_stays_finite():
    # round(0.999999 * 65536) is 65536, which no 16-bit draw reaches; the cap keeps 65535
    x = Tensor(np.random.default_rng(2).normal(size=(512, 512)))
    out = T.dropout(x, 0.999999, np.random.default_rng(3))
    kept = np.random.default_rng(3).bit_generator.random_raw(512 * 512 // 4).view(np.uint16).reshape(512, 512) == 65535
    assert kept.any() and np.isfinite(out.data).all()
    np.testing.assert_array_equal(out.data != 0.0, kept)


@pytest.mark.parametrize("rate", [0.3, 0.0])
def test_dropout_attention_and_mlp_draw_the_keep_mask_stream_in_turn(rate):
    data = np.random.default_rng(4)
    x = Tensor(data.normal(size=(3, 5, 8)))
    qkv = Tensor(data.normal(size=(3, 5, 24)))
    w1, b1, w2, b2 = (Tensor(data.normal(size=s)) for s in ((8, 16), (16,), (16, 8), (8,)))
    rng, twin = np.random.default_rng(21), np.random.default_rng(21)
    dropped = T.dropout(x, rate, rng)
    attended = T.attention(qkv, 2, rate, rng)
    mixed = T.mlp(x, w1, b1, w2, b2, rate, rng)
    # input, attention probabilities (odd size: 150 draws of 16 bits), MLP hidden layer, MLP output
    masks = [T._keep_mask(shape, rate, twin) for shape in ((3, 5, 8), (3, 2, 5, 5), (15, 16), (15, 8))]
    assert T._keep_mask((3, 5, 8), rate, None) is None
    if rate == 0.0:
        # nothing is drawn, and every output is the one a pass without a generator gives
        assert masks == [None] * 4 and dropped is x
        assert twin.bit_generator.state == np.random.default_rng(21).bit_generator.state
        np.testing.assert_array_equal(attended.data, T.attention(qkv, 2, rate, None).data)
        np.testing.assert_array_equal(mixed.data, T.mlp(x, w1, b1, w2, b2, rate, None).data)
    else:
        np.testing.assert_array_equal(dropped.data, x.data * (1.0 / (1.0 - rate)) * masks[0])
    assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()


def test_no_grad_records_nothing():
    x = Tensor([1.0], requires_grad=True)
    with T.no_grad():
        y = x * 2.0
    assert not y.requires_grad and y._record is None


def test_no_grad_in_one_thread_leaves_recording_on_in_another():
    x = Tensor([1.0], requires_grad=True)
    entered, release, inside = threading.Event(), threading.Event(), []

    def other():
        with T.no_grad():
            entered.set()
            release.wait(5.0)
            inside.append(x * 2.0)

    thread = threading.Thread(target=other)
    thread.start()
    try:
        assert entered.wait(5.0)
        y = x * 2.0
    finally:
        release.set()
        thread.join()
    assert y.requires_grad and y._record is not None
    assert inside[0]._record is None and T._GRAD.enabled


def test_backward_into_a_dict_leaves_every_grad_alone_and_matches_it_bitwise():
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    frozen = Tensor(rng.normal(size=(5,)))

    def loss():
        h = T.matmul(x, w) + frozen
        return T.tensor_sum(h * h) + T.tensor_sum(x)  # x reaches the loss twice

    grads = {}
    T.backward(loss(), grads)
    T.backward(loss(), grads)  # accumulates onto the dict's arrays
    assert set(grads) == {x, w} and x.grad is None and w.grad is None
    T.backward(loss())
    T.backward(loss())
    assert grads[x].tobytes() == x.grad.tobytes() and grads[w].tobytes() == w.grad.tobytes()
    scalar, into = Tensor(1.5, requires_grad=True), {}
    T.backward(scalar, into)  # a loss that is itself a leaf
    assert into[scalar] == 1.0 and scalar.grad is None


def test_an_interior_output_is_freed_with_its_tensor_unless_a_closure_reads_it():
    rng = np.random.default_rng(20)
    x = Tensor(rng.normal(size=(2, 5, 8)), requires_grad=True)
    w, b = Tensor(rng.normal(size=(8, 24)), requires_grad=True), Tensor(rng.normal(size=24), requires_grad=True)
    qkv = T.linear(x, w, b)
    p = T.softmax(T.attention(qkv, 2, 0.3, np.random.default_rng(7)), axis=-1)
    loss = T.tensor_sum(p)
    # attention keeps its own copies of q, k and v; softmax's backward reads its output
    unread, read = weakref.ref(qkv.data), weakref.ref(p.data)
    del qkv, p
    assert unread() is None and read() is not None
    T.backward(loss)
    assert all(t.grad is not None and np.isfinite(t.grad).all() for t in (x, w, b))


# ---------------------------------------------------------------------------
# op-by-op gradient checks (64-bit)

OPS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "mul": lambda a, b: a * b,
    "div": lambda a, b: T.div(a, b * b + 1.0),
    "matmul": lambda a, b: T.matmul(a, T.transpose(b, (1, 0))),
    "exp": lambda a, b: T.exp(a),
    "log": lambda a, b: T.log(a * a + 1.0),
    "softmax": lambda a, b: T.softmax(a, axis=-1),
    "gelu": lambda a, b: T.gelu(a),
    "reshape": lambda a, b: T.reshape(a, (6, 2)),
    "transpose": lambda a, b: T.transpose(a, (1, 0)),
    "broadcast": lambda a, b: T.broadcast_to(T.reshape(a, (3, 1, 4)), (3, 5, 4)),
    "concat": lambda a, b: T.concat([a, b], axis=1),
    "getitem": lambda a, b: a[1:, :2],
    "sum_axis": lambda a, b: T.tensor_sum(a, axis=0),
    "clamp": lambda a, b: T.clamp_min(a, 0.1),
}


@pytest.mark.parametrize("name", sorted(OPS))
@pytest.mark.parametrize("seed", [0, 1])
def test_op_gradients_64bit(name, seed):
    with T.default_dtype("float64"):
        rng = np.random.default_rng(seed)
        a = Tensor(rng.normal(size=(3, 4)) + 2.0, requires_grad=True)
        b = Tensor(rng.normal(size=(3, 4)) + 2.0, requires_grad=True)

        def build():
            out = OPS[name](a, b)
            return T.tensor_sum(out * out)

        check_gradient(build, {"a": a, "b": b}, h=1e-6, tol=1e-6)


def test_layer_norm_gradient_64bit():
    with T.default_dtype("float64"):
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
        g = Tensor(rng.normal(size=6) + 1.0, requires_grad=True)
        b = Tensor(rng.normal(size=6), requires_grad=True)

        def build():
            out = T.layer_norm(x, g, b)
            return T.tensor_sum(out * out)

        check_gradient(build, {"x": x, "g": g, "b": b}, h=1e-6, tol=1e-6)


def test_cross_entropy_gradient_64bit():
    with T.default_dtype("float64"):
        rng = np.random.default_rng(4)
        logits = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        y = np.array([0, 2, 1, 1])

        def build():
            return T.cross_entropy(logits, y)

        check_gradient(build, {"logits": logits}, h=1e-6, tol=1e-6)


# ---------------------------------------------------------------------------
# fused nodes: linear, attention and mlp


def test_linear_gradient_64bit_on_3d_input():
    with T.default_dtype("float64"):
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
        b = Tensor(rng.normal(size=5), requires_grad=True)
        np.testing.assert_allclose(T.linear(x, w, b).data, x.data @ w.data + b.data, rtol=1e-12)

        def build():
            out = T.linear(x, w, b)
            return T.tensor_sum(out * out)

        check_gradient(build, {"x": x, "w": w, "b": b}, h=1e-6, tol=1e-6)


def test_frozen_linear_and_layer_norm_pass_only_the_input_gradient_64bit():
    with T.default_dtype("float64"):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        w, b = Tensor(rng.normal(size=(4, 5))), Tensor(rng.normal(size=5))
        gain, shift = Tensor(rng.normal(size=5) + 1.0), Tensor(rng.normal(size=5))

        def build():
            out = T.layer_norm(T.linear(x, w, b), gain, shift)
            return T.tensor_sum(out * out)

        check_gradient(build, {"x": x}, h=1e-6, tol=1e-6)
        assert all(p.grad is None for p in (w, b, gain, shift))
        # neither node computes a gradient for a frozen operand
        h = T.linear(x, w, b)
        out = T.layer_norm(h, gain, shift)
        gh, ggain, gshift = out._record.backward_fn(np.ones(out.shape))
        gx, gw, gb = h._record.backward_fn(gh)
        assert gx.shape == x.shape and gh.shape == h.shape
        assert ggain is None and gshift is None and gw is None and gb is None


def test_linear_shape_error_names_all_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\).*\(5,\)"):
        T.linear(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))), Tensor(np.zeros(5)))


def _attention_inputs(rng, b=2, t=5, d=8):
    """h plus the (D, 3D) q, k and v projection, scaled so the softmax is far from uniform."""
    return {
        "h": Tensor(rng.normal(size=(b, t, d)), requires_grad=True),
        "wqkv": Tensor(0.5 * rng.normal(size=(d, 3 * d)), requires_grad=True),
        "bqkv": Tensor(0.5 * rng.normal(size=3 * d), requires_grad=True),
    }


def _attention_loss(attend, inputs, weights, rate, seed=7, queries=None):
    # a fresh generator per evaluation draws the same dropout mask every time
    rng = np.random.default_rng(seed)
    out = attend(T.linear(inputs["h"], inputs["wqkv"], inputs["bqkv"]), 2, rate, rng, queries)
    return T.tensor_sum(out * weights)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_attention_gradient_64bit(rate):
    with T.default_dtype("float64"):
        rng = np.random.default_rng(11)
        inputs = _attention_inputs(rng)
        weights = Tensor(rng.normal(size=(2, 5, 8)))

        def loss():
            return _attention_loss(T.attention, inputs, weights, rate)

        T.backward(loss())
        for name, p in inputs.items():
            numeric = central_diff(lambda: loss().item(), p.data, h=1e-6)
            # the k bias shifts every score of a row equally, so its exact gradient is 0
            np.testing.assert_allclose(p.grad, numeric, rtol=1e-6, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_attention_matches_unfused_oracle_32bit(rate):
    # both sides project with `linear` and apply one mask with the same arithmetic, so they agree bitwise
    rng = np.random.default_rng(12)
    weights = Tensor(rng.normal(size=(2, 5, 8)))
    fused, oracle = _attention_inputs(np.random.default_rng(13)), _attention_inputs(np.random.default_rng(13))
    loss_fused = _attention_loss(T.attention, fused, weights, rate)
    loss_oracle = _attention_loss(unfused_attention, oracle, weights, rate)
    assert loss_fused.dtype == np.float32
    assert loss_fused.item() == loss_oracle.item()
    T.backward(loss_fused)
    T.backward(loss_oracle)
    for name in fused:
        assert fused[name].grad.dtype == np.float32, name
        np.testing.assert_array_equal(fused[name].grad, oracle[name].grad, err_msg=name)


@pytest.mark.parametrize("queries", [1, 3])
@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_attention_of_the_first_queries_gradient_64bit(rate, queries):
    with T.default_dtype("float64"):
        rng = np.random.default_rng(17)
        inputs = _attention_inputs(rng)
        weights = Tensor(rng.normal(size=(2, queries, 8)))

        def loss():
            return _attention_loss(T.attention, inputs, weights, rate, queries=queries)

        T.backward(loss())
        for name, p in inputs.items():
            numeric = central_diff(lambda: loss().item(), p.data, h=1e-6)
            np.testing.assert_allclose(p.grad, numeric, rtol=1e-6, atol=1e-8, err_msg=name)
        # the q of a token past the first `queries` reaches no output
        qkv = T.linear(inputs["h"], inputs["wqkv"], inputs["bqkv"])
        out = T.attention(qkv, 2, rate, np.random.default_rng(7), queries)
        (dqkv,) = out._record.backward_fn(weights.data)
        assert not dqkv[:, queries:, :8].any() and dqkv[:, queries:, 8:].any()


@pytest.mark.parametrize("queries", [1, 3])
def test_attention_of_the_first_queries_is_the_first_rows_32bit(queries):
    data = np.random.default_rng(18)
    qkv = Tensor(data.normal(size=(2, 5, 24)))
    pruned = T.attention(qkv, 2, 0.0, None, queries)
    assert pruned.shape == (2, queries, 8) and pruned.dtype == np.float32
    # a GEMM of fewer rows may sum in another order, so the rows agree to rounding
    np.testing.assert_allclose(pruned.data, T.attention(qkv, 2, 0.0, None).data[:, :queries], rtol=1e-6, atol=1e-7)
    np.testing.assert_allclose(pruned.data, unfused_attention(qkv, 2, 0.0, None).data[:, :queries], rtol=1e-6, atol=1e-7)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_attention_of_the_first_queries_matches_unfused_oracle_32bit(rate):
    # one mask of the pruned shape on both sides; a one-row GEMM rounds by its operands' layout, so not bitwise
    rng = np.random.default_rng(12)
    weights = Tensor(rng.normal(size=(2, 1, 8)))
    fused, oracle = _attention_inputs(np.random.default_rng(13)), _attention_inputs(np.random.default_rng(13))
    loss_fused = _attention_loss(T.attention, fused, weights, rate, queries=1)
    loss_oracle = _attention_loss(unfused_attention, oracle, weights, rate, queries=1)
    np.testing.assert_allclose(loss_fused.item(), loss_oracle.item(), rtol=1e-6)
    T.backward(loss_fused)
    T.backward(loss_oracle)
    for name in fused:
        np.testing.assert_allclose(fused[name].grad, oracle[name].grad, rtol=1e-5, atol=1e-6, err_msg=name)


@pytest.mark.parametrize("queries", [0, 6, -1])
def test_attention_rejects_queries_outside_the_tokens(queries):
    with pytest.raises(ShapeError, match=rf"queries must be in \[1, 5\] for 5 tokens, got {queries}"):
        T.attention(Tensor(np.zeros((2, 5, 24))), 2, 0.0, None, queries)


def _mlp_inputs(rng, b=2, t=5, d=8, hidden=16):
    """x and the two layers, scaled so GELU's curved region and both tails are reached."""
    return {
        "x": Tensor(rng.normal(size=(b, t, d)), requires_grad=True),
        "w1": Tensor(0.7 * rng.normal(size=(d, hidden)), requires_grad=True),
        "b1": Tensor(0.5 * rng.normal(size=hidden), requires_grad=True),
        "w2": Tensor(0.5 * rng.normal(size=(hidden, d)), requires_grad=True),
        "b2": Tensor(0.5 * rng.normal(size=d), requires_grad=True),
    }


def _mlp_loss(mlp, inputs, weights, rate, seed=7):
    # a fresh generator per evaluation draws the same two masks every time
    out = mlp(*inputs.values(), rate, np.random.default_rng(seed))
    return T.tensor_sum(out * weights)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_mlp_gradient_64bit(rate):
    with T.default_dtype("float64"):
        rng = np.random.default_rng(14)
        inputs = _mlp_inputs(rng)
        weights = Tensor(rng.normal(size=(2, 5, 8)))

        def loss():
            return _mlp_loss(T.mlp, inputs, weights, rate)

        T.backward(loss())
        for name, p in inputs.items():
            numeric = central_diff(lambda: loss().item(), p.data, h=1e-6)
            np.testing.assert_allclose(p.grad, numeric, rtol=1e-6, atol=1e-8, err_msg=name)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_mlp_matches_unfused_oracle_32bit(rate):
    # 300 rows x 256 wide is over one _CDF_CHUNK: GELU runs in a 256-row slice and a 44-row one
    assert 300 * 256 > T._CDF_CHUNK and 300 % (T._CDF_CHUNK // 256) != 0
    for b, t, hidden in ((2, 5, 16), (300, 1, 256)):
        rng = np.random.default_rng(15)
        weights = Tensor(rng.normal(size=(b, t, 8)))
        fused, oracle = (_mlp_inputs(np.random.default_rng(16), b=b, t=t, hidden=hidden) for _ in range(2))
        out_fused = T.mlp(*fused.values(), rate, np.random.default_rng(7))
        out_oracle = unfused_mlp(*oracle.values(), rate, np.random.default_rng(7))
        assert out_fused.dtype == np.float32
        np.testing.assert_array_equal(out_fused.data, out_oracle.data)
        T.backward(T.tensor_sum(out_fused * weights))
        T.backward(T.tensor_sum(out_oracle * weights))
        for name in fused:
            assert fused[name].grad.dtype == np.float32, name
            np.testing.assert_array_equal(fused[name].grad, oracle[name].grad, err_msg=name)
        assert rate == 0.0 or (out_fused.data == 0.0).any()


@pytest.mark.parametrize("frozen", [("w1", "b1", "w2", "b2"), ("x",)])
def test_mlp_computes_no_gradient_for_a_frozen_operand(frozen):
    weights = Tensor(np.random.default_rng(18).normal(size=(2, 5, 8)))
    live, part = _mlp_inputs(np.random.default_rng(19)), _mlp_inputs(np.random.default_rng(19))
    for name in frozen:
        part[name].requires_grad = False
    T.backward(_mlp_loss(T.mlp, live, weights, 0.3))
    T.backward(_mlp_loss(T.mlp, part, weights, 0.3))
    for name, p in part.items():
        if name in frozen:
            assert p.grad is None, name
        else:
            np.testing.assert_array_equal(p.grad, live[name].grad, err_msg=name)
    out = T.mlp(*part.values(), 0.3, np.random.default_rng(7))
    grads = dict(zip(part, out._record.backward_fn(np.ones(out.shape, dtype=np.float32))))
    assert [name for name, g in grads.items() if g is None] == list(frozen)


@pytest.mark.parametrize("frozen", [False, True])
def test_linear_and_mlp_keep_their_input_only_for_the_weight_gradient(frozen):
    rng = np.random.default_rng(22)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    w, b = Tensor(rng.normal(size=(8, 8)), requires_grad=not frozen), Tensor(np.zeros(8))
    h1, h2 = x * 2.0, x * 3.0
    loss = T.tensor_sum(T.linear(h1, w, b)) + T.tensor_sum(T.mlp(h2, w, b, w, b, 0.0, None))
    refs = [weakref.ref(h1.data), weakref.ref(h2.data)]
    del h1, h2
    assert [ref() is None for ref in refs] == [frozen, frozen]
    T.backward(loss)
    assert x.grad is not None and (w.grad is None) == frozen


def test_an_mlp_with_a_frozen_hidden_layer_computes_no_gelu_derivative(monkeypatch):
    calls = count_gelu_derivatives(monkeypatch)
    inputs = _mlp_inputs(np.random.default_rng(19))
    for name in ("x", "w1", "b1"):
        inputs[name].requires_grad = False
    out = T.mlp(*inputs.values(), 0.3, np.random.default_rng(7))
    T.backward(T.tensor_sum(out))
    assert out.requires_grad and inputs["w2"].grad is not None and inputs["b2"].grad is not None
    assert calls == []
    live = T.mlp(*_mlp_inputs(np.random.default_rng(19)).values(), 0.3, np.random.default_rng(7))
    assert live.requires_grad and calls == [(10, 16)]


def test_mlp_without_grads_holds_one_hidden_layer_array():
    # the inference shape of one EVAL_BATCH chunk at default shapes: 128 images x 21 tokens, width 64 -> 256
    rng = np.random.default_rng(25)
    x, w1, b1, w2, b2 = (Tensor(rng.normal(size=s)) for s in ((2688, 64), (64, 256), (256,), (256, 64), (64,)))
    hidden_bytes = 2688 * 256 * 4
    tracemalloc.start()
    try:
        with T.no_grad():
            base = tracemalloc.get_traced_memory()[0]
            out = T.mlp(x, w1, b1, w2, b2, 0.0, None)
            peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert out.shape == (2688, 64)
    assert peak < 2 * hidden_bytes


def test_mlp_under_no_grad_records_no_graph():
    inputs = _mlp_inputs(np.random.default_rng(19))
    with T.no_grad():
        out = T.mlp(*inputs.values(), 0.3, np.random.default_rng(7))
    assert not out.requires_grad and out._record is None


def test_mlp_shape_error_names_all_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 8\).*\(8, 16\).*\(16,\).*\(12, 8\).*\(8,\)"):
        T.mlp(*(Tensor(np.zeros(s)) for s in ((2, 8), (8, 16), (16,), (12, 8), (8,))), 0.0, None)


# ---------------------------------------------------------------------------
# determinism and dtype plumbing


def test_forward_deterministic():
    rng = np.random.default_rng(9)
    x = rng.normal(size=(3, 3))
    a = T.softmax(T.matmul(Tensor(x), Tensor(x)), axis=-1).data
    b = T.softmax(T.matmul(Tensor(x), Tensor(x)), axis=-1).data
    np.testing.assert_array_equal(a, b)


def test_default_dtype_switch():
    assert Tensor([1.0]).dtype == np.float32
    with T.default_dtype("float64"):
        assert Tensor([1.0]).dtype == np.float64
    assert Tensor([1.0]).dtype == np.float32


def test_ops_preserve_float32():
    x = Tensor(np.ones((2, 2)))
    for out in (T.gelu(x), T.softmax(x, -1), x * 2.0, T.exp(x)):
        assert out.dtype == np.float32, out
