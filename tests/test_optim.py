"""AdamW: decay-only step, closed-form single step, determinism, and the
flat buffer that holds the trainable parameters and both moments."""

import numpy as np
import pytest

from doprompt import optim, pipeline
from doprompt.tensor import ShapeError, Tensor
from doprompt.vit import ViTConfig


def make_params(rng, shapes):
    return {f"p{i}": Tensor(rng.normal(size=s), requires_grad=True) for i, s in enumerate(shapes)}


def step(params, grads, state, lr, weight_decay=0.0):
    """`optim.step_params` over every parameter of `params`, after setting
    each one's grad from `grads` (a name it lacks gets none)."""
    for name, p in params.items():
        p.grad = grads.get(name)
    optim.step_params(params, state, list(params), lr, weight_decay)


def test_zero_gradient_is_pure_decay():
    p = Tensor(np.array([2.0, -3.0]), requires_grad=True)
    params = {"w": p}
    state = optim.init_adamw_state(params)
    grads = {"w": np.zeros(2, dtype=np.float32)}
    before = p.data.copy()
    step(params, grads, state, lr=0.1, weight_decay=0.01)
    np.testing.assert_allclose(p.data, 0.999 * before, rtol=1e-6)


def test_single_step_matches_closed_form():
    # wd = 0: p <- p - lr * mhat / (sqrt(vhat) + eps) with bias-corrected moments
    rng = np.random.default_rng(0)
    g = rng.normal(size=(3, 2)).astype(np.float32)
    p0 = rng.normal(size=(3, 2)).astype(np.float32)
    params = {"w": Tensor(p0.copy(), requires_grad=True)}
    state = optim.init_adamw_state(params)
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    step(params, {"w": g}, state, lr=lr, weight_decay=0.0)
    assert params["w"].grad is None

    m = (1 - b1) * g
    v = (1 - b2) * g * g
    m_hat = m / (1 - b1)
    v_hat = v / (1 - b2)
    expected = p0 - lr * m_hat / (np.sqrt(v_hat) + eps)
    np.testing.assert_allclose(params["w"].data, expected, atol=1e-6)


def test_two_steps_match_hand_rolled_moments():
    rng = np.random.default_rng(1)
    p0 = rng.normal(size=4).astype(np.float32)
    g1 = rng.normal(size=4).astype(np.float32)
    g2 = rng.normal(size=4).astype(np.float32)
    params = {"w": Tensor(p0.copy(), requires_grad=True)}
    state = optim.init_adamw_state(params)
    lr, b1, b2, eps, wd = 0.01, 0.9, 0.999, 1e-8, 0.1
    step(params, {"w": g1}, state, lr=lr, weight_decay=wd)
    step(params, {"w": g2}, state, lr=lr, weight_decay=wd)

    p, m, v = p0.astype(np.float64), np.zeros(4), np.zeros(4)
    for t, g in enumerate((g1, g2), start=1):
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        p = p - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        p = p - lr * wd * p
    np.testing.assert_allclose(params["w"].data, p, atol=1e-6)


def test_determinism_bit_identical():
    def run():
        rng = np.random.default_rng(42)
        params = make_params(rng, [(4, 3), (3,)])
        state = optim.init_adamw_state(params)
        for _ in range(5):
            grads = {name: rng.normal(size=p.data.shape).astype(np.float32) for name, p in params.items()}
            step(params, grads, state, lr=1e-2, weight_decay=1e-2)
        return {name: p.data.tobytes() for name, p in params.items()}

    assert run() == run()


def reference_adamw_step(params, state, trainable, lr, weight_decay, beta1=0.9, beta2=0.999, eps=1e-8):
    """The out-of-place AdamW formula that the in-place update must equal bitwise."""
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for name in trainable:
        p = params[name]
        g = np.zeros_like(p.data) if p.grad is None else p.grad
        m, v = state.m[name], state.v[name]
        m[...] = beta1 * m + (1.0 - beta1) * g
        v[...] = beta2 * v + (1.0 - beta2) * (g * g)
        m_hat = m / bc1
        v_hat = v / bc2
        p.data = p.data - lr * m_hat / (np.sqrt(v_hat) + eps)
        if weight_decay:
            p.data = p.data - lr * weight_decay * p.data
        p.grad = None


def test_in_place_update_is_bitwise_equal_to_the_out_of_place_formula():
    def run(step_params):
        rng = np.random.default_rng(7)
        params = make_params(rng, [(4, 3), (3,), (2, 2), (3, 2)])
        params["p3"].requires_grad = False  # frozen: no moments, never stepped
        state = optim.init_adamw_state(params)
        assert list(state.m) == list(state.v) == ["p0", "p1", "p2"]
        for _ in range(5):
            for name, p in params.items():
                p.grad = rng.normal(size=p.data.shape).astype(np.float32)
            params["p2"].grad = None  # a missing grad still decays its parameter
            step_params(params, state, state.m, 3e-2, 1e-2)
            assert [p.grad is None for p in params.values()] == [True, True, True, False]
        return [
            *(a.tobytes() for name in state.m for a in (params[name].data, state.m[name], state.v[name])),
            params["p3"].data.tobytes(),
        ]

    assert run(optim.step_params) == run(reference_adamw_step)


def test_in_place_update_equals_the_per_parameter_loop_at_default_shapes():
    def run(step_params):
        state = pipeline.init_state(ViTConfig(), 3, 4, seed=0)
        params = state.named_params()
        frozen, missing = "vit.patch.w", "prompts.bank"
        params[frozen].requires_grad = False
        opt = optim.init_adamw_state(params)
        rng = np.random.default_rng(3)
        for _ in range(5):
            for name, p in params.items():
                p.grad = rng.normal(size=p.shape).astype(np.float32)
            params[missing].grad = None
            step_params(params, opt, opt.m, 1e-3, 1e-2)
        moments = [(opt.m.get(name, p.data), opt.v.get(name, p.data)) for name, p in params.items()]
        return [a.tobytes() for p, (m, v) in zip(params.values(), moments) for a in (p.data, m, v)]

    assert run(optim.step_params) == run(reference_adamw_step)


def test_init_puts_the_trainable_parameters_in_one_buffer_and_the_moments_in_another():
    rng = np.random.default_rng(0)
    params = make_params(rng, [(4, 3), (3,), (2, 2)])
    params["p1"].requires_grad = False
    frozen = params["p1"].data
    values = {name: p.data.copy() for name, p in params.items()}
    state = optim.init_adamw_state(params)
    assert state.data.shape == (12 + 4,) and state.moments.shape == (2, 12 + 4)
    for name in ("p0", "p2"):
        assert params[name].data.base is state.data and np.shares_memory(params[name].data, state.data), name
        assert params[name].data.tobytes() == values[name].tobytes()
        for moment, row in ((state.m[name], state.moments[0]), (state.v[name], state.moments[1])):
            assert moment.base is state.moments and np.shares_memory(moment, row) and not moment.any(), name
    assert params["p1"].data is frozen and params["p1"].data.tobytes() == values["p1"].tobytes()
    assert not np.shares_memory(frozen, state.data) and not np.shares_memory(frozen, state.moments)
    assert list(state.m) == list(state.v) == ["p0", "p2"]


def test_init_rejects_parameters_of_mixed_dtypes():
    params = make_params(np.random.default_rng(0), [(2,), (3,)])
    params["p1"].data = params["p1"].data.astype(np.float64)
    with pytest.raises(ValueError, match="'p1' is float64"):
        optim.init_adamw_state(params)


def test_a_rebound_parameter_is_rejected_before_any_update():
    params = make_params(np.random.default_rng(0), [(2,), (3,)])
    state = optim.init_adamw_state(params)
    params["p0"].data[...] = 2.0  # an in-place write keeps the parameter in the buffer
    step(params, {}, state, lr=0.1)
    params["p1"].data = params["p1"].data.copy()  # the update would go to the buffer, not to this copy
    before = state.data.tobytes(), state.moments.tobytes()
    with pytest.raises(ValueError, match="'p1' is no longer a view"):
        step(params, {}, state, lr=0.1)
    assert state.t == 1 and (state.data.tobytes(), state.moments.tobytes()) == before


@pytest.mark.parametrize("trainable", [["p0"], ["p1", "p0"], ["p0", "p1", "p2"]])
def test_trainable_names_must_be_the_state_names(trainable):
    params = make_params(np.random.default_rng(0), [(2,), (3,)])
    state = optim.init_adamw_state(params)
    with pytest.raises(ValueError, match="trainable names"):
        optim.step_params(params, state, trainable, 0.1)


def test_mismatched_shapes_rejected():
    params = {"w": Tensor(np.zeros(3), requires_grad=True)}
    state = optim.init_adamw_state(params)
    with pytest.raises(ShapeError, match="grad shape"):
        step(params, {"w": np.zeros(4, dtype=np.float32)}, state, lr=0.1)
    state.m["w"] = np.zeros(4, dtype=np.float32)
    with pytest.raises(ShapeError, match="moment shape"):
        step(params, {"w": np.zeros(3, dtype=np.float32)}, state, lr=0.1)


def test_missing_grad_still_decays():
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    state = optim.init_adamw_state(params)
    step(params, {}, state, lr=0.1, weight_decay=0.5)
    np.testing.assert_allclose(params["w"].data, [0.95], rtol=1e-6)
