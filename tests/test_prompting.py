"""Prompt bank, adapter, and composition against brute-force oracles."""

import numpy as np
import pytest

from doprompt import optim, pipeline, prompting, tensor as T
from doprompt.datagen import DomainBatch
from doprompt.tensor import ShapeError, Tensor

from conftest import erf64, grads_of, rel_error, tiny_run_config, unfused_adapter


def make_bank(k=3, length=4, dim=8, seed=0):
    return prompting.init_prompt_bank(k, length, dim, np.random.default_rng(seed))


def make_adapter(dim=8, k=3, length=4, seed=0):
    return prompting.init_adapter_params(dim, k, length, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# domain_prompts


def test_domain_prompts_shape():
    bank = make_bank(k=3, length=4, dim=8)
    out = prompting.domain_prompts(bank, 1)
    assert out.shape == (4, 8)


def test_bank_rows_are_distinct_draws():
    bank = make_bank()
    assert not np.array_equal(bank.data[0], bank.data[1])
    assert not np.array_equal(bank.data[1], bank.data[2])


def test_domain_prompts_out_of_range():
    bank = make_bank(k=3)
    with pytest.raises(IndexError):
        prompting.domain_prompts(bank, 3)
    with pytest.raises(IndexError):
        prompting.domain_prompts(bank, -1)


def test_gradient_touches_only_selected_row():
    bank = make_bank(k=3)
    g = grads_of(T.tensor_sum(prompting.domain_prompts(bank, 1)))[bank]
    np.testing.assert_array_equal(g[0], 0.0)
    np.testing.assert_array_equal(g[2], 0.0)
    np.testing.assert_array_equal(g[1], 1.0)


# ---------------------------------------------------------------------------
# adapter_forward


@pytest.mark.parametrize("seed", range(4))
def test_adapter_rows_on_simplex(seed):
    adapter = make_adapter(seed=seed)
    rng = np.random.default_rng(seed + 100)
    w = prompting.adapter_forward(adapter, make_bank(), Tensor(rng.normal(scale=3.0, size=(5, 8))))
    assert w.shape == (5, 4, 3)
    assert np.all(w.data > 0) and np.all(w.data < 1)
    np.testing.assert_allclose(w.data.sum(axis=-1), 1.0, atol=1e-6)


def test_adapter_zero_final_layer_gives_uniform():
    adapter = make_adapter(dim=8, k=3, length=4)
    adapter.w2.data[:] = 0.0
    adapter.b2.data[:] = 0.0
    w = prompting.adapter_forward(adapter, make_bank(), Tensor(np.random.default_rng(0).normal(size=(2, 8))))
    np.testing.assert_allclose(w.data, 1.0 / 3.0, atol=1e-7)


def test_adapter_matches_hand_evaluation():
    adapter = make_adapter(dim=8, k=3, length=2, seed=5)
    rng = np.random.default_rng(6)
    feats = rng.normal(size=(4, 8)).astype(np.float32)
    w = prompting.adapter_forward(adapter, make_bank(k=3, length=2), Tensor(feats)).data

    h_pre = feats @ adapter.w1.data + adapter.b1.data
    h = h_pre * 0.5 * (1.0 + erf64(h_pre / np.sqrt(2.0)))
    raw = (h @ adapter.w2.data + adapter.b2.data).reshape(4, 2, 3)
    e = np.exp(raw - raw.max(axis=-1, keepdims=True))
    expected = e / e.sum(axis=-1, keepdims=True)
    np.testing.assert_allclose(w, expected, atol=1e-6)


def test_adapter_is_bitwise_the_unfused_chain_32bit():
    # one mlp node against linear -> gelu -> linear -> reshape -> softmax
    rng = np.random.default_rng(7)
    bank = make_bank(k=3, length=4, dim=8)
    feats = Tensor(rng.normal(scale=2.0, size=(6, 8)))
    probe = Tensor(rng.normal(size=(6, 4, 3)))
    b1, b2 = rng.normal(size=8), rng.normal(size=12)  # non-zero biases
    results = []
    for forward in (prompting.adapter_forward, unfused_adapter):
        adapter = make_adapter(dim=8, k=3, length=4, seed=3)
        adapter.b1.data[:], adapter.b2.data[:] = b1, b2
        w = forward(adapter, bank, feats)
        grads = grads_of(T.tensor_sum(w * probe))
        results.append((w.data, [grads.get(p) for _, p in adapter.named()]))
    (fused, fused_grads), (unfused, unfused_grads) = results
    assert fused.dtype == np.float32
    assert fused.tobytes() == unfused.tobytes()
    for g_fused, g_unfused in zip(fused_grads, unfused_grads):
        assert g_fused is not None and g_fused.tobytes() == g_unfused.tobytes()


def test_doprompt_training_and_inference_call_no_gelu_node(monkeypatch):
    run = tiny_run_config(dropout=0.1)
    cfg = run.vit
    state = pipeline.init_state(cfg, 3, run.train.prompt_length, seed=0)
    rng = np.random.default_rng(0)
    batch = DomainBatch(
        images=rng.random((6, cfg.channels, cfg.image_size, cfg.image_size)).astype(np.float32),
        labels=rng.integers(0, cfg.num_classes, size=6),
        domains=np.repeat(np.arange(3), 2),
    )
    calls = []
    gelu = T.gelu
    monkeypatch.setattr(T, "gelu", lambda x: calls.append(x) or gelu(x))
    opt = optim.init_adamw_state(state.named_params())
    pipeline.train_step(state, opt, batch, run.train, np.random.default_rng(1))
    pipeline.infer(state, batch.images)
    assert calls == []


# ---------------------------------------------------------------------------
# compose_adapted_prompts


def brute_force_compose(bank, w):
    b, length, k = w.shape
    out = np.zeros((b, length, bank.shape[2]))
    for bi in range(b):
        for j in range(length):
            for d in range(k):
                out[bi, j] += w[bi, j, d] * bank[d, j]
    return out


def random_simplex(rng, shape):
    raw = rng.random(shape) + 1e-3
    return raw / raw.sum(axis=-1, keepdims=True)


def test_compose_one_hot_selects_domain_prompts():
    bank = make_bank(k=3, length=4, dim=8)
    w = np.zeros((2, 4, 3), dtype=np.float32)
    w[0, :, 2] = 1.0
    w[1, :, 0] = 1.0
    out = prompting.compose_adapted_prompts(bank, Tensor(w))
    np.testing.assert_array_equal(out.data[0], bank.data[2])
    np.testing.assert_array_equal(out.data[1], bank.data[0])


def test_compose_uniform_is_mean():
    bank = make_bank(k=3, length=4, dim=8)
    w = np.full((1, 4, 3), 1.0 / 3.0, dtype=np.float32)
    out = prompting.compose_adapted_prompts(bank, Tensor(w))
    np.testing.assert_allclose(out.data[0], bank.data.mean(axis=0), atol=1e-6)


@pytest.mark.parametrize("seed", range(5))
def test_compose_matches_triple_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    bank = make_bank(k=3, length=4, dim=8, seed=seed)
    w = random_simplex(rng, (6, 4, 3)).astype(np.float32)
    out = prompting.compose_adapted_prompts(bank, Tensor(w))
    np.testing.assert_allclose(out.data, brute_force_compose(bank.data, w), atol=1e-6)


def test_compose_shape_mismatch():
    bank = make_bank(k=3, length=4)
    with pytest.raises(ShapeError):
        prompting.compose_adapted_prompts(bank, Tensor(np.zeros((2, 4, 2))))
    with pytest.raises(ShapeError):
        prompting.compose_adapted_prompts(bank, Tensor(np.zeros((2, 3, 3))))


def test_compose_linear_in_weights():
    rng = np.random.default_rng(9)
    bank = make_bank()
    w1 = random_simplex(rng, (2, 4, 3)).astype(np.float32)
    w2 = random_simplex(rng, (2, 4, 3)).astype(np.float32)
    alpha = 0.3
    mixed = prompting.compose_adapted_prompts(bank, Tensor(alpha * w1 + (1 - alpha) * w2)).data
    parts = (
        alpha * prompting.compose_adapted_prompts(bank, Tensor(w1)).data
        + (1 - alpha) * prompting.compose_adapted_prompts(bank, Tensor(w2)).data
    )
    np.testing.assert_allclose(mixed, parts, atol=1e-5)


def test_single_domain_collapse():
    bank = make_bank(k=1, length=4, dim=8)
    adapter = make_adapter(dim=8, k=1, length=4)
    feats = Tensor(np.random.default_rng(0).normal(size=(3, 8)))
    w = prompting.adapter_forward(adapter, bank, feats)
    np.testing.assert_array_equal(w.data, 1.0)  # softmax over one entry is exactly 1
    out = prompting.compose_adapted_prompts(bank, w)
    for bi in range(3):
        np.testing.assert_array_equal(out.data[bi], bank.data[0])


def test_bank_gradient_scales_with_weight():
    # zero weight on a token means exactly zero gradient on that token
    bank = make_bank(k=2, length=2, dim=4)
    w = np.array([[[1.0, 0.0], [0.5, 0.5]]], dtype=np.float32)
    out = prompting.compose_adapted_prompts(bank, Tensor(w))
    g = grads_of(T.tensor_sum(out))[bank]
    np.testing.assert_allclose(g[0, 0], 1.0)  # weight 1
    np.testing.assert_allclose(g[1, 0], 0.0)  # weight 0
    np.testing.assert_allclose(g[0, 1], 0.5)
    np.testing.assert_allclose(g[1, 1], 0.5)


def test_gradients_flow_to_bank_and_weights():
    bank = make_bank(k=2, length=3, dim=4)
    w = Tensor(random_simplex(np.random.default_rng(1), (2, 3, 2)), requires_grad=True)
    out = prompting.compose_adapted_prompts(bank, w)
    grads = grads_of(T.tensor_sum(out * out))
    assert np.any(grads[bank] != 0) and np.any(grads[w] != 0)
