"""Shared helpers: finite-difference gradient checking, a float64 erf, tiny
model builders, the unfused attention, MLP and adapter oracles and the
looped inference oracles."""

import math

import numpy as np
import pytest

from doprompt import prompting, vit
from doprompt import tensor as T
from doprompt.config import DataConfig, RunConfig, TrainConfig
from doprompt.vit import ViTConfig


def erf64(x) -> np.ndarray:
    """erf of every element of x in float64, by `math.erf`."""
    return np.asarray(np.frompyfunc(math.erf, 1, 1)(x), dtype=np.float64)


def central_diff(f, x: np.ndarray, h: float = 1e-3) -> np.ndarray:
    """Central finite differences of scalar f at x, one coordinate at a time."""
    grad = np.zeros_like(x, dtype=np.float64)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    num = np.abs(analytic - numeric)
    den = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float((num / den).max())


def norm_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """L2-relative error; the right metric when FD noise dwarfs tiny entries."""
    a = np.asarray(analytic, dtype=np.float64).reshape(-1)
    n = np.asarray(numeric, dtype=np.float64).reshape(-1)
    return float(np.linalg.norm(a - n) / max(np.linalg.norm(a), np.linalg.norm(n), 1e-12))


def check_gradient(build_loss, params, h=1e-5, tol=1e-6, seed_grads=True):
    """Compare backward() grads against central differences for each param.

    `build_loss` re-evaluates the scalar loss from the current param data;
    `params` is a dict of name -> Tensor whose .data arrays are perturbed in
    place. Call under float64 for tight tolerances.
    """
    for p in params.values():
        p.grad = None
    loss = build_loss()
    T.backward(loss)
    worst = 0.0
    for name, p in params.items():
        numeric = central_diff(lambda: build_loss().item(), p.data, h=h)
        analytic = p.grad if p.grad is not None else np.zeros_like(p.data)
        err = rel_error(analytic, numeric)
        assert err < tol, f"gradient mismatch for {name}: rel err {err:.3g} >= {tol}"
        worst = max(worst, err)
    return worst


@pytest.fixture
def tiny_vit_cfg():
    return ViTConfig(
        image_size=8,
        patch_size=4,
        channels=3,
        embed_dim=8,
        depth=1,
        num_heads=2,
        mlp_ratio=2.0,
        dropout_rate=0.0,
        num_classes=3,
    )


def count_gelu_derivatives(monkeypatch) -> list:
    """Record the input shape of every `tensor._gelu_derivative` call from now on."""
    calls, derivative = [], T._gelu_derivative

    def counting(x, cdf):
        calls.append(x.shape)
        return derivative(x, cdf)

    monkeypatch.setattr(T, "_gelu_derivative", counting)
    return calls


def tiny_run_config(**train_kwargs) -> RunConfig:
    defaults = dict(
        steps=10,
        batch_per_domain=4,
        learning_rate=1e-3,
        weight_decay=1e-2,
        dropout=0.0,
        lam=1.0,
        prompt_length=2,
        seed=0,
        eval_interval=5,
    )
    defaults.update(train_kwargs)
    train = TrainConfig(**defaults)
    vit_cfg = ViTConfig(
        image_size=32,
        patch_size=8,
        channels=3,
        embed_dim=16,
        depth=1,
        num_heads=2,
        mlp_ratio=2.0,
        dropout_rate=train.dropout,
        num_classes=5,
    )
    return RunConfig(train=train, vit=vit_cfg, data=DataConfig(num_domains=4, per_domain_count=40))


# ---------------------------------------------------------------------------
# unfused oracles for the fused attention and MLP nodes and the transformer block


def unfused_attention(qkv, num_heads, rate, rng, queries=None):
    """`tensor.attention` composed of single-op nodes: q, k and v cut out of
    the (B, T, 3D) projection, q of only the first `queries` tokens (all when
    None), head split, scaled softmax, dropout on the probabilities, P @ V,
    head merge."""
    b, t, d3 = qkv.shape
    n = t if queries is None else queries
    d = d3 // 3
    dh = d // num_heads

    def split_heads(i, rows):
        z = qkv[:, :rows, i * d : (i + 1) * d]
        return T.transpose(T.reshape(z, (b, rows, num_heads, dh)), (0, 2, 1, 3))

    q, k, v = split_heads(0, n), split_heads(1, t), split_heads(2, t)
    att = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    att = T.dropout(T.softmax(att, axis=-1), rate, rng)
    o = T.matmul(att, v)  # (B, heads, n, dh)
    return T.reshape(T.transpose(o, (0, 2, 1, 3)), (b, n, d))


def unfused_mlp(x, w1, b1, w2, b2, rate, rng):
    """`tensor.mlp` composed of the linear, gelu and dropout nodes it fuses,
    with the two masks drawn in its order: hidden layer, then output."""
    m = T.dropout(T.gelu(T.linear(x, w1, b1)), rate, rng)
    return T.dropout(T.linear(m, w2, b2), rate, rng)


def unfused_attention_block(x, blk, cfg, rng=None, queries=None):
    """`vit.attention_block` with matmul + bias in place of every linear node
    and `unfused_attention` in place of the attention node; `queries` slices
    q and the residual as the block does."""
    rate = cfg.dropout_rate
    h = T.layer_norm(x, blk.ln1_g, blk.ln1_b)
    o = unfused_attention(T.matmul(h, blk.wqkv) + blk.bqkv, cfg.num_heads, rate, rng, queries)
    o = T.dropout(T.matmul(o, blk.wo) + blk.bo, rate, rng)
    if queries is not None:
        x = x[:, :queries]
    x = x + o
    h2 = T.layer_norm(x, blk.ln2_g, blk.ln2_b)
    m = T.dropout(T.gelu(T.matmul(h2, blk.w1) + blk.b1), rate, rng)
    m = T.dropout(T.matmul(m, blk.w2) + blk.b2, rate, rng)
    return x + m


# ---------------------------------------------------------------------------
# looped inference oracles for the chunked read path


def per_row(tokens, n):
    """(P, D) prompt tokens as the (n, P, D) per-image tokens `vit.forward`
    takes; gradients flow back into `tokens`."""
    p, d = tokens.shape
    return T.broadcast_to(T.reshape(tokens, (1, p, d)), (n, p, d))


def looped_prompt_free_logits(state, images):
    """One unchunked prompt-free pass."""
    with T.no_grad():
        return vit.forward(state.params, state.cfg, T.Tensor(images))[1].data


def looped_per_prompt_logits(state, images):
    """(N, K, C): one unchunked pass per source-domain prompt, the K passes
    that `pipeline.per_prompt_logits` gathers into one."""
    with T.no_grad():
        return np.stack([
            vit.forward(
                state.params, state.cfg, T.Tensor(images), per_row(prompting.domain_prompts(state.bank, k), len(images))
            )[1].data
            for k in range(state.bank.shape[0])
        ], axis=1)


def unfused_adapter(adapter, bank, feature):
    """`prompting.adapter_forward` composed of single-op nodes: linear, gelu,
    linear, then the reshape to (B, L, K) and the softmax over K."""
    k, length = bank.shape[:2]
    h = T.gelu(T.linear(feature, adapter.w1, adapter.b1))
    raw = T.reshape(T.linear(h, adapter.w2, adapter.b2), (feature.shape[0], length, k))
    return T.softmax(raw, axis=-1)


def looped_infer(state, images):
    """Unchunked two-pass adapted inference: (logits, weights), the weights
    from `unfused_adapter`."""
    with T.no_grad():
        feat, _ = vit.forward(state.params, state.cfg, T.Tensor(images))
        weights = unfused_adapter(state.adapter, state.bank, feat)
        adapted = prompting.compose_adapted_prompts(state.bank, weights)
        return vit.forward(state.params, state.cfg, T.Tensor(images), adapted)[1].data, weights.data
