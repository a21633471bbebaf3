"""Shared helpers: finite-difference gradient checking, tiny model builders,
the unfused attention oracles and the looped inference oracles."""

import math

import numpy as np
import pytest

from doprompt import prompting, vit
from doprompt import tensor as T
from doprompt.config import DataConfig, RunConfig, TrainConfig
from doprompt.vit import ViTConfig


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
# unfused oracles for the fused attention node and the transformer block


def unfused_attention(h, wq, bq, wk, bk, wv, bv, num_heads, rate, rng, train):
    """`tensor.attention` composed of single-op nodes: three projections, head
    split, scaled softmax, dropout on the probabilities, P @ V, head merge."""
    b, t, d = h.shape
    dh = d // num_heads

    def split_heads(z):
        return T.transpose(T.reshape(z, (b, t, num_heads, dh)), (0, 2, 1, 3))

    q = split_heads(T.matmul(h, wq) + bq)
    k = split_heads(T.matmul(h, wk) + bk)
    v = split_heads(T.matmul(h, wv) + bv)
    att = T.matmul(q, T.transpose(k, (0, 1, 3, 2))) * (1.0 / math.sqrt(dh))
    att = T.dropout(T.softmax(att, axis=-1), rate, rng, train)
    o = T.matmul(att, v)  # (B, heads, T, dh)
    return T.reshape(T.transpose(o, (0, 2, 1, 3)), (b, t, d))


def unfused_attention_block(x, blk, num_heads, dropout_rate=0.0, train=False, rng=None):
    """`vit.attention_block` with matmul + bias in place of every linear node
    and `unfused_attention` in place of the attention node."""
    h = T.layer_norm(x, blk.ln1_g, blk.ln1_b)
    o = unfused_attention(h, blk.wq, blk.bq, blk.wk, blk.bk, blk.wv, blk.bv, num_heads, dropout_rate, rng, train)
    o = T.dropout(T.matmul(o, blk.wo) + blk.bo, dropout_rate, rng, train)
    x = x + o
    h2 = T.layer_norm(x, blk.ln2_g, blk.ln2_b)
    m = T.dropout(T.gelu(T.matmul(h2, blk.w1) + blk.b1), dropout_rate, rng, train)
    m = T.dropout(T.matmul(m, blk.w2) + blk.b2, dropout_rate, rng, train)
    return x + m


# ---------------------------------------------------------------------------
# looped inference oracles for the chunked read path


def looped_prompt_free_logits(state, images):
    """One unchunked prompt-free pass."""
    with T.no_grad():
        return vit.forward(state.params, state.cfg, T.Tensor(images))[1].data


def looped_per_prompt_logits(state, images):
    """(N, K, C): one unchunked pass per source-domain prompt, the K passes
    that `pipeline.per_prompt_logits` gathers into one."""
    with T.no_grad():
        return np.stack([
            vit.forward(state.params, state.cfg, T.Tensor(images), prompting.domain_prompts(state.bank, k))[1].data
            for k in range(state.bank.num_domains)
        ], axis=1)


def looped_infer(state, images):
    """Unchunked two-pass adapted inference: (logits, weights)."""
    with T.no_grad():
        feat, _ = vit.forward(state.params, state.cfg, T.Tensor(images))
        weights = prompting.adapter_forward(state.adapter, feat)
        adapted = prompting.compose_adapted_prompts(state.bank, weights)
        return vit.forward(state.params, state.cfg, T.Tensor(images), adapted)[1].data, weights.data
