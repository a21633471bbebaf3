"""ViT core: shapes, patch-embedding oracle, an independent dense reference
for the transformer block, prompt handling, and prompt-token gradients."""

import dataclasses

import numpy as np
import pytest

from doprompt import tensor as T
from doprompt import vit
from doprompt.tensor import ShapeError, Tensor
from doprompt.vit import ViTConfig

from conftest import central_diff, erf64, grads_of, norm_rel_error, rel_error


def make_model(cfg, seed=0):
    return vit.init_vit_params(cfg, np.random.default_rng(seed))


# ---------------------------------------------------------------------------
# independent numpy reference (no tensor engine)


def ref_layer_norm(z, g, b, eps=1e-5):
    mu = z.mean(axis=-1, keepdims=True)
    var = z.var(axis=-1, keepdims=True)
    return g * (z - mu) / np.sqrt(var + eps) + b


def ref_gelu(z):
    return z * 0.5 * (1.0 + erf64(z / np.sqrt(2.0)))


def ref_softmax(z):
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ref_block(x, blk, num_heads):
    """Scaled-dot-product block evaluated with an explicit per-head loop."""
    b, t, d = x.shape
    dh = d // num_heads
    h = ref_layer_norm(x, blk.ln1_g.data, blk.ln1_b.data)
    w, bias = blk.wqkv.data, blk.bqkv.data  # the q, k and v column blocks
    q, k, v = (h @ w[:, i * d : (i + 1) * d] + bias[i * d : (i + 1) * d] for i in range(3))
    out = np.zeros_like(x)
    for bi in range(b):
        heads = []
        for hi in range(num_heads):
            sl = slice(hi * dh, (hi + 1) * dh)
            qh, kh, vh = q[bi, :, sl], k[bi, :, sl], v[bi, :, sl]
            att = ref_softmax(qh @ kh.T / np.sqrt(dh))
            heads.append(att @ vh)
        out[bi] = np.concatenate(heads, axis=-1)
    x = x + out @ blk.wo.data + blk.bo.data
    h2 = ref_layer_norm(x, blk.ln2_g.data, blk.ln2_b.data)
    m = ref_gelu(h2 @ blk.w1.data + blk.b1.data)
    return x + m @ blk.w2.data + blk.b2.data


def ref_forward(params, cfg, images, prompts=None):
    b = images.shape[0]
    p = cfg.patch_size
    g = cfg.grid
    tokens = np.zeros((b, cfg.num_patches, cfg.patch_dim), dtype=images.dtype)
    for bi in range(b):
        idx = 0
        for gy in range(g):
            for gx in range(g):
                patch = images[bi, :, gy * p : (gy + 1) * p, gx * p : (gx + 1) * p]
                tokens[bi, idx] = patch.reshape(-1)
                idx += 1
    x = tokens @ params.patch_w.data + params.patch_b.data
    cls = np.broadcast_to(params.cls.data, (b, 1, cfg.embed_dim))
    x = np.concatenate([cls, x], axis=1) + params.pos.data
    if prompts is not None:
        x = np.concatenate([x, prompts], axis=1)
    for blk in params.blocks:
        x = ref_block(x, blk, cfg.num_heads)
    feat = ref_layer_norm(x[:, 0, :], params.norm_g.data, params.norm_b.data)
    logits = feat @ params.head_w.data + params.head_b.data
    return feat, logits


# ---------------------------------------------------------------------------
# patch embedding


def test_patch_count_32_over_8():
    cfg = ViTConfig(image_size=32, patch_size=8, embed_dim=16, depth=1, num_heads=2)
    params = make_model(cfg)
    images = Tensor(np.random.default_rng(0).random((2, 3, 32, 32)))
    out = vit.patch_embed(params, cfg, images)
    assert out.shape == (2, 16, 16)


def test_patch_embed_zero_image_zero_bias():
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
    params = make_model(cfg)
    out = vit.patch_embed(params, cfg, Tensor(np.zeros((1, 3, 8, 8))))
    np.testing.assert_allclose(out.data, 0.0, atol=1e-7)


def test_patch_embed_matches_flatten_then_matmul_oracle():
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
    params = make_model(cfg, seed=3)
    rng = np.random.default_rng(5)
    images = rng.random((2, 3, 8, 8)).astype(np.float32)
    out = vit.patch_embed(params, cfg, Tensor(images)).data

    p, g = cfg.patch_size, cfg.grid
    for bi in range(2):
        idx = 0
        for gy in range(g):
            for gx in range(g):
                patch = images[bi, :, gy * p : (gy + 1) * p, gx * p : (gx + 1) * p].reshape(-1)
                expected = patch @ params.patch_w.data + params.patch_b.data
                np.testing.assert_allclose(out[bi, idx], expected, atol=1e-6)
                idx += 1


def test_patch_embed_of_the_patch_rows_is_bitwise_that_of_the_pixels():
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
    params = make_model(cfg, seed=3)
    images = np.random.default_rng(5).random((2, 3, 8, 8)).astype(np.float32)
    rows = vit.patch_rows(cfg, images)
    assert rows.shape == (2, cfg.num_patches, cfg.patch_dim)
    from_rows = vit.patch_embed(params, cfg, Tensor(rows)).data
    assert from_rows.tobytes() == vit.patch_embed(params, cfg, Tensor(images)).data.tobytes()
    with pytest.raises(ShapeError, match=r"patch rows have shape \(2, 4, 47\), expected \(B, 4, 48\)"):
        vit.patch_embed(params, cfg, Tensor(rows[..., 1:]))


def test_patch_embed_wrong_spatial_size():
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
    params = make_model(cfg)
    with pytest.raises(ShapeError):
        vit.patch_embed(params, cfg, Tensor(np.zeros((1, 3, 16, 16))))


# ---------------------------------------------------------------------------
# attention block


def test_attention_rows_sum_to_one():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(2, 5, 8)))
    att = T.softmax(T.matmul(x, T.transpose(x, (0, 2, 1))), axis=-1)
    np.testing.assert_allclose(att.data.sum(axis=-1), 1.0, atol=1e-6)


def test_zero_value_projection_makes_attention_identity():
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
    params = make_model(cfg, seed=1)
    blk = params.blocks[0]
    blk.wqkv.data[:, 16:] = 0.0  # the v columns of D = 8
    blk.bqkv.data[16:] = 0.0
    blk.bo.data[:] = 0.0
    # kill the MLP too so only the attention sub-layer remains
    blk.w1.data[:] = 0.0
    blk.b1.data[:] = 0.0
    blk.w2.data[:] = 0.0
    blk.b2.data[:] = 0.0
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=(2, 5, 8)).astype(np.float32))
    out = vit.attention_block(x, blk, cfg)
    np.testing.assert_allclose(out.data, x.data, atol=1e-6)


@pytest.mark.parametrize("seed", range(3))
def test_block_matches_per_head_reference(seed):
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
    params = make_model(cfg, seed=seed)
    rng = np.random.default_rng(seed + 10)
    x = rng.normal(size=(2, 6, 8)).astype(np.float32)
    out = vit.attention_block(Tensor(x), params.blocks[0], cfg)
    expected = ref_block(x.astype(np.float64), params.blocks[0], cfg.num_heads)
    np.testing.assert_allclose(out.data, expected, atol=1e-5)


@pytest.mark.parametrize("seed", range(3))
def test_block_of_the_class_token_is_row_0_of_the_reference(seed):
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
    params = make_model(cfg, seed=seed)
    x = np.random.default_rng(seed + 10).normal(size=(2, 6, 8)).astype(np.float32)
    out = vit.attention_block(Tensor(x), params.blocks[0], cfg, queries=1)
    expected = ref_block(x.astype(np.float64), params.blocks[0], cfg.num_heads)
    assert out.shape == (2, 1, 8)
    np.testing.assert_allclose(out.data, expected[:, :1], atol=1e-5)


# ---------------------------------------------------------------------------
# full forward


def test_forward_depth1_matches_dense_reference():
    cfg = ViTConfig(
        image_size=8, patch_size=4, channels=3, embed_dim=4, depth=1,
        num_heads=1, mlp_ratio=2.0, dropout_rate=0.0, num_classes=3,
    )
    params = make_model(cfg, seed=4)
    rng = np.random.default_rng(6)
    images = rng.random((2, 3, 8, 8)).astype(np.float32)
    prompts = rng.normal(size=(2, 2, 4)).astype(np.float32)

    feat, logits = vit.forward(params, cfg, Tensor(images), Tensor(prompts))
    ref_feat, ref_logits = ref_forward(params, cfg, images.astype(np.float64), prompts)
    np.testing.assert_allclose(feat.data, ref_feat, atol=1e-5)
    np.testing.assert_allclose(logits.data, ref_logits, atol=1e-5)


def test_forward_empty_prompt_equals_baseline():
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=2, num_heads=2)
    params = make_model(cfg, seed=0)
    images = Tensor(np.random.default_rng(1).random((2, 3, 8, 8)).astype(np.float32))
    feat_none, logits_none = vit.forward(params, cfg, images, None)
    ref_feat, ref_logits = ref_forward(params, cfg, images.data.astype(np.float64))
    np.testing.assert_allclose(feat_none.data, ref_feat, atol=1e-5)
    np.testing.assert_allclose(logits_none.data, ref_logits, atol=1e-5)


@pytest.mark.parametrize("num_prompts", [0, 4, 8])
def test_token_count_with_prompts(num_prompts, tiny_vit_cfg):
    cfg = tiny_vit_cfg
    params = make_model(cfg)
    images = Tensor(np.random.default_rng(0).random((2, 3, 8, 8)).astype(np.float32))
    prompts = None
    if num_prompts:
        prompts = Tensor(np.random.default_rng(1).normal(size=(2, num_prompts, cfg.embed_dim)))
    x = vit.patch_embed(params, cfg, images)
    feat, logits = vit.forward(params, cfg, images, prompts)
    # output shapes never depend on the number of prompt tokens
    assert x.shape == (2, cfg.num_patches, cfg.embed_dim)
    assert feat.shape == (2, cfg.embed_dim)
    assert logits.shape == (2, cfg.num_classes)


def test_prompt_dim_mismatch_rejected(tiny_vit_cfg):
    params = make_model(tiny_vit_cfg)
    images = Tensor(np.zeros((1, 3, 8, 8)))
    with pytest.raises(ShapeError, match="dim"):
        vit.forward(params, tiny_vit_cfg, images, Tensor(np.zeros((1, 2, 5))))


@pytest.mark.parametrize("shape", [(2, 8), (2, 2, 8)], ids=["shared", "batch"])
def test_prompt_tokens_other_than_one_row_per_image_rejected(tiny_vit_cfg, shape):
    params = make_model(tiny_vit_cfg)
    images = Tensor(np.zeros((1, 3, 8, 8)))
    with pytest.raises(ShapeError, match=r"expected \(batch 1, P, dim 8\)"):
        vit.forward(params, tiny_vit_cfg, images, Tensor(np.zeros(shape)))


def test_forward_on_patch_tokens_equals_forward_on_the_images(tiny_vit_cfg):
    params = make_model(tiny_vit_cfg)
    images = Tensor(np.random.default_rng(0).random((3, 3, 8, 8)))
    prompts = Tensor(np.random.default_rng(1).normal(size=(3, 2, 8)))
    with T.no_grad():
        tokens = vit.patch_embed(params, tiny_vit_cfg, images)
        from_tokens = vit.forward(params, tiny_vit_cfg, tokens, prompts)
        from_images = vit.forward(params, tiny_vit_cfg, images, prompts)
    for a, b in zip(from_tokens, from_images):
        assert a.data.tobytes() == b.data.tobytes()
    with pytest.raises(ShapeError, match=r"patch tokens have shape \(3, 4, 7\), expected \(B, 4, 8\)"):
        vit.forward(params, tiny_vit_cfg, Tensor(np.zeros((3, 4, 7))))


def test_eval_forward_bit_identical(tiny_vit_cfg):
    params = make_model(tiny_vit_cfg)
    images = Tensor(np.random.default_rng(3).random((2, 3, 8, 8)).astype(np.float32))
    a = vit.forward(params, tiny_vit_cfg, images)[1].data
    b = vit.forward(params, tiny_vit_cfg, images)[1].data
    np.testing.assert_array_equal(a, b)


def test_dropout_runs_exactly_when_a_generator_is_passed(tiny_vit_cfg):
    cfg = dataclasses.replace(tiny_vit_cfg, dropout_rate=0.3)
    params = make_model(cfg)
    images = Tensor(np.random.default_rng(3).random((2, 3, 8, 8)).astype(np.float32))
    prompts = Tensor(np.random.default_rng(4).normal(size=(2, 2, cfg.embed_dim)))
    no_rng = vit.forward(params, cfg, images, prompts)[1].data
    rate_zero = vit.forward(params, tiny_vit_cfg, images, prompts)[1].data
    seeded = [vit.forward(params, cfg, images, prompts, np.random.default_rng(5))[1].data for _ in range(2)]
    assert no_rng.tobytes() == rate_zero.tobytes()
    assert seeded[0].tobytes() == seeded[1].tobytes()
    assert not np.array_equal(seeded[0], no_rng)


def test_last_block_draws_masks_for_the_class_token_only(tiny_vit_cfg):
    cfg = dataclasses.replace(tiny_vit_cfg, depth=2, dropout_rate=0.3)
    params = make_model(cfg)
    images = Tensor(np.random.default_rng(3).random((2, 3, 8, 8)).astype(np.float32))
    prompts = Tensor(np.random.default_rng(4).normal(size=(2, 3, cfg.embed_dim)))
    rng, twin = np.random.default_rng(5), np.random.default_rng(5)
    vit.forward(params, cfg, images, prompts, rng)
    b, t, d, heads, hidden = 2, 1 + cfg.num_patches + 3, cfg.embed_dim, cfg.num_heads, cfg.mlp_dim
    full = [(b, heads, t, t), (b, t, d), (b, t, hidden), (b, t, d)]
    last = [(b, heads, 1, t), (b, 1, d), (b, 1, hidden), (b, 1, d)]
    for shape in [(b, t, d), *full, *last]:
        T._keep_mask(shape, 0.3, twin)
    assert rng.bit_generator.random_raw() == twin.bit_generator.random_raw()


def test_positional_embedding_covers_cls_and_patches_only(tiny_vit_cfg):
    params = make_model(tiny_vit_cfg)
    assert params.pos.shape == (1 + tiny_vit_cfg.num_patches, tiny_vit_cfg.embed_dim)


def test_prompt_gradient_matches_finite_difference(tiny_vit_cfg):
    with T.default_dtype("float64"):
        cfg = tiny_vit_cfg
        params = make_model(cfg, seed=7)
        rng = np.random.default_rng(8)
        images = rng.random((2, 3, 8, 8))
        prompts = Tensor(rng.normal(scale=0.1, size=(2, 3, cfg.embed_dim)), requires_grad=True)
        y = np.array([0, 2])

        def build():
            _, logits = vit.forward(params, cfg, Tensor(images), prompts)
            return T.cross_entropy(logits, y)

        grad = grads_of(build())[prompts]
        # the step of `check_gradient`: at 1e-6, rounding in the loss reaches
        # 1e-6 relative on the smallest per-row entries (~1.7e-5)
        numeric = central_diff(lambda: build().item(), prompts.data, h=1e-5)
        assert rel_error(grad, numeric) < 1e-6


def test_prompt_gradient_finite_difference_32bit(tiny_vit_cfg):
    # float32 FD noise swamps near-zero entries, so the check is on the
    # L2-relative error over a well-scaled instance
    cfg = tiny_vit_cfg
    rng = np.random.default_rng(8)
    params = make_model(cfg, seed=7)
    for name, p in params.named():
        if p.data.ndim >= 2 or name in ("vit.cls", "vit.pos"):
            p.data = rng.normal(0.0, 0.5, p.data.shape).astype(np.float32)
    images = rng.random((2, 3, 8, 8)).astype(np.float32)
    prompts = Tensor(rng.normal(size=(2, 3, cfg.embed_dim)), requires_grad=True)
    y = np.array([0, 2])

    def build():
        _, logits = vit.forward(params, cfg, Tensor(images), prompts)
        return T.cross_entropy(logits, y)

    grad = grads_of(build())[prompts]
    numeric = central_diff(lambda: build().item(), prompts.data, h=1e-2)
    assert norm_rel_error(grad, numeric) < 1e-3


def test_config_invariants():
    with pytest.raises(ShapeError, match="divisible"):
        ViTConfig(image_size=30, patch_size=8)
    with pytest.raises(ShapeError, match="divisible"):
        ViTConfig(embed_dim=30, num_heads=4)
    with pytest.raises(ShapeError, match="depth must be >= 1, got 0"):
        ViTConfig(depth=0)
    for rate in (-0.1, 1.0, float("nan")):
        with pytest.raises(ShapeError, match="dropout_rate must be in"):
            ViTConfig(dropout_rate=rate)


def test_wqkv_holds_the_q_k_v_draws_side_by_side():
    # the init draws of a separate wq, wk and wv, so a seed gives the same model as before they merged
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=1, num_heads=2)
    rng = np.random.default_rng(3)
    for shape in ((cfg.patch_dim, 8), (8,), (1 + cfg.num_patches, 8), (8, cfg.num_classes)):
        rng.normal(0.0, 0.02, size=shape)  # patch, cls, pos, classifier
    q, k, v = (rng.normal(0.0, 0.02, size=(8, 8)).astype(np.float32) for _ in range(3))
    blk = make_model(cfg, seed=3).blocks[0]
    assert blk.wqkv.data.tobytes() == np.concatenate([q, k, v], axis=1).tobytes()
    assert blk.bqkv.shape == (24,) and not blk.bqkv.data.any()


def test_named_params_namespacing():
    cfg = ViTConfig(image_size=8, patch_size=4, embed_dim=8, depth=2, num_heads=2)
    params = make_model(cfg)
    names = [n for n, _ in params.named()]
    assert "vit.cls" in names and "vit.pos" in names
    assert "vit.block0.wqkv" in names and "vit.block0.bqkv" in names and "vit.block1.w2" in names
    assert "classifier.w" in names and "classifier.b" in names
    assert len(names) == len(set(names))
