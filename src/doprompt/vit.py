"""Small vision transformer whose forward pass accepts extra prompt tokens.

Token order is [CLS], patch tokens in raster order, then any appended prompt
tokens. Positional embeddings cover only [CLS] and the patches; prompts ride
along as position-free tokens and take part in every attention layer. Blocks
are pre-norm residual: x + Attn(LN(x)), then + MLP(LN(.)). The model reads
only the class token of the last block, so that block computes keys and
values for every token but its output, with the output projection, LN2 and
the MLP, for the class token alone, as CaiT's class-attention layers do.

The paper places the prompts ahead of the patch tokens; appending them gives
the same model. A prompt gets no positional embedding, so its index carries
no information; attention runs without a mask and every other layer acts on
each token alone, so a block treats the tokens symmetrically and reordering
its input only reorders its output; and the class token is read at index 0
in both layouts. Only the order of float sums over the keys and which
dropout mask entry a token draws differ.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "BlockParams",
    "ViTConfig",
    "ViTParams",
    "attention_block",
    "forward",
    "init_vit_params",
    "patch_embed",
    "patch_rows",
]


@dataclass(frozen=True)
class ViTConfig:
    image_size: int = 32
    patch_size: int = 8
    channels: int = 3
    embed_dim: int = 64
    depth: int = 4
    num_heads: int = 4
    mlp_ratio: float = 4.0
    dropout_rate: float = 0.1
    num_classes: int = 5

    def __post_init__(self):
        for name in ("image_size", "patch_size", "channels", "embed_dim", "depth", "num_heads", "num_classes"):
            if getattr(self, name) < 1:
                raise ShapeError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ShapeError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if not 1 <= self.embed_dim * self.mlp_ratio <= np.iinfo(np.intp).max:  # exact; False for NaN
            raise ShapeError(f"mlp_ratio {self.mlp_ratio} gives an MLP width below 1 or not finite, or too wide")
        if self.image_size % self.patch_size != 0:
            raise ShapeError(
                f"image_size {self.image_size} not divisible by patch_size {self.patch_size}"
            )
        if self.embed_dim % self.num_heads != 0:
            raise ShapeError(
                f"embed_dim {self.embed_dim} not divisible by num_heads {self.num_heads}"
            )

    @property
    def grid(self) -> int:
        return self.image_size // self.patch_size

    @property
    def num_patches(self) -> int:
        return self.grid**2

    @property
    def patch_dim(self) -> int:
        return self.channels * self.patch_size**2

    @property
    def mlp_dim(self) -> int:
        return int(self.embed_dim * self.mlp_ratio)


@dataclass
class BlockParams:
    """One block; `wqkv` (D, 3D) and `bqkv` hold q, k and v side by side, as in timm's ViT."""

    ln1_g: Tensor
    ln1_b: Tensor
    wqkv: Tensor
    bqkv: Tensor
    wo: Tensor
    bo: Tensor
    ln2_g: Tensor
    ln2_b: Tensor
    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor


@dataclass
class ViTParams:
    """Backbone plus classifier; `named()` yields checkpoint-stable names."""

    patch_w: Tensor
    patch_b: Tensor
    cls: Tensor
    pos: Tensor
    blocks: list[BlockParams] = field(default_factory=list)
    norm_g: Tensor = None
    norm_b: Tensor = None
    head_w: Tensor = None
    head_b: Tensor = None

    def named(self):
        yield "vit.patch.w", self.patch_w
        yield "vit.patch.b", self.patch_b
        yield "vit.cls", self.cls
        yield "vit.pos", self.pos
        for i, blk in enumerate(self.blocks):
            for f in fields(BlockParams):
                yield f"vit.block{i}." + f.name.replace("_", "."), getattr(blk, f.name)
        yield "vit.norm.g", self.norm_g
        yield "vit.norm.b", self.norm_b
        yield "classifier.w", self.head_w
        yield "classifier.b", self.head_b


def init_vit_params(cfg: ViTConfig, rng: np.random.Generator) -> ViTParams:
    """Token-embedding-scale init: N(0, 0.02) weights (`wqkv` as q, k, v), zero biases, unit norms."""

    def w(*shape):
        return Tensor(rng.normal(0.0, 0.02, size=shape), requires_grad=True)

    def zeros(*shape):
        return Tensor(np.zeros(shape), requires_grad=True)

    def ones(*shape):
        return Tensor(np.ones(shape), requires_grad=True)

    d = cfg.embed_dim
    params = ViTParams(
        patch_w=w(cfg.patch_dim, d),
        patch_b=zeros(d),
        cls=w(d),
        pos=w(1 + cfg.num_patches, d),
        norm_g=ones(d),
        norm_b=zeros(d),
        head_w=w(d, cfg.num_classes),
        head_b=zeros(cfg.num_classes),
    )
    for _ in range(cfg.depth):
        params.blocks.append(
            BlockParams(
                ln1_g=ones(d), ln1_b=zeros(d),
                wqkv=Tensor(np.concatenate([w(d, d).data for _ in range(3)], axis=1), requires_grad=True),
                bqkv=zeros(3 * d),
                wo=w(d, d), bo=zeros(d),
                ln2_g=ones(d), ln2_b=zeros(d),
                w1=w(d, cfg.mlp_dim), b1=zeros(cfg.mlp_dim),
                w2=w(cfg.mlp_dim, d), b2=zeros(d),
            )
        )
    return params


def patch_rows(cfg: ViTConfig, images: np.ndarray) -> np.ndarray:
    """(B, C, H, W) pixels -> (B, num_patches, C*p*p) rows: the non-overlapping
    patches in raster order, each flattened channel-major."""
    b, c, h, w_ = images.shape
    if h != cfg.image_size or w_ != cfg.image_size or c != cfg.channels:
        raise ShapeError(
            f"patch_rows: expected (B, {cfg.channels}, {cfg.image_size}, "
            f"{cfg.image_size}), got {images.shape}"
        )
    g, p = cfg.grid, cfg.patch_size
    x = images.reshape(b, c, g, p, g, p).transpose(0, 2, 4, 1, 3, 5)  # (B, gh, gw, C, p, p): raster order
    return x.reshape(b, g * g, cfg.patch_dim)


def patch_embed(params: ViTParams, cfg: ViTConfig, images: Tensor) -> Tensor:
    """(B, C, H, W) pixels, or the (B, k, C*p*p) rows `patch_rows` makes of
    them, -> (B, k, D) patch tokens: one linear projection of the rows.

    Pixels are data: no gradient flows back to them. A training step makes
    a lane's rows once and projects them once per pass that backpropagates
    (see `objectives.variant_loss`).
    """
    if images.ndim != 3:
        images = Tensor(patch_rows(cfg, images.data))
    elif images.shape[1:] != (cfg.num_patches, cfg.patch_dim):
        raise ShapeError(f"patch rows have shape {images.shape}, expected (B, {cfg.num_patches}, {cfg.patch_dim})")
    return T.linear(images, params.patch_w, params.patch_b)


def attention_block(
    x: Tensor, blk: BlockParams, cfg: ViTConfig, rng: np.random.Generator | None = None, queries: int | None = None
) -> Tensor:
    """Pre-norm residual block with full bidirectional attention.

    x + Drop(Attn(LN1(x)) Wo + bo), then + Drop(Drop(GELU(LN2(.) W1 + b1)) W2 + b2).
    The q, k and v projection and the output projection are `tensor.linear`
    nodes; between them, one `tensor.attention` node runs the parameter-free
    core over `cfg.num_heads` heads, with dropout on the attention
    probabilities. The whole MLP, both layers, GELU and its two dropouts, is
    one `tensor.mlp` node. Dropout at `cfg.dropout_rate` runs only when `rng`
    is given; its masks are drawn in this order: attention probabilities,
    attention output, MLP hidden layer, MLP output.

    `queries` = n returns only the first n tokens, (B, n, D): keys and values
    still come from every token, but the attention output, the residual, LN2
    and the MLP run on those n rows alone, so the masks are drawn for them.
    """
    h = T.layer_norm(x, blk.ln1_g, blk.ln1_b)
    rate = cfg.dropout_rate
    o = T.attention(T.linear(h, blk.wqkv, blk.bqkv), cfg.num_heads, rate, rng, queries)
    o = T.dropout(T.linear(o, blk.wo, blk.bo), rate, rng)
    if queries is not None:
        x = x[:, :queries]
    x = x + o

    h2 = T.layer_norm(x, blk.ln2_g, blk.ln2_b)
    return x + T.mlp(h2, blk.w1, blk.b1, blk.w2, blk.b2, rate, rng)


def forward(
    params: ViTParams,
    cfg: ViTConfig,
    images: Tensor,
    prompt_tokens: Tensor | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[Tensor, Tensor]:
    """Full forward pass; returns (cls_feature BxD, logits BxC).

    `images` are (B, C, H, W) pixels, or the (B, num_patches, D) tokens
    `patch_embed` makes of them, so that a caller running one image under
    several prompts, or in several passes, embeds it once.
    `prompt_tokens` are (B, P, D), one row of P tokens per image; they are
    concatenated after the patch tokens and receive no positional embedding.
    Any other shape raises ShapeError.
    The cls feature is the final-norm class token, the same tensor the
    classifier consumes. Every block but the last runs on all tokens; the
    last computes keys and values for every token but its output for the
    class token alone (`attention_block(..., queries=1)`). Dropout at
    `cfg.dropout_rate` runs exactly when `rng` is given; without it the pass
    is deterministic.
    """
    d = cfg.embed_dim
    if images.ndim == 3:
        if images.shape[1:] != (cfg.num_patches, d):
            raise ShapeError(f"patch tokens have shape {images.shape}, expected (B, {cfg.num_patches}, {d})")
        x = images
    else:
        x = patch_embed(params, cfg, images)
    b = x.shape[0]
    cls = T.broadcast_to(T.reshape(params.cls, (1, 1, d)), (b, 1, d))
    x = T.concat([cls, x], axis=1) + params.pos
    if prompt_tokens is not None:
        if prompt_tokens.ndim != 3 or prompt_tokens.shape[0] != b or prompt_tokens.shape[2] != d:
            raise ShapeError(f"prompt tokens have shape {prompt_tokens.shape}, expected (batch {b}, P, dim {d})")
        x = T.concat([x, prompt_tokens], axis=1)
    x = T.dropout(x, cfg.dropout_rate, rng)
    *inner, last = params.blocks
    for blk in inner:
        x = attention_block(x, blk, cfg, rng)
    x = attention_block(x, last, cfg, rng, queries=1)
    cls_feature = T.layer_norm(x[:, 0, :], params.norm_g, params.norm_b)
    logits = T.linear(cls_feature, params.head_w, params.head_b)
    return cls_feature, logits
