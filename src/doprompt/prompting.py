"""Per-domain prompt tokens, the prompt adapter, and adapted-prompt composition.

A prompt bank is one (K, L, D) `Tensor` of learnable tokens: L prompt tokens
for each of the K source domains. Its shape is the one record of K and L;
every function here, and the checkpoint's `prompts.bank` array, reads them
from it. The adapter maps a prompt-free class-token feature to one K-simplex
weight vector per prompt position; composing those weights with the bank
yields the adapted prompt tokens used for unseen-domain inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "AdapterParams",
    "adapter_forward",
    "compose_adapted_prompts",
    "domain_prompts",
    "init_adapter_params",
    "init_prompt_bank",
]


@dataclass
class AdapterParams:
    """Two affine layers D -> D -> L*K; softmax over K applied per position."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor

    def named(self):
        yield "adapter.l1.w", self.w1
        yield "adapter.l1.b", self.b1
        yield "adapter.l2.w", self.w2
        yield "adapter.l2.b", self.b2


def init_prompt_bank(num_domains: int, length: int, dim: int, rng: np.random.Generator) -> Tensor:
    # std 0.02 keeps early training near the prompt-free baseline
    return Tensor(rng.normal(0.0, 0.02, size=(num_domains, length, dim)), requires_grad=True)


def init_adapter_params(dim: int, num_domains: int, length: int, rng: np.random.Generator) -> AdapterParams:
    """The adapter for a D = `dim` model; its hidden layer is D wide too."""
    return AdapterParams(
        w1=Tensor(rng.normal(0.0, 0.02, size=(dim, dim)), requires_grad=True),
        b1=Tensor(np.zeros(dim), requires_grad=True),
        w2=Tensor(rng.normal(0.0, 0.02, size=(dim, length * num_domains)), requires_grad=True),
        b2=Tensor(np.zeros(length * num_domains), requires_grad=True),
    )


def domain_prompts(bank: Tensor, d: int) -> Tensor:
    """Row d of the (K, L, D) bank as L x D tokens; gradients flow back into the bank."""
    if not 0 <= d < bank.shape[0]:
        raise IndexError(f"domain index {d} out of range [0, {bank.shape[0]})")
    return bank[int(d)]


def adapter_forward(adapter: AdapterParams, bank: Tensor, feature: Tensor) -> Tensor:
    """Map (B, D) prompt-free features to (B, L, K) simplex weights over the (K, L, D) bank.

    The adapter's linear -> GELU -> linear runs as one `tensor.mlp` node
    without dropout; its L*K outputs are read K fastest.
    """
    k, length = bank.shape[:2]
    raw = T.mlp(feature, adapter.w1, adapter.b1, adapter.w2, adapter.b2, 0.0, None)
    return T.softmax(T.reshape(raw, (feature.shape[0], length, k)), axis=-1)


def compose_adapted_prompts(bank: Tensor, weights: Tensor) -> Tensor:
    """Per-position convex combination of the K domain prompts.

    weights: (B, L, K) on the K-simplex. Output token j of sample b is
    sum_d weights[b, j, d] * bank[d, j]; gradients flow to both inputs.
    """
    k, length = bank.shape[:2]
    if weights.ndim != 3 or weights.shape[1:] != (length, k):
        raise ShapeError(f"adapter weights {weights.shape} do not match bank (K={k}, L={length})")
    w_lbk = T.transpose(weights, (1, 0, 2))  # (L, B, K)
    bank_lkd = T.transpose(bank, (1, 0, 2))  # (L, K, D)
    out = T.matmul(w_lbk, bank_lkd)  # (L, B, D)
    return T.transpose(out, (1, 0, 2))
