"""Per-domain prompt tokens, the prompt adapter, and adapted-prompt composition.

A prompt bank holds K x L x D learnable tokens (L prompt tokens for each of
the K source domains). The adapter maps a prompt-free class-token feature to
one K-simplex weight vector per prompt position; composing those weights with
the bank yields the adapted prompt tokens used for unseen-domain inference.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor

__all__ = [
    "AdapterParams",
    "PromptBank",
    "adapter_forward",
    "compose_adapted_prompts",
    "domain_prompts",
    "init_adapter_params",
    "init_prompt_bank",
]


@dataclass
class PromptBank:
    """K x L x D learnable domain prompt tokens."""

    tokens: Tensor

    @property
    def num_domains(self) -> int:
        return self.tokens.shape[0]

    @property
    def length(self) -> int:
        return self.tokens.shape[1]

    def named(self):
        yield "prompts.bank", self.tokens


@dataclass
class AdapterParams:
    """Two affine layers D -> D -> L*K; softmax over K applied per position."""

    w1: Tensor
    b1: Tensor
    w2: Tensor
    b2: Tensor
    num_domains: int
    length: int

    def named(self):
        yield "adapter.l1.w", self.w1
        yield "adapter.l1.b", self.b1
        yield "adapter.l2.w", self.w2
        yield "adapter.l2.b", self.b2


def init_prompt_bank(num_domains: int, length: int, dim: int, rng: np.random.Generator) -> PromptBank:
    # std 0.02 keeps early training near the prompt-free baseline
    tokens = Tensor(rng.normal(0.0, 0.02, size=(num_domains, length, dim)), requires_grad=True)
    return PromptBank(tokens)


def init_adapter_params(dim: int, num_domains: int, length: int, rng: np.random.Generator) -> AdapterParams:
    """The adapter for a D = `dim` model; its hidden layer is D wide too."""
    return AdapterParams(
        w1=Tensor(rng.normal(0.0, 0.02, size=(dim, dim)), requires_grad=True),
        b1=Tensor(np.zeros(dim), requires_grad=True),
        w2=Tensor(rng.normal(0.0, 0.02, size=(dim, length * num_domains)), requires_grad=True),
        b2=Tensor(np.zeros(length * num_domains), requires_grad=True),
        num_domains=num_domains,
        length=length,
    )


def domain_prompts(bank: PromptBank, d: int) -> Tensor:
    """Row d of the bank as L x D tokens; gradients flow back into the bank."""
    if not 0 <= d < bank.num_domains:
        raise IndexError(f"domain index {d} out of range [0, {bank.num_domains})")
    return bank.tokens[int(d)]


def adapter_forward(params: AdapterParams, feature: Tensor) -> Tensor:
    """Map (B, D) prompt-free features to (B, L, K) simplex weights."""
    b = feature.shape[0]
    h = T.gelu(T.linear(feature, params.w1, params.b1))
    raw = T.linear(h, params.w2, params.b2)
    raw = T.reshape(raw, (b, params.length, params.num_domains))
    return T.softmax(raw, axis=-1)


def compose_adapted_prompts(bank: PromptBank, weights: Tensor) -> Tensor:
    """Per-position convex combination of the K domain prompts.

    weights: (B, L, K) on the K-simplex. Output token j of sample b is
    sum_d weights[b, j, d] * bank[d, j]; gradients flow to both inputs.
    """
    if weights.ndim != 3 or weights.shape[1] != bank.length or weights.shape[2] != bank.num_domains:
        raise ShapeError(
            f"adapter weights {weights.shape} do not match bank "
            f"(K={bank.num_domains}, L={bank.length})"
        )
    w_lbk = T.transpose(weights, (1, 0, 2))  # (L, B, K)
    bank_lkd = T.transpose(bank.tokens, (1, 0, 2))  # (L, K, D)
    out = T.matmul(w_lbk, bank_lkd)  # (L, B, D)
    return T.transpose(out, (1, 0, 2))
