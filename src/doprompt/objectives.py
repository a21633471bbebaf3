"""Training losses: the domain-prompt loss, the adapter weight loss, the
adapted-prompt loss, and their combination for each variant.

A full DoPrompt step runs three ViT passes over the batch: one prompt-free
pass under no_grad whose class feature feeds the adapter, so no gradient
reaches the backbone through the adapter input; one pass in which every
image carries its own domain's prompts, gathered from the bank; and one pass
with the adapted prompts. The passes share the pixels' patch rows, made
once (`vit.patch_rows`), and the adapter-input pass reads the values of the
prompt pass's patch tokens; each pass that backpropagates projects the rows
in a node of its own (`vit.patch_embed`), so the two parts' backwards never
meet in one node.

A training step backpropagates the objective in two parts, each as soon as
its passes have run: l_prompt (or the ERM loss) right after its pass, then
l_adapt + lambda * l_w right after the adapted pass. The prompt pass's graph
is released before the adapted pass starts, so a lane holds one pass's
graph at a time (see `variant_loss`). At default shapes (48 images, K 3,
L 4) `pipeline.train_step` runs two 24-image lanes at once, and each lane's
graph keeps 8.1 MiB of arrays for the prompt or the adapted pass and
6.6 MiB for the prompt-free ERM pass (tracemalloc), half of the 16.2 and
13.1 MiB of one 48-image pass; see `tensor` for what each node keeps.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from . import tensor as T
from . import vit
from .config import VARIANTS, Variant
from .datagen import DomainBatch
from .prompting import AdapterParams, adapter_forward, compose_adapted_prompts
from .tensor import Tensor

__all__ = ["LossBreakdown", "loss_erm", "loss_prompt", "loss_w", "total_loss", "variant_loss"]

LOG_CLAMP = 1e-7


@dataclass
class LossBreakdown:
    """Scalar loss tensors; terms a variant does not compute are zero.

    The fields, in order, are the one record of the terms' names: the CSV
    columns, `floats()` and `train_step`'s finite check all read them.
    """

    l_prompt: Tensor
    l_w: Tensor
    l_adapt: Tensor
    total: Tensor

    def floats(self) -> tuple[float, ...]:
        return tuple(getattr(self, f.name).item() for f in fields(self))

    def csv_row(self, step: int) -> str:
        return ",".join([str(step), *(f"{value:.6f}" for value in self.floats())])


LossBreakdown.CSV_HEADER = ",".join(["step", *(f.name for f in fields(LossBreakdown))])


def loss_erm(params, cfg, batch: DomainBatch, rng=None, tokens: Tensor | None = None) -> Tensor:
    """Plain pooled cross-entropy, no prompts; dropout runs when `rng` is given.
    `tokens`, when given, are the batch's patch tokens (`vit.patch_embed` of
    its images) and the pass starts from them instead of the pixels."""
    images = Tensor(batch.images) if tokens is None else tokens
    _, logits = vit.forward(params, cfg, images, None, rng)
    return T.cross_entropy(logits, batch.labels)


def loss_prompt(params, cfg, bank: Tensor, batch: DomainBatch, rng=None, tokens: Tensor | None = None) -> Tensor:
    """One pass in which each sample carries its own domain's prompts, gathered
    from the (K, L, D) bank; mean over the batch. Dropout runs when `rng` is
    given. `tokens` are as in `loss_erm`."""
    domains = np.asarray(batch.domains)
    bad = (domains < 0) | (domains >= bank.shape[0])
    if bad.any():
        raise IndexError(f"domain index {domains[bad][0]} out of range [0, {bank.shape[0]})")
    images = Tensor(batch.images) if tokens is None else tokens
    _, logits = vit.forward(params, cfg, images, bank[domains], rng)
    return T.cross_entropy(logits, batch.labels)


def loss_w(weights: Tensor, true_domains) -> Tensor:
    """Binary cross-entropy on every weight entry, averaged over positions
    and domains: per sample (1/L) sum_j (1/K) [-log w_t[j] +
    sum_{d != t} -log(1 - w_d[j])], mean over the batch. Logs are clamped at
    1e-7 so underflowed weights stay finite.
    """
    b, length, k = weights.shape
    t = np.asarray(true_domains)
    hot = np.zeros((b, 1, k), dtype=weights.dtype)
    hot[np.arange(b), 0, t] = 1.0
    hot = Tensor(np.broadcast_to(hot, (b, length, k)).copy())
    pos = hot * T.log(T.clamp_min(weights, LOG_CLAMP))
    neg = (1.0 - hot) * T.log(T.clamp_min(1.0 - weights, LOG_CLAMP))
    return T.tensor_sum(-(pos + neg)) * (1.0 / (b * length * k))


def variant_loss(
    variant: Variant,
    params,
    cfg,
    bank: Tensor | None,
    adapter: AdapterParams | None,
    batch: DomainBatch,
    lam: float,
    rng=None,
    backward=None,
) -> LossBreakdown:
    """The variant's loss terms and their total, in the order the passes draw dropout.

    The adapter-input pass comes first, then the prompt (or prompt-free ERM)
    pass, then the adapted pass; see `Variant` for which of them run. Each
    pass runs dropout, drawn from `rng`, exactly when `rng` is given.

    The batch's pixels become patch rows once. The prompt (or ERM) pass's
    patch tokens are projected first, since the projection draws no dropout,
    and the adapter-input pass starts from their values without a graph.
    The adapted pass projects the same rows again in its own node.

    Without `backward` the returned terms carry the whole graph. With it,
    each part of the objective is backpropagated as soon as its passes have
    run, so at most one pass's graph is alive at a time: `backward(root)` is
    called on l_prompt (or the ERM loss) right after its pass, then on the
    rest of the total, l_adapt + lam * l_w (the terms the variant sums),
    right after the adapted pass. The adapter's two terms go back as one
    root, so every leaf gets at most one gradient per part, and the
    gradients equal bitwise those of one backward through `total`. The
    returned terms are then graph-free 0-d tensors. Nothing here checks that
    they are finite: `pipeline.train_step` does, once, before the update.
    """
    if not lam >= 0:  # also rejects NaN
        raise ValueError(f"lambda must be >= 0, got {lam}")
    rows = Tensor(vit.patch_rows(cfg, batch.images))
    tokens = vit.patch_embed(params, cfg, rows)  # the prompt (or ERM) pass's patch tokens
    l_w = l_a = Tensor(0.0)
    if variant.uses_adapter:
        with T.no_grad():
            feat = vit.forward(params, cfg, Tensor(tokens.data), None, rng)[0]
        weights = adapter_forward(adapter, bank, feat)
        l_w = loss_w(weights, batch.domains)
    if variant.uses_prompts:
        l_p = loss_prompt(params, cfg, bank, batch, rng, tokens)
    else:
        l_p = loss_erm(params, cfg, batch, rng, tokens)
    del tokens
    if backward is not None:
        backward(l_p)
        l_p = T.detach(l_p)  # drops the last reference to the prompt pass's graph
    rest = []
    if "adapt" in variant.terms:
        adapted = compose_adapted_prompts(bank, weights)
        _, logits = vit.forward(params, cfg, vit.patch_embed(params, cfg, rows), adapted, rng)
        l_a = T.cross_entropy(logits, batch.labels)
        rest.append(l_a)
    if "w" in variant.terms:
        rest.append(l_w * lam)
    total = sum(rest, l_p)
    if backward is None:
        return LossBreakdown(l_prompt=l_p, l_w=l_w, l_adapt=l_a, total=total)
    if rest:
        backward(sum(rest[1:], rest[0]))
    return LossBreakdown(*map(T.detach, (l_p, l_w, l_a, total)))


def total_loss(
    params,
    cfg,
    bank: Tensor,
    adapter: AdapterParams,
    batch: DomainBatch,
    lam: float,
    rng=None,
) -> LossBreakdown:
    """The full DoPrompt objective, l_prompt + l_adapt + lambda * l_w: a
    no-grad prompt-free pass for the adapter input, a gathered-prompt pass
    and an adapted-prompt pass, each with dropout when `rng` is given."""
    return variant_loss(VARIANTS["doprompt"], params, cfg, bank, adapter, batch, lam, rng)
