"""Training objectives: per-domain prompt loss, adapter weight loss,
adapted-prompt loss, stop-gradient contract, the combined objective and
the per-variant objective."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from doprompt import objectives, prompting, tensor as T, vit
from doprompt.config import VARIANTS
from doprompt.datagen import DomainBatch
from doprompt.objectives import LossBreakdown
from doprompt.tensor import Tensor

from conftest import central_diff, check_gradient, count_gelu_derivatives, grads_of, norm_rel_error, per_row


def make_setup(cfg, k=2, length=2, seed=0):
    rng = np.random.default_rng(seed)
    params = vit.init_vit_params(cfg, rng)
    bank = prompting.init_prompt_bank(k, length, cfg.embed_dim, rng)
    adapter = prompting.init_adapter_params(cfg.embed_dim, k, length, rng)
    return params, bank, adapter


def make_batch(cfg, domains, per_domain=3, seed=0):
    rng = np.random.default_rng(seed)
    n = per_domain * len(domains)
    images = rng.random((n, cfg.channels, cfg.image_size, cfg.image_size)).astype(np.float32)
    labels = rng.integers(0, cfg.num_classes, size=n).astype(np.int64)
    doms = np.repeat(np.asarray(domains, dtype=np.int64), per_domain)
    return DomainBatch(images=images, labels=labels, domains=doms)


# ---------------------------------------------------------------------------
# loss_prompt


def test_loss_prompt_saturates_at_zero(tiny_vit_cfg):
    params, bank, _ = make_setup(tiny_vit_cfg)
    batch = make_batch(tiny_vit_cfg, [0, 1])
    # force logits that already classify every sample perfectly
    params.head_w.data[:] = 0.0
    params.head_b.data[:] = -1e4
    # bias alone cannot separate classes; instead route through a zero feature
    # and per-class bias: feature is LN output, nonzero; so use labels all 0
    batch.labels[:] = 0
    params.head_b.data[0] = 1e4
    loss = objectives.loss_prompt(params, tiny_vit_cfg, bank, batch)
    assert loss.item() < 1e-6


def test_loss_prompt_uniform_prediction_is_log_c(tiny_vit_cfg):
    params, bank, _ = make_setup(tiny_vit_cfg)
    params.head_w.data[:] = 0.0
    params.head_b.data[:] = 0.0
    batch = make_batch(tiny_vit_cfg, [0, 1])
    batch.labels[:] = 1  # single-class dataset, constant-logit model
    loss = objectives.loss_prompt(params, tiny_vit_cfg, bank, batch)
    assert abs(loss.item() - math.log(tiny_vit_cfg.num_classes)) < 1e-5


def test_loss_prompt_equals_per_domain_split_oracle(tiny_vit_cfg):
    cfg = tiny_vit_cfg
    params, bank, _ = make_setup(cfg, k=3)
    batch = make_batch(cfg, [0, 1, 2], per_domain=4, seed=3)
    pooled = objectives.loss_prompt(params, cfg, bank, batch).item()

    per_domain = []
    for d in (0, 1, 2):
        sel = batch.domains == d
        sub = DomainBatch(batch.images[sel], batch.labels[sel], batch.domains[sel])
        per_domain.append(objectives.loss_prompt(params, cfg, bank, sub).item())
    assert abs(pooled - np.mean(per_domain)) < 1e-6


def test_a_prompt_pass_at_default_shapes_keeps_at_most_18_mib_for_its_backward():
    # 48 images, K 3, L 4, dropout 0.1: the arrays the graph's closures read
    cfg = vit.ViTConfig(dropout_rate=0.1)
    params, bank, _ = make_setup(cfg, k=3, length=4)
    batch = make_batch(cfg, [0, 1, 2], per_domain=16)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = objectives.loss_prompt(params, cfg, bank, batch, np.random.default_rng(1))
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert held <= 18 * 2**20, f"the graph holds {held / 2**20:.1f} MiB"
    assert np.isfinite(grads_of(loss)[bank]).all()


def test_only_a_pass_with_grads_computes_gelu_derivatives(monkeypatch, tiny_vit_cfg):
    calls, mlp, nodes = count_gelu_derivatives(monkeypatch), T.mlp, []

    def recording_mlp(*args):
        before = len(calls)
        out = mlp(*args)
        nodes.append((out.requires_grad, len(calls) - before))
        return out

    monkeypatch.setattr(T, "mlp", recording_mlp)
    cfg = dataclasses.replace(tiny_vit_cfg, depth=2, dropout_rate=0.1)
    params, bank, adapter = make_setup(cfg)
    batch = make_batch(cfg, [0, 1])
    objectives.variant_loss(
        VARIANTS["doprompt"], params, cfg, bank, adapter, batch, 1.0, np.random.default_rng(3), backward=grads_of
    )
    # the no-grad adapter-input pass; then the adapter, the prompt pass and the adapted pass
    assert nodes == [(False, 0)] * cfg.depth + [(True, 1)] * (1 + 2 * cfg.depth)


def test_loss_prompt_unknown_domain_raises(tiny_vit_cfg):
    params, bank, _ = make_setup(tiny_vit_cfg, k=2)
    for domains in ([0, 5], [-1, 1]):
        batch = make_batch(tiny_vit_cfg, domains)
        with pytest.raises(IndexError):
            objectives.loss_prompt(params, tiny_vit_cfg, bank, batch)


def test_loss_prompt_matches_per_domain_forward_oracle_with_bank_gradient(tiny_vit_cfg):
    # one gathered-prompt pass against one domain_prompts forward per domain
    cfg = tiny_vit_cfg
    params, bank, _ = make_setup(cfg, k=3, seed=2)
    batch = make_batch(cfg, [2, 0, 1], per_domain=3, seed=5)
    batch.domains = np.random.default_rng(0).permutation(batch.domains)  # interleaved domains

    loss = objectives.loss_prompt(params, cfg, bank, batch)
    grad = grads_of(loss)[bank]

    oracle = None
    for d in range(bank.shape[0]):
        sel = np.flatnonzero(batch.domains == d)
        _, logits = vit.forward(params, cfg, Tensor(batch.images[sel]), per_row(prompting.domain_prompts(bank, d), len(sel)))
        part = T.cross_entropy(logits, batch.labels[sel]) * (len(sel) / len(batch.labels))
        oracle = part if oracle is None else oracle + part

    assert abs(loss.item() - oracle.item()) < 1e-6
    np.testing.assert_allclose(grad, grads_of(oracle)[bank], rtol=0, atol=1e-6)


# ---------------------------------------------------------------------------
# loss_w


def one_hot_weights(domains, length, k):
    b = len(domains)
    w = np.zeros((b, length, k), dtype=np.float32)
    w[np.arange(b)[:, None], np.arange(length)[None, :], np.asarray(domains)[:, None]] = 1.0
    return w


def test_loss_w_one_hot_correct_is_exactly_zero():
    domains = np.array([0, 2, 1])
    w = one_hot_weights(domains, length=4, k=3)
    loss = objectives.loss_w(Tensor(w), domains)
    assert loss.item() == 0.0


def test_loss_w_uniform_k2_is_ln2():
    w = np.full((5, 4, 2), 0.5, dtype=np.float32)
    loss = objectives.loss_w(Tensor(w), np.zeros(5, dtype=np.int64))
    assert abs(loss.item() - math.log(2)) < 1e-6


def brute_force_loss_w(w, domains, eps=1e-7):
    b, length, k = w.shape
    total = 0.0
    for bi in range(b):
        t = domains[bi]
        sample = 0.0
        for j in range(length):
            inner = -math.log(max(w[bi, j, t], eps))
            for d in range(k):
                if d != t:
                    inner += -math.log(max(1.0 - w[bi, j, d], eps))
            sample += inner / k
        total += sample / length
    return total / b


@pytest.mark.parametrize("seed", range(5))
def test_loss_w_matches_double_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    raw = rng.random((4, 4, 3)) + 1e-3
    w = (raw / raw.sum(axis=-1, keepdims=True)).astype(np.float32)
    domains = rng.integers(0, 3, size=4)
    loss = objectives.loss_w(Tensor(w), domains)
    assert abs(loss.item() - brute_force_loss_w(w.astype(np.float64), domains)) < 1e-6


def test_loss_w_invariant_to_position_permutation():
    rng = np.random.default_rng(11)
    raw = rng.random((3, 5, 2)) + 1e-3
    w = (raw / raw.sum(axis=-1, keepdims=True)).astype(np.float32)
    domains = np.array([0, 1, 0])
    base = objectives.loss_w(Tensor(w), domains).item()
    perm = np.random.default_rng(0).permutation(5)
    assert abs(objectives.loss_w(Tensor(w[:, perm, :]), domains).item() - base) < 1e-7


def test_loss_w_positive_off_vertex():
    domains = np.array([0])
    w = np.array([[[0.9, 0.1], [0.8, 0.2]]], dtype=np.float32)
    assert objectives.loss_w(Tensor(w), domains).item() > 0.0


def test_loss_w_clamps_underflow():
    domains = np.array([0])
    w = np.array([[[0.0, 1.0]]], dtype=np.float32)  # worst case: all mass wrong
    loss = objectives.loss_w(Tensor(w), domains)
    assert np.isfinite(loss.item())


# ---------------------------------------------------------------------------
# l_adapt


def test_loss_adapt_k1_equals_loss_prompt_exactly(tiny_vit_cfg):
    # with one source domain the adapted prompt is that domain's prompt
    cfg = tiny_vit_cfg
    params, bank, adapter = make_setup(cfg, k=1, length=3)
    batch = make_batch(cfg, [0], per_domain=4)
    br = objectives.total_loss(params, cfg, bank, adapter, batch, lam=1.0)
    assert br.l_adapt.item() == br.l_prompt.item()


def test_loss_adapt_one_hot_vertex_equals_loss_prompt(tiny_vit_cfg):
    # an adapter saturated on the true domain puts its weights on a simplex vertex
    cfg = tiny_vit_cfg
    params, bank, adapter = make_setup(cfg, k=2, length=2)
    batch = make_batch(cfg, [1], per_domain=4)
    adapter.w2.data[:] = 0.0
    adapter.b2.data[:] = np.tile([-100.0, 100.0], bank.shape[1])  # (L * K,), K fastest
    br = objectives.total_loss(params, cfg, bank, adapter, batch, lam=1.0)
    lp, lw, la, tot = br.floats()
    assert lw == 0.0
    assert abs(la - lp) < 1e-6
    assert abs(tot - 2.0 * lp) < 1e-6


def test_loss_adapt_detach_contract(tiny_vit_cfg):
    # gradients reach the backbone only through the prompt and adapted
    # forwards; l_w depends on the backbone solely via the adapter input
    cfg = tiny_vit_cfg
    params, bank, adapter = make_setup(cfg, k=2)
    batch = make_batch(cfg, [0, 1])
    br = objectives.total_loss(params, cfg, bank, adapter, batch, lam=1.0)
    grads = grads_of(br.l_w)
    for name, p in params.named():
        assert p not in grads or not np.any(grads[p]), f"leaked gradient into {name}"
    assert np.any(grads[adapter.w1])


# ---------------------------------------------------------------------------
# total_loss


def test_total_loss_breakdown_sums(tiny_vit_cfg):
    cfg = tiny_vit_cfg
    params, bank, adapter = make_setup(cfg, k=2)
    batch = make_batch(cfg, [0, 1])
    br = objectives.total_loss(params, cfg, bank, adapter, batch, lam=0.7)
    lp, lw, la, tot = br.floats()
    assert abs(tot - (lp + la + 0.7 * lw)) < 1e-6
    assert all(np.isfinite(v) and v >= 0 for v in (lp, lw, la, tot))


def test_total_loss_rejects_negative_lambda(tiny_vit_cfg):
    params, bank, adapter = make_setup(tiny_vit_cfg, k=2)
    batch = make_batch(tiny_vit_cfg, [0, 1])
    with pytest.raises(ValueError):
        objectives.total_loss(params, tiny_vit_cfg, bank, adapter, batch, lam=-1.0)
    with pytest.raises(ValueError, match="lambda must be >= 0, got nan"):
        objectives.total_loss(params, tiny_vit_cfg, bank, adapter, batch, lam=float("nan"))


@pytest.mark.parametrize("lam", [0.1, 1.0, 10.0])
def test_total_loss_accepts_search_grid(tiny_vit_cfg, lam):
    params, bank, adapter = make_setup(tiny_vit_cfg, k=2)
    batch = make_batch(tiny_vit_cfg, [0, 1])
    br = objectives.total_loss(params, tiny_vit_cfg, bank, adapter, batch, lam=lam)
    assert np.isfinite(br.total.item())


def test_lambda_zero_gradients_match_sum_of_other_losses(tiny_vit_cfg):
    cfg = tiny_vit_cfg
    batch = make_batch(cfg, [0, 1])

    params, bank, adapter = make_setup(cfg, k=2)
    named = dict(params.named()) | {"prompts.bank": bank} | dict(adapter.named())
    br = objectives.total_loss(params, cfg, bank, adapter, batch, lam=0.0)
    grads = grads_of(br.total)
    grads_total = {n: grads.get(p) for n, p in named.items()}

    params2, bank2, adapter2 = make_setup(cfg, k=2)
    named2 = dict(params2.named()) | {"prompts.bank": bank2} | dict(adapter2.named())
    feat, _ = vit.forward(params2, cfg, Tensor(batch.images), None)
    weights = prompting.adapter_forward(adapter2, bank2, T.detach(feat))
    lp = objectives.loss_prompt(params2, cfg, bank2, batch)
    adapted = prompting.compose_adapted_prompts(bank2, weights)
    _, logits = vit.forward(params2, cfg, Tensor(batch.images), adapted)
    la = T.cross_entropy(logits, batch.labels)
    grads2 = grads_of(lp + la)

    for name, p in named2.items():
        a, b = grads_total[name], grads2.get(p)
        if a is None and b is None:
            continue
        a = a if a is not None else np.zeros_like(p.data)
        b = b if b is not None else np.zeros_like(p.data)
        np.testing.assert_allclose(a, b, atol=1e-7, err_msg=name)


def test_total_loss_bank_gradient_finite_difference(tiny_vit_cfg):
    cfg = tiny_vit_cfg
    with T.default_dtype("float64"):
        params, bank, adapter = make_setup(cfg, k=2, length=2)
        batch = make_batch(cfg, [0, 1], per_domain=2)

        def build():
            return objectives.total_loss(params, cfg, bank, adapter, batch, lam=1.0).total

        check_gradient(build, {"bank": bank}, h=1e-6, tol=1e-6)


def test_total_loss_bank_gradient_finite_difference_32bit(tiny_vit_cfg):
    # well-scaled instance: float32 FD noise must stay below the gradient norm
    cfg = tiny_vit_cfg
    params, bank, adapter = make_setup(cfg, k=2, length=2, seed=4)
    rng = np.random.default_rng(0)
    for name, p in params.named():
        if p.data.ndim >= 2 or name in ("vit.cls", "vit.pos"):
            p.data = rng.normal(0.0, 0.5, p.data.shape).astype(np.float32)
    bank.data = rng.normal(0, 1.0, bank.shape).astype(np.float32)
    batch = make_batch(cfg, [0, 1], per_domain=2)

    def build():
        return objectives.total_loss(params, cfg, bank, adapter, batch, lam=1.0).total

    grad = grads_of(build())[bank]
    numeric = central_diff(lambda: build().item(), bank.data, h=1e-2)
    assert norm_rel_error(grad, numeric) < 1e-3


def test_loss_breakdown_csv_row():
    br = LossBreakdown(l_prompt=Tensor(1.0), l_w=Tensor(0.5), l_adapt=Tensor(2.0), total=Tensor(3.5))
    row = br.csv_row(7)
    assert row.startswith("7,") and row.count(",") == 4
    assert LossBreakdown.CSV_HEADER == "step,l_prompt,l_w,l_adapt,total"


# ---------------------------------------------------------------------------
# variant_loss


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_variant_loss_terms_follow_the_table(tiny_vit_cfg, variant):
    cfg = tiny_vit_cfg
    params, bank, adapter = make_setup(cfg, k=2)
    batch = make_batch(cfg, [0, 1])
    spec = VARIANTS[variant]
    lp, lw, la, tot = objectives.variant_loss(spec, params, cfg, bank, adapter, batch, lam=0.7).floats()
    full = objectives.total_loss(params, cfg, bank, adapter, batch, lam=0.7).floats()
    erm = objectives.loss_erm(params, cfg, batch).item()

    assert lp == (full[0] if spec.uses_prompts else erm)
    assert lw == (full[1] if spec.uses_adapter else 0.0)
    assert la == (full[2] if "adapt" in spec.terms else 0.0)
    expected = lp + ("adapt" in spec.terms) * la + ("w" in spec.terms) * 0.7 * lw
    assert abs(tot - expected) < 1e-6


def test_shared_patch_rows_give_the_bits_of_passes_that_each_embed_the_pixels(tiny_vit_cfg):
    cfg = dataclasses.replace(tiny_vit_cfg, dropout_rate=0.1)
    batch = make_batch(cfg, [0, 1])

    def by_name(params, bank, adapter, loss):
        named = dict(params.named()) | {"prompts.bank": bank} | dict(adapter.named())
        grads = grads_of(loss)
        return {n: grads[p].tobytes() for n, p in named.items()}

    params, bank, adapter = make_setup(cfg, k=2)
    br = objectives.variant_loss(VARIANTS["doprompt"], params, cfg, bank, adapter, batch, 0.7, np.random.default_rng(7))

    # the oracle: variant_loss's passes and dropout draws, each pass starting from the pixels
    params2, bank2, adapter2 = make_setup(cfg, k=2)
    rng = np.random.default_rng(7)
    with T.no_grad():
        feat = vit.forward(params2, cfg, Tensor(batch.images), None, rng)[0]
    weights = prompting.adapter_forward(adapter2, bank2, feat)
    l_w = objectives.loss_w(weights, batch.domains)
    l_p = objectives.loss_prompt(params2, cfg, bank2, batch, rng)
    adapted = prompting.compose_adapted_prompts(bank2, weights)
    l_a = T.cross_entropy(vit.forward(params2, cfg, Tensor(batch.images), adapted, rng)[1], batch.labels)
    total = l_p + l_a + l_w * 0.7

    assert br.floats() == LossBreakdown(l_p, l_w, l_a, total).floats()
    assert by_name(params, bank, adapter, br.total) == by_name(params2, bank2, adapter2, total)


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_backward_by_parts_gives_the_gradients_of_one_backward(tiny_vit_cfg, variant):
    # same generator, so the same dropout masks; every leaf gradient and term equal bitwise
    cfg = dataclasses.replace(tiny_vit_cfg, dropout_rate=0.1)
    spec = VARIANTS[variant]
    batch = make_batch(cfg, [0, 1])

    def run(by_parts):
        params, bank, adapter = make_setup(cfg, k=2)
        named = dict(params.named()) | {"prompts.bank": bank} | dict(adapter.named())
        for name, p in named.items():
            p.requires_grad = not name.startswith(spec.frozen)
        rng = np.random.default_rng(7)
        if by_parts:
            roots, into = [], {}

            def backward(root):
                roots.append(root)
                T.backward(root, into)

            br = objectives.variant_loss(spec, params, cfg, bank, adapter, batch, 0.7, rng, backward=backward)
            assert len(roots) == (2 if spec.uses_adapter else 1)
        else:
            br = objectives.variant_loss(spec, params, cfg, bank, adapter, batch, 0.7, rng)
            into = grads_of(br.total)
        grads = {n: into[p].tobytes() for n, p in named.items() if p in into}
        return br.floats(), grads

    by_parts, whole = run(True), run(False)
    assert by_parts == whole
    assert whole[1], "no gradient was computed"
