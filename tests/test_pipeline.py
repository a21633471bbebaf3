"""Training harness: seed determinism, frozen parameters and checkpoint
round trips for every variant of the ablation table."""

import dataclasses

import numpy as np
import pytest

from doprompt import checkpoint as ckpt
from doprompt import optim, pipeline, vit
from doprompt import tensor as T
from doprompt.checkpoint import CheckpointError
from doprompt.config import VARIANTS, ConfigError
from doprompt.datagen import DomainBatch, generate_dataset

from conftest import (
    looped_infer,
    looped_per_prompt_logits,
    looped_prompt_free_logits,
    tiny_run_config,
    unfused_attention_block,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(4, 40, 0)


def _artifacts(out):
    return {name: (out / name).read_bytes() for name in ("loss_curve.csv", "checkpoint.dpt", "report.json")}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_run_experiment_is_byte_identical_for_one_seed(tmp_path, dataset, variant):
    run = tiny_run_config(dropout=0.1, seed=3)
    pipeline.run_experiment(dataset, 1, variant, run, out_dir=tmp_path / "first")
    pipeline.run_experiment(dataset, 1, variant, run, out_dir=tmp_path / "second")
    assert _artifacts(tmp_path / "second") == _artifacts(tmp_path / "first")


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_reloaded_checkpoint_predicts_bitwise_like_the_run(tmp_path, dataset, variant):
    run = tiny_run_config(dropout=0.1, seed=3)
    report = pipeline.run_experiment(dataset, 1, variant, run, out_dir=tmp_path)
    loaded = pipeline.ModelState.load(tmp_path / "checkpoint.dpt", run.vit)
    images = dataset.images[1]
    expected = pipeline.predict_logits(report["_state"], images, variant)
    assert pipeline.predict_logits(loaded, images, variant).tobytes() == expected.tobytes()


def test_run_experiment_needs_a_train_and_a_validation_image_per_source():
    five_per_domain = generate_dataset(3, 5, 0)
    run = tiny_run_config(val_fraction=0.95)  # rounds to 5 validation images of 5
    with pytest.raises(ConfigError, match="training and validation need >= 1 each"):
        pipeline.run_experiment(five_per_domain, 0, "erm", run)


def _batch(cfg, num_domains, per_domain, seed=0):
    rng = np.random.default_rng(seed)
    n = num_domains * per_domain
    return DomainBatch(
        images=rng.random((n, cfg.channels, cfg.image_size, cfg.image_size)).astype(np.float32),
        labels=rng.integers(0, cfg.num_classes, size=n).astype(np.int64),
        domains=np.repeat(np.arange(num_domains, dtype=np.int64), per_domain),
    )


FROZEN = {
    "doprompt": (),
    "erm": ("prompts.", "adapter."),
    "no_adapter": ("adapter.",),
    "no_lw": (),
    "no_ladapt": (),
    "frozen_backbone": ("vit.",),
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_train_step_updates_exactly_the_unfrozen_parameters(variant):
    run = tiny_run_config(dropout=0.1)
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0, with_prompts=variant != "erm")
    before = {n: p.data.copy() for n, p in state.named_params().items()}
    pipeline.train_step(state, _batch(run.vit, 3, 4), run.train, np.random.default_rng(1), variant)

    for name, p in state.named_params().items():
        if name.startswith(FROZEN[variant]):
            assert p.data.tobytes() == before[name].tobytes(), f"frozen {name} changed"
        else:
            assert np.any(p.data != before[name]), f"trainable {name} did not move"


def test_train_step_keeps_every_array_float32(monkeypatch):
    run = tiny_run_config(dropout=0.1)
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    grads = {}
    step_params = optim.step_params

    def recording_step_params(params, *args, **kwargs):
        grads.update({n: p.grad for n, p in params.items()})
        return step_params(params, *args, **kwargs)

    monkeypatch.setattr(optim, "step_params", recording_step_params)
    pipeline.train_step(state, _batch(run.vit, 3, 4), run.train, np.random.default_rng(1))

    named = state.named_params()
    assert set(grads) == set(named)
    for name, p in named.items():
        assert p.data.dtype == np.float32, name
        assert grads[name].dtype == np.float32, name
        assert state.opt.m[name].dtype == state.opt.v[name].dtype == np.float32, name


def test_fused_block_trains_like_the_unfused_oracle_64bit(monkeypatch):
    run = tiny_run_config(dropout=0.1)

    def losses():
        state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
        rng = np.random.default_rng(1)
        return [
            pipeline.train_step(state, _batch(run.vit, 3, 4, seed=step), run.train, rng)[1].floats()
            for step in range(20)
        ]

    with T.default_dtype("float64"):
        fused = losses()
        monkeypatch.setattr(vit, "attention_block", unfused_attention_block)
        unfused = losses()
    np.testing.assert_allclose(fused, unfused, rtol=0, atol=1e-5)
    assert fused[0] != fused[-1]


def test_train_step_rejects_unknown_variant():
    run = tiny_run_config()
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    with pytest.raises(ConfigError, match="unknown variant"):
        pipeline.train_step(state, _batch(run.vit, 3, 2), run.train, np.random.default_rng(0), "dopromt")


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_adapter_variants_need_two_source_domains(variant):
    two_domains = generate_dataset(2, 10, 0)
    run = tiny_run_config(steps=1)
    if variant in ("erm", "no_adapter"):
        assert 0.0 <= pipeline.run_experiment(two_domains, 0, variant, run)["test_acc"] <= 1.0
    else:
        with pytest.raises(ConfigError, match=">= 2 source domains"):
            pipeline.run_experiment(two_domains, 0, variant, run)


@pytest.mark.parametrize("with_prompts", [True, False])
def test_model_state_save_load_round_trip(tmp_path, with_prompts):
    run = tiny_run_config()
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0, with_prompts=with_prompts)
    path = tmp_path / "model.dpt"
    state.save(path)
    loaded = pipeline.ModelState.load(path, run.vit)

    original, restored = state.named_params(), loaded.named_params()
    assert list(restored) == list(original)
    for name, p in restored.items():
        assert p.requires_grad
        assert p.data.tobytes() == original[name].data.tobytes()
    images = _batch(run.vit, 1, 5).images
    for variant in ("doprompt", "no_adapter") if with_prompts else ("erm",):
        np.testing.assert_array_equal(
            pipeline.predict_logits(loaded, images, variant), pipeline.predict_logits(state, images, variant)
        )


@pytest.mark.parametrize("change, message", [
    ({"embed_dim": 8}, r"vit.patch.w has shape \(192, 16\), the configured model has \(192, 8\)"),
    ({"depth": 2}, r"16 missing \['vit.block1.b1'\], 0 unexpected"),
    ({"mlp_ratio": 4.0}, r"vit.block0.w1 has shape \(16, 32\), the configured model has \(16, 64\)"),
], ids=["embed_dim", "depth", "mlp_ratio"])
def test_load_into_a_model_the_arrays_do_not_fit_raises(tmp_path, change, message):
    run = tiny_run_config()
    path = tmp_path / "model.dpt"
    pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0).save(path)
    with pytest.raises(CheckpointError, match=message):
        pipeline.ModelState.load(path, dataclasses.replace(run.vit, **change))


@pytest.mark.parametrize("bank_shape", [(3, 16), (3, 0, 16)])
def test_load_rejects_a_bank_that_is_not_a_k_l_d_array(tmp_path, bank_shape):
    run = tiny_run_config()
    arrays = {n: p.data for n, p in pipeline.init_state(run.vit, 3, 2, seed=0).named_params().items()}
    arrays["prompts.bank"] = np.zeros(bank_shape, dtype=np.float32)
    path = tmp_path / "model.dpt"
    ckpt.save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match="expected non-empty \\(K, L, D\\)"):
        pipeline.ModelState.load(path, run.vit)


def _prompted_state(run, k=3):
    """A fresh model whose prompts are large enough to move the logits."""
    state = pipeline.init_state(run.vit, k, run.train.prompt_length, seed=0)
    state.bank.tokens.data *= 50.0
    return state


def test_predict_logits_uses_the_variant_inference_mode():
    run = tiny_run_config()
    state = _prompted_state(run)
    images = _batch(run.vit, 1, 5).images
    for variant in VARIANTS:
        if variant == "erm":
            expected = looped_prompt_free_logits(state, images)
        elif variant == "no_adapter":
            expected = looped_per_prompt_logits(state, images).mean(axis=1)
        else:
            expected = looped_infer(state, images)[0]
        np.testing.assert_allclose(pipeline.predict_logits(state, images, variant), expected, rtol=0, atol=1e-6)


def test_per_prompt_logits_match_one_pass_per_prompt_across_a_chunk_edge():
    # 130 images x K=3 prompts: image 42's rows 126..128 straddle the 128-row chunk edge
    run = tiny_run_config()
    state = _prompted_state(run)
    images = _batch(run.vit, 1, 130).images
    expected = looped_per_prompt_logits(state, images)
    assert pipeline.EVAL_BATCH == 128
    assert np.abs(expected[:, 1] - expected[:, 0]).max() > 1e-3  # the prompts matter, far above atol
    got = pipeline.per_prompt_logits(state, images)
    assert got.shape == (130, 3, run.vit.num_classes)
    np.testing.assert_allclose(got, expected, rtol=0, atol=1e-6)


def test_readers_over_more_than_one_chunk_equal_their_per_chunk_calls():
    run = tiny_run_config()
    state = _prompted_state(run)
    images = _batch(run.vit, 1, 2 * pipeline.EVAL_BATCH + 44).images
    chunks = [images[s : s + pipeline.EVAL_BATCH] for s in range(0, len(images), pipeline.EVAL_BATCH)]

    logits, weights = pipeline.infer(state, images)
    per_chunk = [pipeline.infer(state, c) for c in chunks]
    np.testing.assert_array_equal(logits, np.concatenate([lg for lg, _ in per_chunk]))
    np.testing.assert_array_equal(weights, np.concatenate([w for _, w in per_chunk]))
    for variant in VARIANTS:
        np.testing.assert_array_equal(
            pipeline.predict_logits(state, images, variant),
            np.concatenate([pipeline.predict_logits(state, c, variant) for c in chunks]),
        )
    np.testing.assert_array_equal(
        pipeline.extract_features(state, images), np.concatenate([pipeline.extract_features(state, c) for c in chunks])
    )
