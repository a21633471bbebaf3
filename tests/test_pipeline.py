"""Training harness: seed determinism, frozen parameters and checkpoint
round trips for every variant of the ablation table."""

import copy
import dataclasses
import multiprocessing
import sys
import threading
import weakref
import zipfile

import numpy as np
import pytest

from doprompt import checkpoint as ckpt
from doprompt import objectives, optim, pipeline, vit
from doprompt import tensor as T
from doprompt.checkpoint import CheckpointError
from doprompt.config import VARIANTS, ConfigError
from doprompt.datagen import DomainBatch, generate_dataset
from doprompt.tensor import ShapeError, Tensor

from conftest import (
    count_gelu_derivatives,
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
    return {name: (out / name).read_bytes() for name in ("loss_curve.csv", "checkpoint.npz", "report.json")}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_run_experiment_is_byte_identical_for_one_seed(tmp_path, dataset, variant):
    run = tiny_run_config(dropout=0.1, seed=3)
    pipeline.run_experiment(dataset, 1, variant, run, out_dir=tmp_path / "first")
    pipeline.run_experiment(dataset, 1, variant, run, out_dir=tmp_path / "second")
    assert _artifacts(tmp_path / "second") == _artifacts(tmp_path / "first")


def _field_values(value):
    """`value` with every Tensor replaced by its array's dtype, shape and bytes."""
    if isinstance(value, T.Tensor):
        return value.data.dtype.str, value.data.shape, value.data.tobytes()
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: _field_values(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, list):
        return [_field_values(v) for v in value]
    return value


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_reloaded_checkpoint_predicts_bitwise_like_the_run(tmp_path, dataset, variant):
    run = tiny_run_config(dropout=0.1, seed=3)
    report = pipeline.run_experiment(dataset, 1, variant, run, out_dir=tmp_path)
    loaded = pipeline.ModelState.load(tmp_path / "checkpoint.npz", run.vit)
    # every field round-trips; requires_grad is the variant's, not the checkpoint's
    for field in dataclasses.fields(pipeline.ModelState):
        restored, trained = getattr(loaded, field.name), getattr(report["_state"], field.name)
        assert _field_values(restored) == _field_values(trained), field.name
    images = dataset.images[1]
    expected = pipeline.predict_logits(report["_state"], images, variant)
    assert pipeline.predict_logits(loaded, images, variant).tobytes() == expected.tobytes()


def test_run_experiment_needs_a_train_and_a_validation_image_per_source():
    five_per_domain = generate_dataset(3, 5, 0)
    run = tiny_run_config(val_fraction=0.95)  # rounds to 5 validation images of 5
    with pytest.raises(ConfigError, match="training and validation need >= 1 each"):
        pipeline.run_experiment(five_per_domain, 0, "erm", run)


def test_a_last_step_to_non_finite_parameters_writes_no_checkpoint(tmp_path):
    # the step-1 loss is finite; the update it takes at this rate is not
    run = tiny_run_config(learning_rate=1e30, steps=1, eval_interval=1)
    with pytest.raises(pipeline.NumericalError, match="parameter vit.patch.w is non-finite after step 1"):
        pipeline.run_experiment(generate_dataset(3, 10, 0), 0, "doprompt", run, tmp_path)
    assert list(tmp_path.iterdir()) == []


def _run_with_scripted_validation(monkeypatch, accuracies, steps, eval_interval):
    """A doprompt run whose validation evaluations read `accuracies` in turn and
    whose target evaluation reads 0.25; returns the report and the parameters
    each evaluation saw, the target evaluation's last."""
    script = iter([*accuracies, 0.25])
    seen = []

    def evaluate_accuracy(state, images, labels, variant):
        seen.append({n: p.data.copy() for n, p in state.named_params().items()})
        return next(script)

    monkeypatch.setattr(pipeline, "evaluate_accuracy", evaluate_accuracy)
    run = tiny_run_config(steps=steps, eval_interval=eval_interval, dropout=0.1, seed=2)
    report = pipeline.run_experiment(generate_dataset(3, 10, 0), 0, "doprompt", run)
    assert len(seen) == len(accuracies) + 1
    return report, seen


def _same_params(a, b):
    return a.keys() == b.keys() and all(a[n].dtype == b[n].dtype and a[n].tobytes() == b[n].tobytes() for n in a)


def test_selection_restores_the_earliest_best_validation_step(monkeypatch):
    # evaluations at steps 2, 4, 6 and 7: the first 0.6 is step 4, the second evaluation
    report, seen = _run_with_scripted_validation(monkeypatch, [0.4, 0.6, 0.6, 0.5], steps=7, eval_interval=2)
    assert (report["chosen_step"], report["val_acc"], report["test_acc"]) == (4, 0.6, 0.25)
    chosen = seen[1]
    assert not _same_params(seen[2], chosen)  # training went on past the chosen step
    assert _same_params(seen[-1], chosen)  # the target evaluation sees the chosen parameters
    assert _same_params({n: p.data for n, p in report["_state"].named_params().items()}, chosen)


def test_a_flat_validation_curve_selects_the_first_evaluation(monkeypatch):
    report, seen = _run_with_scripted_validation(monkeypatch, [0.5, 0.5], steps=3, eval_interval=2)
    assert (report["chosen_step"], report["val_acc"]) == (2, 0.5)
    assert not _same_params(seen[1], seen[0])
    assert _same_params(seen[-1], seen[0])
    assert _same_params({n: p.data for n, p in report["_state"].named_params().items()}, seen[0])


def test_split_and_init_draw_from_different_streams(monkeypatch):
    # init_state takes child 0 of the run seed; the split must not read the same bits
    generators = {}

    def recording(name, fn):
        def wrapped(*args):
            generators.setdefault(name, copy.deepcopy(args[-1]))
            return fn(*args)
        return wrapped

    monkeypatch.setattr(pipeline, "split_domain", recording("split", pipeline.split_domain))
    monkeypatch.setattr(vit, "init_vit_params", recording("init", vit.init_vit_params))
    pipeline.run_experiment(generate_dataset(3, 5, 0), 0, "erm", tiny_run_config(steps=1))
    assert not np.array_equal(generators["split"].random(3), generators["init"].random(3))


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
    "erm": (),
    "no_adapter": (),
    "no_lw": (),
    "no_ladapt": (),
    "frozen_backbone": ("vit.",),
}


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_init_state_builds_the_frozen_parameters_frozen(variant):
    run = tiny_run_config()
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0, variant=variant)
    named = state.named_params()
    trainable = {n for n in named if not n.startswith(FROZEN[variant])}
    assert {n for n, p in named.items() if p.requires_grad} == trainable
    opt = optim.init_adamw_state(named)
    assert set(opt.m) == set(opt.v) == trainable


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_train_step_updates_exactly_the_unfrozen_parameters(variant):
    run = tiny_run_config(dropout=0.1)
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0, variant=variant)
    before = {n: p.data.copy() for n, p in state.named_params().items()}
    opt = optim.init_adamw_state(state.named_params())
    pipeline.train_step(state, opt, _batch(run.vit, 3, 4), run.train, np.random.default_rng(1), variant)

    for name, p in state.named_params().items():
        assert p.grad is None, f"{name} kept its grad past the step"
        if name.startswith(FROZEN[variant]):
            assert p.data.tobytes() == before[name].tobytes(), f"frozen {name} changed"
        else:
            assert np.any(p.data != before[name]), f"trainable {name} did not move"


def test_run_experiment_restores_the_selected_parameters_in_the_optimizer_buffer(tmp_path, dataset, monkeypatch):
    made = []
    init_adamw_state = optim.init_adamw_state
    monkeypatch.setattr(optim, "init_adamw_state", lambda params: made.append(init_adamw_state(params)) or made[-1])
    report = pipeline.run_experiment(dataset, 1, "doprompt", tiny_run_config(steps=4, eval_interval=2), out_dir=tmp_path)
    named, (opt,) = report["_state"].named_params(), made
    saved = ckpt.load_arrays(tmp_path / "checkpoint.npz")
    assert list(opt.m) == list(named)
    for name in opt.m:
        assert named[name].data.base is opt.data, name
        assert named[name].data.tobytes() == saved[name].tobytes(), name


def _grads_step_params_receives(monkeypatch, variant):
    """(state, opt, grads): one `train_step` of a fresh `variant` model and
    every parameter's grad as `optim.step_params` received it."""
    run = tiny_run_config(dropout=0.1)
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0, variant=variant)
    opt = optim.init_adamw_state(state.named_params())
    grads = {}
    step_params = optim.step_params

    def recording_step_params(params, *args, **kwargs):
        grads.update({n: p.grad for n, p in params.items()})
        return step_params(params, *args, **kwargs)

    monkeypatch.setattr(optim, "step_params", recording_step_params)
    pipeline.train_step(state, opt, _batch(run.vit, 3, 4), run.train, np.random.default_rng(1), variant)
    assert set(grads) == set(state.named_params())
    return state, opt, grads


def test_frozen_backbone_backward_computes_no_backbone_gradient(monkeypatch):
    _, _, grads = _grads_step_params_receives(monkeypatch, "frozen_backbone")
    assert all(g is None for n, g in grads.items() if n.startswith("vit.")), "a frozen vit.* gradient was computed"
    assert all(g is not None for n, g in grads.items() if not n.startswith("vit."))


def test_train_step_keeps_every_array_float32(monkeypatch):
    state, opt, grads = _grads_step_params_receives(monkeypatch, "doprompt")
    for name, p in state.named_params().items():
        assert p.data.dtype == np.float32, name
        assert grads[name].dtype == np.float32, name
        assert opt.m[name].dtype == opt.v[name].dtype == np.float32, name


def _recording_backward(monkeypatch):
    """The roots `train_step` hands to `T.backward`, recorded as it runs them."""
    roots, backward = [], T.backward

    def recording_backward(root, grads=None):
        roots.append(root)
        backward(root, grads)

    monkeypatch.setattr(T, "backward", recording_backward)
    return roots


def test_train_step_leaves_no_gradient_on_an_interior_node(monkeypatch):
    roots = _recording_backward(monkeypatch)
    run = tiny_run_config(dropout=0.1)
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    opt = optim.init_adamw_state(state.named_params())
    pipeline.train_step(state, opt, _batch(run.vit, 3, 4), run.train, np.random.default_rng(1))
    assert len(roots) == 2  # l_prompt, then l_adapt + lambda * l_w
    stack, seen, interior = [root._record for root in roots], set(), 0
    while stack:
        record = stack.pop()
        if id(record) not in seen:
            seen.add(id(record))
            interior += 1
            assert record.grad is None, record
            stack.extend(p for p in record.parents if isinstance(p, T._Record))
    assert interior > 50


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_train_step_returns_graph_free_terms(monkeypatch, variant):
    roots = _recording_backward(monkeypatch)
    run = tiny_run_config(dropout=0.1)
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0, variant=variant)
    opt = optim.init_adamw_state(state.named_params())
    breakdown = pipeline.train_step(state, opt, _batch(run.vit, 3, 4), run.train, np.random.default_rng(1), variant)
    assert len(roots) == (2 if VARIANTS[variant].uses_adapter else 1)
    for field in dataclasses.fields(breakdown):
        term = getattr(breakdown, field.name)
        assert term.shape == () and term._record is None, field.name


def test_train_step_frees_the_prompt_pass_before_the_adapted_pass(monkeypatch):
    forward, logits, alive = vit.forward, [], []

    def recording_forward(*args, **kwargs):
        alive.append([ref() is not None for ref in logits])
        feat, out = forward(*args, **kwargs)
        logits.append(weakref.ref(out.data))  # a Tensor takes no weakref; its array dies with it
        return feat, out

    monkeypatch.setattr(vit, "forward", recording_forward)
    run = tiny_run_config(dropout=0.1)
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    opt = optim.init_adamw_state(state.named_params())
    pipeline.train_step(state, opt, _batch(run.vit, 3, 4), run.train, np.random.default_rng(1))
    # the adapter-input pass, the prompt pass, the adapted pass
    assert alive == [[], [False], [False, False]]
    assert all(ref() is None for ref in logits)


def test_fused_block_trains_like_the_unfused_oracle_64bit(monkeypatch):
    run = tiny_run_config(dropout=0.1)

    def losses():
        state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
        opt = optim.init_adamw_state(state.named_params())
        rng = np.random.default_rng(1)
        return [
            pipeline.train_step(state, opt, _batch(run.vit, 3, 4, seed=step), run.train, rng).floats()
            for step in range(20)
        ]

    with T.default_dtype("float64"):
        fused = losses()
        monkeypatch.setattr(vit, "attention_block", unfused_attention_block)
        unfused = losses()
    np.testing.assert_allclose(fused, unfused, rtol=0, atol=1e-5)
    assert fused[0] != fused[-1]


# term -> (how the model is broken, lambda)
NON_FINITE_TERMS = {
    "l_prompt": (lambda state: state.bank.data.fill(np.inf), 1.0),
    "l_w": (lambda state: state.adapter.b2.data.fill(np.nan), 1.0),
    "total": (lambda state: None, 1e308),
}


@pytest.mark.parametrize("term", list(NON_FINITE_TERMS))
def test_a_non_finite_loss_term_raises_before_the_update(term):
    poison, lam = NON_FINITE_TERMS[term]
    run = tiny_run_config(dropout=0.1, lam=lam)
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    opt = optim.init_adamw_state(state.named_params())
    healthy = dataclasses.replace(run.train, lam=1.0)
    pipeline.train_step(state, opt, _batch(run.vit, 3, 4), healthy, np.random.default_rng(1))  # moments != 0
    poison(state)
    params = {n: p.data.tobytes() for n, p in state.named_params().items()}
    moments = copy.deepcopy(opt)
    with np.errstate(all="ignore"), pytest.raises(pipeline.NumericalError, match=f"loss component {term} is non-finite"):
        pipeline.train_step(state, opt, _batch(run.vit, 3, 4, seed=1), run.train, np.random.default_rng(2))
    assert {n: p.data.tobytes() for n, p in state.named_params().items()} == params
    assert all(p.grad is None for p in state.named_params().values()), "a gradient was left for the next step"
    assert opt.t == moments.t == 1
    for name in moments.m:
        assert opt.m[name].tobytes() == moments.m[name].tobytes(), name
        assert opt.v[name].tobytes() == moments.v[name].tobytes(), name


def test_train_step_rejects_unknown_variant():
    run = tiny_run_config()
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    opt = optim.init_adamw_state(state.named_params())
    with pytest.raises(ConfigError, match="unknown variant"):
        pipeline.train_step(state, opt, _batch(run.vit, 3, 2), run.train, np.random.default_rng(0), "dopromt")


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
    images = _batch(run.vit, 1, 5).images
    for variant in ("doprompt", "no_adapter") if with_prompts else ("erm",):
        state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0, variant=variant)
        path = tmp_path / f"{variant}.npz"
        state.save(path)
        loaded = pipeline.ModelState.load(path, run.vit)

        original, restored = state.named_params(), loaded.named_params()
        assert list(restored) == list(original)
        assert any(name.startswith("adapter.") for name in restored) == (variant == "doprompt")
        for name, p in restored.items():
            assert p.requires_grad
            assert p.data.tobytes() == original[name].data.tobytes()
        np.testing.assert_array_equal(
            pipeline.predict_logits(loaded, images, variant), pipeline.predict_logits(state, images, variant)
        )


@pytest.mark.parametrize("variant", ["erm", "no_adapter", "doprompt"])
def test_load_draws_nothing_and_restores_the_saved_model_bitwise(tmp_path, monkeypatch, variant):
    run = tiny_run_config()
    state = pipeline.init_state(run.vit, 3, 2, seed=4, variant=variant)  # not the draws of any other seed
    state.save(tmp_path / "model.npz")

    def no_draws(*args, **kwargs):
        raise AssertionError("ModelState.load made a generator")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    monkeypatch.setattr(np.random, "SeedSequence", no_draws)
    loaded = pipeline.ModelState.load(tmp_path / "model.npz", run.vit)
    original = state.named_params()
    assert list(loaded.named_params()) == list(original)
    for name, p in loaded.named_params().items():
        assert p.data.dtype == np.float32 and p.data.flags.c_contiguous, name
        assert p.data.tobytes() == original[name].data.tobytes(), name
        assert p.requires_grad and p.grad is None, name


BLOCK_ARRAYS = ("ln1.g", "ln1.b", "wqkv", "bqkv", "wo", "bo", "ln2.g", "ln2.b", "w1", "b1", "w2", "b2")


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_parameters_and_checkpoint_members_keep_one_order(tmp_path, variant):
    # vit.* in block order, classifier.*, prompts.bank, adapter.*, then meta.num_heads
    run = tiny_run_config()
    cfg = dataclasses.replace(run.vit, depth=2)
    state = pipeline.init_state(cfg, 3, 2, seed=0, variant=variant)
    expected = ["vit.patch.w", "vit.patch.b", "vit.cls", "vit.pos"]
    expected += [f"vit.block{i}.{name}" for i in range(2) for name in BLOCK_ARRAYS]
    expected += ["vit.norm.g", "vit.norm.b", "classifier.w", "classifier.b"]
    if VARIANTS[variant].uses_prompts:
        expected.append("prompts.bank")
    if VARIANTS[variant].uses_adapter:
        expected += ["adapter.l1.w", "adapter.l1.b", "adapter.l2.w", "adapter.l2.b"]
    assert list(state.named_params()) == expected

    state.save(tmp_path / "model.npz")
    with zipfile.ZipFile(tmp_path / "model.npz") as zf:
        assert zf.namelist() == [f"{name}.npy" for name in expected + ["meta.num_heads"]]


@pytest.mark.parametrize("change, message", [
    ({"embed_dim": 8}, r"vit.patch.w has shape \(192, 16\), the configured model has \(192, 8\)"),
    ({"depth": 2}, r"12 missing \['vit.block1.b1'\], 0 unexpected"),
    ({"mlp_ratio": 4.0}, r"vit.block0.w1 has shape \(16, 32\), the configured model has \(16, 64\)"),
], ids=["embed_dim", "depth", "mlp_ratio"])
def test_load_into_a_model_the_arrays_do_not_fit_raises(tmp_path, change, message):
    run = tiny_run_config()
    path = tmp_path / "model.npz"
    pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0).save(path)
    with pytest.raises(CheckpointError, match=message):
        pipeline.ModelState.load(path, dataclasses.replace(run.vit, **change))


@pytest.mark.parametrize("bank_shape", [(3, 16), (3, 0, 16)])
def test_load_rejects_a_bank_that_is_not_a_k_l_d_array(tmp_path, bank_shape):
    run = tiny_run_config()
    arrays = {n: p.data for n, p in pipeline.init_state(run.vit, 3, 2, seed=0).named_params().items()}
    arrays["prompts.bank"] = np.zeros(bank_shape, dtype=np.float32)
    arrays["meta.num_heads"] = np.array(run.vit.num_heads)
    path = tmp_path / "model.npz"
    ckpt.save_arrays(path, arrays)
    with pytest.raises(CheckpointError, match="expected non-empty \\(K, L, D\\)"):
        pipeline.ModelState.load(path, run.vit)


def test_load_checks_the_recorded_head_count_and_requires_it(tmp_path):
    run = tiny_run_config()
    path, headless = tmp_path / "model.npz", tmp_path / "headless.npz"
    pipeline.init_state(run.vit, 3, 2, seed=0).save(path)
    arrays = ckpt.load_arrays(path)
    assert list(arrays)[-1] == "meta.num_heads" and arrays["meta.num_heads"].shape == ()
    assert arrays.pop("meta.num_heads") == run.vit.num_heads
    ckpt.save_arrays(headless, arrays)
    four_heads = dataclasses.replace(run.vit, num_heads=4)
    with pytest.raises(CheckpointError, match="meta.num_heads is 2.0, the configured model has num_heads 4"):
        pipeline.ModelState.load(path, four_heads)
    with pytest.raises(CheckpointError, match="meta.num_heads is missing, the configured model has num_heads 2"):
        pipeline.ModelState.load(headless, run.vit)


def test_two_saves_of_one_state_give_identical_bytes(tmp_path):
    run = tiny_run_config()
    state = pipeline.init_state(run.vit, 3, 2, seed=0)
    state.save(tmp_path / "first.npz")
    state.save(tmp_path / "second.npz")
    assert (tmp_path / "first.npz").read_bytes() == (tmp_path / "second.npz").read_bytes()


def test_sample_step_batch_labels_each_image_with_its_source_slot():
    dataset = generate_dataset(4, 20, 0)
    source_domains = [0, 2, 3]
    train_idx = {d: np.arange(3, 13) for d in source_domains}
    # 12 draws from a pool of 10 take the with-replacement path
    batch = pipeline.sample_step_batch(dataset, source_domains, train_idx, 12, np.random.default_rng(0))
    assert batch.domains.dtype == np.int64
    np.testing.assert_array_equal(batch.domains, np.repeat(np.arange(3), 12))
    for image, label, slot in zip(batch.images, batch.labels, batch.domains):
        d = source_domains[slot]
        rows = [i for i in train_idx[d] if np.array_equal(dataset.images[d][i], image)]
        assert rows and dataset.labels[d][rows[0]] == label


def _prompted_state(run, k=3):
    """A fresh model whose prompts are large enough to move the logits."""
    state = pipeline.init_state(run.vit, k, run.train.prompt_length, seed=0)
    state.bank.data *= 50.0
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


def test_per_prompt_logits_embed_each_image_once_bitwise_like_the_repeated_images(monkeypatch):
    run = tiny_run_config()
    state = _prompted_state(run)
    images = _batch(run.vit, 1, 130).images
    tiled = np.tile(state.bank.data, (len(images), 1, 1))
    expected = pipeline._forward_eval(state, np.repeat(images, 3, axis=0), tiled)[1].reshape(130, 3, -1)
    embedded, patch_embed = [], vit.patch_embed
    monkeypatch.setattr(vit, "patch_embed", lambda *a: embedded.append(a[2].shape[0]) or patch_embed(*a))
    assert pipeline.per_prompt_logits(state, images).tobytes() == expected.tobytes()
    assert embedded == [130]


def test_inference_computes_no_gelu_derivative(monkeypatch):
    calls = count_gelu_derivatives(monkeypatch)
    run = tiny_run_config()
    state = _prompted_state(run)
    images = _batch(run.vit, 1, 6).images
    for variant in VARIANTS:
        pipeline.predict_logits(state, images, variant)
    pipeline.infer(state, images)
    assert calls == []


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


# ---------------------------------------------------------------------------
# inference on two threads


def _on_cores(monkeypatch, cores, blas_threads=1):
    """Let the process see `cores` cores in its CPU affinity, and a BLAS binding
    whose thread count starts at `blas_threads` (None: no binding). Returns
    the counts the binding is set to, recorded as they are set."""
    monkeypatch.setattr(pipeline.os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
    count, sets = [blas_threads], []

    def set_threads(n):
        sets.append(n)
        count[0] = n

    monkeypatch.setattr(pipeline, "_BLAS", None if blas_threads is None else (lambda: count[0], set_threads))
    return sets


def test_inference_bits_and_blocks_do_not_depend_on_the_core_count(monkeypatch):
    run = tiny_run_config()
    state = _prompted_state(run)
    images = _batch(run.vit, 1, 300).images
    calls, forward = [], vit.forward

    def recording(params, cfg, imgs, *rest):
        calls.append((imgs.shape[0], threading.get_ident()))
        return forward(params, cfg, imgs, *rest)

    monkeypatch.setattr(vit, "forward", recording)
    seen = {}
    for cores in (1, 2, 4):
        _on_cores(monkeypatch, cores)
        calls.clear()
        out = [*pipeline.infer(state, images), pipeline.extract_features(state, images)]
        out += [pipeline.per_prompt_logits(state, images)] + [pipeline.predict_logits(state, images, v) for v in VARIANTS]
        seen[cores] = [a.tobytes() for a in out], sorted(rows for rows, _ in calls)
        # a chunk holds two blocks, so a helper thread runs one of them once the affinity allows two
        assert any(thread != threading.get_ident() for _, thread in calls) == (cores > 1)
    sets = _on_cores(monkeypatch, 4, blas_threads=4)
    calls.clear()
    out = [*pipeline.infer(state, images), pipeline.extract_features(state, images)]
    out += [pipeline.per_prompt_logits(state, images)] + [pipeline.predict_logits(state, images, v) for v in VARIANTS]
    assert any(thread != threading.get_ident() for _, thread in calls)  # pinned: helper
    assert sets and sets == [1, 4] * (len(sets) // 2)  # each call pins, then restores
    assert seen[2] == seen[1] and seen[4] == seen[1] and ([a.tobytes() for a in out], sorted(r for r, _ in calls)) == seen[1]
    assert max(seen[1][1]) == pipeline._BLOCK


@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("blas_threads", [1, 2])
@pytest.mark.parametrize("bound", [True, False])
def test_a_helper_thread_runs_only_beside_one_blas_thread_on_two_cores(monkeypatch, bound, blas_threads, cores):
    _on_cores(monkeypatch, cores, blas_threads if bound else None)
    assert pipeline._helper_thread() is (bound and blas_threads == 1 and cores > 1)


def test_the_blas_pin_restores_the_callers_count_also_on_an_error(monkeypatch, dataset):
    sets = _on_cores(monkeypatch, 2, blas_threads=2)
    seen, forward = [], vit.forward

    def recording(*args):
        seen.append(pipeline._BLAS[0]())
        return forward(*args)

    monkeypatch.setattr(vit, "forward", recording)
    run = tiny_run_config(steps=2, eval_interval=1)
    pipeline.run_experiment(dataset, 1, "doprompt", run)
    assert sets == [1, 2] and set(seen) == {1}  # validation's `_forward_eval` runs inside the run's pin
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    sets.clear()
    with pipeline._one_blas_thread():
        pipeline._forward_eval(state, _batch(run.vit, 1, 3).images)
        assert pipeline._BLAS[0]() == 1
    assert sets == [1, 2]

    def failing(*args):
        raise ShapeError("forward")

    monkeypatch.setattr(vit, "forward", failing)
    sets.clear()
    with pytest.raises(ShapeError, match="forward"):
        pipeline._forward_eval(state, _batch(run.vit, 1, 3).images)
    with pytest.raises(ShapeError, match="forward"):
        pipeline.run_experiment(dataset, 1, "doprompt", run)
    assert sets == [1, 2, 1, 2] and pipeline._BLAS[0]() == 2
    _on_cores(monkeypatch, 2, blas_threads=None)
    with pytest.raises(ShapeError, match="forward"):  # no binding: nothing to pin, and the body runs
        pipeline._forward_eval(state, _batch(run.vit, 1, 3).images)


@pytest.mark.skipif(
    not sys.platform.startswith("linux") or int(np.__version__.split(".")[0]) < 2,
    reason="the binding is checked on the Linux wheels of numpy >= 2",
)
def test_the_blas_binding_is_found_in_numpys_bundled_openblas():
    assert pipeline._BLAS is not None
    get, set_threads = pipeline._BLAS
    threads = get()
    try:
        set_threads(3)
        assert get() == 3
    finally:
        set_threads(threads)
    assert get() == threads >= 1


@pytest.mark.skipif(pipeline._BLAS is None, reason="numpy's BLAS has no thread-count binding here")
def test_a_run_writes_the_same_bytes_at_any_blas_thread_count(tmp_path, dataset):
    # the default width and batch: a step runs as two lanes, whose weight-gradient
    # GEMMs OpenBLAS would split across its threads
    run = tiny_run_config(dropout=0.1, steps=2, eval_interval=2, batch_per_domain=16)
    run = dataclasses.replace(run, vit=vit.ViTConfig(dropout_rate=0.1))
    get, set_threads = pipeline._BLAS
    threads = get()
    try:
        for n in (1, 2):
            set_threads(n)
            pipeline.run_experiment(dataset, 1, "doprompt", run, out_dir=tmp_path / str(n))
            assert get() == n
    finally:
        set_threads(threads)
    for name in ("checkpoint.npz", "loss_curve.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name


def test_a_pool_worker_starts_no_helper_thread(monkeypatch):
    _on_cores(monkeypatch, 2)
    assert pipeline._helper_thread()
    with multiprocessing.get_context("fork").Pool(1) as pool:  # the kind of pool `cli` runs its cells on
        assert pool.apply(pipeline._helper_thread) is False


def test_a_helper_thread_error_reraises_in_the_caller_with_its_type(monkeypatch):
    run = tiny_run_config()
    state = _prompted_state(run)
    images = _batch(run.vit, 1, 130).images
    images[:, 0, 0, 0] = np.arange(130)  # each image carries its row
    raised_in, forward = [], vit.forward

    def failing(params, cfg, imgs, *rest):
        if imgs.data[0, 0, 0, 0] >= 64:
            raised_in.append(threading.current_thread())
            raise ShapeError("a row >= 64")
        return forward(params, cfg, imgs, *rest)

    monkeypatch.setattr(vit, "forward", failing)
    _on_cores(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(ShapeError, match="a row >= 64"):
        pipeline.infer(state, images)
    assert raised_in and threading.current_thread() not in raised_in  # the helper thread raised it
    assert threading.active_count() == before and T._GRAD.enabled


def test_infer_leaves_no_thread_behind_and_records_no_graph(monkeypatch):
    run = tiny_run_config()
    state = _prompted_state(run)
    images = _batch(run.vit, 1, 300).images
    made = []

    class CountingRecord(T._Record):
        __slots__ = ()

        def __init__(self, *args):
            made.append(args)
            super().__init__(*args)

    monkeypatch.setattr(T, "_Record", CountingRecord)
    _on_cores(monkeypatch, 4)
    before = threading.active_count()
    pipeline.infer(state, images)
    assert threading.active_count() == before and made == []
    T.tensor_sum(Tensor(np.ones(2), requires_grad=True))  # the counter sees a recorded op
    assert len(made) == 1


# ---------------------------------------------------------------------------
# a large step in two lanes


def _lane_run(dropout=0.1):
    """A one-block model with embed_dim 64 and 33 images a step: lanes of 17 and 16 rows."""
    run = tiny_run_config(dropout=dropout, batch_per_domain=11)
    return dataclasses.replace(run, vit=dataclasses.replace(run.vit, embed_dim=64))


def _lane_steps(run, steps=2, variant="doprompt"):
    """(state, opt, loss floats per step) of `steps` steps of a fresh model from fixed batches."""
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0, variant=variant)
    opt = optim.init_adamw_state(state.named_params())
    rng = np.random.default_rng(1)
    losses = [
        pipeline.train_step(state, opt, _batch(run.vit, 3, 11, seed=s), run.train, rng, variant).floats()
        for s in range(steps)
    ]
    return state, opt, losses


def _recording_forward(monkeypatch):
    """(rows, thread id) of every `vit.forward` call, recorded as it runs."""
    calls, forward = [], vit.forward

    def recording(params, cfg, imgs, *rest):
        calls.append((imgs.shape[0], threading.get_ident()))
        return forward(params, cfg, imgs, *rest)

    monkeypatch.setattr(vit, "forward", recording)
    return calls


@pytest.mark.parametrize(
    "batch, dim, lanes",
    [
        (48, 64, [24, 24]),  # the default shapes
        (33, 64, [17, 16]),
        (32, 64, [16, 16]),
        (31, 64, [31]),  # 15 x 64 < 1024
        (24, 64, [24]),
        (24, 16, [24]),  # the benchmark's tiny ablate table
        (32, 16, [32]),  # the README's tiny.cfg: two source domains of 16
        (128, 16, [64, 64]),
    ],
)
def test_a_step_splits_by_its_batch_size_and_width_alone(batch, dim, lanes):
    assert [rows.stop - rows.start for rows in pipeline._lanes(batch, dim)] == lanes


@pytest.mark.parametrize("variant", list(VARIANTS))
def test_a_two_lane_step_is_byte_identical_with_and_without_the_helper(monkeypatch, variant):
    calls = _recording_forward(monkeypatch)
    run, seen = _lane_run(), {}
    for cores in (1, 2):
        _on_cores(monkeypatch, cores)
        calls.clear()
        before = threading.active_count()
        state, opt, losses = _lane_steps(run, variant=variant)
        assert threading.active_count() == before  # the helper is joined within the step
        seen[cores] = losses, [p.data.tobytes() for p in state.named_params().values()], opt.moments.tobytes()
        helper_rows = sorted(rows for rows, thread in calls if thread != threading.get_ident())
        spec = VARIANTS[variant]
        passes = 1 + spec.uses_adapter + ("adapt" in spec.terms)  # per lane, per step
        assert sorted(rows for rows, _ in calls) == [16] * 2 * passes + [17] * 2 * passes
        assert helper_rows == ([16] * 2 * passes if cores == 2 else [])
    assert seen[2] == seen[1]


def test_a_two_lane_step_updates_like_one_full_batch_lane(monkeypatch):
    run = _lane_run(dropout=0.0)
    received = []
    step_params = optim.step_params

    def recording_step_params(params, *args, **kwargs):
        received.append({n: p.grad for n, p in params.items()})
        return step_params(params, *args, **kwargs)

    monkeypatch.setattr(optim, "step_params", recording_step_params)
    _on_cores(monkeypatch, 2)
    split, _, split_losses = _lane_steps(run, steps=1)
    monkeypatch.setattr(pipeline, "_LANE_MIN", 10**9)
    whole, _, whole_losses = _lane_steps(run, steps=1)
    np.testing.assert_allclose(split_losses, whole_losses, rtol=1e-6)
    for (name, p), q in zip(split.named_params().items(), whole.named_params().values()):
        np.testing.assert_allclose(received[0][name], received[1][name], rtol=1e-4, atol=1e-7, err_msg=name)
        # AdamW's first step is about lr * sign(g): where g is float32 noise around 0
        # (the q and k biases), the sign is noise too, so compare the rest
        signal = np.abs(received[1][name]) > 1e-6
        np.testing.assert_allclose(p.data[signal], q.data[signal], rtol=0, atol=1e-6, err_msg=name)
        assert signal.mean() > 0.5, name


def test_a_two_lane_step_reports_the_row_weighted_mean_of_its_lanes(monkeypatch):
    lanes, variant_loss = {}, objectives.variant_loss

    def recording(spec, params, cfg, bank, adapter, batch, *rest, **kwargs):
        terms = variant_loss(spec, params, cfg, bank, adapter, batch, *rest, **kwargs)
        lanes[len(batch.labels)] = terms.floats()  # keyed by rows: the lanes may finish in either order
        return terms

    monkeypatch.setattr(objectives, "variant_loss", recording)
    _, _, (losses,) = _lane_steps(_lane_run(), steps=1)
    first, second = lanes.pop(17), lanes.pop(16)
    assert first != second and not lanes
    assert losses == tuple(float(np.float32((17 * a + 16 * b) / 33)) for a, b in zip(first, second))


@pytest.mark.parametrize(
    "variant, embeds_per_lane", [("doprompt", 2), ("no_ladapt", 1), ("erm", 1)]
)
def test_a_lane_rearranges_its_pixels_once_and_projects_them_once_per_backpropagated_pass(
    monkeypatch, variant, embeds_per_lane
):
    # the no-grad adapter input reads the prompt pass's patch tokens; the adapted pass projects the rows again
    rearranged, embedded = [], []
    patch_rows, patch_embed = vit.patch_rows, vit.patch_embed
    monkeypatch.setattr(vit, "patch_rows", lambda cfg, imgs: rearranged.append(len(imgs)) or patch_rows(cfg, imgs))
    monkeypatch.setattr(vit, "patch_embed", lambda *a: embedded.append(a[2].shape[0]) or patch_embed(*a))
    _lane_steps(_lane_run(), steps=1, variant=variant)
    assert sorted(rearranged) == [16, 17]
    assert sorted(embedded) == [16] * embeds_per_lane + [17] * embeds_per_lane


def test_a_diverging_two_lane_step_raises_numerical_error_under_the_callers_errstate(monkeypatch):
    # numpy's error state is per thread: the helper's lane must run under the caller's, not warn
    run = _lane_run()
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    opt = optim.init_adamw_state(state.named_params())
    state.params.patch_w.data[...] = np.float32(3e38)  # the patch tokens overflow, and the loss is NaN
    _on_cores(monkeypatch, 2)
    assert pipeline._helper_thread()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"), pytest.raises(pipeline.NumericalError):
        pipeline.train_step(state, opt, _batch(run.vit, 3, 11), run.train, np.random.default_rng(1))


def test_an_error_in_the_second_lane_reraises_and_changes_nothing(monkeypatch):
    run = _lane_run()
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    opt = optim.init_adamw_state(state.named_params())
    params = {n: p.data.tobytes() for n, p in state.named_params().items()}
    raised_in, forward = [], vit.forward

    def failing(params, cfg, imgs, *rest):
        if imgs.shape[0] == 16:
            raised_in.append(threading.current_thread())
            raise ShapeError("lane 2")
        return forward(params, cfg, imgs, *rest)

    monkeypatch.setattr(vit, "forward", failing)
    _on_cores(monkeypatch, 2)
    before = threading.active_count()
    with pytest.raises(ShapeError, match="lane 2"):
        pipeline.train_step(state, opt, _batch(run.vit, 3, 11), run.train, np.random.default_rng(1))
    assert raised_in and threading.current_thread() not in raised_in  # the helper thread raised it
    assert threading.active_count() == before and T._GRAD.enabled
    assert {n: p.data.tobytes() for n, p in state.named_params().items()} == params
    assert all(p.grad is None for p in state.named_params().values())
    assert opt.t == 0 and not opt.moments.any()


def test_one_lane_steps_draw_no_lane_seed(monkeypatch):
    # the benchmark's tiny ablate shapes (embed_dim 16, 24 images) run as one lane on the caller's generator
    calls = _recording_forward(monkeypatch)
    _on_cores(monkeypatch, 2)
    run = tiny_run_config(dropout=0.1, batch_per_domain=8)
    state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    opt = optim.init_adamw_state(state.named_params())
    rng, twin = np.random.default_rng(1), np.random.default_rng(1)
    pipeline.train_step(state, opt, _batch(run.vit, 3, 8), run.train, rng)
    assert calls == [(24, threading.get_ident())] * 3
    twin_state = pipeline.init_state(run.vit, 3, run.train.prompt_length, seed=0)
    objectives.variant_loss(
        VARIANTS["doprompt"], twin_state.params, run.vit, twin_state.bank, twin_state.adapter,
        _batch(run.vit, 3, 8), run.train.lam, twin,
    )
    assert rng.bit_generator.state == twin.bit_generator.state
