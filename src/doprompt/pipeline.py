"""Training loop, inference, evaluation, and model selection.

Every variant trains and predicts from its row of `config.VARIANTS`: the
loss terms go to `objectives.variant_loss`, the frozen name prefixes to
`init_state`, and the inference mode to `predict_logits`.
One training run is single-threaded and fully deterministic: every random
draw (init, batch sampling, dropout) derives from the run seed. Validation
uses the exact inference function later used on the target domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import objectives, optim, prompting, vit
from . import tensor as T
from .config import ConfigError, RunConfig, TrainConfig, get_variant
from .datagen import DomainBatch, SyntheticDataset
from .objectives import LossBreakdown
from .prompting import AdapterParams
from .tensor import Tensor
from .vit import ViTConfig, ViTParams

__all__ = [
    "ModelState",
    "NumericalError",
    "SelectionRecord",
    "evaluate_accuracy",
    "extract_features",
    "infer",
    "init_state",
    "per_prompt_logits",
    "predict_logits",
    "run_experiment",
    "train_step",
]

EVAL_BATCH = 128


class NumericalError(RuntimeError):
    """A loss component or a parameter became non-finite during training."""


@dataclass
class ModelState:
    """The model: exactly what `save` writes and `load` reads back.

    `bank` is the (K, L, D) prompt bank, whose shape is the one record of K
    and L. The AdamW moments belong to the run that trains the model, not to
    the model, so a checkpoint cannot resume a run bit-exactly.
    """

    cfg: ViTConfig
    params: ViTParams
    bank: Tensor | None
    adapter: AdapterParams | None

    def named_params(self) -> dict:
        """Name -> parameter: the `vit.*` and `classifier.*` arrays, then
        `prompts.bank`, then the `adapter.*` arrays, for the parts present."""
        out = dict(self.params.named())
        if self.bank is not None:
            out["prompts.bank"] = self.bank
        if self.adapter is not None:
            out.update(self.adapter.named())
        return out

    def save(self, path) -> None:
        """One array per parameter, then the 0-d `meta.num_heads` array."""
        arrays = {name: p.data for name, p in self.named_params().items()}
        ckpt.save_arrays(path, {**arrays, "meta.num_heads": np.array(self.cfg.num_heads)})

    @classmethod
    def load(cls, path, cfg: ViTConfig) -> "ModelState":
        """Build the model the file's arrays describe and copy them into it.

        The parts come from the file's names: a file without `prompts.bank`
        holds a prompt-free model, and one with a bank but no `adapter.*`
        array a model without an adapter. K and L come from the (K, L, D)
        shape of `prompts.bank`. Every other shape follows from `cfg`, so the
        file's parameter names and shapes must match the model `init_state`
        builds, and its `meta.num_heads` array must equal `cfg.num_heads`;
        otherwise this raises `CheckpointError`.
        """
        arrays = ckpt.load_arrays(path)
        heads = arrays.pop("meta.num_heads", None)
        if heads is None or not np.array_equal(heads, np.array(cfg.num_heads)):
            recorded = "missing" if heads is None else heads.tolist()
            raise ckpt.CheckpointError(
                f"{path}: meta.num_heads is {recorded}, the configured model has num_heads {cfg.num_heads}"
            )
        bank = arrays.get("prompts.bank")
        if bank is not None and (bank.ndim != 3 or 0 in bank.shape):
            raise ckpt.CheckpointError(f"{path}: prompts.bank has shape {bank.shape}, expected non-empty (K, L, D)")
        if bank is None:
            k, length, variant = 0, 0, "erm"
        else:  # a variant whose parts are the file's
            k, length = bank.shape[:2]
            variant = "doprompt" if any(name.startswith("adapter.") for name in arrays) else "no_adapter"
        state = init_state(cfg, k, length, seed=0, variant=variant)
        named = state.named_params()
        missing, extra = sorted(named.keys() - arrays.keys()), sorted(arrays.keys() - named.keys())
        if missing or extra:
            raise ckpt.CheckpointError(
                f"{path}: arrays do not fit the configured model: "
                f"{len(missing)} missing {missing[:1]}, {len(extra)} unexpected {extra[:1]}"
            )
        for name, p in named.items():
            if arrays[name].shape != p.shape:
                raise ckpt.CheckpointError(
                    f"{path}: {name} has shape {arrays[name].shape}, the configured model has {p.shape}"
                )
            p.data[...] = arrays[name]
        return state


@dataclass
class SelectionRecord:
    """Validation accuracy per evaluated checkpoint; best step wins, ties earliest."""

    steps: list
    val_accuracies: list

    @property
    def chosen_step(self) -> int:
        best = int(np.argmax(self.val_accuracies))  # argmax takes the earliest max
        return self.steps[best]

    @property
    def best_accuracy(self) -> float:
        return max(self.val_accuracies)


def init_state(cfg: ViTConfig, num_domains: int, prompt_length: int, seed: int,
               variant: str = "doprompt") -> ModelState:
    """A fresh model with the parts `variant` trains: the backbone and classifier,
    a (num_domains, prompt_length, D) prompt bank if it uses prompts, and an
    adapter if it uses one. The adapter is drawn last, so the other parts are
    the same for every variant of one seed. The parameters under the variant's
    `frozen` prefixes are built with `requires_grad=False`, so no backward
    computes their gradients and `optim.init_adamw_state` keeps no moments for them."""
    spec = get_variant(variant)
    root = np.random.SeedSequence(seed)
    init_rng = np.random.default_rng(root.spawn(1)[0])
    params = vit.init_vit_params(cfg, init_rng)
    bank = adapter = None
    if spec.uses_prompts:
        bank = prompting.init_prompt_bank(num_domains, prompt_length, cfg.embed_dim, init_rng)
    if spec.uses_adapter:
        adapter = prompting.init_adapter_params(cfg.embed_dim, num_domains, prompt_length, init_rng)
    state = ModelState(cfg=cfg, params=params, bank=bank, adapter=adapter)
    for name, p in state.named_params().items():
        p.requires_grad = not name.startswith(spec.frozen)
    return state


def train_step(
    state: ModelState,
    opt: optim.AdamWState,
    batch: DomainBatch,
    config: TrainConfig,
    rng: np.random.Generator,
    variant: str = "doprompt",
) -> LossBreakdown:
    """One optimization step on one multi-domain batch, in place on `state` and `opt`.

    The batch carries one sub-batch per source domain. Computes the variant's
    objective with dropout masks drawn from `rng` and backpropagates each
    part as soon as its passes have run: l_prompt after the prompt pass, then
    l_adapt + lambda * l_w after the adapted pass, so the step holds one
    pass's graph at a time. Then applies AdamW to the parameters `opt` holds
    moments for, which clears their grads. `variant` picks only the loss:
    `state` must come from `init_state` for the same variant and `opt` from
    its `named_params()`, as in `run_experiment`. If a loss term is
    non-finite, raises NumericalError naming the first one in CSV order,
    before the update: every parameter and `opt` keep their values, and no
    gradient is left behind.
    Returns the graph-free loss terms.
    """
    breakdown = objectives.variant_loss(
        get_variant(variant), state.params, state.cfg, state.bank, state.adapter, batch, config.lam, rng,
        backward=T.backward,
    )
    for field, value in zip(fields(breakdown), breakdown.floats()):
        if not np.isfinite(value):
            for p in state.named_params().values():
                p.grad = None  # a later step must not accumulate onto this step's gradients
            raise NumericalError(f"loss component {field.name} is non-finite ({value})")
    optim.step_params(state.named_params(), opt, opt.m, lr=config.learning_rate, weight_decay=config.weight_decay)
    return breakdown


# ---------------------------------------------------------------------------
# inference


def _forward_eval(state: ModelState, images: np.ndarray, prompts: np.ndarray | None = None):
    """(features NxD, logits NxC) of a no-grad forward in chunks of EVAL_BATCH rows.

    `prompts` is None (prompt-free) or per-row (N, P, D) tokens, sliced along
    with the images, so K prompts per image run as one gathered pass.
    """
    feats, logits = [], []
    with T.no_grad():
        for start in range(0, len(images), EVAL_BATCH):
            rows = slice(start, start + EVAL_BATCH)
            tokens = None if prompts is None else Tensor(prompts[rows])
            feat, out = vit.forward(state.params, state.cfg, Tensor(images[rows]), tokens)
            feats.append(feat.data)
            logits.append(out.data)
    return np.concatenate(feats), np.concatenate(logits)


def infer(state: ModelState, images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Two-pass adapted-prompt inference; returns (logits NxC, weights NxLxK).

    Pass 1 runs prompt-free to get the class feature, the adapter maps it to
    simplex weights over all N rows at once, pass 2 runs with the composed
    adapted prompts.
    """
    feat, _ = _forward_eval(state, images)
    with T.no_grad():
        weights = prompting.adapter_forward(state.adapter, state.bank, Tensor(feat))
        adapted = prompting.compose_adapted_prompts(state.bank, weights)
    return _forward_eval(state, images, adapted.data)[1], weights.data


def per_prompt_logits(state: ModelState, images: np.ndarray) -> np.ndarray:
    """(N, K, C) logits of every image under each single source-domain prompt.

    One pass over N*K rows: row i*K + k is image i with prompt k of the bank.
    """
    k = state.bank.shape[0]
    tiled = np.tile(state.bank.data, (len(images), 1, 1))
    logits = _forward_eval(state, np.repeat(images, k, axis=0), tiled)[1]
    return logits.reshape(len(images), k, -1)


_INFERENCE = {
    "adapted": lambda state, images: infer(state, images)[0],
    "prompt_free": lambda state, images: _forward_eval(state, images)[1],
    "prompt_averaged": lambda state, images: per_prompt_logits(state, images).mean(axis=1),
}


def predict_logits(state: ModelState, images: np.ndarray, variant: str) -> np.ndarray:
    """The variant's test-time logits; validation uses this same function."""
    return _INFERENCE[get_variant(variant).inference](state, images)


def evaluate_accuracy(state: ModelState, images, labels, variant: str) -> float:
    correct = predict_logits(state, images, variant).argmax(axis=1) == labels
    return int(correct.sum()) / len(labels)


def extract_features(state: ModelState, images: np.ndarray) -> np.ndarray:
    """Prompt-free class-token features, the representation the adapter sees."""
    return _forward_eval(state, images)[0]


# ---------------------------------------------------------------------------
# experiment harness


def split_domain(n: int, val_fraction: float, rng: np.random.Generator):
    """Seeded shuffle, then an (1 - val_fraction)/val_fraction split."""
    order = rng.permutation(n)
    n_val = max(1, int(round(n * val_fraction)))
    return order[n_val:], order[:n_val]


def sample_step_batch(
    dataset: SyntheticDataset, source_domains, train_idx, batch_per_domain, rng
) -> DomainBatch:
    """`batch_per_domain` training images of each source domain, in
    `source_domains` order; `domains` holds each image's source slot, the
    index of its domain in `source_domains`."""
    picks = [
        (d, rng.choice(train_idx[d], size=batch_per_domain, replace=len(train_idx[d]) < batch_per_domain))
        for d in source_domains
    ]
    return DomainBatch(
        images=np.concatenate([dataset.images[d][sel] for d, sel in picks]),
        labels=np.concatenate([dataset.labels[d][sel] for d, sel in picks]),
        domains=np.repeat(np.arange(len(source_domains), dtype=np.int64), batch_per_domain),
    )


def run_experiment(
    dataset: SyntheticDataset,
    target_domain: int,
    variant: str,
    run_cfg: RunConfig,
    out_dir=None,
) -> dict:
    """Leave-one-domain-out training with training-domain validation.

    Splits every source domain into train/validation, trains for the
    configured number of steps, selects the checkpoint with the best pooled
    validation accuracy (ties resolved toward the earliest step), and reports
    accuracy on the held-out target domain.
    """
    spec = get_variant(variant)
    if not 0 <= target_domain < dataset.num_domains:
        raise ConfigError(f"target_domain {target_domain} out of range [0, {dataset.num_domains})")
    source_domains = [d for d in range(dataset.num_domains) if d != target_domain]
    if spec.uses_adapter and len(source_domains) < 2:
        raise ConfigError(f"variant {variant!r} needs >= 2 source domains, got {len(source_domains)}")

    tc = run_cfg.train
    root = np.random.SeedSequence(tc.seed)
    _, split_seq, batch_seq, dropout_seq = root.spawn(4)  # child 0 is init_state's
    split_rng = np.random.default_rng(split_seq)
    batch_rng = np.random.default_rng(batch_seq)
    dropout_rng = np.random.default_rng(dropout_seq)

    train_idx, val_idx = {}, {}
    for d in source_domains:
        train_idx[d], val_idx[d] = split_domain(dataset.domain_size(d), tc.val_fraction, split_rng)
        if len(train_idx[d]) == 0 or len(val_idx[d]) == 0:
            raise ConfigError(
                f"source domain {d} has {dataset.domain_size(d)} images, which val_fraction "
                f"{tc.val_fraction} splits {len(train_idx[d])}/{len(val_idx[d])}; "
                "training and validation need >= 1 each"
            )

    vit_cfg = run_cfg.vit
    state = init_state(
        vit_cfg,
        num_domains=len(source_domains),
        prompt_length=tc.prompt_length,
        seed=tc.seed,
        variant=variant,
    )
    opt = optim.init_adamw_state(state.named_params())

    val_images = np.concatenate([dataset.images[d][val_idx[d]] for d in source_domains])
    val_labels = np.concatenate([dataset.labels[d][val_idx[d]] for d in source_domains])

    loss_rows = []
    selection = SelectionRecord(steps=[], val_accuracies=[])
    best_snapshot = None

    def evaluate_and_record(step: int):
        nonlocal best_snapshot
        # a finite loss can still take a step to non-finite parameters, which no checkpoint may hold
        for name, p in state.named_params().items():
            if not np.isfinite(p.data).all():
                raise NumericalError(f"parameter {name} is non-finite after step {step}")
        acc = evaluate_accuracy(state, val_images, val_labels, variant)
        selection.steps.append(step)
        selection.val_accuracies.append(acc)
        if selection.chosen_step == step:  # strictly better than every earlier eval
            best_snapshot = {n: p.data.copy() for n, p in state.named_params().items()}

    # `train_step`'s check of the loss terms, not numpy's warnings, reports a diverging run
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, tc.steps + 1):
            batch = sample_step_batch(dataset, source_domains, train_idx, tc.batch_per_domain, batch_rng)
            breakdown = train_step(state, opt, batch, tc, dropout_rng, variant)
            loss_rows.append(breakdown.csv_row(step))
            if step % tc.eval_interval == 0 or step == tc.steps:
                evaluate_and_record(step)

    # restore the selected checkpoint before the target evaluation
    named = state.named_params()
    for name, arr in best_snapshot.items():
        named[name].data = arr
    test_acc = evaluate_accuracy(
        state, dataset.images[target_domain], dataset.labels[target_domain], variant
    )

    report = {
        "variant": variant,
        "target_domain": int(target_domain),
        "source_domains": source_domains,
        "seed": int(tc.seed),
        "chosen_step": int(selection.chosen_step),
        "val_acc": float(selection.best_accuracy),
        "test_acc": float(test_acc),
        "val_fraction": tc.val_fraction,
        "loss_curve_csv_path": None,
    }

    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / "loss_curve.csv"
        csv_path.write_text(LossBreakdown.CSV_HEADER + "\n" + "\n".join(loss_rows) + "\n", encoding="utf-8")
        report["loss_curve_csv_path"] = csv_path.name  # relative to report.json
        state.save(out_dir / "checkpoint.npz")
        (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    report["_state"] = state
    return report
