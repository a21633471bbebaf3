"""Training loop, inference, evaluation, and model selection.

Every variant trains and predicts from its row of `config.VARIANTS`: the
loss terms go to `objectives.variant_loss`, the frozen name prefixes to
`ModelState.trainable_names`, and the inference mode to `predict_logits`.
One training run is single-threaded and fully deterministic: every random
draw (init, batch sampling, dropout) derives from the run seed. Validation
uses the exact inference function later used on the target domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import checkpoint as ckpt
from . import objectives, optim, prompting, vit
from . import tensor as T
from .config import ConfigError, RunConfig, TrainConfig, get_variant
from .datagen import DomainBatch, SyntheticDataset
from .objectives import LossBreakdown
from .prompting import AdapterParams, PromptBank
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
    """A loss component became non-finite during training."""


@dataclass
class ModelState:
    """Everything a training run mutates, checkpointable bit-exactly."""

    cfg: ViTConfig
    params: ViTParams
    bank: PromptBank | None
    adapter: AdapterParams | None
    opt: optim.AdamWState

    def named_params(self) -> dict:
        out = dict(self.params.named())
        if self.bank is not None:
            out.update(self.bank.named())
        if self.adapter is not None:
            out.update(self.adapter.named())
        return out

    def trainable_names(self, variant: str) -> list:
        frozen = get_variant(variant).frozen
        return [n for n in self.named_params() if not n.startswith(frozen)]

    def save(self, path) -> None:
        ckpt.save_arrays(path, {name: p.data for name, p in self.named_params().items()})

    @classmethod
    def load(cls, path, cfg: ViTConfig) -> "ModelState":
        """Build the model the file's arrays describe and copy them into it.

        K and L come from the (K, L, D) shape of `prompts.bank`; a file
        without a bank holds a prompt-free model. Every other shape follows
        from `cfg`, so the file's names and shapes must match the model
        `init_state` builds, or this raises `CheckpointError`.
        """
        arrays = ckpt.load_arrays(path)
        bank = arrays.get("prompts.bank")
        if bank is not None and (bank.ndim != 3 or 0 in bank.shape):
            raise ckpt.CheckpointError(f"{path}: prompts.bank has shape {bank.shape}, expected non-empty (K, L, D)")
        k, length = bank.shape[:2] if bank is not None else (0, 0)
        state = init_state(cfg, k, length, seed=0, with_prompts=bank is not None)
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
               with_prompts: bool = True) -> ModelState:
    root = np.random.SeedSequence(seed)
    init_rng = np.random.default_rng(root.spawn(1)[0])
    params = vit.init_vit_params(cfg, init_rng)
    bank = adapter = None
    if with_prompts:
        bank = prompting.init_prompt_bank(num_domains, prompt_length, cfg.embed_dim, init_rng)
        adapter = prompting.init_adapter_params(cfg.embed_dim, num_domains, prompt_length, init_rng)
    state = ModelState(cfg=cfg, params=params, bank=bank, adapter=adapter, opt=None)
    state.opt = optim.init_adamw_state(state.named_params())
    return state


def _check_finite(breakdown: LossBreakdown) -> None:
    for name, value in (
        ("l_prompt", breakdown.l_prompt),
        ("l_w", breakdown.l_w),
        ("l_adapt", breakdown.l_adapt),
        ("total", breakdown.total),
    ):
        if not np.isfinite(value.item()):
            raise NumericalError(f"loss component {name} is non-finite ({value.item()})")


def train_step(
    state: ModelState,
    batch: DomainBatch,
    config: TrainConfig,
    rng: np.random.Generator,
    variant: str = "doprompt",
) -> tuple[ModelState, LossBreakdown]:
    """One optimization step on one multi-domain batch.

    The batch carries one sub-batch per source domain. Computes the variant's
    objective, backpropagates, and applies AdamW to the variant's trainable
    parameters. Raises NumericalError if any component goes non-finite.
    """
    breakdown = objectives.variant_loss(
        get_variant(variant), state.params, state.cfg, state.bank, state.adapter, batch,
        config.lam, train=True, rng=rng,
    )
    _check_finite(breakdown)
    named = state.named_params()
    optim.zero_grads(named)
    T.backward(breakdown.total)
    optim.step_params(
        named,
        state.opt,
        state.trainable_names(variant),
        lr=config.learning_rate,
        weight_decay=config.weight_decay,
    )
    optim.zero_grads(named)
    return state, breakdown


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
        weights = prompting.adapter_forward(state.adapter, Tensor(feat))
        adapted = prompting.compose_adapted_prompts(state.bank, weights)
    return _forward_eval(state, images, adapted.data)[1], weights.data


def per_prompt_logits(state: ModelState, images: np.ndarray) -> np.ndarray:
    """(N, K, C) logits of every image under each single source-domain prompt.

    One pass over N*K rows: row i*K + k is image i with prompt k of the bank.
    """
    k = state.bank.num_domains
    tiled = np.tile(state.bank.tokens.data, (len(images), 1, 1))
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
    """Equal-size sub-batch from every source domain, concatenated."""
    parts = []
    for d in source_domains:
        pool = train_idx[d]
        replace = len(pool) < batch_per_domain
        sel = rng.choice(pool, size=batch_per_domain, replace=replace)
        parts.append(dataset.batch(d, sel))
    return DomainBatch(
        images=np.concatenate([p.images for p in parts]),
        labels=np.concatenate([p.labels for p in parts]),
        domains=np.concatenate([p.domains for p in parts]),
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
    # domains keep their dataset indices; the bank/adapter index source slots
    domain_slot = {d: i for i, d in enumerate(source_domains)}

    root = np.random.SeedSequence(tc.seed)
    split_seq, batch_seq, dropout_seq = root.spawn(3)
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
        with_prompts=spec.uses_prompts,
    )

    val_images = np.concatenate([dataset.images[d][val_idx[d]] for d in source_domains])
    val_labels = np.concatenate([dataset.labels[d][val_idx[d]] for d in source_domains])

    loss_rows = []
    selection = SelectionRecord(steps=[], val_accuracies=[])
    best_snapshot = None

    def remap(batch: DomainBatch) -> DomainBatch:
        slots = np.array([domain_slot[int(d)] for d in batch.domains], dtype=np.int64)
        return DomainBatch(batch.images, batch.labels, slots)

    def evaluate_and_record(step: int):
        nonlocal best_snapshot
        acc = evaluate_accuracy(state, val_images, val_labels, variant)
        selection.steps.append(step)
        selection.val_accuracies.append(acc)
        if selection.chosen_step == step:  # strictly better than every earlier eval
            best_snapshot = {n: p.data.copy() for n, p in state.named_params().items()}

    for step in range(1, tc.steps + 1):
        batch = remap(sample_step_batch(dataset, source_domains, train_idx, tc.batch_per_domain, batch_rng))
        state, breakdown = train_step(state, batch, tc, dropout_rng, variant)
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
        csv_path.write_text(LossBreakdown.CSV_HEADER + "\n" + "\n".join(loss_rows) + "\n")
        report["loss_curve_csv_path"] = csv_path.name  # relative to report.json
        state.save(out_dir / "checkpoint.dpt")
        (out_dir / "report.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")

    report["_state"] = state
    return report
