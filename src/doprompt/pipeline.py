"""Training loop, inference, evaluation, and model selection.

Every variant trains from its row of `config.VARIANTS`: the loss terms go
to `objectives.variant_loss` and the frozen name prefixes to `init_state`.
It predicts with the parts that row trains: `predict_logits` uses the
adapted prompt if it has an adapter, else the mean of the single-prompt
logits if it has a bank, else no prompt.
One training run is fully deterministic: every random draw (init, batch
sampling, dropout) derives from the run seed, and training and inference
hold numpy's BLAS at one thread (`_one_blas_thread`). A step whose batch is
large enough for its width runs as two fixed half-batch lanes (`train_step`),
and inference runs each EVAL_BATCH chunk as two fixed blocks of rows
(`_forward_eval`). Either pair may run on two threads (`_run_pair`), and the
lanes and blocks follow the config, not the threads, so neither do the bits.
Validation uses the exact inference function later used on the target domain.
"""

from __future__ import annotations

import ctypes
import json
import multiprocessing
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields
from functools import partial
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
_BLOCK = EVAL_BATCH // 2  # rows of one inference forward; fixed, so the bits do not follow the core count
_LANE_MIN = 1024  # rows x embed_dim of a step's smaller half-batch from which the step runs as two lanes


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
        """Build the model the file's arrays describe and copy them into it; nothing is drawn.

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
        state = init_state(cfg, k, length, seed=None, variant=variant)
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


class _ZeroDraws:
    """The generator of `init_state(seed=None)`: every normal "draw" is zeros, and nothing is drawn."""

    def normal(self, loc, scale, size):
        return np.zeros(size)


def init_state(cfg: ViTConfig, num_domains: int, prompt_length: int, seed: int | None,
               variant: str = "doprompt") -> ModelState:
    """A fresh model with the parts `variant` trains: the backbone and classifier,
    a (num_domains, prompt_length, D) prompt bank if it uses prompts, and an
    adapter if it uses one. The adapter is drawn last, so the other parts are
    the same for every variant of one seed. The parameters under the variant's
    `frozen` prefixes are built with `requires_grad=False`, so no backward
    computes their gradients and `optim.init_adamw_state` keeps no moments for them.
    `seed` None draws nothing and builds every drawn parameter as zeros, for
    `ModelState.load`, which overwrites them all."""
    spec = get_variant(variant)
    if seed is None:
        init_rng = _ZeroDraws()
    else:
        init_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
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


def _lanes(batch_size: int, embed_dim: int) -> list[slice]:
    """The rows of each lane of a step: the whole batch, or two halves split at
    ceil(B/2) once the smaller half's rows times `embed_dim` reach `_LANE_MIN`.
    The rule reads only the config, never the threads, so neither do the bits."""
    if batch_size // 2 * embed_dim < _LANE_MIN:
        return [slice(0, batch_size)]
    half = -(-batch_size // 2)
    return [slice(0, half), slice(half, batch_size)]


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
    l_adapt + lambda * l_w after the adapted pass, so a lane holds one
    pass's graph at a time. A lane backpropagates into a dict of its own, so
    no grad is set before the terms are checked: a non-finite one raises
    NumericalError naming the first in CSV order, and leaves every parameter,
    grad and `opt` as they were. Then AdamW updates the parameters `opt`
    holds moments for. `variant` picks only the loss: `state` must come from
    `init_state` for the same variant and `opt` from its `named_params()`,
    as in `run_experiment`.

    A large batch (see `_lanes`) runs as two half-batch lanes, the first on
    the calling thread and the second, where `_helper_thread()` holds, on a
    helper: gradient accumulation, each lane's terms scaled by its share of
    the rows. Lane 1 draws dropout from `rng`, lane 2 from a generator seeded
    by one raw word drawn from `rng` first. An exception in either lane
    re-raises here with its type, before any grad or parameter is written.
    Returns the graph-free loss terms, each the row-weighted mean of the lanes'.
    """
    spec, n = get_variant(variant), len(batch.labels)
    lanes = _lanes(n, state.cfg.embed_dim)
    lane_grads = [{} for _ in lanes]

    def run(i, lane_rng):  # the lane's terms, each times its rows
        rows, into = lanes[i], lane_grads[i]
        part = DomainBatch(batch.images[rows], batch.labels[rows], batch.domains[rows])
        terms = objectives.variant_loss(
            spec, state.params, state.cfg, state.bank, state.adapter, part, config.lam, lane_rng,
            backward=lambda root: T.backward(root * (len(part.labels) / n), into),
        )
        return [len(part.labels) * value for value in terms.floats()]

    if len(lanes) == 1:
        terms = [run(0, rng)]
    else:
        second_rng = np.random.default_rng(rng.bit_generator.random_raw())
        terms = _run_pair(lambda: run(0, rng), lambda: run(1, second_rng))
    breakdown = LossBreakdown(*(Tensor(sum(lane) / n) for lane in zip(*terms)))
    for field, value in zip(fields(breakdown), breakdown.floats()):
        if not np.isfinite(value):
            raise NumericalError(f"loss component {field.name} is non-finite ({value})")
    for p, g in lane_grads[0].items():  # both lanes reach every leaf that needs a gradient
        p.grad = g if len(lanes) == 1 else g + lane_grads[1][p]
    optim.step_params(state.named_params(), opt, opt.m, lr=config.learning_rate, weight_decay=config.weight_decay)
    return breakdown


# ---------------------------------------------------------------------------
# threads


def _blas_binding():
    """(get, set) of the thread count of numpy's bundled OpenBLAS (`numpy.libs/` in
    Linux wheels) under the names threadpoolctl tries, or None, as with MKL."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for name in (f"{p}_{{}}_num_threads{s}" for s in ("64_", "") for p in ("scipy_openblas", "openblas")):
            get, set_ = (getattr(lib, name.format(op), None) for op in ("get", "set"))
            if get and set_:
                get.argtypes, get.restype, set_.argtypes, set_.restype = [], ctypes.c_int, [ctypes.c_int], None
                return get, set_
    return None


_BLAS = _blas_binding()


@contextmanager
def _one_blas_thread():
    """Runs its body with BLAS at one thread, so that its rounding does not follow
    the host, and restores the caller's count on exit, also on an error."""
    threads = _BLAS[0]() if _BLAS else 1
    if threads != 1:
        _BLAS[1](1)
    try:
        yield
    finally:
        if threads != 1:
            _BLAS[1](threads)


def _helper_thread() -> bool:
    """Whether inference and a two-lane step run a helper thread: where `_BLAS` reads
    one thread, the CPU affinity allows several cores, and the process is not a daemon
    `multiprocessing` worker, such as `cli`'s; more BLAS threads or workers fill the cores."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return bool(_BLAS) and _BLAS[0]() == 1 and cores > 1 and not multiprocessing.current_process().daemon


def _run_pair(first, second) -> tuple:
    """(first(), second()). Where `_helper_thread()` holds, a helper thread
    runs `second` under this thread's `np.errstate` while this thread runs
    `first`, and is joined in a `finally`; else both run here, in that order.
    The helper's exception re-raises here with its type; one from `first`
    wins over it."""
    if not _helper_thread():
        return first(), second()
    result, errors, err = [None], [], np.geterr()

    def helper():
        try:
            with np.errstate(**err):  # numpy's error state is per thread
                result[0] = second()
        except BaseException as exc:  # re-raised in the caller
            errors.append(exc)

    thread = threading.Thread(target=helper)
    thread.start()
    try:
        out = first()
    finally:
        thread.join()
    if errors:
        raise errors[0]
    return out, result[0]


# ---------------------------------------------------------------------------
# inference


@_one_blas_thread()
def _forward_eval(state: ModelState, images: np.ndarray, prompts: np.ndarray | None = None):
    """(features NxD, logits NxC) of a no-grad forward in fixed blocks of `_BLOCK` rows.

    `images` are pixels or patch tokens, as `vit.forward` takes them.
    `prompts` is None (prompt-free) or per-row (N, P, D) tokens, sliced along
    with the images, so K prompts per image run as one gathered pass.
    The rows go in chunks of EVAL_BATCH, which bound the rows in flight. A
    chunk is two blocks, which `_run_pair` runs, so inference uses at most
    two threads. The blocks do not depend on the threads, and neither do the
    bits.
    """
    starts = range(0, len(images), _BLOCK)

    def run(start):
        rows = slice(start, start + _BLOCK)
        tokens = None if prompts is None else Tensor(prompts[rows])
        with T.no_grad():
            feat, out = vit.forward(state.params, state.cfg, Tensor(images[rows]), tokens)
        return feat.data, out.data

    results = []
    for i in range(0, len(starts), 2):
        if i + 1 == len(starts):
            results.append(run(starts[i]))
        else:
            results += _run_pair(partial(run, starts[i]), partial(run, starts[i + 1]))
    feats, logits = zip(*results)
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
    Each image is patch-embedded once and its tokens repeated K times.
    """
    k = state.bank.shape[0]
    with T.no_grad():
        patches = vit.patch_embed(state.params, state.cfg, Tensor(images)).data
    tiled = np.tile(state.bank.data, (len(images), 1, 1))
    logits = _forward_eval(state, np.repeat(patches, k, axis=0), tiled)[1]
    return logits.reshape(len(images), k, -1)


def predict_logits(state: ModelState, images: np.ndarray, variant: str) -> np.ndarray:
    """The variant's test-time logits, from the parts it trains: adapted with an
    adapter, prompt-averaged with only a bank, prompt-free with neither.
    Validation uses this same function."""
    spec = get_variant(variant)
    if spec.uses_adapter:
        return infer(state, images)[0]
    if spec.uses_prompts:
        return per_prompt_logits(state, images).mean(axis=1)
    return _forward_eval(state, images)[1]


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
    n, first = len(source_domains) * batch_per_domain, source_domains[0]
    images = np.empty((n, *dataset.images[first].shape[1:]), dtype=dataset.images[first].dtype)
    labels = np.empty(n, dtype=dataset.labels[first].dtype)
    for i, d in enumerate(source_domains):
        sel = rng.choice(train_idx[d], size=batch_per_domain, replace=len(train_idx[d]) < batch_per_domain)
        rows = slice(i * batch_per_domain, (i + 1) * batch_per_domain)
        # the labels' take checks the indices, so the images' may clip, which writes
        # straight into `out` where "raise" goes through a buffer
        np.take(dataset.labels[d], sel, out=labels[rows])
        np.take(dataset.images[d], sel, axis=0, out=images[rows], mode="clip")
    domains = np.repeat(np.arange(len(source_domains), dtype=np.int64), batch_per_domain)
    return DomainBatch(images=images, labels=labels, domains=domains)


@_one_blas_thread()
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
    named = state.named_params()
    opt = optim.init_adamw_state(named)

    val_images = np.concatenate([dataset.images[d][val_idx[d]] for d in source_domains])
    val_labels = np.concatenate([dataset.labels[d][val_idx[d]] for d in source_domains])

    loss_rows = []
    best = None  # (val_acc, chosen_step, snapshot) of the best evaluation so far, the earliest on a tie

    # `train_step`'s check of the loss terms, not numpy's warnings, reports a diverging run
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(1, tc.steps + 1):
            batch = sample_step_batch(dataset, source_domains, train_idx, tc.batch_per_domain, batch_rng)
            breakdown = train_step(state, opt, batch, tc, dropout_rng, variant)
            loss_rows.append(breakdown.csv_row(step))
            if step % tc.eval_interval == 0 or step == tc.steps:
                # a finite loss can still take a step to non-finite parameters, which no checkpoint may hold
                for name, p in named.items():
                    if not np.isfinite(p.data).all():
                        raise NumericalError(f"parameter {name} is non-finite after step {step}")
                acc = evaluate_accuracy(state, val_images, val_labels, variant)
                if best is None or acc > best[0]:
                    best = (acc, step, opt.data.copy())

    # restore the selected checkpoint before the target evaluation, in place: the
    # trainable parameters are views of the optimizer's buffer, and frozen ones never change
    val_acc, chosen_step, snapshot = best
    opt.data[...] = snapshot
    test_acc = evaluate_accuracy(
        state, dataset.images[target_domain], dataset.labels[target_domain], variant
    )

    report = {
        "variant": variant,
        "target_domain": int(target_domain),
        "source_domains": source_domains,
        "seed": int(tc.seed),
        "chosen_step": chosen_step,
        "val_acc": float(val_acc),
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
