"""Run configuration: typed dataclasses, the variant table, and the flat
key=value file format."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .datagen import DEFAULT_STYLE_TABLE, NUM_CLASSES
from .tensor import ShapeError
from .vit import ViTConfig

__all__ = [
    "ConfigError",
    "DataConfig",
    "RunConfig",
    "TrainConfig",
    "VARIANTS",
    "Variant",
    "get_variant",
    "load_config",
    "parse_config_text",
    "save_config",
]

class ConfigError(ValueError):
    """Bad config file, key, or value."""


@dataclass(frozen=True)
class Variant:
    """One ablation row: the objective's terms, what stays frozen, how to predict.

    `terms` are summed into the total, from "erm" (prompt-free cross-entropy,
    logged in the l_prompt column), "prompt" (L_prompt), "w" (lambda * L_w)
    and "adapt" (L_adapt). Only a variant with "w" or "adapt" has an adapter;
    it runs it and logs L_w even when L_w carries no weight. `init_state`
    builds the parameters whose names start with a `frozen` prefix with
    `requires_grad=False`, so they are never updated. `inference`
    names the test-time logits: "adapted", "prompt_free", or
    "prompt_averaged" (the mean of the K single-prompt logits).
    """

    terms: tuple[str, ...]
    frozen: tuple[str, ...] = ()
    inference: str = "adapted"

    @property
    def uses_prompts(self) -> bool:
        """Whether the model has a prompt bank."""
        return "erm" not in self.terms

    @property
    def uses_adapter(self) -> bool:
        """Whether the model has a prompt adapter."""
        return "w" in self.terms or "adapt" in self.terms


VARIANTS = {
    "doprompt": Variant(("prompt", "w", "adapt")),
    "erm": Variant(("erm",), inference="prompt_free"),  # no bank or adapter to freeze
    "no_adapter": Variant(("prompt",), inference="prompt_averaged"),
    "no_lw": Variant(("prompt", "adapt")),
    "no_ladapt": Variant(("prompt", "w")),
    "frozen_backbone": Variant(("prompt", "w", "adapt"), frozen=("vit.",)),
}


def get_variant(name: str) -> Variant:
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; choose from {', '.join(VARIANTS)}")
    return VARIANTS[name]


def _require_at_least(obj, low, *names) -> None:
    for name in names:
        if getattr(obj, name) < low:
            raise ConfigError(f"{name} must be >= {low}, got {getattr(obj, name)}")


@dataclass
class TrainConfig:
    steps: int = 2000
    batch_per_domain: int = 16
    learning_rate: float = 1e-3
    weight_decay: float = 1e-2
    dropout: float = 0.1
    lam: float = 1.0
    prompt_length: int = 4
    seed: int = 0
    eval_interval: int = 100
    val_fraction: float = 0.2

    def __post_init__(self):
        _require_at_least(self, 1, "steps", "batch_per_domain", "prompt_length", "eval_interval")
        _require_at_least(self, 0, "seed")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must be in [0, 1), got {self.dropout}")
        if not 0.0 < self.learning_rate < math.inf:  # also rejects NaN
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        for key, value in (("weight_decay", self.weight_decay), ("lambda", self.lam)):
            if not 0.0 <= value < math.inf:
                raise ConfigError(f"{key} must be finite and >= 0, got {value}")
        if not 0.0 < self.val_fraction < 1.0:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


@dataclass
class DataConfig:
    num_domains: int = 4
    per_domain_count: int = 500
    data_seed: int = 0

    def __post_init__(self):
        if not 2 <= self.num_domains <= len(DEFAULT_STYLE_TABLE):
            raise ConfigError(f"num_domains must be in [2, {len(DEFAULT_STYLE_TABLE)}], got {self.num_domains}")
        _require_at_least(self, NUM_CLASSES, "per_domain_count")  # one image per class
        if self.per_domain_count % NUM_CLASSES:
            raise ConfigError(
                f"per_domain_count must be a multiple of the {NUM_CLASSES} classes, got {self.per_domain_count}"
            )
        _require_at_least(self, 0, "data_seed")


@dataclass
class RunConfig:
    """Everything one experiment needs; flattens to/from key=value text."""

    train: TrainConfig
    vit: ViTConfig
    data: DataConfig
    variant: str = "doprompt"
    target_domain: int = 0

    def __post_init__(self):
        get_variant(self.variant)
        _require_at_least(self, 0, "target_domain")  # the upper bound is the dataset's domain count
        if self.train.dropout != self.vit.dropout_rate:  # the model reads only the ViT's rate
            raise ConfigError(
                f"train dropout {self.train.dropout} differs from the ViT's dropout_rate {self.vit.dropout_rate}"
            )


# file key -> (section, attribute, type); "lambda" maps onto TrainConfig.lam
_KEYMAP = {}
for f in fields(TrainConfig):
    key = "lambda" if f.name == "lam" else f.name
    _KEYMAP[key] = ("train", f.name, f.type)
for f in fields(ViTConfig):
    if f.name == "dropout_rate":
        continue  # the training dropout key is applied to the ViT at build time
    _KEYMAP[f.name] = ("vit", f.name, f.type)
for f in fields(DataConfig):
    _KEYMAP[f.name] = ("data", f.name, f.type)
_KEYMAP["variant"] = ("run", "variant", "str")
_KEYMAP["target_domain"] = ("run", "target_domain", "int")

_TYPES = {"int": int, "float": float, "str": str}


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Flat key=value lines; '#' starts a comment; blank lines ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _KEYMAP:
            raise ConfigError(f"{source}:{lineno}: unknown config key {key!r}")
        out[key] = value
    return out


def build_run_config(kv: dict, overrides: dict | None = None) -> RunConfig:
    merged = dict(kv)
    for key, value in (overrides or {}).items():
        if key not in _KEYMAP:
            raise ConfigError(f"unknown config key {key!r} in override")
        merged[key] = value

    sections = {"train": {}, "vit": {}, "data": {}, "run": {}}
    for key, value in merged.items():
        section, attr, ftype = _KEYMAP[key]
        caster = _TYPES.get(str(ftype), str)
        try:
            sections[section][attr] = caster(value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"config key {key!r}: cannot parse {value!r} as {ftype}") from exc

    train = TrainConfig(**sections["train"])
    vit_kw = dict(sections["vit"])
    vit_kw["dropout_rate"] = train.dropout
    try:
        vit_cfg = ViTConfig(**vit_kw)
    except ShapeError as exc:
        raise ConfigError(str(exc)) from exc
    data = DataConfig(**sections["data"])
    return RunConfig(train=train, vit=vit_cfg, data=data, **sections["run"])


def load_config(path, overrides: dict | None = None) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        lineno = exc.object[: exc.start].count(b"\n") + 1
        raise ConfigError(f"{path}:{lineno}: byte {exc.object[exc.start]:#04x} is not UTF-8 text") from exc
    kv = parse_config_text(text, source=str(path))
    return build_run_config(kv, overrides)


def save_config(path, run: RunConfig) -> None:
    lines = []
    for key, (section, attr, _) in _KEYMAP.items():
        obj = {"train": run.train, "vit": run.vit, "data": run.data, "run": run}[section]
        lines.append(f"{key} = {getattr(obj, attr)}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
