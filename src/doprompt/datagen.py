"""Deterministic procedural multi-domain image dataset.

Class identity is carried by shape geometry (disk, square, cross, triangle,
stripes) and domain identity by rendering style (hue, background, noise,
outline, texture). The renderer keeps the two apart, but a model need not:
each domain draws every image with one fixed hue and background grey, and
an ERM model trained on the default table keys on those exact values (moving
only the hue or the background of a source domain's images drops it to near
chance). Every pixel is a pure function of (class, style, seed).

On disk a dataset is one directory per domain, `domain_00/images.npy`
(N, C, H, W) and `labels.npy` (N,), and so on: the layout that
`save_dataset` writes, that `load_dataset` reads, and that outside data
arrives in.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "CLASS_NAMES",
    "DEFAULT_STYLE_TABLE",
    "DataFormatError",
    "DomainBatch",
    "DomainStyleSpec",
    "SyntheticDataset",
    "generate_dataset",
    "load_dataset",
    "render_image",
    "save_dataset",
]

CLASS_NAMES = ("disk", "square", "cross", "triangle", "stripes")
NUM_CLASSES = len(CLASS_NAMES)
IMAGE_SIZE = 32
CHANNELS = 3

class DataFormatError(IOError):
    """A dataset directory that is missing, corrupt or truncated, or holds arrays outside the layout."""


@dataclass(frozen=True)
class DomainStyleSpec:
    """Rendering style of one domain; all knobs within stated ranges."""

    hue_rotation: float  # degrees
    background: float  # 0..1 gray level
    noise: float  # 0..1 additive amplitude
    outline_only: bool = False
    texture_freq: float = 0.0  # cycles per image, 0 = none

    def __post_init__(self):
        if not 0.0 <= self.background <= 1.0:
            raise ValueError(f"background {self.background} outside [0, 1]")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise {self.noise} outside [0, 1]")
        if self.texture_freq < 0.0:
            raise ValueError(f"texture_freq {self.texture_freq} negative")


# Domain 2 sits between domains 0 and 1 (interpolated hue/background/texture)
# so a held-out domain is nearer to some sources than to others.
DEFAULT_STYLE_TABLE = (
    DomainStyleSpec(hue_rotation=0.0, background=0.10, noise=0.04, texture_freq=0.0),
    DomainStyleSpec(hue_rotation=140.0, background=0.55, noise=0.04, texture_freq=6.0),
    DomainStyleSpec(hue_rotation=70.0, background=0.32, noise=0.08, texture_freq=3.0),
    DomainStyleSpec(hue_rotation=250.0, background=0.85, noise=0.12, outline_only=True),
    DomainStyleSpec(hue_rotation=35.0, background=0.22, noise=0.02, texture_freq=9.0),
    DomainStyleSpec(hue_rotation=180.0, background=0.70, noise=0.20, outline_only=True, texture_freq=4.0),
)


@dataclass
class DomainBatch:
    """Images + class labels + source slots from one or more source domains."""

    images: np.ndarray  # (B, 3, 32, 32) float32 in [0, 1]
    labels: np.ndarray  # (B,) int64
    domains: np.ndarray  # (B,) int64 source slot: the row of the prompt bank


@dataclass
class SyntheticDataset:
    """Per-domain image/label arrays."""

    images: list  # per domain: (N, 3, 32, 32) float32
    labels: list  # per domain: (N,) int64
    num_classes: int = NUM_CLASSES

    @property
    def num_domains(self) -> int:
        return len(self.images)

    def domain_size(self, d: int) -> int:
        return len(self.labels[d])


def _hsv_to_rgb(h: float, s: float, v: float) -> np.ndarray:
    h = (h % 1.0) * 6.0
    i = int(h)
    f = h - i
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    rgb = [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i % 6]
    return np.array(rgb)


def _shape_mask(c: int, cx: float, cy: float, r: float) -> np.ndarray:
    yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE]
    dx = xx - cx
    dy = yy - cy
    if c == 0:  # disk
        return dx * dx + dy * dy <= r * r
    if c == 1:  # square
        return (np.abs(dx) <= 0.85 * r) & (np.abs(dy) <= 0.85 * r)
    if c == 2:  # cross
        arm = 0.35 * r
        return ((np.abs(dx) <= arm) & (np.abs(dy) <= r)) | (
            (np.abs(dy) <= arm) & (np.abs(dx) <= r)
        )
    if c == 3:  # triangle, apex up
        return (dy <= 0.75 * r) & (np.abs(dx) <= 0.62 * (dy + r))
    if c == 4:  # stripes: horizontal bars in a square extent
        inside = (np.abs(dx) <= r) & (np.abs(dy) <= r)
        band = (np.floor((dy + r) / (2.0 * r / 5.0)).astype(int) % 2) == 0
        return inside & band
    raise IndexError(f"class {c} out of range [0, {NUM_CLASSES})")


def _erode(mask: np.ndarray) -> np.ndarray:
    interior = mask.copy()
    for shift, axis in ((1, 0), (-1, 0), (1, 1), (-1, 1)):
        interior &= np.roll(mask, shift, axis=axis)
    return interior


def _outline(mask: np.ndarray) -> np.ndarray:
    return mask & ~_erode(mask)


def render_image(c: int, style: DomainStyleSpec, rng: np.random.Generator) -> np.ndarray:
    """One 3x32x32 float32 image: styled shape on styled background."""
    if not 0 <= c < NUM_CLASSES:
        raise IndexError(f"class {c} out of range [0, {NUM_CLASSES})")
    cx = IMAGE_SIZE / 2 + rng.uniform(-3.0, 3.0)
    cy = IMAGE_SIZE / 2 + rng.uniform(-3.0, 3.0)
    r = 9.0 * rng.uniform(0.8, 1.15)
    mask = _shape_mask(c, cx, cy, r)
    if style.outline_only:
        mask = _outline(mask) | _outline(_erode(mask))

    img = np.full((CHANNELS, IMAGE_SIZE, IMAGE_SIZE), style.background, dtype=np.float64)
    if style.texture_freq > 0.0:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        yy, xx = np.mgrid[0:IMAGE_SIZE, 0:IMAGE_SIZE]
        tex = 0.1 * np.sin(2.0 * np.pi * style.texture_freq * (xx + yy) / IMAGE_SIZE + phase)
        img += tex[None, :, :]

    base_hue = 0.07 + style.hue_rotation / 360.0
    fg = _hsv_to_rgb(base_hue, 0.85, 0.95)
    img[:, mask] = fg[:, None]

    if style.noise > 0.0:
        img += rng.uniform(-style.noise, style.noise, size=img.shape)
    return np.clip(img, 0.0, 1.0).astype(np.float32)


def generate_dataset(num_domains: int, per_domain_count: int, seed: int) -> SyntheticDataset:
    """Balanced classes per domain; identical seed gives bit-identical data.

    Domain d is rendered in style d of `DEFAULT_STYLE_TABLE`. Images are
    rendered from per-image rng streams derived from (seed, domain, index),
    so generation order never matters.
    """
    if num_domains < 2:
        raise ValueError(f"need at least 2 domains, got {num_domains}")
    if num_domains > len(DEFAULT_STYLE_TABLE):
        raise ValueError(
            f"style table has {len(DEFAULT_STYLE_TABLE)} entries, cannot supply {num_domains} domains"
        )
    if per_domain_count % NUM_CLASSES:
        raise ValueError(f"per_domain_count {per_domain_count} is not a multiple of the {NUM_CLASSES} classes")
    n = per_domain_count

    all_images, all_labels = [], []
    for d in range(num_domains):
        images = np.empty((n, CHANNELS, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
        labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            c = i % NUM_CLASSES
            rng = np.random.default_rng(np.random.SeedSequence([seed, d, i]))
            images[i] = render_image(c, DEFAULT_STYLE_TABLE[d], rng)
            labels[i] = c
        all_images.append(images)
        all_labels.append(labels)
    return SyntheticDataset(all_images, all_labels)


# ---------------------------------------------------------------------------
# on-disk layout


def save_dataset(path, dataset: SyntheticDataset) -> None:
    """Write `dataset` under the directory `path` with `np.save`, replacing
    any `domain_*` directories a previous save left there."""
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for stale in path.glob("domain_*"):
        if stale.is_dir():
            shutil.rmtree(stale)
    for d in range(dataset.num_domains):
        ddir = path / f"domain_{d:02d}"
        ddir.mkdir()
        np.save(ddir / "images.npy", dataset.images[d])
        np.save(ddir / "labels.npy", dataset.labels[d])


def load_dataset(path) -> SyntheticDataset:
    """Read the directory `path`: every domain must hold at least one image,
    every pixel must be real and finite in float32 and every label an int
    >= 0; the number of classes is one past the largest label."""
    path = Path(path)
    if not path.is_dir():
        raise DataFormatError(
            f"{path}: not a directory of domain_* arrays; .dpd files are no longer read, "
            "regenerate the data with gen-data"
        )
    domain_dirs = sorted(p for p in path.iterdir() if p.is_dir() and p.name.startswith("domain_"))
    if not domain_dirs:
        raise DataFormatError(f"{path}: no domain_* subdirectories")
    images, labels = [], []
    for ddir in domain_dirs:
        try:
            img, lab = [np.load(ddir / name) for name in ("images.npy", "labels.npy")]
        except (ValueError, EOFError) as exc:  # not an .npy file, truncated, or a pickled object array
            raise DataFormatError(f"{ddir}: images.npy or labels.npy is not a readable .npy: {exc}") from exc
        if img.ndim != 4 or len(img) == 0 or not np.issubdtype(img.dtype, np.number):
            raise DataFormatError(f"{ddir}: images.npy holds {img.dtype} {img.shape}, expected (N>=1, C, H, W)")
        if np.iscomplexobj(img):
            raise DataFormatError(f"{ddir}: images.npy holds {img.dtype} pixels, expected real numbers")
        with np.errstate(over="ignore"):  # a pixel past the float32 range becomes inf, rejected below
            img = img.astype(np.float32)
        if not np.isfinite(img).all():
            raise DataFormatError(f"{ddir}: images.npy holds a non-finite pixel, or one past the float32 range")
        if lab.shape != (len(img),) or not np.issubdtype(lab.dtype, np.integer) or lab.astype(np.int64).min() < 0:
            raise DataFormatError(f"{ddir}: labels.npy holds {lab.dtype} {lab.shape}, expected {len(img)} ints >= 0")
        images.append(img)
        labels.append(lab.astype(np.int64))
    num_classes = int(max(lab.max() for lab in labels)) + 1
    return SyntheticDataset(images, labels, num_classes=num_classes)
