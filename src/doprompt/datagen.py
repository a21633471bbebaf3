"""Deterministic procedural multi-domain image dataset.

Class identity is carried by shape geometry only (disk, square, cross,
triangle, stripes); domain identity by rendering style only (hue, background,
noise, outline, texture), so the two factors are disentangled by construction.
Every pixel is a pure function of (class, style, seed).
"""

from __future__ import annotations

import struct
import warnings
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

DATA_MAGIC = b"DPD1"


class DataFormatError(IOError):
    """Corrupt or truncated dataset file."""


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
# so a held-out domain has usable similarity structure among the sources.
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
    """Images + class labels + domain indices from one or more domains."""

    images: np.ndarray  # (B, 3, 32, 32) float32 in [0, 1]
    labels: np.ndarray  # (B,) int64
    domains: np.ndarray  # (B,) int64

    def __len__(self) -> int:
        return len(self.labels)


@dataclass
class SyntheticDataset:
    """Per-domain image/label arrays plus the seed that generated them."""

    images: list  # per domain: (N, 3, 32, 32) float32
    labels: list  # per domain: (N,) int64
    seed: int
    num_classes: int = NUM_CLASSES

    @property
    def num_domains(self) -> int:
        return len(self.images)

    def domain_size(self, d: int) -> int:
        return len(self.labels[d])

    def batch(self, d: int, idx) -> DomainBatch:
        idx = np.asarray(idx)
        return DomainBatch(
            images=self.images[d][idx],
            labels=self.labels[d][idx],
            domains=np.full(len(idx), d, dtype=np.int64),
        )


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


def generate_dataset(
    num_domains: int,
    per_domain_count: int,
    seed: int,
    style_table=DEFAULT_STYLE_TABLE,
) -> SyntheticDataset:
    """Balanced classes per domain; identical seed gives bit-identical data.

    Images are rendered from per-image rng streams derived from
    (seed, domain, index), so generation order never matters.
    """
    if num_domains < 2:
        raise ValueError(f"need at least 2 domains, got {num_domains}")
    if num_domains > len(style_table):
        raise ValueError(
            f"style table has {len(style_table)} entries, cannot supply {num_domains} domains"
        )
    per_class = per_domain_count // NUM_CLASSES
    if per_class * NUM_CLASSES != per_domain_count:
        warnings.warn(
            f"per_domain_count {per_domain_count} not divisible by {NUM_CLASSES} classes; "
            f"rounding down to {per_class * NUM_CLASSES}",
            stacklevel=2,
        )
    n = per_class * NUM_CLASSES

    all_images, all_labels = [], []
    for d in range(num_domains):
        images = np.empty((n, CHANNELS, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
        labels = np.empty(n, dtype=np.int64)
        for i in range(n):
            c = i % NUM_CLASSES
            rng = np.random.default_rng(np.random.SeedSequence([seed, d, i]))
            images[i] = render_image(c, style_table[d], rng)
            labels[i] = c
        all_images.append(images)
        all_labels.append(labels)
    return SyntheticDataset(all_images, all_labels, seed=seed)


# ---------------------------------------------------------------------------
# on-disk cache

# Binary layout: magic "DPD1"; header of u64 LE fields (num_domains,
# num_classes, channels, height, width, seed); then per domain: u64 count,
# count*C*H*W f32 LE pixels, count u64 labels, count u64 domain indices.


def save_dataset(path, dataset: SyntheticDataset) -> None:
    path = Path(path)
    with open(path, "wb") as f:
        f.write(DATA_MAGIC)
        f.write(
            struct.pack(
                "<6Q",
                dataset.num_domains,
                dataset.num_classes,
                CHANNELS,
                IMAGE_SIZE,
                IMAGE_SIZE,
                dataset.seed,
            )
        )
        for d in range(dataset.num_domains):
            imgs = np.ascontiguousarray(dataset.images[d], dtype="<f4")
            labels = dataset.labels[d].astype("<u8")
            f.write(struct.pack("<Q", len(labels)))
            f.write(imgs.tobytes())
            f.write(labels.tobytes())
            f.write(np.full(len(labels), d, dtype="<u8").tobytes())


def load_dataset(path) -> SyntheticDataset:
    path = Path(path)
    if path.is_dir():
        return _load_dataset_dir(path)
    blob = path.read_bytes()
    if blob[:4] != DATA_MAGIC:
        raise DataFormatError(f"{path}: bad magic {blob[:4]!r}, expected {DATA_MAGIC!r}")
    pos = 4

    def take(n, what):
        nonlocal pos
        if pos + n > len(blob):
            raise DataFormatError(f"{path}: truncated while reading {what}")
        chunk = blob[pos : pos + n]
        pos += n
        return chunk

    num_domains, num_classes, channels, h, w, seed = struct.unpack("<6Q", take(48, "header"))
    images, labels = [], []
    for d in range(num_domains):
        (count,) = struct.unpack("<Q", take(8, "domain count"))
        px = np.frombuffer(take(4 * count * channels * h * w, "pixels"), dtype="<f4")
        images.append(px.reshape(count, channels, h, w).copy())
        labels.append(np.frombuffer(take(8 * count, "labels"), dtype="<u8").astype(np.int64))
        take(8 * count, "domain indices")
    return SyntheticDataset(images, labels, seed=int(seed), num_classes=int(num_classes))


def _load_dataset_dir(path: Path) -> SyntheticDataset:
    """Directory layout: domain_00/images.npy (N>=1,C,H,W) + labels.npy (N,) ints >= 0."""
    domain_dirs = sorted(p for p in path.iterdir() if p.is_dir() and p.name.startswith("domain_"))
    if not domain_dirs:
        raise DataFormatError(f"{path}: no domain_* subdirectories")
    images, labels = [], []
    for ddir in domain_dirs:
        try:
            img, lab = [np.load(ddir / name) for name in ("images.npy", "labels.npy")]
        except (ValueError, EOFError) as exc:  # not an .npy file, or a pickled object array
            raise DataFormatError(f"{ddir}: images.npy or labels.npy is not a readable .npy: {exc}") from exc
        if img.ndim != 4 or len(img) == 0 or not np.issubdtype(img.dtype, np.number):
            raise DataFormatError(f"{ddir}: images.npy holds {img.dtype} {img.shape}, expected (N>=1, C, H, W)")
        if lab.shape != (len(img),) or not np.issubdtype(lab.dtype, np.integer) or lab.astype(np.int64).min() < 0:
            raise DataFormatError(f"{ddir}: labels.npy holds {lab.dtype} {lab.shape}, expected {len(img)} ints >= 0")
        images.append(img.astype(np.float32))
        labels.append(lab.astype(np.int64))
    num_classes = int(max(lab.max() for lab in labels)) + 1
    return SyntheticDataset(images, labels, seed=-1, num_classes=num_classes)
