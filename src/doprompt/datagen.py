"""Deterministic procedural multi-domain image dataset.

Class identity is carried by shape geometry (disk, square, cross, triangle,
stripes) and domain identity by rendering style (hue, background, noise,
stroke width, texture). The renderer keeps the two apart, but a model need not:
each domain draws every image with one fixed hue and background grey, and
an ERM model trained on the default table keys on those exact values (moving
only the hue or the background of a source domain's images drops it to near
chance). Every pixel is a pure function of (class, style, seed).

An image's randomness is one row of uniforms from its own stream, drawn in a
fixed order: the shape's centre cx and cy, its radius, the texture phase (a
textured style only) and the 3x32x32 noise (a noisy style only). A draw that
varies an image's style would go first, ahead of cx. Rendering turns a block
of such rows into pixels with whole-array operations, each uniform u becoming
`low + (high - low) * u` as in `Generator.uniform`.

On disk a dataset is one directory per domain, `domain_00/images.npy`
(N, C, H, W) and `labels.npy` (N,), and so on: the layout that
`save_dataset` writes, that `load_dataset` reads, and that outside data
arrives in.
"""

from __future__ import annotations

import colorsys
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
# The pixel grid, shared by every image: a column's x, a row's y, and each
# pixel's x + y, the one coordinate a texture varies along.
_X = np.arange(IMAGE_SIZE)
_Y = _X[:, None]
_DIAGONAL = _Y + _X
_PLANE = IMAGE_SIZE * IMAGE_SIZE
_PIXELS = CHANNELS * _PLANE
_BLOCK_ROWS = 16  # images rendered per block; bounds the working set, and the bytes do not depend on it

class DataFormatError(IOError):
    """A dataset directory that is missing, corrupt or truncated, or holds arrays outside the layout."""


@dataclass(frozen=True)
class DomainStyleSpec:
    """Rendering style of one domain; all knobs within stated ranges."""

    hue_rotation: float  # degrees
    background: float  # 0..1 gray level
    noise: float  # 0..1 additive amplitude
    stroke: int = 0  # 0 fills the shape; k > 0 keeps only its outer k-pixel ring
    texture_freq: float = 0.0  # cycles per image, 0 = none

    def __post_init__(self):
        if not 0.0 <= self.background <= 1.0:
            raise ValueError(f"background {self.background} outside [0, 1]")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError(f"noise {self.noise} outside [0, 1]")
        if self.stroke < 0:
            raise ValueError(f"stroke {self.stroke} negative")
        if self.texture_freq < 0.0:
            raise ValueError(f"texture_freq {self.texture_freq} negative")


# Domain 2 sits between domains 0 and 1 (interpolated hue/background/texture)
# so a held-out domain is nearer to some sources than to others.
DEFAULT_STYLE_TABLE = (
    DomainStyleSpec(hue_rotation=0.0, background=0.10, noise=0.04, texture_freq=0.0),
    DomainStyleSpec(hue_rotation=140.0, background=0.55, noise=0.04, texture_freq=6.0),
    DomainStyleSpec(hue_rotation=70.0, background=0.32, noise=0.08, texture_freq=3.0),
    DomainStyleSpec(hue_rotation=250.0, background=0.85, noise=0.12, stroke=2),
    DomainStyleSpec(hue_rotation=35.0, background=0.22, noise=0.02, texture_freq=9.0),
    DomainStyleSpec(hue_rotation=180.0, background=0.70, noise=0.20, stroke=2, texture_freq=4.0),
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


def _shape_mask(c: int, cx, cy, r) -> np.ndarray:
    """The (..., 32, 32) mask of class c's shape at centre (cx, cy) and radius r,
    scalars or (m, 1, 1) arrays. A row's dy and a column's dx are computed once
    and broadcast, so each pixel gets the same numbers as from a full grid."""
    dx = _X - cx
    dy = _Y - cy
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
    # c == 4, stripes: horizontal bars in a square extent
    inside = (np.abs(dx) <= r) & (np.abs(dy) <= r)
    band = (np.floor((dy + r) / (2.0 * r / 5.0)).astype(int) % 2) == 0
    return inside & band


def _erode(mask: np.ndarray) -> np.ndarray:
    interior = mask.copy()
    for shift, axis in ((1, -2), (-1, -2), (1, -1), (-1, -1)):
        interior &= np.roll(mask, shift, axis=axis)
    return interior


def _num_draws(style: DomainStyleSpec) -> int:
    """How many uniforms one image of `style` draws: cx, cy, r, the texture
    phase if it has a texture, and its noise if it has noise."""
    return 3 + (style.texture_freq > 0.0) + (style.noise > 0.0) * _PIXELS


def _uniform(u, low: float, high: float):
    """`Generator.uniform(low, high)` from its `Generator.random()` draw `u`."""
    return low + (high - low) * u


def _render_rows(classes: np.ndarray, style: DomainStyleSpec, draws: np.ndarray, out: np.ndarray) -> None:
    """Write image j, of class `classes[j]`, into `out[j]`, rendered from row j of
    `draws` (`_num_draws(style)` uniforms in [0, 1)). Each step, from the shape
    masks (one call per class) to the float32 cast, is a float64 operation over
    all the rows at once, and a row's pixels depend on its own draws only. It
    overwrites the noise columns of `draws`."""
    m = len(classes)
    cx = IMAGE_SIZE / 2 + _uniform(draws[:, 0, None, None], -3.0, 3.0)
    cy = IMAGE_SIZE / 2 + _uniform(draws[:, 1, None, None], -3.0, 3.0)
    r = 9.0 * _uniform(draws[:, 2, None, None], 0.8, 1.15)
    mask = np.empty((m, IMAGE_SIZE, IMAGE_SIZE), dtype=bool)
    for c in range(NUM_CLASSES):
        rows = classes == c
        mask[rows] = _shape_mask(c, cx[rows], cy[rows], r[rows])
    if style.stroke:
        interior = mask
        for _ in range(style.stroke):
            interior = _erode(interior)
        mask &= ~interior

    background = style.background
    if style.texture_freq > 0.0:
        # one value per diagonal x + y, 0 to 63, then spread over the pixels
        phase = _uniform(draws[:, 3, None], 0.0, 2.0 * np.pi)
        diagonals = np.sin(2.0 * np.pi * style.texture_freq * np.arange(2 * IMAGE_SIZE) / IMAGE_SIZE + phase)
        diagonals *= 0.1
        diagonals += style.background
        background = diagonals[:, _DIAGONAL]

    base_hue = 0.07 + style.hue_rotation / 360.0
    fg = np.array(colorsys.hsv_to_rgb(base_hue % 1.0, 0.85, 0.95))
    colours = (np.where(mask, value, background).reshape(m, -1) for value in fg)
    # The noise columns of `draws` become the pixels, noise + colour, one
    # channel's colour at a time. They stay 2-D: numpy copies a strided view of
    # more dimensions that an in-place operation writes.
    if style.noise > 0.0:
        img, low, high = draws[:, -_PIXELS:], -style.noise, style.noise
        img *= high - low  # `_uniform` in place
        img += low
        for ch, colour in enumerate(colours):
            img[:, ch * _PLANE : (ch + 1) * _PLANE] += colour
    else:
        img = np.concatenate(list(colours), axis=1)
    out.reshape(m, -1)[...] = np.clip(img, 0.0, 1.0, out=img)


def render_image(c: int, style: DomainStyleSpec, rng: np.random.Generator) -> np.ndarray:
    """One 3x32x32 float32 image: styled shape on styled background.

    It takes `_num_draws(style)` draws from `rng` in one `rng.random` call and
    renders them as a block of one row, the path `generate_dataset` renders
    every image by."""
    if not 0 <= c < NUM_CLASSES:
        raise IndexError(f"class {c} out of range [0, {NUM_CLASSES})")
    out = np.empty((1, CHANNELS, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    _render_rows(np.array([c]), style, rng.random((1, _num_draws(style))), out)
    return out[0]


def generate_dataset(num_domains: int, per_domain_count: int, seed: int) -> SyntheticDataset:
    """Balanced classes per domain; identical seed gives bit-identical data.

    Domain d is rendered in style d of `DEFAULT_STYLE_TABLE`, image i with
    class i % 5, from its own rng stream `SeedSequence([seed, d, i])`, so
    generation order never matters. Each domain goes in blocks of
    `_BLOCK_ROWS` images: a loop over the block's images fills one row of
    draws per image, in one `rng.random` call, and `_render_rows` renders the
    block's pixels as whole-array operations. Only the block's draws and
    pixels are held beside the output, and the bytes do not depend on the
    block size.
    """
    if num_domains < 2:
        raise ValueError(f"need at least 2 domains, got {num_domains}")
    if num_domains > len(DEFAULT_STYLE_TABLE):
        raise ValueError(
            f"style table has {len(DEFAULT_STYLE_TABLE)} entries, cannot supply {num_domains} domains"
        )
    if per_domain_count < NUM_CLASSES:
        raise ValueError(f"per_domain_count must be >= {NUM_CLASSES}, one image per class, got {per_domain_count}")
    if per_domain_count % NUM_CLASSES:
        raise ValueError(f"per_domain_count {per_domain_count} is not a multiple of the {NUM_CLASSES} classes")
    n = per_domain_count

    all_images, all_labels = [], []
    for d in range(num_domains):
        style = DEFAULT_STYLE_TABLE[d]
        images = np.empty((n, CHANNELS, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
        labels = np.arange(n, dtype=np.int64) % NUM_CLASSES
        draws = np.empty((min(_BLOCK_ROWS, n), _num_draws(style)))
        for start in range(0, n, _BLOCK_ROWS):
            rows = draws[: n - start]
            for j, row in enumerate(rows):
                np.random.default_rng(np.random.SeedSequence([seed, d, start + j])).random(out=row)
            block = slice(start, start + len(rows))
            _render_rows(labels[block], style, rows, images[block])
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
            img = img.astype(np.float32, copy=False)  # float32 pixels, as `save_dataset` writes them, stay uncopied
        if not np.isfinite(img).all():
            raise DataFormatError(f"{ddir}: images.npy holds a non-finite pixel, or one past the float32 range")
        if lab.shape != (len(img),) or not np.issubdtype(lab.dtype, np.integer) or lab.astype(np.int64).min() < 0:
            raise DataFormatError(f"{ddir}: labels.npy holds {lab.dtype} {lab.shape}, expected {len(img)} ints >= 0")
        images.append(img)
        labels.append(lab.astype(np.int64))
    num_classes = int(max(lab.max() for lab in labels)) + 1
    return SyntheticDataset(images, labels, num_classes=num_classes)
