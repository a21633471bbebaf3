"""Procedural dataset: per-seed determinism, the renderer's stroke and colour
against the formulas they replaced, and the `domain_*/` directory round trip
of `save_dataset` and `load_dataset`."""

import colorsys

import numpy as np
import pytest

from doprompt.datagen import (
    DEFAULT_STYLE_TABLE,
    NUM_CLASSES,
    DataFormatError,
    DomainStyleSpec,
    _shape_mask,
    generate_dataset,
    load_dataset,
    render_image,
    save_dataset,
)


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(3, 10, 4)


def _same(a, b) -> bool:
    return (
        a.num_domains == b.num_domains
        and a.num_classes == b.num_classes
        and all(x.tobytes() == y.tobytes() for x, y in zip(a.images + a.labels, b.images + b.labels))
    )


def test_one_seed_gives_bit_identical_data(dataset):
    assert _same(generate_dataset(3, 10, 4), dataset)
    assert not _same(generate_dataset(3, 10, 5), dataset)


def test_a_domain_size_that_is_not_a_multiple_of_the_classes_raises(recwarn):
    with pytest.raises(ValueError, match="per_domain_count 42 is not a multiple of the 5 classes"):
        generate_dataset(2, 42, 0)
    assert [str(w.message) for w in recwarn] == []


@pytest.mark.parametrize("count", [0, -5])
def test_fewer_images_than_classes_raises(count):
    # 0 used to give empty domains, and -5, a multiple of 5, a numpy error on the negative dimension
    with pytest.raises(ValueError, match=f"per_domain_count must be >= 5, one image per class, got {count}"):
        generate_dataset(4, count, 0)


def _old_erode(mask):
    interior = mask.copy()
    for shift, axis in ((1, 0), (-1, 0), (1, 1), (-1, 1)):
        interior &= np.roll(mask, shift, axis=axis)
    return interior


def _old_outline(mask):
    """The two-pixel ring an `outline_only` domain drew before `stroke`."""
    inner = _old_erode(mask)
    return (mask & ~inner) | (inner & ~_old_erode(inner))


def _old_hsv_to_rgb(h, s, v):
    h = (h % 1.0) * 6.0
    i = int(h)
    f = h - i
    p, q, t = v * (1 - s), v * (1 - s * f), v * (1 - s * (1 - f))
    return [(v, t, p), (q, v, p), (p, v, t), (p, q, v), (t, p, v), (v, p, q)][i % 6]


def _drawn_and_filled(c, stroke, seed):
    """The pixels `render_image` draws on a black, noise-free background, and
    the filled shape from the same centre and radius draws."""
    style = DomainStyleSpec(hue_rotation=0.0, background=0.0, noise=0.0, stroke=stroke)
    drawn = render_image(c, style, np.random.default_rng(seed)).any(axis=0)
    rng = np.random.default_rng(seed)
    cx, cy = 16 + rng.uniform(-3.0, 3.0), 16 + rng.uniform(-3.0, 3.0)
    return drawn, _shape_mask(c, cx, cy, 9.0 * rng.uniform(0.8, 1.15))


def test_stroke_2_draws_the_old_outline_and_stroke_0_the_filled_shape():
    for i in range(2000):
        drawn, filled = _drawn_and_filled(i % NUM_CLASSES, 2, i)
        assert filled.any() and (drawn == _old_outline(filled)).all(), i
    for i in range(100):
        drawn, filled = _drawn_and_filled(i % NUM_CLASSES, 0, i)
        assert (drawn == filled).all(), i


def test_the_stdlib_colour_is_the_old_formula_bitwise():
    table_hues = [0.07 + style.hue_rotation / 360.0 for style in DEFAULT_STYLE_TABLE]
    hues = table_hues + list(np.linspace(-3.0, 3.0, 20001)) + [-1.0, -1e-17, 0.0, 1.0, 1.0 + 1e-16, 2.5]
    for h in hues:
        assert colorsys.hsv_to_rgb(h % 1.0, 0.85, 0.95) == _old_hsv_to_rgb(h, 0.85, 0.95), h


@pytest.mark.parametrize("hue_rotation", [style.hue_rotation for style in DEFAULT_STYLE_TABLE] + [-75.0, 360.0, 500.0])
def test_a_shape_takes_the_old_colour(hue_rotation):
    style = DomainStyleSpec(hue_rotation=hue_rotation, background=0.0, noise=0.0)
    img = render_image(0, style, np.random.default_rng(0))
    old = np.float32(_old_hsv_to_rgb(0.07 + hue_rotation / 360.0, 0.85, 0.95))
    assert (img[:, 16, 16] == old).all()


def test_a_negative_stroke_raises():
    with pytest.raises(ValueError, match="stroke -1 negative"):
        DomainStyleSpec(hue_rotation=0.0, background=0.5, noise=0.0, stroke=-1)


def test_directory_round_trip_is_exact(tmp_path, dataset):
    save_dataset(tmp_path / "data", dataset)
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["domain_00", "domain_01", "domain_02"]
    loaded = load_dataset(tmp_path / "data")
    assert [img.dtype for img in loaded.images] == [np.float32] * 3
    assert [lab.dtype for lab in loaded.labels] == [np.int64] * 3
    assert loaded.num_classes == 5
    assert _same(loaded, dataset)


def test_a_resave_with_fewer_domains_leaves_only_its_own(tmp_path, dataset):
    save_dataset(tmp_path / "data", generate_dataset(5, 5, 0))
    save_dataset(tmp_path / "data", dataset)
    assert sorted(p.name for p in (tmp_path / "data").iterdir()) == ["domain_00", "domain_01", "domain_02"]
    assert _same(load_dataset(tmp_path / "data"), dataset)


@pytest.mark.parametrize(
    "name, keep", [("images.npy", 100), ("images.npy", -100), ("labels.npy", -10)], ids=["header", "pixels", "labels"]
)
def test_truncated_file_raises_data_format_error(tmp_path, dataset, name, keep):
    save_dataset(tmp_path / "data", dataset)
    path = tmp_path / "data" / "domain_01" / name
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(DataFormatError, match="domain_01: images.npy or labels.npy is not a readable .npy"):
        load_dataset(tmp_path / "data")
