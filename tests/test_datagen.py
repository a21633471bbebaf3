"""Procedural dataset: per-seed determinism and the `domain_*/` directory
round trip of `save_dataset` and `load_dataset`."""

import numpy as np
import pytest

from doprompt.datagen import DataFormatError, generate_dataset, load_dataset, save_dataset


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
