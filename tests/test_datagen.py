"""Procedural dataset: per-seed determinism and the DPD1 file round trip."""

import numpy as np
import pytest

from doprompt.datagen import DATA_MAGIC, DataFormatError, generate_dataset, load_dataset, save_dataset


@pytest.fixture(scope="module")
def dataset():
    return generate_dataset(3, 10, 4)


def _same(a, b) -> bool:
    return (
        a.num_domains == b.num_domains
        and a.seed == b.seed
        and a.num_classes == b.num_classes
        and all(x.tobytes() == y.tobytes() for x, y in zip(a.images + a.labels, b.images + b.labels))
    )


def test_one_seed_gives_bit_identical_data(dataset):
    assert _same(generate_dataset(3, 10, 4), dataset)
    assert not _same(generate_dataset(3, 10, 5), dataset)


def test_dpd1_round_trip_is_exact(tmp_path, dataset):
    path = tmp_path / "data.dpd"
    save_dataset(path, dataset)
    assert path.read_bytes()[:4] == DATA_MAGIC
    loaded = load_dataset(path)
    assert [lab.dtype for lab in loaded.labels] == [np.int64] * 3
    assert _same(loaded, dataset)


def test_bad_magic_raises_data_format_error(tmp_path):
    path = tmp_path / "bad.dpd"
    path.write_bytes(b"NOPE" + bytes(48))
    with pytest.raises(DataFormatError, match="bad magic"):
        load_dataset(path)


@pytest.mark.parametrize("keep", [20, -100, -10], ids=["header", "labels", "domain_indices"])
def test_truncated_file_raises_data_format_error(tmp_path, dataset, keep):
    path = tmp_path / "data.dpd"
    save_dataset(path, dataset)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(DataFormatError, match="truncated"):
        load_dataset(path)
