"""Checkpoint format: bit-exact round trip, byte-stable saves, truncation."""

import zipfile

import numpy as np
import pytest

from doprompt import checkpoint as ckpt


def test_round_trip_bit_exact(tmp_path):
    rng = np.random.default_rng(0)
    arrays = {
        "vit.patch.w": rng.normal(size=(12, 8)).astype(np.float32),
        "vit.cls": rng.normal(size=8).astype(np.float32),
        "prompts.bank": rng.normal(size=(3, 4, 8)).astype(np.float32),
        "scalar": np.float32(3.25).reshape(()),
    }
    path = tmp_path / "model.npz"
    ckpt.save_arrays(path, arrays)
    loaded = ckpt.load_arrays(path)
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert loaded[name].shape == arrays[name].shape
        assert loaded[name].tobytes() == np.asarray(arrays[name], dtype="<f4").tobytes()


def test_save_writes_exactly_the_given_path_with_fixed_member_dates(tmp_path):
    path = tmp_path / "model.ckpt"
    ckpt.save_arrays(path, {"x": np.zeros(2, dtype=np.float32)})
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]
    with zipfile.ZipFile(path) as z:
        assert [(i.filename, i.date_time, i.compress_type) for i in z.infolist()] == [
            ("x.npy", (1980, 1, 1, 0, 0, 0), zipfile.ZIP_STORED)
        ]


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.npz"
    ckpt.save_arrays(path, {"xy": np.ones((4, 4), dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(ckpt.CheckpointError, match="truncated"):
        ckpt.load_arrays(path)


def test_member_without_the_npy_magic_rejected(tmp_path):
    path = tmp_path / "raw.npz"
    with zipfile.ZipFile(path, "w") as z:
        z.writestr("x.npy", b"not an array")  # np.load hands this member back as bytes
    with pytest.raises(ckpt.CheckpointError, match="x is not a float32 array of finite values"):
        ckpt.load_arrays(path)


def test_float64_params_stored_as_float32(tmp_path):
    path = tmp_path / "f64.npz"
    ckpt.save_arrays(path, {"w": np.array([1.0, 2.0], dtype=np.float64)})
    loaded = ckpt.load_arrays(path)
    assert loaded["w"].dtype == np.float32
