"""Checkpoint format: bit-exact round trip, magic validation, truncation."""

import struct

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
    path = tmp_path / "model.dpt"
    ckpt.save_arrays(path, arrays)
    loaded = ckpt.load_arrays(path)
    assert list(loaded) == list(arrays)
    for name in arrays:
        assert loaded[name].shape == arrays[name].shape
        assert loaded[name].tobytes() == np.asarray(arrays[name], dtype="<f4").tobytes()


def test_magic_bytes_prefix(tmp_path):
    path = tmp_path / "m.dpt"
    ckpt.save_arrays(path, {"x": np.zeros(1, dtype=np.float32)})
    assert path.read_bytes()[:4] == b"DPT1"


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.dpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ckpt.CheckpointError, match="bad magic"):
        ckpt.load_arrays(path)


def test_truncated_file_rejected(tmp_path):
    path = tmp_path / "t.dpt"
    ckpt.save_arrays(path, {"xy": np.ones((4, 4), dtype=np.float32)})
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 10])
    with pytest.raises(ckpt.CheckpointError, match="truncated"):
        ckpt.load_arrays(path)


def test_record_layout_is_little_endian_u64(tmp_path):
    path = tmp_path / "layout.dpt"
    values = np.array([[1.5, -2.0]], dtype=np.float32)
    ckpt.save_arrays(path, {"ab": values})
    blob = path.read_bytes()
    pos = 4
    (name_len,) = struct.unpack_from("<Q", blob, pos)
    pos += 8
    assert name_len == 2
    assert blob[pos : pos + 2] == b"ab"
    pos += 2
    rank, d0, d1 = struct.unpack_from("<QQQ", blob, pos)
    pos += 24
    assert (rank, d0, d1) == (2, 1, 2)
    np.testing.assert_array_equal(np.frombuffer(blob[pos : pos + 8], dtype="<f4"), [1.5, -2.0])
    assert pos + 8 == len(blob)


def test_float64_params_stored_as_float32(tmp_path):
    path = tmp_path / "f64.dpt"
    ckpt.save_arrays(path, {"w": np.array([1.0, 2.0], dtype=np.float64)})
    loaded = ckpt.load_arrays(path)
    assert loaded["w"].dtype == np.float32
