"""Checkpoints: an uncompressed `.npz` of named float32 arrays.

Arrays are stored as little-endian float32 whatever the engine's dtype, so
float32 parameters round-trip bit-exactly, and in insertion order. numpy
stamps every member 1980-01-01, so equal arrays save to equal bytes.

A model checkpoint holds one array per parameter, and they fix the model's
shape: the names give the depth and whether there is a prompt bank and
adapter; the shapes give every width and size, and `prompts.bank` (K, L, D)
the number of source-domain prompts K and the prompt length L. `num_heads`
changes no shape, so it is a last, 0-d array named `meta.num_heads`.
`pipeline.ModelState.load` builds the model from them.
"""

from __future__ import annotations

import zipfile

import numpy as np

__all__ = ["CheckpointError", "load_arrays", "save_arrays"]


class CheckpointError(IOError):
    """Corrupt, truncated or unreadable checkpoint file."""


def save_arrays(path, arrays: dict) -> None:
    """Write name -> ndarray mappings in insertion order to exactly `path`."""
    with open(path, "wb") as f:  # np.savez appends ".npz" to a path, not to a handle
        np.savez(f, **{name: np.asarray(arr, dtype="<f4") for name, arr in arrays.items()})


def load_arrays(path) -> dict:
    """Read back name -> float32 ndarray in file order; every value must be finite."""
    try:  # an own handle: np.load leaks the one it opens when the zip is truncated
        with open(path, "rb") as f, np.load(f, allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (EOFError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(
            f"{path}: not a .npz of float32 arrays, or a truncated one ({type(exc).__name__}); "
            ".dpt checkpoints are no longer read, retrain to get a .npz"
        ) from exc
    for name, arr in arrays.items():
        if not (isinstance(arr, np.ndarray) and arr.dtype == "<f4" and np.isfinite(arr).all()):
            raise CheckpointError(f"{path}: {name} is not a float32 array of finite values")
    return arrays
