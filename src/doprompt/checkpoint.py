"""Binary checkpoint format for named parameter tensors.

Layout: magic bytes "DPT1", then one record per parameter:

    name_len   u64 LE
    name       UTF-8, name_len bytes
    rank       u64 LE
    dims       rank x u64 LE
    values     prod(dims) x f32 LE

Records run to end of file. Values are stored as 32-bit reals regardless of
the engine's active dtype, so float32 parameters round-trip bit-exactly.

A model checkpoint holds one record per parameter, and those records fix
the model's shape: the names give the depth and whether there is a prompt
bank and adapter; the shapes give the embedding and MLP widths, the patch
and position sizes, the number of classes, and, from `prompts.bank`
(K, L, D), the number of source-domain prompts K and the prompt length L.
`pipeline.ModelState.load` builds the model from them. `num_heads` splits
D into heads without changing any array's shape, so the model records it as
a last, 0-d record named `meta.num_heads`. A file written before that record
existed takes `num_heads` from the run config.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

MAGIC = b"DPT1"

__all__ = ["CheckpointError", "MAGIC", "load_arrays", "save_arrays"]


class CheckpointError(IOError):
    """Corrupt or truncated checkpoint file."""


def save_arrays(path, arrays: dict) -> None:
    """Write name -> ndarray mappings in insertion order."""
    path = Path(path)
    with open(path, "wb") as f:
        f.write(MAGIC)
        for name, arr in arrays.items():
            data = np.asarray(arr, dtype="<f4")  # tobytes() emits C order
            encoded = name.encode("utf-8")
            f.write(struct.pack("<Q", len(encoded)))
            f.write(encoded)
            f.write(struct.pack("<Q", data.ndim))
            f.write(struct.pack(f"<{data.ndim}Q", *data.shape))
            f.write(data.tobytes())


def load_arrays(path) -> dict:
    """Read back name -> float32 ndarray, preserving record order."""
    path = Path(path)
    blob = path.read_bytes()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic {blob[:4]!r}, expected {MAGIC!r}")
    out: dict[str, np.ndarray] = {}
    pos = 4
    total = len(blob)

    def take(n, what):
        nonlocal pos
        if pos + n > total:
            raise CheckpointError(f"{path}: truncated while reading {what}")
        chunk = blob[pos : pos + n]
        pos += n
        return chunk

    while pos < total:
        (name_len,) = struct.unpack("<Q", take(8, "name length"))
        try:
            name = take(name_len, "name").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{path}: array name is not valid UTF-8 ({exc})") from exc
        (rank,) = struct.unpack("<Q", take(8, "rank"))
        dims = struct.unpack(f"<{rank}Q", take(8 * rank, "dims"))
        count = math.prod(dims)
        values = np.frombuffer(take(4 * count, f"values of {name!r}"), dtype="<f4")
        out[name] = values.reshape(dims).copy()
    return out
