"""VLT1 binary tensor files.

Layout: magic bytes `VLT1`, u8 dtype tag (0 = f32, 1 = f64), u8 ndim,
ndim x u64 little-endian dims, then the raw little-endian payload.
Checkpoints and scenes store many tensors as back-to-back VLT1 records in
one file plus a JSON document that says what the records are.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..config import read_json, write_json
from ..errors import ParameterError

MAGIC = b"VLT1"
MAX_NDIM = 32   # a header claiming more dims is corrupt
_TAG_TO_DTYPE = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_DTYPE_TO_TAG = {np.dtype(np.float32): 0, np.dtype(np.float64): 1}


def write_record(fh: BinaryIO, arr: np.ndarray) -> None:
    arr = np.ascontiguousarray(arr)
    tag = _DTYPE_TO_TAG.get(arr.dtype)
    if tag is None:
        raise ParameterError(f"VLT1 stores f32/f64 only, got {arr.dtype}")
    fh.write(MAGIC)
    fh.write(struct.pack("<BB", tag, arr.ndim))
    for d in arr.shape:
        fh.write(struct.pack("<Q", d))
    fh.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())


def read_record(fh: BinaryIO) -> np.ndarray:
    """One record from a seekable stream; dims are checked against the bytes left."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise ParameterError(f"bad VLT1 magic {magic!r}")
    head = fh.read(2)
    if len(head) != 2:
        raise ParameterError("truncated VLT1 header")
    tag, ndim = struct.unpack("<BB", head)
    if tag not in _TAG_TO_DTYPE:
        raise ParameterError(f"unknown VLT1 dtype tag {tag}")
    if ndim > MAX_NDIM:
        raise ParameterError(f"VLT1 ndim {ndim} exceeds {MAX_NDIM}")
    pos = fh.tell()
    left = fh.seek(0, 2) - pos - 8 * ndim
    fh.seek(pos)
    if left < 0:
        raise ParameterError("truncated VLT1 header")
    dims = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim))
    dtype = _TAG_TO_DTYPE[tag]
    nbytes = math.prod(dims) * dtype.itemsize   # Python ints: no wraparound
    if nbytes > left:
        raise ParameterError(f"VLT1 dims {dims} need {nbytes} bytes, {left} left")
    arr = np.frombuffer(fh.read(nbytes), dtype=dtype).reshape(dims).astype(dtype.base)
    if not np.isfinite(arr).all():   # the package never writes NaN or Inf
        raise ParameterError("non-finite values in a VLT1 record")
    return arr


def save_tensor(path: str | Path, arr: np.ndarray) -> None:
    with open(path, "wb") as fh:
        write_record(fh, arr)


def read_file(path: str | Path, count: int) -> list[np.ndarray]:
    """The `count` records that fill the file at `path`; every error names it."""
    try:
        with open(path, "rb") as fh:
            records = [read_record(fh) for _ in range(count)]
            trailing = fh.read(1)
    except OSError as exc:
        raise ParameterError(f"cannot read {path}: {exc.strerror}") from None
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    if trailing:
        raise ParameterError(f"{path}: trailing bytes after the last VLT1 record")
    return records


def load_tensor(path: str | Path) -> np.ndarray:
    return read_file(path, 1)[0]


def save_container(directory: str | Path, tensors: dict[str, np.ndarray],
                   meta: dict | None = None) -> None:
    """weights.vlt holds the records in sorted-name order; manifest.json names them."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = sorted(tensors)
    (directory / "manifest.json").unlink(missing_ok=True)   # the marker goes back last
    with open(directory / "weights.vlt", "wb") as fh:
        for name in names:
            write_record(fh, tensors[name])
    manifest = {"tensors": names}
    if meta is not None:
        manifest["meta"] = meta
    write_json(directory / "manifest.json", manifest)


def load_container(directory: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    directory = Path(directory)
    manifest = read_json(directory / "manifest.json", "tensors")
    names = manifest["tensors"]
    if not (isinstance(names, list) and all(isinstance(n, str) for n in names)):
        raise ParameterError(f"{directory / 'manifest.json'} 'tensors' is not a list of names")
    records = read_file(directory / "weights.vlt", len(names))
    return dict(zip(names, records)), manifest.get("meta", {})
