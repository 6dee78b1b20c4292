"""Deterministic model container.

Layout: a magic line, one JSON header line, one JSON array-manifest line,
then the raw array bytes concatenated in manifest order. Arrays are stored
little-endian as float64 or int64, names sorted, and the header is dumped
with sorted keys, so identical state always produces identical bytes.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .errors import DataError, ModelError

MAGIC = b"EMOFORGE-MODEL 1\n"
FORMAT_VERSION = 1

_DTYPES = {"f8": "<f8", "i8": "<i8"}


def _canonical(array: np.ndarray) -> tuple[np.ndarray, str]:
    array = np.asarray(array)
    if np.issubdtype(array.dtype, np.integer) or array.dtype == np.bool_:
        return array.astype("<i8"), "i8"
    return array.astype("<f8"), "f8"


def save_container(path: str | Path, header: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr, code = _canonical(arrays[name])
        entries.append({"name": name, "dtype": code, "shape": list(arr.shape)})
        blobs.append(np.ascontiguousarray(arr).tobytes())
    header = dict(header)
    header["format_version"] = FORMAT_VERSION
    payload = (
        MAGIC
        + json.dumps(header, sort_keys=True).encode("utf-8")
        + b"\n"
        + json.dumps(entries).encode("utf-8")
        + b"\n"
        + b"".join(blobs)
    )
    Path(path).write_bytes(payload)


def _array_spec(path, entry) -> tuple[str, np.dtype, list[int]]:
    """Validate one array-manifest entry as (name, dtype, shape)."""
    if not isinstance(entry, dict) or not {"name", "dtype", "shape"} <= entry.keys():
        raise DataError(f"{path}: array entry {entry!r} needs name, dtype and shape")
    name, code, shape = entry["name"], entry["dtype"], entry["shape"]
    if not isinstance(name, str):
        raise DataError(f"{path}: array name {name!r} is not a string")
    if not isinstance(code, str) or code not in _DTYPES:
        raise DataError(f"{path}: array {name!r} has unknown dtype {code!r}")
    if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
        raise DataError(f"{path}: array {name!r} shape {shape!r} is not a list of sizes")
    return name, np.dtype(_DTYPES[code]), shape


def load_container(path: str | Path) -> tuple[dict, dict[str, np.ndarray]]:
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read model {path}: {exc}") from exc
    if not data.startswith(MAGIC):
        raise DataError(f"{path}: not a model container")
    rest = data[len(MAGIC):]
    header_line, _, rest = rest.partition(b"\n")
    manifest_line, _, blob = rest.partition(b"\n")
    try:
        header = json.loads(header_line)
        entries = json.loads(manifest_line)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: corrupt container header") from exc
    if not isinstance(header, dict) or not isinstance(entries, list):
        raise DataError(f"{path}: corrupt container header")
    if header.get("format_version") != FORMAT_VERSION:
        raise ModelError(
            f"{path}: format version {header.get('format_version')} unsupported"
        )
    arrays: dict[str, np.ndarray] = {}
    pos = 0
    for entry in entries:
        name, dtype, shape = _array_spec(path, entry)
        nbytes = math.prod(shape) * dtype.itemsize
        chunk = blob[pos : pos + nbytes]
        if len(chunk) != nbytes:
            raise DataError(f"{path}: truncated array {name!r}")
        arrays[name] = np.frombuffer(chunk, dtype=dtype).reshape(shape).copy()
        pos += nbytes
    if pos != len(blob):
        raise DataError(f"{path}: trailing bytes after arrays")
    return header, arrays
