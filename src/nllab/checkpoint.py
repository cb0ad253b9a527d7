"""Binary checkpoint container: JSON manifest plus raw little-endian float64 blobs.

Layout: magic "NLCK", uint32 format version, uint64 manifest length, manifest
JSON, then the blob section.  Offsets are relative to the blob section start
and must not overlap.  Writes go through a temp file and an atomic rename.
"""

from __future__ import annotations

import json
import math
import os
import struct

import numpy as np

from .fileio import write_atomic

MAGIC = b"NLCK"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save(path: str, tensors: dict[str, np.ndarray]) -> None:
    entries = []
    blobs = []
    offset = 0
    for name in sorted(tensors):
        arr = np.ascontiguousarray(np.asarray(tensors[name], dtype=np.float64))
        raw = arr.astype("<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": len(raw)})
        blobs.append(raw)
        offset += len(raw)
    manifest = json.dumps({"version": VERSION, "endianness": "little", "tensors": entries}).encode()
    header = MAGIC + struct.pack("<I", VERSION) + struct.pack("<Q", len(manifest))
    write_atomic(path, b"".join([header, manifest, *blobs]))


def _read_exact(f, n: int, what: str) -> bytes:
    # a length field is checked against the bytes left before anything is read
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise CheckpointError(f"truncated checkpoint: {what} needs {n} bytes, found {left}")
    return f.read(n)


def _entry_fields(entry) -> tuple:
    try:
        name, shape, offset, nbytes = entry["name"], entry["shape"], entry["offset"], entry["nbytes"]
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed manifest entry {entry!r}") from exc
    if not isinstance(name, str) or not isinstance(shape, list):
        raise CheckpointError(f"malformed manifest entry {entry!r}")
    # JSON integers only: a float or a boolean is no count
    if not all(type(n) is int and n >= 0 for n in (*shape, offset, nbytes)):
        raise CheckpointError(f"tensor {name!r}: shape, offset and nbytes must be integers >= 0")
    return name, tuple(shape), offset, nbytes


def load(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as f:
        if _read_exact(f, 4, "magic") != MAGIC:
            raise CheckpointError(f"{path} is not a checkpoint container")
        (version,) = struct.unpack("<I", _read_exact(f, 4, "version"))
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        (mlen,) = struct.unpack("<Q", _read_exact(f, 8, "manifest length"))
        raw = _read_exact(f, mlen, "manifest")
        try:
            manifest = json.loads(raw.decode())
        except (ValueError, RecursionError) as exc:  # bad UTF-8 or JSON, or nesting too deep
            raise CheckpointError(f"corrupt manifest: {exc}") from exc
        if not isinstance(manifest, dict) or not isinstance(manifest.get("tensors"), list):
            raise CheckpointError("manifest has no tensor list")
        if manifest.get("endianness") != "little":
            raise CheckpointError("unsupported endianness tag")
        blob = f.read()

    spans = []
    out = {}
    for entry in manifest["tensors"]:
        name, shape, lo, nbytes = _entry_fields(entry)
        if name in out:
            raise CheckpointError(f"tensor {name!r} listed twice")
        expect = 8 * math.prod(shape)
        if nbytes != expect:
            raise CheckpointError(f"tensor {name!r}: byte length {nbytes} != 8*prod{shape}")
        hi = lo + nbytes
        for (a, b, other) in spans:
            if lo < b and a < hi:
                raise CheckpointError(f"tensors {name!r} and {other!r} overlap")
        spans.append((lo, hi, name))
        if hi > len(blob):
            raise CheckpointError(f"tensor {name!r} extends past end of file")
        out[name] = np.frombuffer(blob[lo:hi], dtype="<f8").reshape(shape).copy()
    return out
