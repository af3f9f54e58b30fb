"""Binary checkpoint format.

Layout, all little endian::

    bytes 0..4    magic b"DMST1"
    bytes 5..9    uint32 length L of the JSON header
    bytes 9..9+L  UTF-8 JSON: {"config": {...}, "tensors": [{name, shape, offset}, ...]}
    remainder     float32 payload, tensors concatenated in manifest order

Offsets are float counts from the start of the payload; they must start at
zero, be contiguous, and strictly increase. The JSON is serialized with
sorted keys and fixed separators, so identical inputs produce identical
bytes and a save/load/save round trip is bit exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .errors import FormatError, InvalidInput
from .model import ModelConfig, config_from_dict, config_to_dict

MAGIC = b"DMST1"


def save_checkpoint(path: str, config: ModelConfig, params: dict[str, np.ndarray]) -> None:
    """Write config and tensors; float64 tensors are stored as float32."""
    manifest = []
    payload = bytearray()
    offset = 0
    for name, value in params.items():
        arr = np.ascontiguousarray(np.asarray(value, dtype=np.float64), dtype="<f4")
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        payload.extend(arr.tobytes())
        offset += arr.size
    header = json.dumps(
        {"config": config_to_dict(config), "tensors": manifest},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(bytes(payload))


def load_checkpoint(path: str) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read a checkpoint back; raises ``FormatError`` on any structural defect."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 4:
        raise FormatError(f"checkpoint {path} is truncated")
    if blob[: len(MAGIC)] != MAGIC:
        raise FormatError(f"checkpoint {path} has bad magic {blob[:5]!r}, expected {MAGIC!r}")
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_start = len(MAGIC) + 4
    header_end = header_start + header_len
    if header_end > len(blob):
        raise FormatError(f"checkpoint {path} header length {header_len} exceeds file size")
    try:
        header = json.loads(blob[header_start:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"checkpoint {path} has malformed JSON header: {exc}") from exc
    if not isinstance(header, dict) or "config" not in header or "tensors" not in header:
        raise FormatError(f"checkpoint {path} header missing config/tensors")

    payload = blob[header_end:]
    if len(payload) % 4 != 0:
        raise FormatError(f"checkpoint {path} payload is not a whole number of float32s")
    floats = np.frombuffer(payload, dtype="<f4")

    params: dict[str, np.ndarray] = {}
    expected_offset = 0
    for entry in header["tensors"]:
        name, shape, offset = entry["name"], tuple(entry["shape"]), int(entry["offset"])
        size = int(np.prod(shape, dtype=np.int64)) if shape else 1
        if offset != expected_offset:
            raise FormatError(
                f"checkpoint {path}: tensor {name} at offset {offset}, expected {expected_offset}"
            )
        if offset + size > floats.size:
            raise FormatError(f"checkpoint {path}: tensor {name} overruns the payload")
        params[name] = floats[offset : offset + size].reshape(shape).copy()
        expected_offset = offset + size
    if expected_offset != floats.size:
        raise FormatError(
            f"checkpoint {path}: payload holds {floats.size} floats, manifest covers {expected_offset}"
        )
    try:
        config = config_from_dict(header["config"])
    except (InvalidInput, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint {path} has an invalid config: {exc}") from None
    return config, params
