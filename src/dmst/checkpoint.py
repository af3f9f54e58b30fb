"""Binary checkpoint format.

Layout, all little endian::

    bytes 0..4    magic b"DMST1"
    bytes 5..9    uint32 length L of the JSON header
    bytes 9..9+L  UTF-8 JSON: {"config": {...}, "crc32": c,
                               "tensors": [{name, shape, offset}, ...]}
    remainder     float32 payload, tensors concatenated in manifest order

Offsets are float counts from the start of the payload; they must start at
zero, be contiguous, and strictly increase. The manifest must list the
tensors of the header's config, with the names and shapes and in the order
:func:`dmst.model.param_shapes` gives. ``c`` is the ``zlib.crc32`` of the
payload bytes; it is checked after every structural check, so a flipped
weight byte is a ``FormatError`` rather than a silently different model.
The JSON is serialized with sorted keys and fixed separators, so identical
inputs produce identical bytes and a save/load/save round trip is bit
exact.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .errors import FormatError, InvalidInput
from .model import ModelConfig, config_from_dict, config_to_dict, param_shapes

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
        {"config": config_to_dict(config), "crc32": zlib.crc32(payload), "tensors": manifest},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", len(header)))
        fh.write(header)
        fh.write(bytes(payload))


def load_checkpoint(path: str) -> tuple[ModelConfig, dict[str, np.ndarray]]:
    """Read a checkpoint back; raises ``FormatError`` on any structural defect.

    A path that cannot be read (missing, a directory, no permission) is a
    ``FormatError`` too, naming the path.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from None
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

    entries = _manifest(path, header["tensors"])
    params: dict[str, np.ndarray] = {}
    expected_offset = 0
    for name, shape, offset in entries:
        size = math.prod(shape)
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
    _check_layout(path, config, entries)
    crc = header.get("crc32")
    if not _is_count(crc):
        raise FormatError(f"checkpoint {path} header has no integer crc32 of its payload")
    if crc != zlib.crc32(payload):
        raise FormatError(f"checkpoint {path}: payload does not match its crc32, the file is corrupt")
    return config, params


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _manifest(path: str, tensors) -> list[tuple[str, tuple[int, ...], int]]:
    """``(name, shape, offset)`` of each manifest entry, type-checked."""
    if not isinstance(tensors, list):
        raise FormatError(f"checkpoint {path}: tensors must be a list, got {type(tensors).__name__}")
    entries = []
    for i, entry in enumerate(tensors):
        if not isinstance(entry, dict):
            raise FormatError(f"checkpoint {path}: tensor entry {i} is not an object")
        missing = [key for key in ("name", "shape", "offset") if key not in entry]
        if missing:
            raise FormatError(f"checkpoint {path}: tensor entry {i} lacks {', '.join(missing)}")
        name, shape, offset = entry["name"], entry["shape"], entry["offset"]
        if not isinstance(name, str):
            raise FormatError(f"checkpoint {path}: tensor entry {i} has a non-string name")
        if not isinstance(shape, list) or not all(_is_count(s) for s in shape):
            raise FormatError(
                f"checkpoint {path}: tensor {name} has shape {shape!r}, "
                "expected a list of nonnegative integers"
            )
        if not _is_count(offset):
            raise FormatError(f"checkpoint {path}: tensor {name} has offset {offset!r}")
        entries.append((name, tuple(shape), offset))
    return entries


def _check_layout(path: str, config: ModelConfig, entries) -> None:
    """The manifest must list exactly the tensors ``init_params(config)`` makes."""
    expected = param_shapes(config)
    for name, shape, _ in entries:
        want = next(expected, None)
        if want is None:
            raise FormatError(f"checkpoint {path}: tensor {name} is not part of its config")
        if (name, shape) != want:
            raise FormatError(
                f"checkpoint {path}: tensor {name} {list(shape)} does not match its config, "
                f"which expects {want[0]} {list(want[1])}"
            )
    missing = next(expected, None)
    if missing is not None:
        raise FormatError(f"checkpoint {path}: lacks tensor {missing[0]}, which its config needs")
