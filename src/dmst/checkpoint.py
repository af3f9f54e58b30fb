"""Binary checkpoint format.

Layout, all little endian::

    bytes 0..4    magic b"DMST1"
    bytes 5..9    uint32 length L of the JSON header
    bytes 9..9+L  UTF-8 JSON: {"config": {...}, "crc32": c}
    remainder     float32 payload, the config's tensors concatenated

The config is the only layout: :func:`dmst.model.param_shapes` names the
tensors, their shapes and their order, so the payload holds exactly
``param_count(config)`` floats and the loader slices it in that order.
``c`` is the ``zlib.crc32`` of the payload bytes; it is checked after every
structural check, so a flipped weight byte is a ``FormatError`` rather than
a silently different model. The crc32 does not cover the header. Header
keys the loader does not read are ignored, so files that also carry the
``tensors`` manifest earlier versions wrote load unchanged. The JSON is
serialized with sorted keys and fixed separators, so identical inputs
produce identical bytes and a save/load/save round trip is bit exact.
"""

from __future__ import annotations

import json
import math
import struct
import zlib

import numpy as np

from .errors import FormatError, InvalidInput
from .model import ModelConfig, config_from_dict, config_to_dict, param_count, param_shapes

MAGIC = b"DMST1"


def save_checkpoint(path: str, config: ModelConfig, params: dict[str, np.ndarray]) -> None:
    """Write config and tensors; float64 tensors are stored as float32.

    ``params`` must hold exactly the names and shapes of
    ``param_shapes(config)``; anything else raises ``InvalidInput`` before
    ``path`` is opened, so no file is written that would not load.
    """
    layout = dict(param_shapes(config))
    extra = [name for name in params if name not in layout]
    if extra:
        raise InvalidInput(f"tensor {extra[0]} is not part of the checkpoint's config")
    payload = bytearray()
    for name, shape in layout.items():
        if name not in params:
            raise InvalidInput(f"params lack tensor {name}, which the checkpoint's config needs")
        arr = np.ascontiguousarray(np.asarray(params[name], dtype=np.float64), dtype="<f4")
        if arr.shape != shape:
            raise InvalidInput(
                f"tensor {name} has shape {list(arr.shape)}, the checkpoint's config "
                f"expects {list(shape)}"
            )
        payload.extend(arr.tobytes())
    header = json.dumps(
        {"config": config_to_dict(config), "crc32": zlib.crc32(payload)},
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
    if not isinstance(header, dict) or "config" not in header:
        raise FormatError(f"checkpoint {path} header missing config")
    try:
        config = config_from_dict(header["config"])
    except (InvalidInput, TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint {path} has an invalid config: {exc}") from None

    payload = blob[header_end:]
    count = param_count(config)
    if len(payload) != 4 * count:
        raise FormatError(
            f"checkpoint {path}: payload holds {len(payload)} bytes, "
            f"its config needs {count} float32s ({4 * count} bytes)"
        )
    crc = header.get("crc32")
    if not isinstance(crc, int) or isinstance(crc, bool) or crc < 0:
        raise FormatError(f"checkpoint {path} header has no integer crc32 of its payload")
    if crc != zlib.crc32(payload):
        raise FormatError(f"checkpoint {path}: payload does not match its crc32, the file is corrupt")
    floats = np.frombuffer(payload, dtype="<f4")
    params: dict[str, np.ndarray] = {}
    offset = 0
    for name, shape in param_shapes(config):
        size = math.prod(shape)
        params[name] = floats[offset : offset + size].reshape(shape).copy()
        offset += size
    return config, params
