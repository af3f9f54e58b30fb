import json
import pathlib
import struct
import zlib

import numpy as np
import pytest

from dmst.attention import AttentionKind
from dmst.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from dmst.errors import FormatError, InvalidInput
from dmst.model import ModelConfig, init_params, param_shapes

# Written by save_checkpoint before the header lost its tensor manifest, from
# init_params of this config; it must keep loading.
MANIFEST_CHECKPOINT = pathlib.Path(__file__).parent / "data" / "parent_format_depth1.dmst"
MANIFEST_CONFIG = ModelConfig(depth=1, dim=8, heads=2, input_dim=4)


def tiny_params(rng, config):
    return {name: rng.normal(size=shape).astype(np.float32) for name, shape in param_shapes(config)}


def test_round_trip_preserves_config_and_float32_tensors(tmp_path):
    rng = np.random.default_rng(0)
    config = ModelConfig(depth=1, dim=8, heads=2, input_dim=3)
    params = tiny_params(rng, config)
    path = str(tmp_path / "model.dmst")
    save_checkpoint(path, config, params)
    loaded_config, loaded = load_checkpoint(path)
    assert loaded_config == config
    assert list(loaded) == list(params)  # both in param_shapes order
    for name in params:
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], params[name])


@pytest.mark.parametrize("attention", list(AttentionKind), ids=lambda kind: kind.value)
def test_save_load_save_is_bit_exact(tmp_path, attention):
    # TSSA's layout has no membership_proj
    config = ModelConfig(depth=1, dim=8, heads=2, input_dim=5, attention=attention)
    params = {name: t.data for name, t in init_params(config).items()}
    first = str(tmp_path / "a.dmst")
    second = str(tmp_path / "b.dmst")
    save_checkpoint(first, config, params)
    loaded_config, loaded = load_checkpoint(first)
    save_checkpoint(second, loaded_config, loaded)
    assert open(first, "rb").read() == open(second, "rb").read()


def test_float64_payload_is_stored_as_float32(tmp_path):
    config = ModelConfig(depth=1, dim=2, heads=1, input_dim=1, num_classes=1)
    params = {name: np.zeros(shape) for name, shape in param_shapes(config)}
    params["head.bias"][0] = 1.0 + 1e-12  # below float32 resolution
    path = str(tmp_path / "c.dmst")
    save_checkpoint(path, config, params)
    _, loaded = load_checkpoint(path)
    assert loaded["head.bias"].dtype == np.float32
    assert loaded["head.bias"][0] == np.float32(1.0)


def split_checkpoint(blob):
    """The parsed JSON header of a checkpoint's bytes, and its payload bytes."""
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    return json.loads(blob[len(MAGIC) + 4 : header_end]), blob[header_end:]


def test_magic_prefix_and_header_layout(tmp_path):
    path = str(tmp_path / "d.dmst")
    config = ModelConfig(depth=1, dim=8, heads=2, input_dim=3)
    params = tiny_params(np.random.default_rng(1), config)
    save_checkpoint(path, config, params)
    blob = open(path, "rb").read()
    assert blob.startswith(MAGIC)
    header, payload = split_checkpoint(blob)
    assert set(header) == {"config", "crc32"}
    assert header["crc32"] == zlib.crc32(payload)
    # the payload is the tensors in param_shapes order, nothing else
    in_order = [params[name].astype("<f4").tobytes() for name, _ in param_shapes(config)]
    assert payload == b"".join(in_order)


def test_manifest_checkpoint_loads_to_its_config_and_arrays():
    header, _ = split_checkpoint(MANIFEST_CHECKPOINT.read_bytes())
    assert "tensors" in header  # the file really carries the old manifest
    config, params = load_checkpoint(str(MANIFEST_CHECKPOINT))
    assert config == MANIFEST_CONFIG
    expected = init_params(MANIFEST_CONFIG)
    assert list(params) == list(expected)
    for name, tensor in expected.items():
        assert params[name].dtype == np.float32
        assert np.array_equal(params[name], tensor.data.astype(np.float32))


def test_resaving_a_manifest_checkpoint_drops_only_the_manifest(tmp_path):
    old_header, old_payload = split_checkpoint(MANIFEST_CHECKPOINT.read_bytes())
    path = str(tmp_path / "resaved.dmst")
    save_checkpoint(path, *load_checkpoint(str(MANIFEST_CHECKPOINT)))
    header, payload = split_checkpoint(open(path, "rb").read())
    del old_header["tensors"]
    assert header == old_header
    assert payload == old_payload


def without(params, name):
    return {key: value for key, value in params.items() if key != name}


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda p: without(p, "blocks.0.attn.membership_proj"), "lack tensor blocks.0.attn"),
        (lambda p: {**p, "w": np.zeros(2)}, "tensor w is not part"),
        (lambda p: {**p, "embed.weight": p["embed.weight"].T}, r"shape \[8, 4\].*expects \[4, 8\]"),
    ],
    ids=["missing-name", "extra-name", "transposed-shape"],
)
def test_save_rejects_params_off_the_config_layout_and_writes_no_file(tmp_path, change, message):
    config = ModelConfig(depth=1, dim=8, heads=2, input_dim=4)
    params = change(tiny_params(np.random.default_rng(3), config))
    path = tmp_path / "off-layout.dmst"
    with pytest.raises(InvalidInput, match=message):
        save_checkpoint(str(path), config, params)
    assert not path.exists()


def test_truncated_file_is_rejected(tmp_path):
    path = tmp_path / "short.dmst"
    path.write_bytes(MAGIC)
    with pytest.raises(FormatError):
        load_checkpoint(str(path))


def test_bad_magic_is_rejected(tmp_path):
    path = tmp_path / "bad.dmst"
    path.write_bytes(b"NOPE1" + struct.pack("<I", 2) + b"{}")
    with pytest.raises(FormatError):
        load_checkpoint(str(path))


def test_overlong_header_length_is_rejected(tmp_path):
    path = tmp_path / "overlong.dmst"
    path.write_bytes(MAGIC + struct.pack("<I", 10_000) + b"{}")
    with pytest.raises(FormatError):
        load_checkpoint(str(path))


def test_malformed_json_header_is_rejected(tmp_path):
    payload = b"{not json"
    path = tmp_path / "json.dmst"
    path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload)
    with pytest.raises(FormatError):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "header", [[{"config": {}}], {"crc32": 0}], ids=["not-an-object", "no-config"]
)
def test_header_without_a_config_is_rejected(tmp_path, header):
    payload = json.dumps(header).encode()
    path = tmp_path / "sections.dmst"
    path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload)
    with pytest.raises(FormatError, match="header missing config"):
        load_checkpoint(str(path))


def corrupt_header(path, mutate):
    blob = open(path, "rb").read()
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(blob[start : start + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[start + header_len :]


def depth_one_checkpoint(path):
    config = ModelConfig(depth=1, dim=8, heads=2, input_dim=3)
    save_checkpoint(str(path), config, tiny_params(np.random.default_rng(2), config))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    return blob, len(MAGIC) + 4 + header_len


@pytest.mark.parametrize(
    "resize",
    [lambda blob: blob[:-4], lambda blob: blob + bytes(4), lambda blob: blob + b"\x00"],
    ids=["one-float-short", "one-float-extra", "one-stray-byte"],
)
def test_payload_of_the_wrong_size_is_rejected(tmp_path, resize):
    path = tmp_path / "size.dmst"
    blob, _ = depth_one_checkpoint(path)
    path.write_bytes(resize(blob))
    with pytest.raises(FormatError, match="payload holds"):
        load_checkpoint(str(path))


@pytest.mark.parametrize(
    "crc", [None, "0", 1.5, True, -1], ids=["missing", "string", "float", "bool", "negative"]
)
def test_missing_or_non_integer_crc32_is_rejected(tmp_path, crc):
    path = tmp_path / "crc.dmst"
    depth_one_checkpoint(path)

    def mutate(header):
        if crc is None:
            header.pop("crc32")
        else:
            header["crc32"] = crc

    path.write_bytes(corrupt_header(str(path), mutate))
    with pytest.raises(FormatError, match="no integer crc32"):
        load_checkpoint(str(path))


def test_payload_byte_flip_is_rejected_by_the_crc32(tmp_path):
    path = tmp_path / "flip.dmst"
    blob, _ = depth_one_checkpoint(path)
    data = bytearray(blob)
    data[-1] ^= 0x01  # the last mantissa bit of the last weight: structurally valid
    path.write_bytes(bytes(data))
    with pytest.raises(FormatError, match="does not match its crc32"):
        load_checkpoint(str(path))


def test_corrupted_checkpoints_load_or_raise_one_line_format_error(tmp_path):
    # Seeded truncations and byte flips anywhere in the file: each one loads
    # or raises a one-line FormatError naming the file, and every truncation
    # and every flip in the payload is caught.
    path = tmp_path / "sweep.dmst"
    blob, header_end = depth_one_checkpoint(path)
    rng = np.random.default_rng(7)
    for trial in range(300):
        data = bytearray(blob)
        if trial % 3 == 0:
            data = data[: int(rng.integers(len(data)))]
            must_fail = True
        else:
            at = int(rng.integers(len(data)))
            data[at] ^= int(rng.integers(1, 256))
            must_fail = at >= header_end
        path.write_bytes(bytes(data))
        try:
            load_checkpoint(str(path))
        except FormatError as exc:
            assert str(path) in str(exc) and "\n" not in str(exc)
        else:
            assert not must_fail, f"trial {trial} loaded a corrupted checkpoint"
