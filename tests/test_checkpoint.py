import json
import struct
import zlib

import numpy as np
import pytest

from dmst.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from dmst.errors import FormatError
from dmst.model import ModelConfig, init_params, param_shapes


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
    assert list(loaded) == list(params)  # manifest preserves insertion order
    for name in params:
        assert loaded[name].dtype == np.float32
        assert np.array_equal(loaded[name], params[name])


def test_save_load_save_is_bit_exact(tmp_path):
    config = ModelConfig(depth=1, dim=8, heads=2, input_dim=5)
    params = {name: t.data for name, t in init_params(config).items()}
    first = str(tmp_path / "a.dmst")
    second = str(tmp_path / "b.dmst")
    save_checkpoint(first, config, params)
    loaded_config, loaded = load_checkpoint(first)
    save_checkpoint(second, loaded_config, loaded)
    assert open(first, "rb").read() == open(second, "rb").read()


def test_float64_payload_is_stored_as_float32(tmp_path):
    config = ModelConfig(depth=0, dim=2, heads=1, input_dim=1, num_classes=1)
    params = {name: np.zeros(shape) for name, shape in param_shapes(config)}
    params["head.bias"][0] = 1.0 + 1e-12  # below float32 resolution
    path = str(tmp_path / "c.dmst")
    save_checkpoint(path, config, params)
    _, loaded = load_checkpoint(path)
    assert loaded["head.bias"].dtype == np.float32
    assert loaded["head.bias"][0] == np.float32(1.0)


def test_magic_prefix_and_header_layout(tmp_path):
    path = str(tmp_path / "d.dmst")
    save_checkpoint(path, ModelConfig(), {"w": np.zeros(2)})
    blob = open(path, "rb").read()
    assert blob.startswith(MAGIC)
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    header_end = len(MAGIC) + 4 + header_len
    header = json.loads(blob[len(MAGIC) + 4 : header_end])
    assert set(header) == {"config", "crc32", "tensors"}
    assert header["tensors"] == [{"name": "w", "offset": 0, "shape": [2]}]
    assert header["crc32"] == zlib.crc32(blob[header_end:])


def test_tensors_other_than_the_config_layout_are_rejected(tmp_path):
    path = str(tmp_path / "foreign.dmst")
    save_checkpoint(path, ModelConfig(), {"w": np.zeros(2)})
    with pytest.raises(FormatError, match="does not match its config"):
        load_checkpoint(path)


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


def test_header_missing_sections_is_rejected(tmp_path):
    payload = json.dumps({"config": {}}).encode()
    path = tmp_path / "sections.dmst"
    path.write_bytes(MAGIC + struct.pack("<I", len(payload)) + payload)
    with pytest.raises(FormatError):
        load_checkpoint(str(path))


def corrupt_header(path, mutate):
    blob = open(path, "rb").read()
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    start = len(MAGIC) + 4
    header = json.loads(blob[start : start + header_len])
    mutate(header)
    new_header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return MAGIC + struct.pack("<I", len(new_header)) + new_header + blob[start + header_len :]


def test_non_contiguous_offsets_are_rejected(tmp_path):
    path = str(tmp_path / "gap.dmst")
    save_checkpoint(path, ModelConfig(), {"a": np.zeros(2), "b": np.zeros(2)})
    blob = corrupt_header(path, lambda h: h["tensors"][1].update(offset=3))
    bad = tmp_path / "gap2.dmst"
    bad.write_bytes(blob)
    with pytest.raises(FormatError):
        load_checkpoint(str(bad))


def test_tensor_overrunning_payload_is_rejected(tmp_path):
    path = str(tmp_path / "overrun.dmst")
    save_checkpoint(path, ModelConfig(), {"a": np.zeros(2)})
    blob = corrupt_header(path, lambda h: h["tensors"][0].update(shape=[5]))
    bad = tmp_path / "overrun2.dmst"
    bad.write_bytes(blob)
    with pytest.raises(FormatError):
        load_checkpoint(str(bad))


def test_unclaimed_payload_floats_are_rejected(tmp_path):
    path = str(tmp_path / "extra.dmst")
    save_checkpoint(path, ModelConfig(), {"a": np.zeros(2)})
    blob = open(path, "rb").read() + np.zeros(1, dtype="<f4").tobytes()
    bad = tmp_path / "extra2.dmst"
    bad.write_bytes(blob)
    with pytest.raises(FormatError):
        load_checkpoint(str(bad))


def test_ragged_payload_bytes_are_rejected(tmp_path):
    path = str(tmp_path / "ragged.dmst")
    save_checkpoint(path, ModelConfig(), {"a": np.zeros(2)})
    blob = open(path, "rb").read() + b"\x00"
    bad = tmp_path / "ragged2.dmst"
    bad.write_bytes(blob)
    with pytest.raises(FormatError):
        load_checkpoint(str(bad))


def depth_one_checkpoint(path):
    config = ModelConfig(depth=1, dim=8, heads=2, input_dim=3)
    save_checkpoint(str(path), config, tiny_params(np.random.default_rng(2), config))
    blob = path.read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, len(MAGIC))
    return blob, len(MAGIC) + 4 + header_len


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
