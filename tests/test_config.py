from pathlib import Path

import pytest

from dmst.attention import AttentionKind
from dmst.config import SCHEMA, build_section, load_config, parse_config_text
from dmst.data import SyntheticDatasetSpec
from dmst.errors import InvalidInput
from dmst.model import ModelConfig
from dmst.sparsify import ActivationKind
from dmst.train import TrainOptions

SAMPLE = """
# architecture
depth = 2
dim = 16
heads = 4
attention = tssa
activation = relu
use_rope = false

data_classes = 3          # inline comment
data_noise_sigma = 0.1

train_lr = 5e-4
train_batch_size = 8
epochs = 7
"""


def test_parse_types_comments_and_blanks():
    values = parse_config_text(SAMPLE)
    assert values["depth"] == 2
    assert values["dim"] == 16
    assert values["attention"] == "tssa"
    assert values["use_rope"] is False
    assert values["data_classes"] == 3
    assert values["data_noise_sigma"] == 0.1
    assert values["train_lr"] == 5e-4
    assert values["epochs"] == 7


def test_parse_empty_text_gives_empty_dict():
    assert parse_config_text("# only a comment\n\n") == {}


def test_parse_bool_words():
    for word, expected in [("true", True), ("YES", True), ("1", True), ("false", False), ("no", False), ("0", False)]:
        assert parse_config_text(f"use_rope = {word}")["use_rope"] is expected
    with pytest.raises(InvalidInput):
        parse_config_text("use_rope = maybe")


def test_parse_errors_name_the_line():
    with pytest.raises(InvalidInput, match="line 2"):
        parse_config_text("depth = 1\nwindow = 3")
    with pytest.raises(InvalidInput, match="line 1"):
        parse_config_text("depth 1")
    with pytest.raises(InvalidInput, match="line 3"):
        parse_config_text("depth = 1\ndim = 8\ndepth = 2")  # duplicate
    with pytest.raises(InvalidInput, match="expects int"):
        parse_config_text("depth = two")


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.conf"
    path.write_text(SAMPLE)
    assert load_config(str(path)) == parse_config_text(SAMPLE)


def test_load_config_missing_file_names_path(tmp_path):
    missing = str(tmp_path / "nope.conf")
    with pytest.raises(InvalidInput, match="nope.conf"):
        load_config(missing)


def test_model_config_from_values():
    config = build_section(ModelConfig, parse_config_text(SAMPLE))
    assert config.depth == 2
    assert config.dim == 16
    assert config.heads == 4
    assert config.attention is AttentionKind.TSSA
    assert config.activation is ActivationKind.RELU
    assert config.use_rope is False
    assert config.num_classes == 4  # untouched default


def test_model_config_rejects_unknown_enums():
    with pytest.raises(InvalidInput, match="attention"):
        build_section(ModelConfig, {"attention": "flash"})
    with pytest.raises(InvalidInput, match="activation"):
        build_section(ModelConfig, {"activation": "swish"})


def test_dataset_spec_from_values():
    spec = build_section(SyntheticDatasetSpec, parse_config_text(SAMPLE))
    assert spec.num_classes == 3
    assert spec.noise_sigma == 0.1
    assert spec.ambient_dim == 32  # untouched default


def test_train_options_from_values():
    options = build_section(TrainOptions, parse_config_text(SAMPLE))
    assert options.lr == 5e-4
    assert options.batch_size == 8
    assert options.weight_decay == 5e-2  # untouched default


def test_schema_keys_types_and_order_are_pinned():
    model = [
        ("depth", int), ("dim", int), ("heads", int), ("mlp_ratio", float),
        ("num_classes", int), ("input_dim", int), ("attention", str), ("sparsity_axis", str),
        ("topk", int), ("activation", str), ("use_rope", bool), ("max_tokens", int),
        ("seed", int),
    ]
    data = [
        ("data_classes", int), ("data_ambient_dim", int), ("data_subspace_dim", int),
        ("data_noise_sigma", float), ("data_tokens", int), ("data_samples_per_class", int),
    ]
    optim = [
        ("train_lr", float), ("train_weight_decay", float), ("train_batch_size", int),
        ("train_eval_batch", int), ("epochs", int),
    ]
    assert list(SCHEMA.items()) == model + data + optim


def readme_config_keys():
    """Keys in the first column of the README's Configuration table, in order."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    return [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]


def test_readme_configuration_lists_exactly_the_schema_keys():
    assert readme_config_keys() == list(SCHEMA)
