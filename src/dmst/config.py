"""Flat ``key = value`` run configuration.

One UTF-8 text file configures a run: model architecture, synthetic data
geometry (``data_`` prefix), and optimizer settings (``train_`` prefix).
Lines starting with ``#`` and blank lines are skipped; inline ``#`` starts a
comment. Unknown keys are rejected so typos fail loudly instead of silently
training the default.
"""

from __future__ import annotations

import os

from .data import SyntheticDatasetSpec
from .errors import InvalidInput
from .model import ModelConfig, config_from_dict
from .train import TrainOptions

_MODEL_KEYS = {
    "depth": int,
    "dim": int,
    "heads": int,
    "mlp_ratio": float,
    "patch_size": int,
    "image_size": int,
    "channels": int,
    "num_classes": int,
    "input_dim": int,
    "attention": str,
    "sparsity_axis": str,
    "topk": int,
    "activation": str,
    "use_rope": bool,
    "max_tokens": int,
    "seed": int,
}

_DATA_KEYS = {
    "data_classes": int,
    "data_ambient_dim": int,
    "data_subspace_dim": int,
    "data_noise_sigma": float,
    "data_tokens": int,
    "data_samples_per_class": int,
}

_TRAIN_KEYS = {
    "train_lr": float,
    "train_weight_decay": float,
    "train_batch_size": int,
    "train_eval_batch": int,
    "epochs": int,
}

SCHEMA = {**_MODEL_KEYS, **_DATA_KEYS, **_TRAIN_KEYS}

_BOOL_WORDS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(key: str, raw: str):
    kind = SCHEMA[key]
    try:
        if kind is bool:
            word = raw.lower()
            if word not in _BOOL_WORDS:
                raise ValueError(raw)
            return _BOOL_WORDS[word]
        return kind(raw)
    except ValueError:
        raise InvalidInput(f"config key {key!r} expects {kind.__name__}, got {raw!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse flat ``key = value`` text into a typed dict."""
    values: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise InvalidInput(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, raw = body.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in SCHEMA:
            raise InvalidInput(f"line {lineno}: unknown config key {key!r}")
        if key in values:
            raise InvalidInput(f"line {lineno}: duplicate config key {key!r}")
        values[key] = _coerce(key, raw)
    return values


def load_config(path: str) -> dict:
    """Read and parse a config file; a missing file names the path."""
    if not os.path.isfile(path):
        raise InvalidInput(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def model_config_from(values: dict) -> ModelConfig:
    """Build the model configuration from parsed values."""
    return config_from_dict({key: values[key] for key in _MODEL_KEYS if key in values})


def dataset_spec_from(values: dict) -> SyntheticDatasetSpec:
    """Build the synthetic data geometry from parsed values."""
    mapping = {
        "data_classes": "num_classes",
        "data_ambient_dim": "ambient_dim",
        "data_subspace_dim": "subspace_dim",
        "data_noise_sigma": "noise_sigma",
        "data_tokens": "tokens_per_sample",
        "data_samples_per_class": "samples_per_class",
    }
    kwargs = {field: values[key] for key, field in mapping.items() if key in values}
    return SyntheticDatasetSpec(**kwargs)


def train_options_from(values: dict) -> TrainOptions:
    """Build optimizer settings from parsed values."""
    mapping = {
        "train_lr": "lr",
        "train_weight_decay": "weight_decay",
        "train_batch_size": "batch_size",
        "train_eval_batch": "eval_batch",
    }
    kwargs = {field: values[key] for key, field in mapping.items() if key in values}
    return TrainOptions(**kwargs)
