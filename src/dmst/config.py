"""Flat ``key = value`` run configuration.

One UTF-8 text file configures a run: model architecture, synthetic data
geometry (``data_`` prefix), and optimizer settings (``train_`` prefix).
Lines starting with ``#`` and blank lines are skipped; inline ``#`` starts a
comment. Unknown keys are rejected so typos fail loudly instead of silently
training the default.

Each key is a field of :class:`ModelConfig`, :class:`SyntheticDatasetSpec`
or :class:`TrainOptions`, named by its section's prefix and the field name,
and typed by the field's type hint (an enum field takes its string value);
``epochs`` is the one key outside them. Range checks live in the dataclasses.
"""

from __future__ import annotations

import os
from dataclasses import fields
from enum import Enum
from typing import get_type_hints

from .data import SyntheticDatasetSpec
from .errors import InvalidInput
from .model import ModelConfig
from .train import TrainOptions

_SECTIONS = ((ModelConfig, ""), (SyntheticDatasetSpec, "data_"), (TrainOptions, "train_"))

# Keys shorter than their section prefix plus field name.
_SHORT_KEYS = {"data_num_classes": "data_classes", "data_tokens_per_sample": "data_tokens"}

# key -> (dataclass, field name)
_FIELDS = {
    _SHORT_KEYS.get(prefix + f.name, prefix + f.name): (cls, f.name)
    for cls, prefix in _SECTIONS
    for f in fields(cls)
}


def _key_type(cls: type, name: str) -> type:
    hint = get_type_hints(cls)[name]
    return str if issubclass(hint, Enum) else hint


SCHEMA = {key: _key_type(cls, name) for key, (cls, name) in _FIELDS.items()} | {"epochs": int}

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
    """Read and parse a config file; a missing or non-UTF-8 file names the path."""
    if not os.path.isfile(path):
        raise InvalidInput(f"config file not found: {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise InvalidInput(f"config file {path} is not UTF-8 text") from None
    return parse_config_text(text)


def build_section(cls: type, values: dict):
    """``cls`` from the parsed values of its keys, defaults for the rest."""
    return cls(**{name: values[key] for key, (owner, name) in _FIELDS.items()
                  if owner is cls and key in values})
