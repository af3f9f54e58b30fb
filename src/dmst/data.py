"""Synthetic union-of-subspaces token datasets and the nearest-subspace oracle.

Each class owns a random orthonormal basis; every sample is a bag of tokens
``U_c a + sigma w`` drawn from that class's subspace plus isotropic noise.
The oracle classifier projects a sample's tokens onto every class basis and
picks the class with the largest total projection energy; its accuracy
certifies that the dataset is separable before any model trains on it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import DataMismatch, FormatError, InvalidInput, check_int, check_real
from .rng import orthonormal_basis, stream


# Most floats one split's tokens and class bases may take: 200 MB as float64.
MAX_DATASET_FLOATS = 25_000_000


@dataclass(frozen=True)
class SyntheticDatasetSpec:
    """Geometry of the sampled dataset; bad values raise ``InvalidInput``."""

    num_classes: int = 4
    ambient_dim: int = 32
    subspace_dim: int = 4
    noise_sigma: float = 0.05
    tokens_per_sample: int = 16
    samples_per_class: int = 128

    def __post_init__(self) -> None:
        for name in ("num_classes", "ambient_dim", "subspace_dim", "tokens_per_sample",
                     "samples_per_class"):
            check_int(name, getattr(self, name), 1)
        if self.subspace_dim > self.ambient_dim:
            raise InvalidInput(
                f"subspace_dim {self.subspace_dim} must lie in [1, {self.ambient_dim}]"
            )
        check_real("noise_sigma", self.noise_sigma, 0.0)
        floats = self.num_classes * self.ambient_dim * (
            self.samples_per_class * self.tokens_per_sample + self.subspace_dim
        )
        if floats > MAX_DATASET_FLOATS:
            raise InvalidInput(
                f"dataset split needs {floats} floats, more than the cap of {MAX_DATASET_FLOATS}"
            )


@dataclass(frozen=True)
class TokenDataset:
    """Sampled tokens ``(N, n, d)``, integer labels ``(N,)``, and the true bases."""

    tokens: np.ndarray
    labels: np.ndarray
    bases: np.ndarray  # (num_classes, ambient_dim, subspace_dim)

    @property
    def size(self) -> int:
        return self.tokens.shape[0]

    def check_fits(self, input_dim: int, num_classes: int, split: str) -> None:
        """Raise ``DataMismatch`` naming ``split`` unless a model of this shape can score it.

        The split needs a sample, tokens in each, ``input_dim`` wide, and one
        label per sample in ``[0, num_classes)``: unchecked, a label of -1 would
        score the last class and one of ``num_classes`` would index past the logits.
        """
        if self.size == 0:
            raise DataMismatch(f"{split} split holds no samples")
        if self.tokens.shape[1] == 0:
            raise DataMismatch(f"{split} split samples hold no tokens")
        if self.labels.shape != (self.size,):
            raise DataMismatch(
                f"{split} split has labels of shape {self.labels.shape} for {self.size} samples"
            )
        width = self.tokens.shape[-1]
        if width != input_dim:
            raise DataMismatch(
                f"{split} split token width {width} does not match model input_dim {input_dim}"
            )
        lo, hi = int(self.labels.min()), int(self.labels.max())
        if lo < 0 or hi >= num_classes:
            raise DataMismatch(
                f"{split} split labels span {lo}..{hi}, outside 0..{num_classes - 1}"
            )


def generate_synthetic(spec: SyntheticDatasetSpec, seed: int, split: str = "train") -> TokenDataset:
    """Draw a dataset deterministically from ``(seed, split)``.

    The class bases depend on the seed only, so different splits of the same
    seed share geometry while their token draws never overlap.
    """
    basis_rng = stream(seed, "data-bases")
    bases = np.stack(
        [orthonormal_basis(basis_rng, spec.ambient_dim, spec.subspace_dim)
         for _ in range(spec.num_classes)]
    )
    draw_rng = stream(seed, f"data-tokens-{split}")
    N = spec.num_classes * spec.samples_per_class
    tokens = np.empty((N, spec.tokens_per_sample, spec.ambient_dim))
    labels = np.empty(N, dtype=np.int64)
    idx = 0
    for c in range(spec.num_classes):
        for _ in range(spec.samples_per_class):
            coeffs = draw_rng.normal(size=(spec.subspace_dim, spec.tokens_per_sample))
            noise = draw_rng.normal(size=(spec.ambient_dim, spec.tokens_per_sample))
            sample = bases[c] @ coeffs + spec.noise_sigma * noise
            tokens[idx] = sample.T
            labels[idx] = c
            idx += 1
    return TokenDataset(tokens=tokens, labels=labels, bases=bases)


def nearest_subspace_predict(tokens: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Oracle labels: per sample, the basis capturing the most projection energy."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 3:
        raise InvalidInput(f"tokens must be (N, n, d), got ndim={tokens.ndim}")
    # energy[c, s] = sum over tokens and directions of squared projections
    energy = np.stack([np.sum((tokens @ U) ** 2, axis=(1, 2)) for U in bases])
    return np.argmax(energy, axis=0)


def nearest_subspace_accuracy(ds: TokenDataset) -> float:
    """Accuracy of the nearest-subspace oracle on its own dataset."""
    pred = nearest_subspace_predict(ds.tokens, ds.bases)
    return float(np.mean(pred == ds.labels))


def load_array_file(path: str) -> dict[str, np.ndarray]:
    """Read every array of a ``.npy`` or ``.npz`` file into memory.

    A path ending in ``.npy`` must hold one array, returned under the key
    ``"arr_0"``; any other path must be an ``.npz`` archive. A missing or
    unreadable file, a mismatch between extension and contents, and an array
    whose dtype is not boolean, integer or float each raise a one-line
    ``FormatError`` that names the file. Pickled data is never loaded.
    """
    if not os.path.isfile(path):
        raise FormatError(f"array file not found: {path}")
    # On malformed bytes np.load raises OSError, ValueError, EOFError, zipfile
    # and zlib errors, RuntimeError and tokenize errors among others; each one
    # means the file is not a readable array file.
    try:
        with open(path, "rb") as fh:
            loaded = np.load(fh, allow_pickle=False)
            arrays = {"arr_0": loaded} if isinstance(loaded, np.ndarray) else dict(loaded)
    except Exception as exc:
        reason = " ".join(str(exc).split()) or type(exc).__name__
        raise FormatError(f"cannot read {path} as a numpy array file: {reason}") from None
    if isinstance(loaded, np.ndarray) != path.endswith(".npy"):
        kind = "one array" if path.endswith(".npy") else "an .npz archive"
        raise FormatError(f"{path} does not hold {kind}")
    for name, array in arrays.items():
        if array.dtype.kind not in "biuf":
            raise FormatError(f"{path}: array {name!r} has non-numeric dtype {array.dtype}")
    return arrays


def load_token_dataset(directory: str, split: str) -> TokenDataset:
    """Load ``<split>.npz`` with arrays ``tokens`` (N, n, d) and ``labels`` (N,).

    An optional ``bases`` array enables the oracle; otherwise it is stored
    as an empty array and oracle queries are invalid. Labels must be finite
    whole numbers within the int64 range, of any numeric dtype; 1.7 is a
    ``FormatError``, never class 1. A split needs at least one sample.
    """
    path = os.path.join(directory, f"{split}.npz")
    arrays = load_array_file(path)
    if "tokens" not in arrays or "labels" not in arrays:
        raise FormatError(f"{path} must contain 'tokens' and 'labels' arrays")
    tokens = np.asarray(arrays["tokens"], dtype=np.float64)
    labels = _integral_labels(path, arrays["labels"])
    bases = np.asarray(arrays.get("bases", np.empty((0, 0, 0))), dtype=np.float64)
    if tokens.ndim != 3 or labels.shape != (tokens.shape[0],):
        raise FormatError(f"{path} arrays have inconsistent shapes")
    if tokens.shape[0] == 0:
        raise FormatError(f"{path} holds no samples")
    return TokenDataset(tokens=tokens, labels=labels, bases=bases)


def _integral_labels(path: str, raw: np.ndarray) -> np.ndarray:
    """``raw`` as int64, which must hold every label exactly."""
    with np.errstate(invalid="ignore"):
        labels = raw.astype(np.int64)
    if not (np.all(np.isfinite(raw)) and np.array_equal(labels, raw)):
        raise FormatError(f"{path}: labels must be finite whole numbers within the int64 range")
    return labels


def save_token_dataset(directory: str, split: str, ds: TokenDataset) -> str:
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{split}.npz")
    np.savez(path, tokens=ds.tokens, labels=ds.labels, bases=ds.bases)
    return path
