import io

import numpy as np
import pytest

from dmst.data import (
    MAX_DATASET_FLOATS,
    SyntheticDatasetSpec,
    TokenDataset,
    generate_synthetic,
    load_array_file,
    load_token_dataset,
    nearest_subspace_accuracy,
    nearest_subspace_predict,
    save_token_dataset,
)
from dmst.errors import FormatError, InvalidInput


def test_spec_validation():
    with pytest.raises(InvalidInput):
        SyntheticDatasetSpec(num_classes=0)
    with pytest.raises(InvalidInput):
        SyntheticDatasetSpec(subspace_dim=0)
    with pytest.raises(InvalidInput):
        SyntheticDatasetSpec(subspace_dim=33, ambient_dim=32)
    with pytest.raises(InvalidInput):
        SyntheticDatasetSpec(noise_sigma=-0.1)
    with pytest.raises(InvalidInput):
        SyntheticDatasetSpec(tokens_per_sample=0)


@pytest.mark.parametrize(
    "kwargs",
    [{"noise_sigma": float("nan")}, {"noise_sigma": float("inf")}, {"num_classes": 2.0},
     {"samples_per_class": True}, {"ambient_dim": -1}],
    ids=repr,
)
def test_spec_rejects_each_bad_field(kwargs):
    with pytest.raises(InvalidInput):
        SyntheticDatasetSpec(**kwargs)


def test_spec_caps_the_split_size():
    # 4 classes x 32 dims x (128 samples x 16 tokens + 4 basis columns) at the defaults
    assert 4 * 32 * (128 * 16 + 4) <= MAX_DATASET_FLOATS
    with pytest.raises(InvalidInput, match=str(MAX_DATASET_FLOATS)):
        SyntheticDatasetSpec(num_classes=10**12)
    with pytest.raises(InvalidInput, match=str(MAX_DATASET_FLOATS)):
        SyntheticDatasetSpec(ambient_dim=10**7, subspace_dim=10**7, tokens_per_sample=1,
                             samples_per_class=1, num_classes=1)


def test_generation_is_deterministic_per_seed_and_split():
    spec = SyntheticDatasetSpec(samples_per_class=4, tokens_per_sample=5)
    a = generate_synthetic(spec, seed=7, split="train")
    b = generate_synthetic(spec, seed=7, split="train")
    assert np.array_equal(a.tokens, b.tokens)
    assert np.array_equal(a.labels, b.labels)
    assert np.array_equal(a.bases, b.bases)

    other_seed = generate_synthetic(spec, seed=8, split="train")
    assert not np.array_equal(a.tokens, other_seed.tokens)
    assert not np.array_equal(a.bases, other_seed.bases)


def test_splits_share_geometry_but_not_draws():
    spec = SyntheticDatasetSpec(samples_per_class=4)
    train = generate_synthetic(spec, seed=3, split="train")
    test = generate_synthetic(spec, seed=3, split="test")
    assert np.array_equal(train.bases, test.bases)
    assert not np.array_equal(train.tokens, test.tokens)


def test_shapes_and_label_blocks():
    spec = SyntheticDatasetSpec(num_classes=3, samples_per_class=5, tokens_per_sample=7, ambient_dim=16)
    ds = generate_synthetic(spec, seed=0)
    assert ds.tokens.shape == (15, 7, 16)
    assert ds.labels.shape == (15,)
    assert ds.size == 15
    assert np.array_equal(ds.labels, np.repeat(np.arange(3), 5))
    assert ds.bases.shape == (3, 16, spec.subspace_dim)


def test_zero_noise_tokens_lie_in_their_subspace():
    spec = SyntheticDatasetSpec(noise_sigma=0.0, samples_per_class=3, subspace_dim=4)
    ds = generate_synthetic(spec, seed=1)
    for tokens, label in zip(ds.tokens, ds.labels):
        U = ds.bases[label]
        residual = tokens.T - U @ (U.T @ tokens.T)
        assert np.max(np.abs(residual)) < 1e-12
        # rank cannot exceed the subspace dimension
        svals = np.linalg.svd(tokens, compute_uv=False)
        assert np.all(svals[spec.subspace_dim :] < 1e-12)


def test_oracle_is_perfect_without_noise():
    spec = SyntheticDatasetSpec(noise_sigma=0.0, samples_per_class=8)
    assert nearest_subspace_accuracy(generate_synthetic(spec, seed=2)) == 1.0


def test_oracle_separates_default_noise_level():
    ds = generate_synthetic(SyntheticDatasetSpec(), seed=0)
    assert nearest_subspace_accuracy(ds) >= 0.99


def test_oracle_rejects_bad_token_shape():
    with pytest.raises(InvalidInput):
        nearest_subspace_predict(np.zeros((4, 5)), np.zeros((2, 5, 2)))


def test_save_load_round_trip(tmp_path):
    spec = SyntheticDatasetSpec(samples_per_class=3, tokens_per_sample=4)
    ds = generate_synthetic(spec, seed=5)
    save_token_dataset(str(tmp_path), "train", ds)
    loaded = load_token_dataset(str(tmp_path), "train")
    assert np.array_equal(loaded.tokens, ds.tokens)
    assert np.array_equal(loaded.labels, ds.labels)
    assert np.array_equal(loaded.bases, ds.bases)


def test_load_missing_file_is_format_error(tmp_path):
    with pytest.raises(FormatError):
        load_token_dataset(str(tmp_path), "train")


def test_load_rejects_missing_arrays(tmp_path):
    np.savez(tmp_path / "train.npz", tokens=np.zeros((2, 3, 4)))
    with pytest.raises(FormatError):
        load_token_dataset(str(tmp_path), "train")


def test_load_rejects_inconsistent_shapes(tmp_path):
    np.savez(tmp_path / "test.npz", tokens=np.zeros((2, 3, 4)), labels=np.zeros(3, dtype=np.int64))
    with pytest.raises(FormatError):
        load_token_dataset(str(tmp_path), "test")


def test_whole_float_and_bool_labels_load_as_int64(tmp_path):
    for labels, expected in (([0.0, 2.0], [0, 2]), ([False, True], [0, 1])):
        np.savez(tmp_path / "train.npz", tokens=np.zeros((2, 3, 4)), labels=np.array(labels))
        loaded = load_token_dataset(str(tmp_path), "train").labels
        assert loaded.dtype == np.int64 and loaded.tolist() == expected


@pytest.mark.parametrize(
    "bad",
    [1.7, 0.5, np.nan, np.inf, 1e30, np.uint64(2**63 + 1)],
    ids=["1.7", "0.5", "nan", "inf", "1e30", "uint64-past-int64"],
)
def test_fractional_or_non_finite_labels_are_rejected(tmp_path, bad):
    path = tmp_path / "train.npz"
    np.savez(path, tokens=np.zeros((2, 3, 4)), labels=np.array([0, bad], dtype=np.asarray(bad).dtype))
    with pytest.raises(FormatError, match="whole numbers") as info:
        load_token_dataset(str(tmp_path), "train")
    assert str(path) in str(info.value) and "\n" not in str(info.value)


def test_dataset_without_bases_loads_with_empty_oracle(tmp_path):
    np.savez(tmp_path / "eval.npz", tokens=np.zeros((2, 3, 4)), labels=np.zeros(2, dtype=np.int64))
    ds = load_token_dataset(str(tmp_path), "eval")
    assert isinstance(ds, TokenDataset)
    assert ds.bases.size == 0


@pytest.mark.parametrize("kind", ["npy", "npz", "compressed-npz"])
def test_corrupted_array_files_load_or_raise_one_line_format_error(tmp_path, kind):
    # truncations and byte flips of a valid file; numpy raises many exception
    # types on such bytes, and every one must surface as a FormatError
    rng = np.random.default_rng(4)
    tokens = rng.normal(size=(4, 6, 8))
    buf = io.BytesIO()
    if kind == "npy":
        np.save(buf, tokens)
    else:
        save = np.savez if kind == "npz" else np.savez_compressed
        save(buf, tokens=tokens, labels=np.arange(4))
    raw = buf.getvalue()
    path = tmp_path / f"data.{kind[-3:]}"
    for trial in range(200):
        data = bytearray(raw)
        if trial % 3 == 0:
            data = data[: int(rng.integers(len(data)))]
        else:
            data[int(rng.integers(len(data)))] ^= int(rng.integers(1, 256))
        path.write_bytes(bytes(data))
        try:
            load_array_file(str(path))
        except FormatError as exc:
            assert str(path) in str(exc) and "\n" not in str(exc)
