import json
import struct
import sys
import time
import warnings

import numpy as np
import pytest

from dmst.analysis import PROFILE_MAX_TOKENS, read_pgm
from dmst.checkpoint import load_checkpoint, save_checkpoint
from dmst.config import SCHEMA
from dmst.cli import (
    ABLATE_HEADER,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    PROFILE_HEADER,
    RATES_HEADER,
    main,
    resolve_seed,
)
from dmst.data import SyntheticDatasetSpec, generate_synthetic, save_token_dataset
from dmst.errors import InvalidInput
from dmst.model import init_params
from dmst.train import METRICS_HEADER
from dmst.verify import Check

CONFIG_TEXT = """
depth = 1
dim = 16
heads = 2
input_dim = 8
num_classes = 2
mlp_ratio = 2.0
data_classes = 2
data_ambient_dim = 8
data_subspace_dim = 2
data_tokens = 6
data_samples_per_class = 16
train_batch_size = 16
epochs = 2
"""


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("conf") / "run.conf"
    path.write_text(CONFIG_TEXT)
    return str(path)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory, config_path):
    out = tmp_path_factory.mktemp("run")
    code = main(["train", "--config", config_path, "--out", str(out), "--seed", "0"])
    assert code == EXIT_OK
    return out


# ---------------------------------------------------------------------------
# seed resolution
# ---------------------------------------------------------------------------


def test_seed_precedence(monkeypatch):
    monkeypatch.delenv("DMST_SEED", raising=False)
    assert resolve_seed(None) == 0
    assert resolve_seed(None, {"seed": 4}) == 4
    monkeypatch.setenv("DMST_SEED", "9")
    assert resolve_seed(None, {"seed": 4}) == 9  # env beats config
    assert resolve_seed(7, {"seed": 4}) == 7  # flag beats env
    monkeypatch.setenv("DMST_SEED", "abc")
    with pytest.raises(InvalidInput):
        resolve_seed(None)


@pytest.mark.parametrize("env,argv", [
    (None, ["--seed", "-1"]),
    ("-3", []),
])
def test_negative_seed_exits_usage_in_one_line(monkeypatch, tmp_path, capsys, env, argv):
    monkeypatch.delenv("DMST_SEED", raising=False)
    if env is not None:
        monkeypatch.setenv("DMST_SEED", env)
    code = main(["train", "--out", str(tmp_path / "out"), "--epochs", "1"] + argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def test_train_writes_metrics_and_checkpoint(run_dir, capsys):
    metrics = (run_dir / "metrics.csv").read_text()
    assert metrics.startswith(METRICS_HEADER + "\n")
    assert len(metrics.splitlines()) == 1 + 2 * 2  # two epochs, two splits
    config, params = load_checkpoint(str(run_dir / "checkpoint.dmst"))
    assert config.depth == 1
    assert config.input_dim == 8
    assert "embed.weight" in params


def test_train_is_deterministic_per_seed(tmp_path, config_path, monkeypatch):
    monkeypatch.delenv("DMST_SEED", raising=False)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["train", "--config", config_path, "--out", str(a), "--seed", "7"]) == EXIT_OK
    assert main(["train", "--config", config_path, "--out", str(b), "--seed", "7"]) == EXIT_OK
    assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()
    assert (a / "checkpoint.dmst").read_bytes() == (b / "checkpoint.dmst").read_bytes()


def test_dmst_seed_env_matches_flag(tmp_path, config_path, monkeypatch):
    monkeypatch.delenv("DMST_SEED", raising=False)
    flagged = tmp_path / "flagged"
    assert main(["train", "--config", config_path, "--out", str(flagged), "--seed", "7"]) == EXIT_OK
    monkeypatch.setenv("DMST_SEED", "7")
    from_env = tmp_path / "env"
    assert main(["train", "--config", config_path, "--out", str(from_env)]) == EXIT_OK
    assert (flagged / "metrics.csv").read_bytes() == (from_env / "metrics.csv").read_bytes()
    assert (flagged / "checkpoint.dmst").read_bytes() == (from_env / "checkpoint.dmst").read_bytes()


def test_seed_flag_sets_the_initial_weights(tmp_path, config_path, monkeypatch):
    monkeypatch.delenv("DMST_SEED", raising=False)
    runs = {}
    for seed in ("0", "7"):
        out = tmp_path / f"seed{seed}"
        argv = ["train", "--config", config_path, "--out", str(out), "--epochs", "0", "--seed", seed]
        assert main(argv) == EXIT_OK
        runs[seed] = out / "checkpoint.dmst"
    assert runs["0"].read_bytes() != runs["7"].read_bytes()
    config, params = load_checkpoint(str(runs["7"]))
    assert config.seed == 7
    expected = init_params(config)  # the payload is float32
    assert all(np.array_equal(params[name], p.data.astype(np.float32))
               for name, p in expected.items())


def test_train_epochs_flag_overrides_config(tmp_path, config_path, capsys):
    out = tmp_path / "zero"
    assert main(
        ["train", "--config", config_path, "--out", str(out), "--seed", "0", "--epochs", "0"]
    ) == EXIT_OK
    assert (out / "metrics.csv").read_text() == METRICS_HEADER + "\n"


@pytest.mark.parametrize("key,value", [
    ("train_batch_size", "0"),
    ("train_batch_size", "-4"),
    ("train_eval_batch", "0"),
    ("train_lr", "nan"),
    ("train_lr", "inf"),
    ("train_lr", "0"),
    ("train_weight_decay", "-1"),
    ("train_weight_decay", "nan"),
    ("train_weight_decay", "inf"),
    ("epochs", "-1"),
])
def test_train_bad_option_exits_usage_in_one_line(tmp_path, capsys, key, value):
    lines = [line for line in CONFIG_TEXT.splitlines() if not line.startswith(key + " ")]
    conf = tmp_path / "bad.conf"
    conf.write_text("\n".join(lines + [f"{key} = {value}"]) + "\n")
    code = main(["train", "--config", str(conf), "--out", str(tmp_path / "out"), "--seed", "0"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def config_text(**changes):
    """``CONFIG_TEXT`` with the given keys set to the given raw values."""
    lines = [line for line in CONFIG_TEXT.splitlines() if line.split(" = ")[0] not in changes]
    return "\n".join(lines + [f"{key} = {value}" for key, value in changes.items()]) + "\n"


HUGE = str(10**12)
SWEEP = (
    [{key: value} for key, kind in SCHEMA.items() if kind is int for value in ("0", "-1", HUGE)]
    + [{key: value} for key, kind in SCHEMA.items() if kind is float
       for value in ("0", "-1", "nan", "inf", HUGE)]
    + [{"depth": HUGE, "dim": "2"}]
)


@pytest.mark.parametrize(
    "changes", SWEEP, ids=lambda changes: "-".join(f"{k}={v}" for k, v in changes.items())
)
def test_config_value_sweep_exits_ok_or_usage_in_one_line(tmp_path, capsys, monkeypatch, changes):
    monkeypatch.delenv("DMST_SEED", raising=False)
    conf = tmp_path / "sweep.conf"
    conf.write_text(config_text(**changes))
    start = time.perf_counter()
    code = main(["train", "--config", str(conf), "--out", str(tmp_path / "out"), "--epochs", "0"])
    elapsed = time.perf_counter() - start
    err = capsys.readouterr().err
    assert code in (EXIT_OK, EXIT_USAGE), err
    if code == EXIT_USAGE:
        assert err.startswith("error: ") and err.count("\n") == 1
    assert elapsed < 1.0


def test_train_default_topk_above_two_heads_still_trains(tmp_path, config_path):
    assert "heads = 2" in CONFIG_TEXT and "topk" not in CONFIG_TEXT  # default topk = 4
    argv = ["train", "--config", config_path, "--out", str(tmp_path / "o"), "--epochs", "1"]
    assert main(argv) == EXIT_OK


def test_train_negative_epochs_flag_exits_usage(tmp_path, config_path, capsys):
    code = main(["train", "--config", config_path, "--out", str(tmp_path / "out"), "--epochs", "-2"])
    assert code == EXIT_USAGE
    assert "epochs must be nonnegative" in capsys.readouterr().err


def test_train_missing_config_exits_usage(tmp_path, capsys):
    missing = str(tmp_path / "nope.conf")
    code = main(["train", "--config", missing, "--out", str(tmp_path / "out")])
    assert code == EXIT_USAGE
    assert "nope.conf" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_config_that_is_not_utf8_exits_usage_in_one_line(tmp_path, capsys, command):
    conf = tmp_path / "bad.conf"
    conf.write_bytes(b"depth = 2\n\xff\xfe = 3\n")
    argv = {
        "train": ["train", "--out", str(tmp_path / "o")],
        "ablate": ["ablate", "--axis", "head", "--activation", "st",
                   "--results", str(tmp_path / "r.csv")],
    }[command]
    code = main(argv + ["--config", str(conf)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == f"error: config file {conf} is not UTF-8 text\n"
    assert not (tmp_path / "o").exists() and not (tmp_path / "r.csv").exists()


def test_train_from_dataset_directory(tmp_path, config_path):
    spec = SyntheticDatasetSpec(
        num_classes=2, ambient_dim=8, subspace_dim=2, tokens_per_sample=6, samples_per_class=16
    )
    data_dir = tmp_path / "data"
    save_token_dataset(str(data_dir), "train", generate_synthetic(spec, 0, "train"))
    save_token_dataset(str(data_dir), "test", generate_synthetic(spec, 0, "test"))
    out = tmp_path / "out"
    code = main(
        ["train", "--config", config_path, "--data", str(data_dir), "--out", str(out), "--seed", "0"]
    )
    assert code == EXIT_OK


def test_train_incomplete_dataset_directory_exits_usage(tmp_path, config_path, capsys):
    spec = SyntheticDatasetSpec(num_classes=2, ambient_dim=8, samples_per_class=4)
    data_dir = tmp_path / "data"
    save_token_dataset(str(data_dir), "train", generate_synthetic(spec, 0, "train"))
    code = main(
        ["train", "--config", config_path, "--data", str(data_dir), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_USAGE
    assert "test.npz" in capsys.readouterr().err


def test_train_token_width_mismatch_exits_mismatch(tmp_path, config_path, capsys):
    spec = SyntheticDatasetSpec(
        num_classes=2, ambient_dim=5, subspace_dim=2, tokens_per_sample=6, samples_per_class=4
    )
    data_dir = tmp_path / "narrow"
    save_token_dataset(str(data_dir), "train", generate_synthetic(spec, 0, "train"))
    save_token_dataset(str(data_dir), "test", generate_synthetic(spec, 0, "test"))
    code = main(
        ["train", "--config", config_path, "--data", str(data_dir), "--out", str(tmp_path / "o")]
    )
    assert code == EXIT_MISMATCH
    assert "input_dim" in capsys.readouterr().err


def dataset_with_label(directory, split, label):
    """A two-class dataset directory whose ``split`` has one sample relabelled ``label``."""
    spec = SyntheticDatasetSpec(
        num_classes=2, ambient_dim=8, subspace_dim=2, tokens_per_sample=6, samples_per_class=4
    )
    for name in ("train", "test"):
        ds = generate_synthetic(spec, 0, name)
        if name == split:
            ds.labels[3] = label
        save_token_dataset(str(directory), name, ds)
    return str(directory)


@pytest.mark.parametrize("label", [-1, 2])
@pytest.mark.parametrize("split", ["train", "test"])
@pytest.mark.parametrize("command", ["train", "ablate"])
def test_train_labels_outside_the_classes_exit_mismatch(
    tmp_path, config_path, capsys, monkeypatch, command, split, label
):
    # Unchecked, a test label of -1 scores the last class and 2 indexes past
    # the end, both at the first evaluation, after an epoch of training.
    def no_training(*args, **kwargs):
        raise AssertionError("trained on a dataset the model cannot score")

    # "dmst.train" as a dotted string names the function the package re-exports
    monkeypatch.setattr(sys.modules["dmst.train"], "init_params", no_training)
    data_dir = dataset_with_label(tmp_path / "labels", split, label)
    argv = {
        "train": ["train", "--out", str(tmp_path / "o")],
        "ablate": ["ablate", "--axis", "head", "--activation", "st",
                   "--results", str(tmp_path / "r.csv")],
    }[command]
    code = main(argv + ["--config", config_path, "--data", data_dir])
    err = capsys.readouterr().err
    assert code == EXIT_MISMATCH
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"labels span {min(label, 0)}..{max(label, 1)}" in err


def test_train_divergence_exits_mismatch(tmp_path, capsys):
    conf = tmp_path / "diverge.conf"
    conf.write_text(
        CONFIG_TEXT.replace("train_batch_size = 16", "train_batch_size = 8")
        + "train_lr = 1e6\ntrain_weight_decay = 0.9\n"
    )
    code = main(
        ["train", "--config", str(conf), "--out", str(tmp_path / "o"), "--seed", "0", "--epochs", "3"]
    )
    assert code == EXIT_MISMATCH
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def test_verify_gradients_suite_passes(tmp_path, capsys):
    report = str(tmp_path / "failures.json")
    code = main(["verify", "--suite", "gradients", "--seed", "0", "--report", report])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[PASS]" in out
    assert "[FAIL]" not in out
    assert "properties passed" in out.splitlines()[-1]
    assert not (tmp_path / "failures.json").exists()


def test_verify_unknown_suite_exits_usage():
    with pytest.raises(SystemExit) as err:
        main(["verify", "--suite", "bogus"])
    assert err.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# rates
# ---------------------------------------------------------------------------


def test_rates_writes_csv(run_dir, tmp_path, capsys):
    csv = tmp_path / "rates.csv"
    code = main(
        ["rates", "--checkpoint", str(run_dir / "checkpoint.dmst"), "--samples", "4",
         "--csv", str(csv), "--seed", "0"]
    )
    assert code == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[0] == RATES_HEADER
    assert len(lines) == 2  # depth 1 checkpoint
    layer, rate = lines[1].split(",")
    assert layer == "0"
    assert np.isfinite(float(rate))


def test_rates_rerun_is_byte_identical(run_dir, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["rates", "--checkpoint", str(run_dir / "checkpoint.dmst"), "--samples", "4", "--seed", "0"]
    assert main(argv + ["--csv", str(a)]) == EXIT_OK
    assert main(argv + ["--csv", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_rates_rejects_nonpositive_samples(run_dir, tmp_path, capsys):
    code = main(
        ["rates", "--checkpoint", str(run_dir / "checkpoint.dmst"), "--samples", "0",
         "--csv", str(tmp_path / "r.csv")]
    )
    assert code == EXIT_USAGE


def test_rates_rejects_garbage_checkpoint(tmp_path, capsys):
    bad = tmp_path / "bad.dmst"
    bad.write_bytes(b"not a checkpoint")
    code = main(["rates", "--checkpoint", str(bad), "--csv", str(tmp_path / "r.csv")])
    assert code == EXIT_USAGE


def rewrite_header(src, dst, mutate):
    """Copy a checkpoint with ``mutate`` applied to its parsed JSON header."""
    blob = src.read_bytes()
    (length,) = struct.unpack_from("<I", blob, 5)
    header = json.loads(blob[9 : 9 + length])
    mutate(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    dst.write_bytes(blob[:5] + struct.pack("<I", len(text)) + text + blob[9 + length :])


def rewrite_config(src, dst, **changes):
    """Copy a checkpoint with its header config keys changed."""
    rewrite_header(src, dst, lambda header: header["config"].update(changes))


@pytest.mark.parametrize(
    "changes",
    [
        {"attention": "gated"},  # an attention kind the package no longer has
        {"attention": "bogus"},
        {"attention": "mhsa"},  # the softmax baseline, which is no attention kind
        {"activation": "tanh"},
        {"colour": "red"},  # an unknown key
        {"heads": 0},
        {"depth": 1.0},  # a float where an integer belongs
        {"use_rope": "no"},  # a truthy string, not a bool
        {"topk": True},
        {"seed": -1},
    ],
    ids=lambda changes: "-".join(f"{k}={v}" for k, v in changes.items()),
)
def test_rates_rejects_bad_checkpoint_config_in_one_line(run_dir, tmp_path, capsys, changes):
    bad = tmp_path / "bad.dmst"
    rewrite_config(run_dir / "checkpoint.dmst", bad, **changes)
    code = main(["rates", "--checkpoint", str(bad), "--csv", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "invalid config" in err


@pytest.mark.parametrize("key", ["patch_size", "image_size", "channels"])
def test_removed_image_keys_exit_usage_in_one_line(run_dir, tmp_path, capsys, key):
    # a checkpoint header and a config file naming a key of the removed image path
    bad = tmp_path / "bad.dmst"
    rewrite_config(run_dir / "checkpoint.dmst", bad, **{key: 4})
    conf = tmp_path / "image.conf"
    conf.write_text(config_text(**{key: "4"}))
    runs = [
        ["rates", "--checkpoint", str(bad), "--csv", str(tmp_path / "r.csv")],
        ["train", "--config", str(conf), "--out", str(tmp_path / "o"), "--epochs", "0"],
    ]
    for argv in runs:
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1
        assert key in err


# The run_dir checkpoint is depth 1, dim 16, input_dim 8: its first tensor is
# embed.weight [8, 16], its second embed.bias [16].
BAD_MANIFESTS = {
    "tensors-not-a-list": (lambda h: h.update(tensors={"embed.weight": [8, 16]}), "must be a list"),
    "entry-not-an-object": (lambda h: h["tensors"].__setitem__(0, "embed.weight"), "not an object"),
    "entry-lacks-name": (lambda h: h["tensors"][0].pop("name"), "lacks name"),
    "entry-lacks-shape": (lambda h: h["tensors"][0].pop("shape"), "lacks shape"),
    "entry-lacks-offset": (lambda h: h["tensors"][0].pop("offset"), "lacks offset"),
    "negative-shape": (lambda h: h["tensors"][1].update(shape=[-16]), "nonnegative integers"),
    "fractional-shape": (lambda h: h["tensors"][1].update(shape=[16.0]), "nonnegative integers"),
    "string-shape": (lambda h: h["tensors"][1].update(shape=["16"]), "nonnegative integers"),
    "renamed-tensor": (lambda h: h["tensors"][1].update(name="embed.offset"), "does not match"),
    "transposed-tensor": (lambda h: h["tensors"][0].update(shape=[16, 8]), "does not match"),
    "depth-too-large": (lambda h: h["config"].update(depth=2), "does not match"),
    "depth-too-small": (lambda h: h["config"].update(depth=0), "does not match"),
    "tensor-dropped": (
        lambda h: h.update(tensors=h["tensors"][:-1]), "payload holds"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
def test_rates_rejects_bad_checkpoint_manifest_in_one_line(run_dir, tmp_path, capsys, case):
    mutate, message = BAD_MANIFESTS[case]
    bad = tmp_path / "bad.dmst"
    rewrite_header(run_dir / "checkpoint.dmst", bad, mutate)
    code = main(["rates", "--checkpoint", str(bad), "--csv", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_rates_rejects_a_flipped_payload_byte_in_one_line(run_dir, tmp_path, capsys):
    blob = bytearray((run_dir / "checkpoint.dmst").read_bytes())
    blob[-3] ^= 0x10  # inside the last float32 of the payload
    bad = tmp_path / "flipped.dmst"
    bad.write_bytes(bytes(blob))
    code = main(["rates", "--checkpoint", str(bad), "--csv", str(tmp_path / "r.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "crc32" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_unreadable_checkpoint_exits_usage_in_one_line(tmp_path, capsys, kind):
    checkpoint = tmp_path / "checkpoint.dmst"
    if kind == "directory":
        checkpoint.mkdir()
    sample = tmp_path / "sample.npy"
    np.save(sample, SAMPLES[0])
    for argv in (
        ["rates", "--checkpoint", str(checkpoint), "--csv", str(tmp_path / "r.csv")],
        ["membership", "--checkpoint", str(checkpoint), "--input", str(sample),
         "--layer", "0", "--out", str(tmp_path / "maps")],
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(checkpoint) in err
    assert not (tmp_path / "r.csv").exists() and not (tmp_path / "maps").exists()


def test_corrupted_checkpoints_through_rates_exit_cleanly(run_dir, tmp_path, capsys):
    # Seeded truncations and byte flips in the header and the payload of the
    # depth-1 checkpoint: every run exits 0, 2 or 3, and a failing run prints
    # exactly one error line. Exit 1 is reserved for failed verify suites.
    blob = (run_dir / "checkpoint.dmst").read_bytes()
    (header_len,) = struct.unpack_from("<I", blob, 5)
    header_end = 9 + header_len
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    save_npz_bytes(data_dir / "test.npz", tokens=SAMPLES, labels=LABELS)
    bad = tmp_path / "bad.dmst"
    rng = np.random.default_rng(11)
    for trial in range(200):
        data = bytearray(blob)
        in_header = trial % 2 == 0
        lo, hi = (0, header_end) if in_header else (header_end, len(blob))
        at = int(rng.integers(lo, hi))
        if trial % 3 == 0:
            data = data[:at]
        else:
            data[at] ^= int(rng.integers(1, 256))
        bad.write_bytes(bytes(data))
        code = main(["rates", "--checkpoint", str(bad), "--data", str(data_dir),
                     "--samples", "1", "--csv", str(tmp_path / "r.csv")])
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_MISMATCH), f"trial {trial}: exit {code}"
        if code != EXIT_OK:
            assert err.startswith("error: ") and err.count("\n") == 1, f"trial {trial}: {err!r}"
        assert in_header or code == EXIT_USAGE, f"trial {trial}: a payload fault went unnoticed"


def test_rates_data_width_mismatch_exits_mismatch(run_dir, tmp_path, capsys):
    spec = SyntheticDatasetSpec(num_classes=2, ambient_dim=5, subspace_dim=2, samples_per_class=4)
    data_dir = tmp_path / "narrow"
    save_token_dataset(str(data_dir), "test", generate_synthetic(spec, 0, "test"))
    code = main(
        ["rates", "--checkpoint", str(run_dir / "checkpoint.dmst"),
         "--data", str(data_dir / "test.npz"), "--csv", str(tmp_path / "r.csv")]
    )
    assert code == EXIT_MISMATCH


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_membership_writes_maps(run_dir, tmp_path, capsys):
    sample = tmp_path / "sample.npy"
    np.save(sample, np.random.default_rng(0).normal(size=(6, 8)))
    out = tmp_path / "maps"
    code = main(
        ["membership", "--checkpoint", str(run_dir / "checkpoint.dmst"),
         "--input", str(sample), "--layer", "0", "--out", str(out)]
    )
    assert code == EXIT_OK
    image = read_pgm(str(out / "head_00.pgm"))
    assert image.shape == (2, 3)  # six tokens on a near-square grid
    assert (out / "head_01.pgm").exists()
    assert (out / "membership.json").exists()


def test_membership_layer_out_of_range_exits_usage(run_dir, tmp_path, capsys):
    sample = tmp_path / "sample.npy"
    np.save(sample, np.zeros((6, 8)))
    code = main(
        ["membership", "--checkpoint", str(run_dir / "checkpoint.dmst"),
         "--input", str(sample), "--layer", "5", "--out", str(tmp_path / "maps")]
    )
    assert code == EXIT_USAGE


def test_membership_npz_input_with_index(run_dir, tmp_path):
    spec = SyntheticDatasetSpec(
        num_classes=2, ambient_dim=8, subspace_dim=2, tokens_per_sample=6, samples_per_class=4
    )
    data_dir = tmp_path / "data"
    save_token_dataset(str(data_dir), "test", generate_synthetic(spec, 0, "test"))
    out = tmp_path / "maps"
    argv = ["membership", "--checkpoint", str(run_dir / "checkpoint.dmst"),
            "--input", str(data_dir / "test.npz"), "--layer", "0", "--out", str(out)]
    assert main(argv + ["--index", "3"]) == EXIT_OK
    assert main(argv + ["--index", "99"]) == EXIT_USAGE


def test_membership_rejects_unknown_input_kind(run_dir, tmp_path, capsys):
    bad = tmp_path / "sample.txt"
    bad.write_text("tokens")
    code = main(
        ["membership", "--checkpoint", str(run_dir / "checkpoint.dmst"),
         "--input", str(bad), "--layer", "0", "--out", str(tmp_path / "maps")]
    )
    assert code == EXIT_USAGE


def save_npz_bytes(path, **arrays):
    # np.savez appends ".npz" to a path that lacks it, so write through a handle
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def truncated_dataset(path):
    save_npz_bytes(path, tokens=np.zeros((4, 6, 8)), labels=np.zeros(4, dtype=np.int64))
    path.write_bytes(path.read_bytes()[:200])


SAMPLES = np.zeros((2, 6, 8))
LABELS = np.zeros(2, dtype=np.int64)


def fractional_labels(path):
    # a valid test split beside it, so only the 1.7 label can fail the run
    save_npz_bytes(path, tokens=SAMPLES, labels=np.array([0.0, 1.7]))
    save_npz_bytes(path.parent / "test.npz", tokens=SAMPLES, labels=LABELS)


def empty_split(path):
    # the other split beside it is valid, so only the empty one can fail the run
    save_npz_bytes(path, tokens=np.zeros((0, 6, 8)), labels=np.zeros(0, dtype=np.int64))
    other = "test.npz" if path.name == "train.npz" else "train.npz"
    save_npz_bytes(path.parent / other, tokens=SAMPLES, labels=LABELS)

# (case, subcommand, file written, writer, extra arguments); each must exit 2 in one line
BAD_ARRAY_FILES = [
    ("garbage-npy", "membership", "s.npy", lambda p: p.write_bytes(b"garbage " * 16), []),
    ("empty-npy", "membership", "s.npy", lambda p: p.write_bytes(b""), []),
    ("object-npy", "membership", "s.npy",
     lambda p: np.save(p, np.array([{}, 1], dtype=object)), []),
    ("string-npy", "membership", "s.npy", lambda p: np.save(p, np.full((6, 8), "a")), []),
    ("missing-npy", "membership", "s.npy", lambda p: None, []),
    ("archive-named-npy", "membership", "s.npy",
     lambda p: save_npz_bytes(p, tokens=SAMPLES), []),
    ("one-axis-npy", "membership", "s.npy", lambda p: np.save(p, np.zeros(8)), []),
    ("index-past-end-npy", "membership", "s.npy", lambda p: np.save(p, SAMPLES),
     ["--index", "5"]),
    ("negative-index-npy", "membership", "s.npy", lambda p: np.save(p, SAMPLES),
     ["--index", "-1"]),
    ("index-on-one-sample-npy", "membership", "s.npy", lambda p: np.save(p, SAMPLES[0]),
     ["--index", "1"]),
    ("negative-index-npz", "membership", "test.npz",
     lambda p: save_npz_bytes(p, tokens=SAMPLES, labels=LABELS), ["--index", "-1"]),
    ("train-npz-not-a-zip", "train", "train.npz",
     lambda p: p.write_bytes(b"PK\x03\x04" + b"\x00" * 64), []),
    ("train-npz-is-text", "train", "train.npz", lambda p: p.write_text("tokens"), []),
    ("train-string-tokens", "train", "train.npz",
     lambda p: save_npz_bytes(p, tokens=np.full((2, 6, 8), "a"), labels=LABELS), []),
    ("train-object-labels", "train", "train.npz",
     lambda p: save_npz_bytes(p, tokens=SAMPLES, labels=np.array([None, 1], dtype=object)), []),
    ("train-fractional-labels", "train", "train.npz", fractional_labels, []),
    ("train-empty-train", "train", "train.npz", empty_split, []),
    ("train-empty-test", "train", "test.npz", empty_split, []),
    ("rates-truncated-npz", "rates", "test.npz", truncated_dataset, []),
    ("rates-empty-test", "rates", "test.npz", empty_split, []),
]


@pytest.mark.parametrize(
    "subcommand,filename,write,extra",
    [case[1:] for case in BAD_ARRAY_FILES],
    ids=[case[0] for case in BAD_ARRAY_FILES],
)
def test_bad_array_files_exit_usage_in_one_line(
    run_dir, config_path, tmp_path, capsys, subcommand, filename, write, extra
):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    path = data_dir / filename
    write(path)
    checkpoint = str(run_dir / "checkpoint.dmst")
    out = str(tmp_path / "out")
    argv = {
        "membership": ["membership", "--checkpoint", checkpoint, "--input", str(path),
                       "--layer", "0", "--out", out],
        "train": ["train", "--config", config_path, "--data", str(data_dir), "--out", out],
        "rates": ["rates", "--checkpoint", checkpoint, "--data", str(data_dir),
                  "--csv", str(tmp_path / "r.csv")],
    }[subcommand]
    code = main(argv + extra)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists() and not (tmp_path / "r.csv").exists()


def test_membership_reads_every_index_of_a_sample_stack(run_dir, tmp_path):
    def maps(input_path, out, *extra):
        argv = ["membership", "--checkpoint", str(run_dir / "checkpoint.dmst"),
                "--input", str(input_path), "--layer", "0", "--out", str(out), *extra]
        assert main(argv) == EXIT_OK
        return (out / "membership.json").read_text()

    samples = np.random.default_rng(1).normal(size=(2, 6, 8))
    np.save(tmp_path / "stack.npy", samples)
    for index in (0, 1):
        single = tmp_path / f"single{index}.npy"
        np.save(single, samples[index])
        from_stack = maps(tmp_path / "stack.npy", tmp_path / f"stack{index}", "--index", str(index))
        assert from_stack == maps(single, tmp_path / f"single{index}")


# ---------------------------------------------------------------------------
# profile
# ---------------------------------------------------------------------------


def test_profile_writes_csv(tmp_path, capsys):
    csv = tmp_path / "profile.csv"
    code = main(["profile", "--op", "dmsa", "--tokens", "64,128", "--csv", str(csv)])
    assert code == EXIT_OK
    lines = csv.read_text().splitlines()
    assert lines[0] == PROFILE_HEADER
    assert len(lines) == 3
    op, tokens, peak = lines[1].split(",")
    assert (op, tokens) == ("dmsa", "64")
    assert int(peak) > 0


def test_profile_rejects_bad_token_list(tmp_path, capsys):
    code = main(["profile", "--op", "dmsa", "--tokens", "64,abc", "--csv", str(tmp_path / "p.csv")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("op", ["dmsa", "tssa", "mhsa"])
def test_profile_rejects_zero_heads_in_one_line(tmp_path, capsys, op):
    code = main(
        ["profile", "--op", op, "--tokens", "8", "--heads", "0", "--csv", str(tmp_path / "p.csv")]
    )
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("dim", ["0", "-8"])
@pytest.mark.parametrize("op", ["dmsa", "tssa", "mhsa"])
def test_profile_rejects_nonpositive_dim_in_one_line(tmp_path, capsys, op, dim):
    argv = ["profile", "--op", op, "--tokens", "8", "--dim", dim, "--csv", str(tmp_path / "p.csv")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning would be a second stderr line
        code = main(argv)
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "p.csv").exists()


@pytest.mark.parametrize("op", ["dmsa", "tssa", "mhsa"])
def test_profile_rejects_token_counts_above_the_cap_in_one_line(tmp_path, capsys, op):
    assert PROFILE_MAX_TOKENS >= 8192  # the memory gate's largest count stays admitted
    tokens = f"64,{PROFILE_MAX_TOKENS + 1}"
    code = main(["profile", "--op", op, "--tokens", tokens, "--csv", str(tmp_path / "p.csv")])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(PROFILE_MAX_TOKENS) in err
    assert not (tmp_path / "p.csv").exists()


def test_profile_rejects_unknown_op(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["profile", "--op", "flash", "--tokens", "64", "--csv", str(tmp_path / "p.csv")])
    assert err.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# ablate
# ---------------------------------------------------------------------------


def test_ablate_appends_schema_and_rows(tmp_path, config_path, capsys):
    results = tmp_path / "ablate.csv"
    base = ["ablate", "--config", config_path, "--results", str(results),
            "--seed", "0", "--epochs", "1"]
    assert main(base + ["--axis", "token", "--activation", "st"]) == EXIT_OK
    assert main(base + ["--axis", "head", "--activation", "sigmoid"]) == EXIT_OK
    lines = results.read_text().splitlines()
    assert lines[0] == ABLATE_HEADER
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[:4] == ["token", "st", "1", "0"]
    assert np.isfinite(float(first[4]))
    assert np.isfinite(float(first[5]))


def test_ablate_rejects_unknown_axis(tmp_path, config_path):
    with pytest.raises(SystemExit) as err:
        main(["ablate", "--axis", "channel", "--activation", "st",
              "--config", config_path, "--results", str(tmp_path / "r.csv")])
    assert err.value.code == EXIT_USAGE


# ---------------------------------------------------------------------------
# unwritable output paths
# ---------------------------------------------------------------------------


def assert_cannot_write(code, capsys, path):
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: cannot write ") and err.count("\n") == 1
    assert str(path) in err


def a_file(tmp_path):
    """A regular file, so any path below it cannot be created."""
    path = tmp_path / "file"
    path.write_text("")
    return path


def test_train_unwritable_out_exits_usage_before_training(
    tmp_path, config_path, capsys, monkeypatch
):
    def no_training(*args, **kwargs):
        raise AssertionError("trained despite an unwritable --out")

    monkeypatch.setattr("dmst.cli.train", no_training)
    out = a_file(tmp_path) / "x"
    code = main(["train", "--config", config_path, "--out", str(out), "--seed", "0"])
    assert_cannot_write(code, capsys, out)


def test_verify_unwritable_report_exits_usage(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(
        "dmst.cli.run_suite", lambda suite, seed: [Check("rates", "always-fails", False, 1)]
    )
    report = tmp_path / "missing" / "failures.json"
    code = main(["verify", "--suite", "rates", "--seed", "0", "--report", str(report)])
    assert_cannot_write(code, capsys, report)


def test_rates_unwritable_csv_exits_usage(run_dir, tmp_path, capsys):
    csv = tmp_path / "missing" / "r.csv"
    code = main(["rates", "--checkpoint", str(run_dir / "checkpoint.dmst"), "--samples", "4",
                 "--csv", str(csv)])
    assert_cannot_write(code, capsys, csv)


def test_membership_unwritable_out_exits_usage(run_dir, tmp_path, capsys):
    sample = tmp_path / "sample.npy"
    np.save(sample, np.zeros((6, 8)))
    out = a_file(tmp_path) / "maps"
    code = main(["membership", "--checkpoint", str(run_dir / "checkpoint.dmst"),
                 "--input", str(sample), "--layer", "0", "--out", str(out)])
    assert_cannot_write(code, capsys, out)


def test_profile_unwritable_csv_exits_usage(tmp_path, capsys):
    csv = tmp_path / "missing" / "p.csv"
    code = main(["profile", "--op", "dmsa", "--tokens", "8", "--csv", str(csv)])
    assert_cannot_write(code, capsys, csv)


def test_ablate_unwritable_results_exits_usage(tmp_path, config_path, capsys, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("trained despite an unwritable --results")

    monkeypatch.setattr("dmst.cli.train", no_training)
    results = tmp_path / "missing" / "a.csv"
    code = main(["ablate", "--axis", "token", "--activation", "st", "--config", config_path,
                 "--results", str(results), "--seed", "0", "--epochs", "0"])
    assert_cannot_write(code, capsys, results)


@pytest.mark.parametrize("op", ["dmsa", "mhsa"])
def test_profile_rejects_a_huge_dim_before_drawing(tmp_path, capsys, op):
    csv = tmp_path / "p.csv"
    code = main(["profile", "--op", op, "--tokens", "8", "--dim", "1000000", "--csv", str(csv)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not csv.exists()


# ---------------------------------------------------------------------------
# finite inputs too large for the model
# ---------------------------------------------------------------------------

HUGE_TOKENS = np.full((4, 6, 8), 1e308)  # finite, but their squares overflow


@pytest.mark.parametrize("subcommand,code", [
    ("membership", EXIT_USAGE),
    ("rates", EXIT_MISMATCH),
    ("train", EXIT_MISMATCH),
])
def test_huge_finite_inputs_exit_like_non_finite_ones(
    run_dir, config_path, tmp_path, capsys, subcommand, code
):
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    labels = np.array([0, 1, 0, 1])
    for split in ("train", "test"):
        save_npz_bytes(data_dir / f"{split}.npz", tokens=HUGE_TOKENS, labels=labels)
    np.save(data_dir / "s.npy", HUGE_TOKENS[0])
    checkpoint = str(run_dir / "checkpoint.dmst")
    argv = {
        "membership": ["membership", "--checkpoint", checkpoint, "--input",
                       str(data_dir / "s.npy"), "--layer", "0", "--out", str(tmp_path / "maps")],
        "rates": ["rates", "--checkpoint", checkpoint, "--data", str(data_dir),
                  "--csv", str(tmp_path / "r.csv")],
        "train": ["train", "--config", config_path, "--data", str(data_dir),
                  "--out", str(tmp_path / "run")],
    }[subcommand]
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err == "error: inputs contain a token whose squared norm overflows\n"
    assert not (tmp_path / "maps").exists() and not (tmp_path / "r.csv").exists()


def test_stream_overflowing_layer_norm_exits_mismatch_in_one_line(run_dir, tmp_path, capsys):
    # every token's squared norm is finite, but the scaled embedding carries
    # the stream past ~1e154, where LayerNorm's variance overflows; unchecked,
    # every token would be normed to the shift and the maps would read 0.5
    config, params = load_checkpoint(str(run_dir / "checkpoint.dmst"))
    params["embed.weight"] = params["embed.weight"] * 1e4
    checkpoint = tmp_path / "scaled.dmst"
    save_checkpoint(str(checkpoint), config, params)
    sample = tmp_path / "s.npy"
    np.save(sample, np.full((6, config.input_dim), 1e152))
    code = main(["membership", "--checkpoint", str(checkpoint), "--input", str(sample),
                 "--layer", "0", "--out", str(tmp_path / "maps")])
    assert code == EXIT_MISMATCH
    assert capsys.readouterr().err == "error: blocks.0.norm1: LayerNorm variance overflows\n"
    assert not (tmp_path / "maps").exists()
