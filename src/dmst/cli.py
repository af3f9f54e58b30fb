"""Command-line interface.

Subcommands: ``train``, ``verify``, ``rates``, ``membership``, ``profile``,
``ablate``. Exit codes: 0 on success, 1 when a verify suite fails, 2 for
configuration or usage errors, 3 for numerical divergence or a checkpoint,
config, or data mismatch. The library decides what a data mismatch is
(:meth:`dmst.data.TokenDataset.check_fits`); the CLI only maps it to exit
3. The seed resolves in order: ``--seed`` flag, the ``DMST_SEED``
environment variable, the ``seed`` config key, then 0.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import autodiff as ad
from .analysis import (
    PROFILE_MAX_TOKENS,
    PROFILE_OPS,
    layer_rate_curve,
    membership_map,
    profile_attention_memory,
    write_membership_artifacts,
)
from .checkpoint import load_checkpoint, save_checkpoint
from .config import build_section, load_config
from .data import (
    SyntheticDatasetSpec,
    TokenDataset,
    generate_synthetic,
    load_array_file,
    load_token_dataset,
)
from .errors import DmstError, FormatError, InvalidInput, NumericalFault
from .model import ModelConfig
from .sparsify import SPARSITY_AXES, ActivationKind
from .train import TrainOptions, TrainResult, train, write_metrics
from .verify import SUITES, run_suite, write_failure_report

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_MISMATCH = 3

RATES_HEADER = "layer,rate"
PROFILE_HEADER = "op,tokens,peak_floats"
ABLATE_HEADER = "axis,activation,epochs,seed,train_loss,test_accuracy"


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _cannot_write(path: str, exc: OSError) -> int:
    return _fail(EXIT_USAGE, f"cannot write {exc.filename or path}: {exc.strerror or exc}")


def resolve_seed(flag: int | None, config_values: dict | None = None) -> int:
    """Seed precedence: explicit flag, ``DMST_SEED``, config key, 0; it must be nonnegative."""
    env = os.environ.get("DMST_SEED")
    if flag is not None:
        seed = flag
    elif env is not None:
        try:
            seed = int(env)
        except ValueError:
            raise InvalidInput(f"DMST_SEED must be an integer, got {env!r}") from None
    elif config_values and "seed" in config_values:
        seed = int(config_values["seed"])
    else:
        seed = 0
    if seed < 0:
        raise InvalidInput(f"seed must be nonnegative, got {seed}")
    return seed


def _load_train_datasets(
    source: str, spec: SyntheticDatasetSpec, seed: int
) -> tuple[TokenDataset, TokenDataset]:
    if source == "synthetic":
        return (
            generate_synthetic(spec, seed=seed, split="train"),
            generate_synthetic(spec, seed=seed, split="test"),
        )
    return load_token_dataset(source, "train"), load_token_dataset(source, "test")


def _load_eval_dataset(source: str, config: ModelConfig, seed: int) -> TokenDataset:
    """Evaluation tokens for a loaded checkpoint.

    ``synthetic`` draws a test split matching the checkpoint's class count
    and input width; otherwise ``source`` is a dataset directory (its
    ``test.npz`` is used) or a single ``.npz`` file.
    """
    if source == "synthetic":
        spec = SyntheticDatasetSpec(
            num_classes=config.num_classes, ambient_dim=config.input_dim
        )
        return generate_synthetic(spec, seed=seed, split="test")
    if os.path.isdir(source):
        return load_token_dataset(source, "test")
    directory, name = os.path.split(source)
    if not name.endswith(".npz"):
        raise InvalidInput(f"dataset source must be 'synthetic', a directory, or .npz: {source}")
    return load_token_dataset(directory or ".", name[: -len(".npz")])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _train_from_args(
    args: argparse.Namespace,
    out_dir: str | None = None,
    results: str | None = None,
    **overrides,
) -> int | tuple[ModelConfig, TrainResult, int, int]:
    """Config, seed, datasets and training shared by ``train`` and ``ablate``.

    ``overrides`` replace config keys. The resolved seed is the model's
    seed too, so it sets the initial weights. The ``out_dir`` directory and
    the ``results`` file are created before training, so an unwritable one
    costs no training. :func:`train` checks both splits against the model
    before it trains; a split it rejects, like a divergence, exits 3.
    Returns ``(config, result, epochs, seed)``, or the exit code of the
    error it printed.
    """
    try:
        values = load_config(args.config) if args.config else {}
        values.update(overrides)
        seed = resolve_seed(args.seed, values)
        config = build_section(ModelConfig, {**values, "seed": seed})
        spec = build_section(SyntheticDatasetSpec, values)
        options = build_section(TrainOptions, values)
        epochs = args.epochs if args.epochs is not None else values.get("epochs", 10)
        if epochs < 0:
            raise InvalidInput(f"epochs must be nonnegative, got {epochs}")
    except (InvalidInput, FormatError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        train_ds, test_ds = _load_train_datasets(args.data, spec, seed)
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
        if results is not None:
            open(results, "a", encoding="utf-8").close()
    except FormatError as exc:
        return _fail(EXIT_USAGE, str(exc))
    except OSError as exc:
        return _cannot_write(out_dir or results, exc)
    try:
        result = train(config, train_ds, test_ds, epochs=epochs, seed=seed, options=options)
    except (InvalidInput, NumericalFault) as exc:
        return _fail(EXIT_MISMATCH, str(exc))
    return config, result, epochs, seed


def cmd_train(args: argparse.Namespace) -> int:
    run = _train_from_args(args, out_dir=args.out)
    if isinstance(run, int):
        return run
    config, result, epochs, _ = run
    try:
        write_metrics(os.path.join(args.out, "metrics.csv"), result.metrics)
        save_checkpoint(
            os.path.join(args.out, "checkpoint.dmst"),
            config,
            {name: p.data for name, p in result.params.items()},
        )
    except OSError as exc:
        return _cannot_write(args.out, exc)
    if result.final_test_accuracy is not None:
        print(f"test accuracy {result.final_test_accuracy:.4f} after {epochs} epochs")
    print(f"wrote {os.path.join(args.out, 'metrics.csv')}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        checks = run_suite(args.suite, seed=resolve_seed(args.seed))
    except InvalidInput as exc:
        return _fail(EXIT_USAGE, str(exc))
    for check in checks:
        print(check.line())
    try:
        failures = write_failure_report(checks, args.report)
    except OSError as exc:
        return _cannot_write(args.report, exc)
    passed = len(checks) - failures
    print(f"{passed}/{len(checks)} properties passed")
    if failures:
        print(f"failing instances serialized to {args.report}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_rates(args: argparse.Namespace) -> int:
    if args.samples < 1:
        return _fail(EXIT_USAGE, f"--samples must be at least 1, got {args.samples}")
    try:
        config, raw_params = load_checkpoint(args.checkpoint)
    except FormatError as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        seed = resolve_seed(args.seed)
        ds = _load_eval_dataset(args.data, config, seed)
    except (InvalidInput, FormatError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        ds.check_fits(config.input_dim, config.num_classes, "evaluated")
        params = {name: ad.Tensor(value) for name, value in raw_params.items()}
        curve = layer_rate_curve(config, params, ds.tokens, max_samples=args.samples)
    except (InvalidInput, NumericalFault) as exc:
        return _fail(EXIT_MISMATCH, str(exc))
    try:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(RATES_HEADER + "\n")
            for layer, rate in enumerate(curve.values):
                fh.write(f"{layer},{rate:.12g}\n")
    except OSError as exc:
        return _cannot_write(args.csv, exc)
    print(f"averaged {curve.samples} samples over {curve.values.size} layers")
    print(f"wrote {args.csv}")
    return EXIT_OK


def _load_sample(path: str, index: int) -> np.ndarray:
    """Sample ``index`` of a ``.npz`` dataset or of an ``(N, n, d)`` ``.npy`` file.

    An ``(n, d)`` ``.npy`` file is one sample, so its only index is 0.
    """
    if path.endswith(".npy"):
        samples = load_array_file(path)["arr_0"]
        if samples.ndim == 2:
            samples = samples[None]
        if samples.ndim != 3:
            raise InvalidInput(
                f"{path} must hold (n, d) or (N, n, d) tokens, got ndim={samples.ndim}"
            )
    else:
        directory, name = os.path.split(path)
        if not name.endswith(".npz"):
            raise InvalidInput(f"--input must be a .npy sample or .npz dataset: {path}")
        samples = load_token_dataset(directory or ".", name[: -len(".npz")]).tokens
    if not 0 <= index < samples.shape[0]:
        raise InvalidInput(f"--index {index} out of range for {samples.shape[0]} samples")
    return np.asarray(samples[index], dtype=np.float64)


def cmd_membership(args: argparse.Namespace) -> int:
    try:
        config, raw_params = load_checkpoint(args.checkpoint)
        sample = _load_sample(args.input, args.index)
        params = {name: ad.Tensor(value) for name, value in raw_params.items()}
        mmap = membership_map(config, params, sample, args.layer)
    except (InvalidInput, FormatError) as exc:
        return _fail(EXIT_USAGE, str(exc))
    except NumericalFault as exc:
        return _fail(EXIT_MISMATCH, str(exc))
    try:
        written = write_membership_artifacts(args.out, mmap)
    except OSError as exc:
        return _cannot_write(args.out, exc)
    rows, cols = mmap.grid
    print(f"layer {mmap.layer}: {mmap.values.shape[0]} heads on a {rows}x{cols} grid")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def cmd_profile(args: argparse.Namespace) -> int:
    try:
        token_counts = [int(tok) for tok in args.tokens.split(",") if tok.strip()]
    except ValueError:
        return _fail(EXIT_USAGE, f"--tokens must be comma-separated integers: {args.tokens!r}")
    try:
        rows = profile_attention_memory(
            args.op, token_counts, dim=args.dim, heads=args.heads,
            seed=resolve_seed(args.seed),
        )
    except InvalidInput as exc:
        return _fail(EXIT_USAGE, str(exc))
    try:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(PROFILE_HEADER + "\n")
            for op, tokens, peak in rows:
                fh.write(f"{op},{tokens},{peak}\n")
    except OSError as exc:
        return _cannot_write(args.csv, exc)
    for op, tokens, peak in rows:
        print(f"{op} n={tokens}: {peak} floats")
    print(f"wrote {args.csv}")
    return EXIT_OK


def cmd_ablate(args: argparse.Namespace) -> int:
    run = _train_from_args(
        args, results=args.results, sparsity_axis=args.axis, activation=args.activation
    )
    if isinstance(run, int):
        return run
    _, result, epochs, seed = run
    train_rows = [r for r in result.metrics if r[1] == "train"]
    final_loss = train_rows[-1][2] if train_rows else float("nan")
    test_acc = result.final_test_accuracy
    test_acc = test_acc if test_acc is not None else float("nan")
    try:
        with open(args.results, "a", encoding="utf-8") as fh:
            if fh.tell() == 0:
                fh.write(ABLATE_HEADER + "\n")
            fh.write(
                f"{args.axis},{args.activation},{epochs},{seed},"
                f"{final_loss:.12g},{test_acc:.12g}\n"
            )
    except OSError as exc:
        return _cannot_write(args.results, exc)
    print(f"{args.axis}/{args.activation}: test accuracy {test_acc:.4f}")
    print(f"appended to {args.results}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dmst",
        description="Train, verify, and analyze decoupled membership-subspace models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a classifier and write a checkpoint")
    p_train.add_argument("--config", default=None, help="flat key = value config file")
    p_train.add_argument("--data", default="synthetic",
                         help="'synthetic' or a directory with train.npz/test.npz")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--epochs", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_verify = sub.add_parser("verify", help="run the invariant suites")
    p_verify.add_argument("--suite", default="all", choices=("all",) + SUITES)
    p_verify.add_argument("--seed", type=int, default=None)
    p_verify.add_argument("--report", default="verify_failures.json",
                          help="where failing instances are serialized")
    p_verify.set_defaults(func=cmd_verify)

    p_rates = sub.add_parser("rates", help="layer-wise compression curve of a checkpoint")
    p_rates.add_argument("--checkpoint", required=True)
    p_rates.add_argument("--data", default="synthetic",
                         help="'synthetic', a dataset directory, or a .npz file")
    p_rates.add_argument("--samples", type=int, default=100)
    p_rates.add_argument("--csv", required=True)
    p_rates.add_argument("--seed", type=int, default=None)
    p_rates.set_defaults(func=cmd_rates)

    p_memb = sub.add_parser("membership", help="export per-head membership maps as PGM")
    p_memb.add_argument("--checkpoint", required=True)
    p_memb.add_argument("--input", required=True, help=".npy sample or .npz dataset")
    p_memb.add_argument("--index", type=int, default=0,
                        help="sample index in [0, N) of a .npz dataset or an (N, n, d) .npy")
    p_memb.add_argument("--layer", type=int, required=True)
    p_memb.add_argument("--out", required=True, help="output directory")
    p_memb.set_defaults(func=cmd_membership)

    p_prof = sub.add_parser("profile", help="count activation floats of attention forwards")
    p_prof.add_argument("--op", required=True, choices=PROFILE_OPS)
    p_prof.add_argument("--tokens", required=True,
                        help=f"comma-separated token counts, each at most {PROFILE_MAX_TOKENS}")
    p_prof.add_argument("--dim", type=int, default=64)
    p_prof.add_argument("--heads", type=int, default=8)
    p_prof.add_argument("--csv", required=True)
    p_prof.add_argument("--seed", type=int, default=None)
    p_prof.set_defaults(func=cmd_profile)

    p_abl = sub.add_parser("ablate", help="train one sparsity/activation variant")
    p_abl.add_argument("--axis", required=True, choices=SPARSITY_AXES)
    p_abl.add_argument("--activation", required=True,
                       choices=tuple(kind.value for kind in ActivationKind))
    p_abl.add_argument("--config", default=None)
    p_abl.add_argument("--data", default="synthetic")
    p_abl.add_argument("--results", required=True, help="CSV the result row is appended to")
    p_abl.add_argument("--seed", type=int, default=None)
    p_abl.add_argument("--epochs", type=int, default=None)
    p_abl.set_defaults(func=cmd_ablate)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DmstError as exc:
        return _fail(EXIT_MISMATCH, str(exc))


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
