"""Minibatch training loop with deterministic shuffling and CSV metric logs.

Two runs write byte-identical metric logs and checkpoints given the same
seed, the same platform and the same BLAS build: initialization, shuffling,
and every numeric step draw from named Philox streams. numpy's BLAS may run
on several threads; with OpenBLAS 0.3.31 on x86_64, runs at 1 and at 2 BLAS
threads wrote the same bytes, and CI checks that.
"""

from __future__ import annotations

import io
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .data import TokenDataset
from .errors import NumericalFault, check_int, check_real
from .model import (
    ModelConfig,
    detach_params,
    finite_grads,
    init_params,
    model_forward,
    model_loss,
)
from .optim import OptimState, adamw_step
from .rng import stream

METRICS_HEADER = "epoch,split,loss,accuracy"


@dataclass
class TrainOptions:
    """Optimizer and batching settings; bad values raise ``InvalidInput``."""

    lr: float = 1e-3
    weight_decay: float = 5e-2
    batch_size: int = 32
    eval_batch: int = 256

    def __post_init__(self) -> None:
        check_real("lr", self.lr, 0.0, strict=True)
        check_real("weight_decay", self.weight_decay, 0.0)
        check_int("batch_size", self.batch_size, 1)
        check_int("eval_batch", self.eval_batch, 1)


@dataclass
class TrainResult:
    params: dict[str, ad.Tensor]
    metrics: list[tuple[int, str, float, float]] = field(default_factory=list)

    @property
    def final_test_accuracy(self) -> float | None:
        rows = [r for r in self.metrics if r[1] == "test"]
        return rows[-1][3] if rows else None


def evaluate(
    config: ModelConfig,
    params: dict[str, ad.Tensor],
    ds: TokenDataset,
    batch: int = 256,
) -> tuple[float, float]:
    """Mean loss and accuracy over a dataset, without building gradients.

    A dataset the model cannot score (see :meth:`TokenDataset.check_fits`)
    raises ``DataMismatch`` and a ``batch`` below 1 ``InvalidInput``, both
    before any forward.
    """
    ds.check_fits(config.input_dim, config.num_classes, "evaluated")
    check_int("batch", batch, 1)
    detached = detach_params(params)
    total_loss = 0.0
    correct = 0
    # Non-finite values surface as NumericalFault from the forward pass.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, ds.size, batch):
            stop = min(start + batch, ds.size)
            logits = model_forward(config, detached, ds.tokens[start:stop])
            labels = ds.labels[start:stop]
            loss = ad.cross_entropy_mean(logits, labels)
            total_loss += float(loss.data) * (stop - start)
            correct += int(np.sum(np.argmax(logits.data, axis=1) == labels))
    return total_loss / ds.size, correct / ds.size


def train(
    config: ModelConfig,
    train_ds: TokenDataset,
    test_ds: TokenDataset | None,
    epochs: int,
    seed: int,
    options: TrainOptions | None = None,
) -> TrainResult:
    """Train for ``epochs`` passes; raises ``NumericalFault`` on divergence.

    Metric rows are ``(epoch, split, loss, accuracy)`` with the train row
    measuring the running minibatch average of that epoch. Epoch zero rows
    are not emitted; ``epochs=0`` returns the untouched initialization.
    Both splits are checked against the model first, so a split it cannot
    score (see :meth:`TokenDataset.check_fits`) raises ``DataMismatch``
    naming the split before any parameter is initialized.
    """
    train_ds.check_fits(config.input_dim, config.num_classes, "train")
    if test_ds is not None:
        test_ds.check_fits(config.input_dim, config.num_classes, "test")
    options = options or TrainOptions()
    params = init_params(config)
    state = OptimState(lr=options.lr, weight_decay=options.weight_decay)
    result = TrainResult(params=params)
    raw = {name: p.data for name, p in params.items()}

    for epoch in range(1, epochs + 1):
        order = stream(seed, f"shuffle-{epoch}").permutation(train_ds.size)
        epoch_loss = 0.0
        epoch_correct = 0
        for start in range(0, train_ds.size, options.batch_size):
            batch_idx = order[start : start + options.batch_size]
            x = train_ds.tokens[batch_idx]
            y = train_ds.labels[batch_idx]
            for p in params.values():
                p.zero_grad()
            # Non-finite values are caught by explicit guards, not warnings.
            with np.errstate(over="ignore", invalid="ignore"):
                loss_t, logits = model_loss(config, params, x, y)
                loss = float(loss_t.data)
                if not np.isfinite(loss):
                    raise NumericalFault(
                        f"training loss diverged at epoch {epoch}, "
                        f"batch {start // options.batch_size}"
                    )
                loss_t.backward()
                adamw_step(raw, finite_grads(params), state)
            epoch_loss += loss * len(batch_idx)
            epoch_correct += int(np.sum(np.argmax(logits.data, axis=1) == y))
            # Backward has already freed the graph; this drops the logits
            # and the loss before the next forward.
            del loss_t, logits
        train_loss = epoch_loss / train_ds.size
        train_acc = epoch_correct / train_ds.size
        result.metrics.append((epoch, "train", train_loss, train_acc))
        if test_ds is not None:
            test_loss, test_acc = evaluate(config, params, test_ds, options.eval_batch)
            result.metrics.append((epoch, "test", test_loss, test_acc))
    return result


def format_metrics(metrics: list[tuple[int, str, float, float]]) -> str:
    """Render metric rows as the canonical CSV text (trailing newline included)."""
    out = io.StringIO()
    out.write(METRICS_HEADER + "\n")
    for epoch, split, loss, acc in metrics:
        out.write(f"{epoch},{split},{loss:.12g},{acc:.12g}\n")
    return out.getvalue()


def write_metrics(path: str, metrics: list[tuple[int, str, float, float]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_metrics(metrics))
