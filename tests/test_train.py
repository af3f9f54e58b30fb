import importlib

import numpy as np
import pytest

from dmst.data import SyntheticDatasetSpec, generate_synthetic
from dmst.errors import InvalidInput, NumericalFault
from dmst.model import ModelConfig, init_params, model_forward
from dmst.train import (
    METRICS_HEADER,
    TrainOptions,
    evaluate,
    format_metrics,
    train,
    write_metrics,
)
from dmst import autodiff as ad


SPEC = SyntheticDatasetSpec(
    num_classes=2, ambient_dim=8, subspace_dim=2, tokens_per_sample=6, samples_per_class=16
)
CONFIG = ModelConfig(depth=1, dim=16, heads=2, input_dim=8, num_classes=2, mlp_ratio=2.0)


def datasets(seed=0):
    return generate_synthetic(SPEC, seed, "train"), generate_synthetic(SPEC, seed, "test")


def test_zero_epochs_returns_untouched_initialization():
    train_ds, _ = datasets()
    result = train(CONFIG, train_ds, None, epochs=0, seed=0)
    reference = init_params(CONFIG)
    assert result.metrics == []
    assert result.final_test_accuracy is None
    assert result.final_train_accuracy is None
    for name, p in reference.items():
        assert np.array_equal(result.params[name].data, p.data)


def test_metric_rows_cover_both_splits_in_epoch_order():
    train_ds, test_ds = datasets()
    result = train(CONFIG, train_ds, test_ds, epochs=3, seed=0)
    assert [(r[0], r[1]) for r in result.metrics] == [
        (1, "train"), (1, "test"), (2, "train"), (2, "test"), (3, "train"), (3, "test"),
    ]
    assert result.final_test_accuracy == result.metrics[-1][3]
    assert result.final_train_accuracy == result.metrics[-2][3]


def test_training_reduces_loss():
    train_ds, test_ds = datasets()
    result = train(CONFIG, train_ds, test_ds, epochs=5, seed=0)
    train_losses = [r[2] for r in result.metrics if r[1] == "train"]
    assert train_losses[-1] < train_losses[0]
    assert all(np.isfinite(v) for row in result.metrics for v in row[2:])


def test_training_is_deterministic_in_seed():
    train_ds, test_ds = datasets()
    a = train(CONFIG, train_ds, test_ds, epochs=2, seed=5)
    b = train(CONFIG, train_ds, test_ds, epochs=2, seed=5)
    c = train(CONFIG, train_ds, test_ds, epochs=2, seed=6)
    assert a.metrics == b.metrics
    for name in a.params:
        assert np.array_equal(a.params[name].data, b.params[name].data)
    assert a.metrics != c.metrics


def test_divergent_learning_rate_raises_numerical_fault():
    # the decoupled decay multiplier 1 - lr * wd is hugely negative here, so
    # the weights blow up within a few steps and the guards trip
    train_ds, _ = datasets()
    options = TrainOptions(lr=1e6, weight_decay=0.9, batch_size=8)
    with pytest.raises(NumericalFault):
        train(CONFIG, train_ds, None, epochs=3, seed=0, options=options)


def test_non_finite_gradient_stops_training_before_any_update(monkeypatch):
    train_mod = importlib.import_module("dmst.train")  # the package exports train() under that name
    train_ds, _ = datasets()
    params = {}

    def capturing_init(config):
        params.update(init_params(config))
        return params

    backward = ad.Tensor.backward

    def poisoning_backward(self, grad=None):
        backward(self, grad)
        params["blocks.0.mlp.fc1.bias"].grad[0] = np.nan

    monkeypatch.setattr(train_mod, "init_params", capturing_init)
    monkeypatch.setattr(ad.Tensor, "backward", poisoning_backward)
    with pytest.raises(NumericalFault, match=r"^non-finite gradient in blocks\.0\.mlp\.fc1\.bias$"):
        train(CONFIG, train_ds, None, epochs=1, seed=0)
    for name, p in init_params(CONFIG).items():
        assert np.array_equal(params[name].data, p.data), name


@pytest.mark.parametrize("label", [-1, 7])
def test_test_label_outside_the_classes_raises_invalid_input(label):
    # -1 would score the last class and 7 would index past the end
    train_ds, test_ds = datasets()
    test_ds.labels[0] = label
    with pytest.raises(InvalidInput, match="outside 0..1"):
        train(CONFIG, train_ds, test_ds, epochs=1, seed=0)


def test_evaluate_matches_direct_forward():
    train_ds, _ = datasets()
    params = init_params(CONFIG)
    loss, acc = evaluate(CONFIG, params, train_ds, batch=256)
    logits = model_forward(CONFIG, params, train_ds.tokens)
    expected_loss = ad.cross_entropy_mean(logits, train_ds.labels).data.item()
    expected_acc = float(np.mean(np.argmax(logits.data, axis=1) == train_ds.labels))
    assert abs(loss - expected_loss) < 1e-12
    assert acc == expected_acc


def test_evaluate_is_batch_size_invariant():
    train_ds, _ = datasets()
    params = init_params(CONFIG)
    full = evaluate(CONFIG, params, train_ds, batch=256)
    pieces = evaluate(CONFIG, params, train_ds, batch=5)
    assert abs(full[0] - pieces[0]) < 1e-12
    assert full[1] == pieces[1]


def test_evaluate_leaves_gradients_untouched():
    train_ds, _ = datasets()
    params = init_params(CONFIG)
    evaluate(CONFIG, params, train_ds)
    assert all(p.grad is None for p in params.values())


def test_format_metrics_layout(tmp_path):
    metrics = [(1, "train", 0.5, 0.25), (1, "test", 0.4375, 0.5)]
    text = format_metrics(metrics)
    assert text == f"{METRICS_HEADER}\n1,train,0.5,0.25\n1,test,0.4375,0.5\n"
    path = tmp_path / "metrics.csv"
    write_metrics(str(path), metrics)
    assert path.read_text() == text
