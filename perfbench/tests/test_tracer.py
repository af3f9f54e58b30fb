"""Tests of the benchmark's tracer: self times, attach points, attribution.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json
import os

import numpy as np
import pytest

from probes import MODEL_LAYERS, LayerProbes
from summary import PER_LAYER_UNITS, layer_metrics
from tracer import Attachments, Span, Tracer, self_times

ad = importlib.import_module("dmst.autodiff")
model = importlib.import_module("dmst.model")
ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


class TickClock:
    """Each reading is one unit later than the one before."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 3.0, 6.0, 0, None),  # overlaps a: union is [1, 6]
        Span("c", 8.0, 12.0, 0, None),  # runs past the parent: clipped to [8, 10]
        Span("leaf", 2.0, 3.0, 1, None),
    ]
    assert self_times(spans) == [10.0 - 5.0 - 2.0, 3.0 - 1.0, 3.0, 4.0, 1.0]


def test_spans_nest_and_leaves_take_the_open_parent():
    tracer = Tracer("run", clock=TickClock())
    outer = tracer.open("outer")
    tracer.record("leaf", 1.5, 1.75)
    inner = tracer.open("inner")
    with pytest.raises(RuntimeError):
        tracer.close(outer)
    tracer.close(inner)
    tracer.close(outer)
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", -1), ("leaf", 0), ("inner", 0)]
    records = tracer.to_records()
    assert {r["run_id"] for r in records} == {"run"}
    assert self_times(tracer.spans)[0] == (4.0 - 1.0) - 1.0 - 0.25


def test_missing_attach_point_is_reported_and_originals_come_back():
    att = Attachments()
    original = model._layer_norm
    assert not att.function("dmst.model.no_such_function", lambda f: f)
    assert not att.function("dmst.no_such_module.f", lambda f: f)
    assert not att.method("dmst.autodiff.Tensor.no_such_method", lambda f: f)
    assert att.function("dmst.model._layer_norm", lambda f: (lambda *a, **k: f(*a, **k)))
    assert model._layer_norm is not original
    att.restore()
    assert model._layer_norm is original
    assert att.missing == [
        "dmst.model.no_such_function",
        "dmst.no_such_module.f",
        "dmst.autodiff.Tensor.no_such_method",
    ]


def test_function_is_rebound_wherever_it_was_imported():
    train_mod = importlib.import_module("dmst.train")
    analysis = importlib.import_module("dmst.analysis")
    original = model.model_forward
    att = Attachments()
    att.function("dmst.model.model_forward", lambda f: (lambda *a, **k: f(*a, **k)))
    try:
        assert train_mod.model_forward is model.model_forward is analysis.model_forward
        assert model.model_forward is not original
    finally:
        att.restore()
    assert train_mod.model_forward is original and analysis.model_forward is original


def test_backward_time_is_charged_to_the_op_that_made_the_node():
    tracer = Tracer("run", clock=TickClock())
    probes = LayerProbes(tracer)
    att = Attachments()
    probes.attach(att)
    try:
        x = ad.Tensor(np.ones((3, 4)), requires_grad=True)
        w = ad.Tensor(np.full((4, 2), 0.5), requires_grad=True)
        loss = ad.mean(ad.gelu(x @ w))
        loss.backward()
    finally:
        att.restore()
    assert att.missing == []
    assert probes.nodes == 3
    names = [s.name for s in tracer.spans]
    assert names[:3] == ["autodiff.op.matmul", "autodiff.op.gelu", "autodiff.op.mean"]
    backward = names.index("autodiff.backward")
    closures = [s for s in tracer.spans if s.name.startswith("autodiff.bwd.")]
    assert [s.name for s in closures] == ["autodiff.bwd.mean", "autodiff.bwd.gelu", "autodiff.bwd.matmul"]
    assert all(s.parent == backward for s in closures)
    assert all(s.attrs == {"layer": None, "block": None} for s in closures)
    assert x.grad is not None and w.grad is not None


def test_forward_is_split_into_layers_in_order():
    config = model.ModelConfig(depth=2, dim=16, heads=4, input_dim=8, num_classes=3)
    params = model.init_params(config)
    rng = np.random.default_rng(0)
    tokens, labels = rng.normal(size=(2, 5, 8)), np.array([0, 2])
    tracer = Tracer("run")
    probes = LayerProbes(tracer)
    att = Attachments()
    probes.attach(att)
    try:
        loss, _ = model.model_loss(config, params, tokens, labels)
        loss.backward()
    finally:
        att.restore()
    roots = [i for i, s in enumerate(tracer.spans) if s.name == "model.forward"]
    assert len(roots) == 1
    segments = [s for s in tracer.spans if s.parent == roots[0]]
    assert [(s.name, s.attrs["block"]) for s in segments] == [
        ("model.embed", None),
        ("model.norm", 0), ("model.attn", 0), ("model.norm", 0), ("model.mlp", 0),
        ("model.norm", 1), ("model.attn", 1), ("model.norm", 1), ("model.mlp", 1),
        ("model.norm", None), ("model.head", None),
    ]
    assert tracer.spans[roots[0]].attrs["nodes"] == probes.nodes
    closures = [s for s in tracer.spans if s.name.startswith("autodiff.bwd.")]
    assert {s.attrs["layer"] for s in closures} == set(MODEL_LAYERS)
    # Every node of the step was built inside one layer and has a grad path.
    assert len(closures) == probes.nodes


def test_step_decomposition_adds_up():
    s = [
        Span("model.forward", 1.0, 5.0, -1, {"nodes": 7}),
        Span("model.embed", 1.0, 2.0, 0, {"block": None}),
        Span("model.attn", 2.0, 4.5, 0, {"block": 0}),
        Span("autodiff.backward", 6.0, 9.0, -1, None),
        Span("autodiff.bwd.matmul", 6.5, 7.5, 3, {"layer": "attn", "block": 0}),
        Span("autodiff.bwd.add", 7.5, 8.0, 3, {"layer": "embed", "block": None}),
        Span("optim.adamw", 9.0, 9.5, -1, None),
        Span("train.evaluate", 11.0, 13.0, -1, None),
        Span("model.forward", 11.0, 12.0, 7, {"nodes": 99}),
    ]
    out = layer_metrics(s, traced_from=0.0, ops=1, steps=[(0.5, 10.0)], extra={})
    assert out["autodiff.nodes_per_step"] == 7
    assert out["model.forward_ms"] == 4000.0
    assert out["train.evaluate_ms"] == 2000.0
    assert out["autodiff.backward_self_ms"] == 1500.0
    parts = sum(out[f"model.{layer}.{d}_ms"] for layer in MODEL_LAYERS for d in ("fwd", "bwd"))
    parts += out["autodiff.backward_self_ms"] + out["optim.adamw_ms"] + out["train.step_remainder_ms"]
    assert parts == pytest.approx(out["train.step_mean_ms"]) == pytest.approx(9500.0)
    assert out["train.step_remainder_ms"] == pytest.approx(9500.0 - 3500.0 - 1500.0 - 1500.0 - 500.0)
    with pytest.raises(KeyError):
        layer_metrics(s, 0.0, 1, [], {"no.such.metric": 1.0})


def test_benchmark_json_lists_what_the_run_reports():
    from run import E2E_UNITS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == ["train", "long_context", "analyze", "verify"]
