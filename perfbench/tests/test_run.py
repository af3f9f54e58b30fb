"""Tests of the benchmark's correctness checks and of runs that fail.

Run from the root of a checkout: ``python3 -m pytest perfbench/tests``.
"""

import importlib
import json
import sys

import pytest

import run
import workloads

errors = importlib.import_module("dmst.errors")
ad = importlib.import_module("dmst.autodiff")
model = importlib.import_module("dmst.model")
data = importlib.import_module("dmst.data")


def test_gradient_check_catches_an_adjoint_one_percent_off(monkeypatch):
    config = model.ModelConfig()
    ds = data.generate_synthetic(data.SyntheticDatasetSpec(), 3, "train")
    x, y = ds.tokens[:8], ds.labels[:8]
    assert workloads.gradient_matches(config, x, y, seed=3)

    original = ad._node

    def node(value, parents, backward):
        if sys._getframe(1).f_code.co_name == "gelu":
            return original(value, parents, lambda g: backward(1.01 * g))
        return original(value, parents, backward)

    monkeypatch.setattr(ad, "_node", node)
    assert not workloads.gradient_matches(config, x, y, seed=3)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_divergence_is_counted_and_the_result_line_still_printed(trace, monkeypatch, tmp_path, capsys):
    def diverge(*args, **kwargs):
        raise errors.NumericalFault("training loss diverged at epoch 1")

    monkeypatch.setattr(workloads.train_mod, "train", diverge)
    monkeypatch.setattr(run, "RESULTS", str(tmp_path))
    assert run.main(["--workload", "train", "--seed", "1", "--seconds", "1", "--trace", trace]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is False
    assert last["attempted"] >= last["failed"] >= 1
    if trace == "0":
        assert last["metrics"]["op_ms_p50"]["value"] is None
        assert last["metrics"]["setup_s"]["value"] > 0
    else:
        assert last["metrics"]["trace.overhead_ms"]["value"] is None
