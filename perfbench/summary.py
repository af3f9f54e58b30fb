"""Turns the spans of a traced run into per-layer metrics.

Rules, so that the numbers can be compared across workloads:

- A metric ending in ``_ms`` or ``_calls`` is a total per workload
  operation (a training step, an inference batch, an analysis pass or a
  verify pass), taken over the traced phase only. The exceptions are the
  per-call metrics: ``train.evaluate_ms``, ``checkpoint.*``,
  ``data.generate_ms``, ``verify.<suite>_s`` and ``attention.*``.
- Spans inside ``train.evaluate`` count towards ``train.evaluate_ms`` only,
  never towards the model or autodiff metrics of a training step.
- ``model.<layer>.fwd_ms`` is the wall time the forward spent in that layer,
  autodiff ops included; ``model.<layer>.bwd_ms`` is the time of the
  backward closures of the nodes that layer created. ``autodiff.op.*``
  breaks the same time down by op kind instead of by layer.
- On ``train`` the mean traced step, ``train.step_mean_ms``, decomposes
  exactly into the five ``fwd_ms``, the five ``bwd_ms``,
  ``autodiff.backward_self_ms`` (graph walk), ``optim.adamw_ms`` and
  ``train.step_remainder_ms``.

Every workload reports every metric; a layer it does not exercise reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from probes import MODEL_LAYERS, OP_KINDS, PROFILE_OPS, VERIFY_SUITES
from tracer import Span, self_times

PROFILE_TOKENS = (1024, 2048, 4096)


def _per_layer_units() -> dict[str, str]:
    units = {
        "autodiff.nodes_per_step": "count",
        "autodiff.backward_ms": "ms",
        "autodiff.backward_self_ms": "ms",
    }
    for kind in OP_KINDS + ("other",):
        units[f"autodiff.op.{kind}.calls"] = "count"
        units[f"autodiff.op.{kind}.fwd_ms"] = "ms"
        units[f"autodiff.op.{kind}.bwd_ms"] = "ms"
    units["model.forward_ms"] = "ms"
    for layer in MODEL_LAYERS:
        units[f"model.{layer}.fwd_ms"] = "ms"
        units[f"model.{layer}.bwd_ms"] = "ms"
    units["model.attn_operator_ms"] = "ms"
    units["optim.adamw_ms"] = "ms"
    units["train.evaluate_ms"] = "ms"
    units["train.step_mean_ms"] = "ms"
    units["train.step_remainder_ms"] = "ms"
    units["coding_rate.rate_variational_decoupled_calls"] = "count"
    units["coding_rate.rate_variational_decoupled_ms"] = "ms"
    units["analysis.layer_rate_curve_ms"] = "ms"
    units["analysis.membership_map_ms"] = "ms"
    for op in PROFILE_OPS:
        for n in PROFILE_TOKENS:
            units[f"attention.{op}.n{n}.counted_floats"] = "count"
            units[f"attention.{op}.n{n}.peak_mib"] = "MiB"
            units[f"attention.{op}.n{n}.ms"] = "ms"
    units["checkpoint.save_ms"] = "ms"
    units["checkpoint.load_ms"] = "ms"
    units["checkpoint.bytes"] = "bytes"
    for suite in VERIFY_SUITES:
        units[f"verify.{suite}_s"] = "s"
    units["verify.bisection_ms"] = "ms"
    units["sparsify.soft_threshold_calls"] = "count"
    units["sparsify.soft_threshold_ms"] = "ms"
    units["data.generate_ms"] = "ms"
    units["trace.overhead_ms"] = "ms"
    units["trace.overhead_pct"] = "%"
    units["trace.missing_attach_points"] = "count"
    return units


PER_LAYER_UNITS = _per_layer_units()


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(
    spans: list[Span],
    traced_from: float,
    ops: int,
    steps: list[tuple[float, float]],
    extra: dict[str, float],
) -> dict[str, float]:
    """Per-layer values keyed by the names of ``PER_LAYER_UNITS``.

    ``traced_from`` is the clock reading at which the traced phase began
    (spans before it come from set-up); ``ops`` counts the workload
    operations of that phase; ``steps`` are its training steps, if any;
    ``extra`` holds values measured outside the spans (counted floats,
    peaks, checkpoint bytes, overhead, missing attach points).
    """
    out = dict.fromkeys(PER_LAYER_UNITS, 0.0)
    per_op = 1.0 / max(ops, 1)
    selfs = self_times(spans)
    in_eval = [False] * len(spans)
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    calls: dict[str, list[float]] = defaultdict(list)
    nodes = 0

    for i, s in enumerate(spans):
        in_eval[i] = s.name == "train.evaluate" or (s.parent >= 0 and in_eval[s.parent])
        ms = s.duration * 1e3
        calls[s.name].append(ms)
        if s.start < traced_from:
            continue  # set-up: per-call metrics only
        if in_eval[i] and s.name != "train.evaluate":
            continue
        totals[s.name] += ms
        counts[s.name] += 1
        if s.name.startswith("autodiff.bwd."):
            layer = s.attrs["layer"]
            if layer is not None:
                totals[f"bwd.{layer}"] += ms
        elif s.name == "model.forward":
            nodes += s.attrs["nodes"]
        elif s.name == "autodiff.backward":
            totals["backward_self"] += selfs[i] * 1e3
        elif s.name.startswith("attention.") and s.attrs:
            calls[f"{s.name}.n{s.attrs['n']}"].append(ms)

    out["autodiff.nodes_per_step"] = nodes * per_op
    out["autodiff.backward_ms"] = totals["autodiff.backward"] * per_op
    out["autodiff.backward_self_ms"] = totals["backward_self"] * per_op
    for kind in OP_KINDS + ("other",):
        out[f"autodiff.op.{kind}.calls"] = counts[f"autodiff.op.{kind}"] * per_op
        out[f"autodiff.op.{kind}.fwd_ms"] = totals[f"autodiff.op.{kind}"] * per_op
        out[f"autodiff.op.{kind}.bwd_ms"] = totals[f"autodiff.bwd.{kind}"] * per_op
    out["model.forward_ms"] = totals["model.forward"] * per_op
    for layer in MODEL_LAYERS:
        out[f"model.{layer}.fwd_ms"] = totals[f"model.{layer}"] * per_op
        out[f"model.{layer}.bwd_ms"] = totals[f"bwd.{layer}"] * per_op
    out["model.attn_operator_ms"] = totals["model.attn_operator"] * per_op
    out["optim.adamw_ms"] = totals["optim.adamw"] * per_op
    out["train.evaluate_ms"] = _mean(calls["train.evaluate"])
    out["coding_rate.rate_variational_decoupled_calls"] = (
        counts["coding_rate.rate_variational_decoupled"] * per_op
    )
    out["coding_rate.rate_variational_decoupled_ms"] = (
        totals["coding_rate.rate_variational_decoupled"] * per_op
    )
    out["analysis.layer_rate_curve_ms"] = totals["analysis.layer_rate_curve"] * per_op
    out["analysis.membership_map_ms"] = totals["analysis.membership_map"] * per_op
    for op in PROFILE_OPS:
        for n in PROFILE_TOKENS:
            out[f"attention.{op}.n{n}.ms"] = _mean(calls[f"attention.{op}.n{n}"])
    out["checkpoint.save_ms"] = _mean(calls["checkpoint.save"])
    out["checkpoint.load_ms"] = _mean(calls["checkpoint.load"])
    for suite in VERIFY_SUITES:
        out[f"verify.{suite}_s"] = _mean(calls[f"verify.{suite}"]) / 1e3
    out["verify.bisection_ms"] = totals["verify.bisection"] * per_op
    out["sparsify.soft_threshold_calls"] = counts["sparsify.soft_threshold"] * per_op
    out["sparsify.soft_threshold_ms"] = totals["sparsify.soft_threshold"] * per_op
    out["data.generate_ms"] = _mean(calls["data.generate"])

    if steps:
        step_ms = _mean([(end - start) * 1e3 for start, end in steps])
        parts = sum(out[f"model.{layer}.fwd_ms"] + out[f"model.{layer}.bwd_ms"]
                    for layer in MODEL_LAYERS)
        parts += out["autodiff.backward_self_ms"] + out["optim.adamw_ms"]
        out["train.step_mean_ms"] = step_ms
        out["train.step_remainder_ms"] = step_ms - parts
    for name, value in extra.items():
        if name not in out:
            raise KeyError(f"unknown per-layer metric {name!r}")
        out[name] = value
    return out
