"""The four workloads: train, long_context, analyze and verify.

Each workload has a ``setup`` (timed; what a user pays before the first
call: data generation, parameter init, checkpoint write) and a ``run`` that
calls the public functions of ``dmst`` in a closed loop, one caller waiting
for each result, until its time is up. ``run`` records one latency per
workload operation, the items processed, and correctness checks.
``untimed`` makes one pass before the loop: the tracemalloc peak of one
operation, and the checks that need calls of their own.

The inputs come from ``data.generate_synthetic`` with the workload seed;
the program sees only the generated arrays.
"""

from __future__ import annotations

import importlib
import math
import os
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

from probes import PROFILE_OPS, StepClock
from summary import PROFILE_TOKENS

data = importlib.import_module("dmst.data")
model = importlib.import_module("dmst.model")
train_mod = importlib.import_module("dmst.train")
analysis = importlib.import_module("dmst.analysis")
checkpoint = importlib.import_module("dmst.checkpoint")
verify = importlib.import_module("dmst.verify")
ad = importlib.import_module("dmst.autodiff")
errors = importlib.import_module("dmst.errors")
optim = importlib.import_module("dmst.optim")

EPOCH_SECONDS = 1.5  # rough epoch time with its evaluate; sets the epoch count
TARGET_ACCURACY = 0.90  # for time_to_target_s; not every seed reaches it
# A run of FLOOR_EPOCHS or more (every run but the quarters of a traced
# one) must reach FLOOR_ACCURACY, against 0.25 for chance. Over 34 seeds
# the lowest best accuracy was 0.48 after 7 epochs and 0.73 after 13.
FLOOR_EPOCHS = 7
FLOOR_ACCURACY = 0.40
# The gradient of the training loss along a random direction must match a
# central difference: with this step the two agree to about 1e-8 relative,
# and an adjoint that is 1% off shows as 2e-3.
FD_STEP = 1e-6
FD_TOLERANCE = 1e-5
ORACLE_ACCURACY = 0.99
INFER_SHAPES = ((16, 256), (4, 1024), (2, 2048))  # 4096 tokens per batch
INFER_BATCHES_PER_SHAPE = 4
INFER_BATCHES = len(INFER_SHAPES) * INFER_BATCHES_PER_SHAPE  # the loop cycles through these
MEMBERSHIP_SAMPLES = 4
DOUBLING_TOLERANCE = 0.15


@dataclass
class Run:
    """What one measured phase of a workload observed."""

    op_s: list[float] = field(default_factory=list)
    items: int = 0
    busy_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    notes: dict[str, list[float]] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def note(self, name: str, value: float) -> None:
        self.notes.setdefault(name, []).append(float(value))


def _tracemalloc_peak_mib(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


# ---------------------------------------------------------------------------
# train: train.train at the default ModelConfig, evaluate every epoch
# ---------------------------------------------------------------------------


class Train:
    name = "train"
    op = "training step (forward, backward, AdamW) at batch 32"
    item = "training sample"

    def setup(self, seed: int, workdir: str) -> dict:
        spec = data.SyntheticDatasetSpec()
        return {
            "seed": seed,
            "config": model.ModelConfig(),
            "train": data.generate_synthetic(spec, seed, "train"),
            "test": data.generate_synthetic(spec, seed, "test"),
        }

    def run(self, state: dict, seconds: float, clock: StepClock) -> Run:
        run = Run()
        tr = state["train"]
        options = train_mod.TrainOptions()
        steps_per_epoch = math.ceil(tr.size / options.batch_size)
        epochs = max(1, round(seconds / EPOCH_SECONDS))
        first_step, first_eval = len(clock.steps), len(clock.evals)
        start = time.perf_counter()
        try:
            result = train_mod.train(state["config"], tr, state["test"], epochs, state["seed"], options)
        except errors.NumericalFault:
            result = None
        wall = time.perf_counter() - start
        steps = clock.steps[first_step:]
        evals = clock.evals[first_eval:]
        eval_s = sum(end - begin for begin, end, _ in evals)

        run.attempted = epochs * steps_per_epoch
        if result is None:
            run.failed = max(1, run.attempted - len(steps))
            run.check("every loss is finite (training did not diverge)", False)
            return run
        if len(steps) == run.attempted:
            run.op_s = [end - begin for begin, end in steps]
        else:  # step attach points missing: spread the loop time evenly
            run.op_s = [(wall - eval_s) / run.attempted] * run.attempted
        run.items = epochs * tr.size
        run.busy_s = wall - eval_s
        # train() raises NumericalFault on a non-finite loss, so reaching
        # here means every loss was finite.
        best = max(r[3] for r in result.metrics if r[1] == "test")
        run.note("best_test_accuracy", best)
        if epochs >= FLOOR_EPOCHS:
            run.check(f"held-out accuracy reaches {FLOOR_ACCURACY} within {FLOOR_EPOCHS} or more epochs",
                      best >= FLOOR_ACCURACY)
        for begin, end, acc in evals:
            run.note("eval_samples_per_s", state["test"].size / (end - begin))
            run.note("test_accuracy", acc)
        reached = [end for _, end, acc in evals if acc >= TARGET_ACCURACY]
        if reached and steps:
            run.note("time_to_target_s", reached[0] - steps[0][0])
        return run

    def untimed(self, state: dict) -> tuple[float, dict[str, bool]]:
        config = state["config"]
        params = model.init_params(config)
        x, y = state["train"].tokens[:32], state["train"].labels[:32]

        def step():
            loss, _ = model.model_loss(config, params, x, y)
            loss.backward()
            raw = {name: p.data for name, p in params.items()}
            grads = {name: p.grad for name, p in params.items()}
            optim.adamw_step(raw, grads, optim.OptimState())

        oracle = data.nearest_subspace_accuracy(state["test"])
        return _tracemalloc_peak_mib(step), {
            "oracle certifies the data": oracle >= ORACLE_ACCURACY,
            "loss gradient matches a central difference": gradient_matches(
                config, x[:8], y[:8], state["seed"]),
        }


def gradient_matches(config, x: np.ndarray, y: np.ndarray, seed: int) -> bool:
    """Backward's directional derivative of the loss at init against a central difference."""
    params = model.init_params(config)
    loss, _ = model.model_loss(config, params, x, y)
    loss.backward()
    rng = np.random.default_rng(seed)
    direction = {name: rng.standard_normal(p.data.shape) for name, p in params.items()}
    analytic = sum(float(np.sum(p.grad * direction[name])) for name, p in params.items())

    def loss_at(step: float) -> float:
        moved = {name: ad.Tensor(p.data + step * direction[name]) for name, p in params.items()}
        return float(model.model_loss(config, moved, x, y)[0].data)

    numeric = (loss_at(FD_STEP) - loss_at(-FD_STEP)) / (2 * FD_STEP)
    return abs(analytic - numeric) <= FD_TOLERANCE * abs(numeric)


# ---------------------------------------------------------------------------
# long_context: forward-only inference on 4096-token batches
# ---------------------------------------------------------------------------


class LongContext:
    name = "long_context"
    op = "forward pass of a 4096-token batch (model.predict)"
    item = "token"

    def setup(self, seed: int, workdir: str) -> dict:
        config = model.ModelConfig()
        batches = []
        for b, n in INFER_SHAPES:
            # Four classes of b samples each: INFER_BATCHES_PER_SHAPE batches.
            spec = data.SyntheticDatasetSpec(tokens_per_sample=n, samples_per_class=b)
            tokens = data.generate_synthetic(spec, seed, f"infer-{n}").tokens
            batches.append([tokens[k * b : (k + 1) * b] for k in range(INFER_BATCHES_PER_SHAPE)])
        return {"config": config, "params": model.init_params(config), "batches": batches}

    def _batch(self, state: dict, i: int) -> np.ndarray:
        i %= INFER_BATCHES
        return state["batches"][i % len(INFER_SHAPES)][i // len(INFER_SHAPES)]

    def untimed(self, state: dict) -> tuple[float, dict[str, bool]]:
        config, params = state["config"], state["params"]
        peak = max(
            _tracemalloc_peak_mib(lambda x=self._batch(state, s): model.predict(config, params, x))
            for s in range(len(INFER_SHAPES))
        )
        checks = {}
        detached = {name: ad.Tensor(p.data) for name, p in params.items()}
        state["expected"] = []
        for i in range(INFER_BATCHES):
            x = self._batch(state, i)
            logits = model.model_forward(config, detached, x).data
            name = f"{x.shape[1]}-token logits are finite"
            checks[name] = checks.get(name, True) and bool(np.all(np.isfinite(logits)))
            if i < len(INFER_SHAPES):  # the first batch of each shape
                single = np.concatenate(
                    [model.model_forward(config, detached, x[s : s + 1]).data for s in range(x.shape[0])]
                )
                checks[f"{x.shape[1]}-token batched logits match per-sample logits within 1e-9"] = bool(
                    np.max(np.abs(single - logits)) <= 1e-9)
            state["expected"].append(np.argmax(logits, axis=1))
        return peak, checks

    def run(self, state: dict, seconds: float, clock: StepClock) -> Run:
        run = Run()
        config, params = state["config"], state["params"]
        start = time.perf_counter()
        i = 0
        while i == 0 or time.perf_counter() - start < seconds:
            x = self._batch(state, i)
            expected = state["expected"][i % INFER_BATCHES]
            i += 1
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                pred = model.predict(config, params, x)
            except errors.NumericalFault:
                run.failed += 1
                continue
            dt = time.perf_counter() - t0
            run.op_s.append(dt)
            run.busy_s += dt
            run.items += x.shape[0] * x.shape[1]
            ok = np.array_equal(pred, expected)
            run.failed += 0 if ok else 1
            run.check("predictions are the argmax of the checked logits", ok)
        run.check("no batch failed", run.failed == 0)
        return run


# ---------------------------------------------------------------------------
# analyze: what `dmst rates`, `membership` and `profile` do
# ---------------------------------------------------------------------------


def doubling_ok(op: str, counted: dict[int, int]) -> bool:
    """Counted floats double (dmsa, tssa) or quadruple (mhsa) as n doubles."""
    target = 4.0 if op == "mhsa" else 2.0
    ns = sorted(counted)
    return all(
        abs(counted[b] / counted[a] - target) <= DOUBLING_TOLERANCE * target
        for a, b in zip(ns, ns[1:])
    )


class Analyze:
    name = "analyze"
    op = "analysis pass: load, rate curve of 512 samples, membership maps, profile sweep"
    item = "rate-curve sample"

    def setup(self, seed: int, workdir: str) -> dict:
        config = model.ModelConfig()
        test = data.generate_synthetic(data.SyntheticDatasetSpec(), seed, "test")
        params = model.init_params(config)
        path = os.path.join(workdir, "analyze.dmst")
        checkpoint.save_checkpoint(path, config, {name: p.data for name, p in params.items()})
        return {"seed": seed, "test": test, "path": path, "workdir": workdir}

    def profile(self, state: dict) -> dict[str, list[tuple[str, int, int]]]:
        """What `dmst profile` does for each operator."""
        return {op: analysis.profile_attention_memory(op, list(PROFILE_TOKENS), seed=state["seed"])
                for op in PROFILE_OPS}

    def _rates_and_maps(self, state: dict):
        """What `dmst rates` and `membership` do: load, rate curve, membership maps."""
        config, raw = checkpoint.load_checkpoint(state["path"])
        params = {name: ad.Tensor(value) for name, value in raw.items()}
        tokens = state["test"].tokens
        t0 = time.perf_counter()
        curve = analysis.layer_rate_curve(config, params, tokens)
        rates_s = time.perf_counter() - t0
        maps = [
            analysis.membership_map(config, params, tokens[s], s % config.depth)
            for s in range(MEMBERSHIP_SAMPLES)
        ]
        return config, curve, maps, rates_s

    def _pass(self, state: dict, run: Run) -> None:
        config, curve, maps, rates_s = self._rates_and_maps(state)
        t0 = time.perf_counter()
        rows = self.profile(state)
        profile_s = time.perf_counter() - t0
        run.items += curve.samples
        run.busy_s += rates_s
        run.note("profile_s", profile_s)
        run.attempted += curve.samples + len(maps) + sum(len(r) for r in rows.values())
        curve_ok = curve.values.shape == (config.depth,) and bool(np.all(np.isfinite(curve.values)))
        maps_ok = [bool(np.all(np.isfinite(m.values))) for m in maps]
        run.failed += (0 if curve_ok else curve.samples) + maps_ok.count(False)
        run.check("rate curve is finite with one value per block", curve_ok)
        run.check("membership maps are finite", all(maps_ok))
        for op, op_rows in rows.items():
            counted = {n: floats for _, n, floats in op_rows}
            ok = doubling_ok(op, counted)
            run.failed += 0 if ok else len(op_rows)
            run.check(f"{op} counted floats scale as expected", ok)
            for n, floats in counted.items():
                run.note(f"attention.{op}.n{n}.counted_floats", floats)

    def run(self, state: dict, seconds: float, clock: StepClock) -> Run:
        run = Run()
        start = time.perf_counter()
        while not run.op_s or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            self._pass(state, run)
            run.op_s.append(time.perf_counter() - t0)
            # Round trip, untimed: save what was loaded, expect the same bytes.
            config, raw = checkpoint.load_checkpoint(state["path"])
            again = os.path.join(state["workdir"], "analyze-again.dmst")
            checkpoint.save_checkpoint(again, config, raw)
            with open(state["path"], "rb") as a, open(again, "rb") as b:
                same = a.read() == b.read()
            run.attempted += 1
            run.failed += 0 if same else 1
            run.check("checkpoint save-load-save is byte exact", same)
            run.note("checkpoint.bytes", os.path.getsize(state["path"]))
        return run

    def untimed(self, state: dict) -> tuple[float, dict[str, bool]]:
        # Load, rate curve and membership maps; the attention operators'
        # peaks are per-layer metrics.
        return _tracemalloc_peak_mib(lambda: self._rates_and_maps(state)), {}


# ---------------------------------------------------------------------------
# verify: verify.run_suite("all")
# ---------------------------------------------------------------------------


class Verify:
    name = "verify"
    op = 'verify pass: run_suite("all")'
    item = "checked instance"

    def setup(self, seed: int, workdir: str) -> dict:
        return {"seed": seed}

    def run(self, state: dict, seconds: float, clock: StepClock) -> Run:
        run = Run()
        start = time.perf_counter()
        while not run.op_s or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            checks = verify.run_suite("all", state["seed"])
            dt = time.perf_counter() - t0
            run.op_s.append(dt)
            run.busy_s += dt
            run.items += sum(c.count for c in checks)
            run.attempted += len(checks)
            run.failed += sum(not c.passed for c in checks)
            for c in checks:
                run.check(f"{c.suite}/{c.name}", c.passed)
        return run

    def untimed(self, state: dict) -> tuple[float, dict[str, bool]]:
        # The sparsify suite projects vectors of at most 64 entries; the
        # other suites hold the larger arrays.
        small = [s for s in verify.SUITES if s != "sparsify"]
        return _tracemalloc_peak_mib(lambda: [verify.run_suite(s, state["seed"]) for s in small]), {}


WORKLOADS = {w.name: w for w in (Train(), LongContext(), Analyze(), Verify())}
