#!/usr/bin/env python3
"""Benchmark of the ``dmst`` library: one command, four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

The library is imported from ``src/`` of the same checkout and driven
in-process through its public functions, one caller waiting for each
result (a closed loop with a single client). ``--trace 0`` measures the
end-to-end metrics with no tracing; ``--trace 1`` runs the workload
untraced for a quarter of the time, traced for half and untraced for the
last quarter, and reports the per-layer metrics and the tracing overhead.
``--workload all`` runs every workload in turn and prints the named
metrics of each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record
(environment, named metrics, checks, sample counts, and the spans of a
traced run) is written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
SETUP_REPEATS = 3
FRESH_IMPORTS = 4  # import timings taken in new interpreters, besides this one

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_mib": "MiB",
}
# The metric each workload's generic end-to-end metric stands for.
NAMED = {
    "train": {"throughput_per_s": "train_samples_per_s", "op_ms_p50": "train_step_ms_p50",
              "op_ms_p90": "train_step_ms_p90"},
    "long_context": {"throughput_per_s": "infer_tokens_per_s", "op_ms_p50": "infer_batch_ms_p50",
                     "op_ms_p90": "infer_batch_ms_p90", "peak_mib": "infer_peak_mib"},
    "analyze": {"throughput_per_s": "rates_samples_per_s"},
    "verify": {"op_ms_p50": "verify_s"},
}
NAMED_UNITS = {"time_to_target_s": "s", "eval_samples_per_s": "1/s", "profile_s": "s",
               "verify_s": "s", "setup_s": "s"}


IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "start = time.perf_counter(); import dmst; print(time.perf_counter() - start)"
)


def import_program() -> float:
    """Import ``dmst`` from this checkout's ``src``.

    Returns the median import time over this interpreter and
    ``FRESH_IMPORTS`` new ones, since a module is imported once per process.
    """
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    start = time.perf_counter()
    try:
        import dmst
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import dmst from {src}: {exc}") from None
    took = [time.perf_counter() - start]
    if os.path.commonpath([os.path.abspath(dmst.__file__), src]) != src:
        raise SystemExit(f"perfbench: dmst was imported from {dmst.__file__}, not from {src}")
    for _ in range(FRESH_IMPORTS):
        out = subprocess.run([sys.executable, "-c", IMPORT_TIMER, src], capture_output=True,
                             text=True, timeout=120, check=True)
        took.append(float(out.stdout))
    return statistics.median(took)


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "blas_threads_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
                             if k in os.environ},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
    }


# A run that completed no operation (say, training diverged in its first
# step) has no timings: those metrics read None and the run is not correct.
def p50(values: list[float]) -> float | None:
    return statistics.median(values) if values else None


def p90(values: list[float]) -> float | None:
    if len(values) < 2:
        return values[0] if values else None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def scaled(value: float | None, factor: float) -> float | None:
    return None if value is None else value * factor


def measure(workload, seed: int, seconds: float, trace: bool, import_s: float, workdir: str) -> dict:
    from probes import LayerProbes, StepClock, attention_peaks
    from summary import PER_LAYER_UNITS, layer_metrics
    from tracer import Attachments, Tracer

    tracer = Tracer(run_id=f"{workload.name}-seed{seed}-{os.getpid()}")
    probes = LayerProbes(tracer)
    missing: set[str] = set()

    def attach(traced: bool, clock: StepClock | None) -> Attachments:
        att = Attachments()
        if traced:
            probes.attach(att)
        if clock is not None:
            clock.attach(att)  # after the probes, so it wraps what train.py calls
        missing.update(att.missing)
        return att

    att = attach(trace, None)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        setups.append(time.perf_counter() - start)
    att.restore()
    peak, untimed_checks = workload.untimed(state)

    def untraced(seconds: float):
        clock = StepClock()
        att = attach(False, clock)
        try:
            return workload.run(state, seconds, clock)
        finally:
            att.restore()

    # A traced run goes untraced, traced, untraced, so that a slow drift of
    # the machine does not read as tracing overhead.
    runs = [untraced(seconds / 4 if trace else seconds)]
    per_layer = None
    if trace:
        traced_from = tracer.clock()
        clock = StepClock()
        att = attach(True, clock)
        try:
            traced = workload.run(state, seconds / 2, clock)
        finally:
            att.restore()
        runs += [traced, untraced(seconds / 4)]
        extra = {"trace.missing_attach_points": len(missing)}
        base_p50, traced_p50 = p50(runs[0].op_s + runs[2].op_s), p50(traced.op_s)
        if base_p50 is None or traced_p50 is None:
            extra["trace.overhead_ms"] = extra["trace.overhead_pct"] = None
        else:
            extra["trace.overhead_ms"] = (traced_p50 - base_p50) * 1e3
            extra["trace.overhead_pct"] = 100.0 * (traced_p50 - base_p50) / base_p50
        for name, values in traced.notes.items():
            if name in PER_LAYER_UNITS:
                extra[name] = values[-1]
        if workload.name == "analyze":
            for (op, n), mib in attention_peaks(lambda: workload.profile(state)).items():
                if f"attention.{op}.n{n}.peak_mib" in PER_LAYER_UNITS:
                    extra[f"attention.{op}.n{n}.peak_mib"] = mib
        steps = clock.steps if workload.name == "train" else []
        per_layer = layer_metrics(tracer.spans, traced_from, len(traced.op_s), steps, extra)

    measured = runs[0]  # end-to-end numbers come from the untraced phase
    e2e = {
        "setup_s": import_s + p50(setups),
        "throughput_per_s": measured.items / measured.busy_s if measured.busy_s > 0 else None,
        "op_ms_p50": scaled(p50(measured.op_s), 1e3),
        "op_ms_p90": scaled(p90(measured.op_s), 1e3),
        "peak_mib": peak,
    }
    named = {"setup_s": e2e["setup_s"]}
    for generic, name in NAMED[workload.name].items():
        named[name] = scaled(e2e[generic], 1e-3) if name == "verify_s" else e2e[generic]
    for name, values in measured.notes.items():
        if name in NAMED_UNITS:
            named[name] = p50(values)
    checks = dict(untimed_checks)
    for run in runs:
        for name, ok in run.checks.items():
            checks[name] = checks.get(name, True) and ok
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "op": workload.op,
        "item": workload.item,
        "samples": {"ops": len(measured.op_s), "setups": len(setups)},
        "correct": all(checks.values()) and all(r.failed == 0 for r in runs),
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.failed for r in runs),
        "checks": checks,
        "end_to_end": e2e,
        "named": named,
        "observed": measured.notes,
        "per_layer": per_layer,
        "missing_attach_points": sorted(missing),
        "spans": tracer.to_records() if trace else None,
    }


def named_unit(name: str) -> str:
    if name in NAMED_UNITS:
        return NAMED_UNITS[name]
    for workload_names in NAMED.values():
        for generic, named in workload_names.items():
            if named == name:
                return E2E_UNITS[generic]
    raise KeyError(name)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "long_context", "analyze", "verify", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    import_s = import_program()
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    env = environment()
    print(json.dumps({"environment": env}, sort_keys=True))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(RESULTS, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    reports = []
    try:
        for name in names:
            report = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace),
                             import_s, workdir)
            report["environment"] = env
            path = os.path.join(RESULTS, f"{name}-seed{args.seed}-trace{args.trace}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(report, fh)
            spans = report.pop("spans")
            for metric, value in report["named"].items():
                if value is None:
                    print(f"{name}: {metric} = not measured: no operation completed")
                else:
                    print(f"{name}: {metric} = {value:.6g} {named_unit(metric)}")
            if name == "train" and "time_to_target_s" not in report["named"]:
                print("train: time_to_target_s = not reached: held-out accuracy stayed below 0.90")
            for check, ok in report["checks"].items():
                print(f"{name}: [{'PASS' if ok else 'FAIL'}] {check}")
            print(f"{name}: {report['samples']['ops']} ops ({report['op']}), "
                  f"{len(spans or [])} spans, details in {os.path.relpath(path, ROOT)}")
            reports.append(report)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.workload == "all":
        metrics = {m: {"value": v, "unit": named_unit(m)}
                   for r in reports for m, v in r["named"].items()}
        metrics["setup_s"]["value"] = max(r["named"]["setup_s"] for r in reports)
    elif args.trace:
        from summary import PER_LAYER_UNITS

        metrics = {m: {"value": v, "unit": PER_LAYER_UNITS[m]}
                   for m, v in reports[0]["per_layer"].items()}
    else:
        metrics = {m: {"value": v, "unit": E2E_UNITS[m]}
                   for m, v in reports[0]["end_to_end"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports),
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
