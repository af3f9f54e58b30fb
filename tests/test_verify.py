import json

import numpy as np
import pytest

import dmst.verify
from dmst.errors import InvalidInput
from dmst.rng import stream
from dmst.verify import SUITES, Check, run_suite, simplex_project_bisection, write_failure_report


def test_check_line_format():
    ok = Check(suite="rates", name="duality", passed=True, count=30, detail="max 1e-12")
    bad = Check(suite="rates", name="duality", passed=False, count=30)
    assert ok.line() == "[PASS] rates/duality (30 instances): max 1e-12"
    assert bad.line() == "[FAIL] rates/duality (30 instances)"


def test_bisection_projection_agrees_with_direct_solver():
    rng = np.random.default_rng(0)
    from dmst.sparsify import soft_threshold

    for _ in range(50):
        s = rng.normal(size=int(rng.integers(2, 12)))
        assert np.max(np.abs(simplex_project_bisection(s) - soft_threshold(s).values)) < 1e-9


def scalar_bisection(s, iters=200):
    """The one-vector bisection loop, kept as the reference for the stacked one."""
    lo, hi = float(np.min(s)) - 1.0, float(np.max(s))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(np.maximum(s - mid, 0.0)) > 1.0:
            lo = mid
        else:
            hi = mid
    return np.maximum(s - 0.5 * (lo + hi), 0.0)


def test_bisection_on_a_stack_equals_each_row_alone():
    rng = np.random.default_rng(4)
    for n in (1, 2, 7, 9, 64):
        S = rng.normal(scale=2.0, size=(9, n))
        stacked = simplex_project_bisection(S)
        assert stacked.shape == S.shape
        for row, out in zip(S, stacked):
            single = simplex_project_bisection(row)
            assert single.shape == (n,)
            assert np.array_equal(single, scalar_bisection(row))
            assert np.array_equal(out, single)


def test_sparsify_suite_passes():
    checks = run_suite("sparsify", seed=0)
    assert [(c.name, c.count, c.passed) for c in checks] == [
        ("soft-threshold-vs-bisection", 10_000, True),
        ("simplex-and-translation-invariance", 500, True),
        ("topk-support-bound", 500, True),
    ]


def sparsify_vectors(seed):
    """The vectors ``soft-threshold-vs-bisection`` draws, in draw order."""
    rng = stream(seed, "verify-sparsify")
    lengths = rng.integers(2, 65, size=10_000)
    return [rng.normal(scale=2.0, size=int(n)) for n in lengths]


def break_projection(monkeypatch, targets, edit):
    """Apply ``edit(out_row, score_row)`` to the library's output on ``targets`` only."""
    original = dmst.verify.soft_threshold_matrix

    def broken(X, topk=None):
        out, thresholds, active = original(X, topk)
        for target in targets:
            if X.shape[1] == target.size:
                for r in np.flatnonzero(np.all(X == target, axis=1)):
                    edit(out[r], X[r])
        return out, thresholds, active

    monkeypatch.setattr(dmst.verify, "soft_threshold_matrix", broken)


def test_bisection_check_reports_the_vector_that_broke_it(monkeypatch):
    target = sparsify_vectors(0)[4321]

    def nudge(out, _):
        out[0] += 1e-6

    break_projection(monkeypatch, [target], nudge)
    check = dmst.verify.suite_sparsify(0)[0]
    assert check.name == "soft-threshold-vs-bisection"
    assert not check.passed
    assert check.detail == "max abs err 1.00e-06"
    assert np.array_equal(check.instance["s"], target)


def test_bisection_check_reports_the_first_of_tied_worst_vectors(monkeypatch):
    # A longer vector drawn first and a shorter one drawn later, both off by
    # exactly 4 where the projection is zero: draw order, not length order,
    # decides which one is reported.
    vectors = sparsify_vectors(0)
    first = next(i for i, s in enumerate(vectors) if s.size == 40)
    later = next(i for i, s in enumerate(vectors) if i > first and s.size == 10)
    targets = [vectors[first], vectors[later]]
    for s in targets:
        assert simplex_project_bisection(s)[np.argmin(s)] == 0.0

    def set_lowest_to_four(out, scores):
        out[np.argmin(scores)] = 4.0

    break_projection(monkeypatch, targets, set_lowest_to_four)
    check = dmst.verify.suite_sparsify(0)[0]
    assert check.detail == "max abs err 4.00e+00"
    assert np.array_equal(check.instance["s"], vectors[first])


def test_rates_suite_passes():
    checks = run_suite("rates", seed=0)
    assert all(c.passed for c in checks)
    counts = {c.name: c.count for c in checks}
    assert counts["coupled-equals-decoupled-at-softmax"] == 40
    assert counts["sparse-decoupled-rate-below-coupled"] == 200
    assert counts["rate-reduction-nonnegative-on-hard-partitions"] == 200
    assert len(counts) == len(checks) == 7


def test_gradients_suite_passes():
    checks = run_suite("gradients", seed=0)
    assert len(checks) >= 2
    assert all(c.passed for c in checks)
    assert all(c.suite == "gradients" for c in checks)
    assert all(c.count >= 1 for c in checks)


def test_equivalence_suite_passes():
    checks = run_suite("equivalence", seed=0)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert len(names) == len(checks)  # property names are unique


def test_suites_are_deterministic_per_seed():
    a = run_suite("gradients", seed=3)
    b = run_suite("gradients", seed=3)
    assert [(c.name, c.passed, c.detail) for c in a] == [(c.name, c.passed, c.detail) for c in b]


def test_unknown_suite_is_rejected():
    with pytest.raises(InvalidInput):
        run_suite("bogus")


def test_suite_names_are_exposed():
    assert SUITES == ("rates", "sparsify", "gradients", "equivalence")


def test_failure_report_written_only_on_failures(tmp_path):
    passing = [Check(suite="s", name="a", passed=True, count=1)]
    path = tmp_path / "report.json"
    assert write_failure_report(passing, str(path)) == 0
    assert not path.exists()

    failing = passing + [
        Check(
            suite="s",
            name="b",
            passed=False,
            count=5,
            detail="gap 0.1",
            instance={"Z": np.eye(2), "seed": np.int64(3)},
        )
    ]
    assert write_failure_report(failing, str(path)) == 1
    report = json.loads(path.read_text())
    assert report == [
        {"suite": "s", "name": "b", "detail": "gap 0.1", "instance": {"Z": [[1.0, 0.0], [0.0, 1.0]], "seed": 3}}
    ]
