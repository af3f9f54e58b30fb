import json

import numpy as np
import pytest

import dmst.verify
from dmst.coding_rate import (
    CodingRateConfig,
    Membership,
    membership_from_subspaces,
    rate_variational_decoupled,
)
from dmst.errors import InvalidInput
from dmst.rng import stream
from dmst.sparsify import soft_threshold
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
        assert np.max(np.abs(simplex_project_bisection(s) - soft_threshold(s))) < 1e-9


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


def assert_rows_match_scalar_bisection(S, iters=200):
    stacked = simplex_project_bisection(S, iters)
    for row, out in zip(S, stacked):
        assert np.array_equal(out, scalar_bisection(row, iters))


@pytest.mark.parametrize("scale", [1e-8, 1e-4, 1.0, 1e4, 1e8])
def test_bisection_stopping_at_its_fixed_point_equals_the_full_count(scale):
    rng = np.random.default_rng(7)
    for n in (2, 5, 33):
        assert_rows_match_scalar_bisection(rng.normal(scale=scale, size=(6, n)))


def test_bisection_fixed_point_on_ties_integers_and_single_entries():
    rng = np.random.default_rng(8)
    ties = np.array([[1.0, 1.0, 1.0, 1.0], [2.0, 2.0, -3.0, 2.0], [0.5, 0.5, 0.25, 0.25]])
    integers = rng.integers(-5, 6, size=(8, 7)).astype(np.float64)
    singles = np.array([[3.0], [-2.0], [0.0], [1e8]])
    for S in (ties, integers, singles):
        assert_rows_match_scalar_bisection(S)


def test_bisection_iteration_cap_keeps_its_meaning():
    # ten halvings leave the bracket far from its fixed point, so the cap,
    # not the stop rule, ends the loop
    S = np.random.default_rng(9).normal(scale=2.0, size=(5, 12))
    assert_rows_match_scalar_bisection(S, iters=10)
    assert not np.array_equal(simplex_project_bisection(S, 10), simplex_project_bisection(S))


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
        out = original(X, topk)
        for target in targets:
            if X.shape[1] == target.size:
                for r in np.flatnonzero(np.all(X == target, axis=1)):
                    edit(out[r], X[r])
        return out

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


def loop_fd_grad(fn, Z, h=1e-6):
    """The one-entry-per-call central differences, kept as the reference for the stacked ones."""
    g = np.zeros_like(Z)
    for idx in np.ndindex(Z.shape):
        zp = Z.copy()
        zp[idx] += h
        zm = Z.copy()
        zm[idx] -= h
        g[idx] = (fn(zp) - fn(zm)) / (2 * h)
    return g


def gradient_problems(seed):
    """The ``(Z, bank, Pi)`` problems ``rate-gradient-vs-finite-difference`` draws, in order."""
    rng = stream(seed, "verify-gradients")
    for _ in range(25):
        d, n, K = int(rng.integers(3, 9)), int(rng.integers(3, 9)), int(rng.integers(1, 4))
        yield dmst.verify._random_problem(rng, d, n, K)


def record_fd_calls(monkeypatch):
    """Record ``(Z, leading shapes of each stacked call)`` for every ``_fd_grad`` call."""
    original = dmst.verify._fd_grad
    calls = []

    def recording(fn, Z, *args):
        shapes = []

        def wrapped(W):
            shapes.append(W.shape[:-2])
            return fn(W)

        calls.append((Z.copy(), shapes))
        return original(wrapped, Z, *args)

    monkeypatch.setattr(dmst.verify, "_fd_grad", recording)
    return calls


@pytest.mark.parametrize("seed", [0, 3])
def test_stacked_finite_differences_equal_the_per_entry_loop(seed, monkeypatch):
    cfg = CodingRateConfig(epsilon=0.8)
    problems = list(gradient_problems(seed))
    stacked_fd_grad = dmst.verify._fd_grad
    calls = record_fd_calls(monkeypatch)
    dmst.verify.suite_gradients(seed)
    # the suite differentiates exactly the problems mirrored here
    assert len(calls) == len(problems) == 25
    for (Z, bank, Pi), (seen, _) in zip(problems, calls):
        assert np.array_equal(seen, Z)
        stacked = stacked_fd_grad(lambda W: rate_variational_decoupled(
            W, Membership(np.broadcast_to(Pi.data, W.shape[:-2] + Pi.data.shape)), bank, cfg
        ), Z)
        loop = loop_fd_grad(lambda W: rate_variational_decoupled(W, Pi, bank, cfg), Z)
        assert np.array_equal(stacked.view(np.int64), loop.view(np.int64))


def test_finite_differences_stack_one_token_column_per_call(monkeypatch):
    calls = record_fd_calls(monkeypatch)
    dmst.verify.suite_gradients(0)
    assert len(calls) == 25
    for Z, shapes in calls:
        d, n = Z.shape
        assert shapes == [(2 * d,)] * n


def test_heavy_rows_projected_in_one_call_equal_each_row_alone():
    rng = stream(5, "heavy-rows")
    for _ in range(60):
        d, K = int(rng.integers(4, 12)), int(rng.integers(2, 5))
        n = int(rng.integers(K + 1, 16))
        Z, bank, _ = dmst.verify._random_problem(rng, d, n, K)
        for P in (membership_from_subspaces(Z, bank, float(rng.uniform(0.3, 2.0))).data,
                  rng.uniform(0.0, 2.0 / n, size=(K, n))):
            one_call = dmst.verify._project_heavy_rows(P)
            per_row = np.stack([soft_threshold(row) if row.sum() > 1.0 else row for row in P])
            assert np.array_equal(one_call.view(np.int64), per_row.view(np.int64))


def test_equivalence_suite_passes():
    checks = run_suite("equivalence", seed=0)
    assert all(c.passed for c in checks)
    names = {c.name for c in checks}
    assert len(names) == len(checks)  # property names are unique


def test_all_suites_run_each_property_on_its_instance_count_in_order():
    # each check is keyed on "suite/name"; a paper gate keeps its instance count
    checks = run_suite("all", 0)
    assert [(c.suite, c.name, c.count) for c in checks] == [
        ("rates", "total-rate-vs-eigendecomposition", 40),
        ("rates", "gram-side-duality", 40),
        ("rates", "right-rotation-invariance", 40),
        ("rates", "coupled-equals-decoupled-at-softmax", 40),
        ("rates", "single-group-segmentation-equals-total", 40),
        ("rates", "sparse-decoupled-rate-below-coupled", 200),
        ("rates", "rate-reduction-nonnegative-on-hard-partitions", 200),
        ("sparsify", "soft-threshold-vs-bisection", 10_000),
        ("sparsify", "simplex-and-translation-invariance", 500),
        ("sparsify", "topk-support-bound", 500),
        ("gradients", "rate-gradient-vs-finite-difference", 25),
        ("gradients", "operator-is-negated-gradient", 25),
        ("equivalence", "layer-matches-operator-on-gated-bank", 20),
    ]
    assert all(c.passed for c in checks)


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
