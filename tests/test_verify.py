import json

import numpy as np
import pytest

from dmst.errors import InvalidInput
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


def test_rates_suite_passes():
    checks = run_suite("rates", seed=0)
    assert all(c.passed for c in checks)
    counts = {c.name: c.count for c in checks}
    assert counts["coupled-equals-decoupled-at-softmax"] == 40
    assert counts["sparse-decoupled-rate-below-coupled"] == 200
    assert len(counts) == len(checks) == 6


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
