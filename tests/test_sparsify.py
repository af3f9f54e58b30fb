import numpy as np
import pytest

from dmst.coding_rate import SubspaceBank
from dmst.errors import InvalidInput
from dmst.rng import orthonormal_basis
from dmst.sparsify import soft_threshold, soft_threshold_matrix


def bisect_threshold(s, iters=200):
    # independent oracle: bisection on the monotone map
    # theta -> sum(max(s - theta, 0)), which crosses 1 exactly once
    lo = float(np.min(s)) - 1.0
    hi = float(np.max(s))
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.sum(np.clip(s - mid, 0.0, None)) > 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# simplex projection
# ---------------------------------------------------------------------------


def test_soft_threshold_frozen_examples():
    # thresholds 1 and 2: each output is max(s - t, 0)
    assert np.array_equal(soft_threshold(np.array([2.0, 0.0])), [1.0, 0.0])
    assert np.array_equal(soft_threshold(np.array([3.0, 1.0, 0.0])), [1.0, 0.0, 0.0])


def test_soft_threshold_simplex_input_is_fixed_point():
    out = soft_threshold(np.array([0.5, 0.3, 0.2, 0.0]))
    assert np.max(np.abs(out - [0.5, 0.3, 0.2, 0.0])) < 1e-15


def test_soft_threshold_matches_bisection_oracle():
    rng = np.random.default_rng(0)
    tol = 1e-9
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        s = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        theta = bisect_threshold(s)
        expected = np.clip(s - theta, 0.0, None)
        assert np.max(np.abs(soft_threshold(s) - expected)) < tol


def test_soft_threshold_simplex_properties():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(2, 32))
        s = rng.normal(size=n)
        out = soft_threshold(s)
        assert np.min(out) >= 0.0
        assert abs(out.sum() - 1.0) < 1e-12
        # order preservation: larger score never gets smaller weight
        idx = np.argsort(s)
        assert np.all(np.diff(out[idx]) >= -1e-12)


def test_soft_threshold_translation_invariance():
    rng = np.random.default_rng(2)
    for _ in range(500):
        n = int(rng.integers(2, 32))
        s = rng.normal(size=n)
        c = float(rng.normal(scale=10.0))
        assert np.max(np.abs(soft_threshold(s) - soft_threshold(s + c))) < 1e-12


def test_soft_threshold_shrinks_when_mass_exceeds_one():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = rng.uniform(0.0, 1.0, size=6)
        out = soft_threshold(s)
        if s.sum() >= 1.0:
            assert np.all(out <= s + 1e-12)
        else:
            # mass below one forces a negative threshold, lifting every entry
            assert np.all(out > s)


def test_soft_threshold_shifts_positive_entries_by_one_threshold():
    rng = np.random.default_rng(4)
    for _ in range(200):
        s = rng.normal(size=10)
        out = soft_threshold(s)
        support = out > 0.0
        # on the support the map is exactly s - t for one t, and every
        # entry off the support lies at or below t
        shifts = s[support] - out[support]
        assert np.ptp(shifts) < 1e-12
        assert np.all(s[~support] <= shifts.mean() + 1e-12)


# ---------------------------------------------------------------------------
# top-k restriction
# ---------------------------------------------------------------------------


def test_soft_threshold_topk_support_bound():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(2, 24))
        k = int(rng.integers(1, n + 1))
        out = soft_threshold(rng.normal(size=n), topk=k)
        assert np.count_nonzero(out) <= k
        assert abs(out.sum() - 1.0) < 1e-12


def test_soft_threshold_topk_full_k_equals_plain():
    rng = np.random.default_rng(6)
    for _ in range(100):
        s = rng.normal(size=12)
        assert np.array_equal(soft_threshold(s, topk=12), soft_threshold(s))


def test_soft_threshold_topk_tie_breaks_to_lowest_index():
    assert np.array_equal(soft_threshold(np.array([1.0, 1.0, 0.0]), topk=1), [1.0, 0.0, 0.0])


def test_soft_threshold_matrix_rows_match_vector_form():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 11))
    out = soft_threshold_matrix(X)
    for r in range(8):
        assert np.array_equal(out[r], soft_threshold(X[r]))


def test_soft_threshold_input_validation():
    with pytest.raises(InvalidInput):
        soft_threshold(np.array([]))
    with pytest.raises(InvalidInput):
        soft_threshold(np.array([1.0, np.inf]))
    with pytest.raises(InvalidInput):
        soft_threshold(np.array([1.0, 2.0]), topk=0)
    with pytest.raises(InvalidInput):
        soft_threshold(np.array([1.0, 2.0]), topk=3)
    with pytest.raises(InvalidInput):
        soft_threshold_matrix(np.ones((2, 2, 2)))


# ---------------------------------------------------------------------------
# sparse subspaces: the bank scaled by a head gate
# ---------------------------------------------------------------------------


def test_scaled_bank_multiplies_each_basis_by_its_gate():
    rng = np.random.default_rng(12)
    bases = tuple(orthonormal_basis(np.random.default_rng(s), 6, 2) for s in range(3))
    bank = SubspaceBank(bases, orthonormal=True)
    gate = soft_threshold(rng.normal(size=3), topk=2)
    gated = bank.scaled(gate)
    assert gated.orthonormal is False
    assert gated.count == 3
    for g, b, original in zip(gate, gated.bases, bases):
        assert np.array_equal(b.view(np.int64), (g * original).view(np.int64))
    for wrong in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(InvalidInput):
            bank.scaled(wrong)
