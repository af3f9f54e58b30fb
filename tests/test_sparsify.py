import numpy as np
import pytest

from dmst.coding_rate import Membership, SubspaceBank
from dmst.errors import InvalidInput
from dmst.rng import orthonormal_basis
from dmst.sparsify import (
    soft_threshold,
    soft_threshold_backward,
    soft_threshold_matrix,
    sparse_subspace,
)


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
    out = soft_threshold(np.array([2.0, 0.0]))
    assert np.array_equal(out.values, [1.0, 0.0])
    assert out.threshold == 1.0
    assert np.array_equal(out.support, [0])

    out = soft_threshold(np.array([3.0, 1.0, 0.0]))
    assert np.array_equal(out.values, [1.0, 0.0, 0.0])
    assert out.threshold == 2.0


def test_soft_threshold_simplex_input_is_fixed_point():
    out = soft_threshold(np.array([0.5, 0.3, 0.2, 0.0]))
    assert np.max(np.abs(out.values - [0.5, 0.3, 0.2, 0.0])) < 1e-15
    assert abs(out.threshold) < 1e-15


def test_soft_threshold_matches_bisection_oracle():
    rng = np.random.default_rng(0)
    tol = 1e-9
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        s = rng.normal(scale=rng.uniform(0.1, 5.0), size=n)
        theta = bisect_threshold(s)
        expected = np.clip(s - theta, 0.0, None)
        got = soft_threshold(s)
        assert np.max(np.abs(got.values - expected)) < tol
        assert abs(got.threshold - theta) < tol


def test_soft_threshold_simplex_properties():
    rng = np.random.default_rng(1)
    for _ in range(500):
        n = int(rng.integers(2, 32))
        s = rng.normal(size=n)
        out = soft_threshold(s).values
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
        base = soft_threshold(s)
        shifted = soft_threshold(s + c)
        assert np.max(np.abs(base.values - shifted.values)) < 1e-12
        assert abs((shifted.threshold - base.threshold) - c) < 1e-12


def test_soft_threshold_shrinks_when_mass_exceeds_one():
    rng = np.random.default_rng(3)
    for _ in range(200):
        s = rng.uniform(0.0, 1.0, size=6)
        out = soft_threshold(s)
        if s.sum() >= 1.0:
            assert out.threshold >= -1e-12
            assert np.all(out.values <= s + 1e-12)
        else:
            # mass below one forces a negative threshold, lifting entries
            assert out.threshold < 0.0


def test_soft_threshold_support_matches_positive_entries():
    rng = np.random.default_rng(4)
    for _ in range(200):
        s = rng.normal(size=10)
        out = soft_threshold(s)
        assert np.array_equal(out.support, np.flatnonzero(out.values > 0.0))
        # on the support the map is exactly s - threshold
        assert np.max(np.abs(out.values[out.support] - (s[out.support] - out.threshold))) < 1e-12


# ---------------------------------------------------------------------------
# top-k restriction
# ---------------------------------------------------------------------------


def test_soft_threshold_topk_support_bound():
    rng = np.random.default_rng(5)
    for _ in range(500):
        n = int(rng.integers(2, 24))
        k = int(rng.integers(1, n + 1))
        out = soft_threshold(rng.normal(size=n), topk=k)
        assert out.support.size <= k
        assert abs(out.values.sum() - 1.0) < 1e-12


def test_soft_threshold_topk_full_k_equals_plain():
    rng = np.random.default_rng(6)
    for _ in range(100):
        s = rng.normal(size=12)
        assert np.array_equal(soft_threshold(s, topk=12).values, soft_threshold(s).values)


def test_soft_threshold_topk_tie_breaks_to_lowest_index():
    out = soft_threshold(np.array([1.0, 1.0, 0.0]), topk=1)
    assert np.array_equal(out.values, [1.0, 0.0, 0.0])
    assert np.array_equal(out.support, [0])


def test_soft_threshold_matrix_rows_match_vector_form():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(8, 11))
    out, thresholds, active = soft_threshold_matrix(X)
    for r in range(8):
        row = soft_threshold(X[r])
        assert np.array_equal(out[r], row.values)
        assert thresholds[r] == row.threshold
    assert np.array_equal(active, out > 0.0)


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
# backward pass
# ---------------------------------------------------------------------------


def test_soft_threshold_backward_matches_finite_differences():
    rng = np.random.default_rng(8)
    h = 1e-7
    checked = 0
    while checked < 20:
        s = rng.normal(size=7)
        out, _, active = soft_threshold_matrix(s[None, :])
        margin = np.where(active[0], out[0], np.inf).min()
        slack = np.where(active[0], np.inf, -(s - soft_threshold(s).threshold)).min()
        if margin < 1e-3 or slack < 1e-3:
            continue  # active set would flip under perturbation
        dout = rng.normal(size=7)
        grad = soft_threshold_backward(dout[None, :], active)[0]
        fd = np.zeros(7)
        for j in range(7):
            sp = s.copy()
            sp[j] += h
            sm = s.copy()
            sm[j] -= h
            fd[j] = (
                soft_threshold(sp).values @ dout - soft_threshold(sm).values @ dout
            ) / (2 * h)
        assert np.max(np.abs(grad - fd)) < 1e-6
        checked += 1


def test_soft_threshold_backward_centers_over_active_set():
    active = np.array([[True, False, True, True]])
    dout = np.array([[3.0, 5.0, 0.0, 0.0]])
    grad = soft_threshold_backward(dout, active)
    assert np.max(np.abs(grad - [[2.0, 0.0, -1.0, -1.0]])) < 1e-15
    assert abs(grad[0, active[0]].sum()) < 1e-15


# ---------------------------------------------------------------------------
# subspace sparsifier
# ---------------------------------------------------------------------------


def test_sparse_subspace_head_axis_gates_bases():
    rng = np.random.default_rng(12)
    bases = tuple(orthonormal_basis(np.random.default_rng(s), 6, 2) for s in range(3))
    bank = SubspaceBank(bases, orthonormal=True)
    Pi = Membership(rng.uniform(0.0, 1.0, size=(3, 8)))
    gate = soft_threshold(Pi.data.mean(axis=1), topk=3)
    gated = sparse_subspace(bank, Pi, "head", topk=3)
    for g, b, original in zip(gate.values, gated.bases, bases):
        assert np.array_equal(b, g * original)


def test_sparse_subspace_token_axis_returns_bank_unchanged():
    rng = np.random.default_rng(13)
    bases = tuple(orthonormal_basis(np.random.default_rng(s), 5, 2) for s in range(2))
    bank = SubspaceBank(bases, orthonormal=True)
    Pi = Membership(rng.uniform(0.0, 1.0, size=(2, 6)))
    same = sparse_subspace(bank, Pi, "token")
    assert same.orthonormal
    for a, b in zip(same.bases, bank.bases):
        assert np.array_equal(a, b)


def test_sparse_subspace_uniform_membership_splits_gate_evenly():
    bases = tuple(orthonormal_basis(np.random.default_rng(s), 4, 1) for s in range(4))
    bank = SubspaceBank(bases, orthonormal=True)
    Pi = Membership(np.full((4, 5), 0.3))
    gated = sparse_subspace(bank, Pi, "head", topk=4)
    for b, original in zip(gated.bases, bases):
        assert np.max(np.abs(b - 0.25 * original)) < 1e-12


def test_sparse_subspace_rejects_unknown_axis():
    bank = SubspaceBank((np.eye(3)[:, :1],))
    Pi = Membership(np.ones((1, 2)))
    with pytest.raises(InvalidInput):
        sparse_subspace(bank, Pi, "channel")
