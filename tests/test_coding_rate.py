import numpy as np
import pytest

from dmst.coding_rate import (
    CodingRateConfig,
    Membership,
    SubspaceBank,
    grad_rate_wrt_tokens,
    logdet_psd,
    membership_from_subspaces,
    rate_segmented,
    rate_total,
    rate_variational_coupled,
    rate_variational_decoupled,
)
from dmst.errors import InvalidInput, NotPSD
from dmst.rng import orthonormal_basis


def random_bank(rng, d, K, p):
    bases = tuple(
        orthonormal_basis(np.random.default_rng(rng.integers(2**31)), d, p) for _ in range(K)
    )
    return SubspaceBank(bases, orthonormal=True)


def eig_logdet(M):
    # independent oracle: sum of eigenvalue logs
    return float(np.sum(np.log(np.linalg.eigvalsh(M))))


# ---------------------------------------------------------------------------
# logdet_psd
# ---------------------------------------------------------------------------


def test_logdet_psd_identity_is_zero():
    assert logdet_psd(np.eye(5)) == 0.0


def test_logdet_psd_diagonal_example():
    # det diag(1, 2, 4) = 8
    assert abs(logdet_psd(np.diag([1.0, 2.0, 4.0])) - np.log(8.0)) < 1e-12


def test_logdet_psd_matches_eigenvalue_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        d = int(rng.integers(2, 12))
        A = rng.normal(size=(d, d + 2))
        M = np.eye(d) + A @ A.T
        assert abs(logdet_psd(M) - eig_logdet(M)) < 1e-8


def test_logdet_psd_singular_matrix_is_minus_infinity():
    assert logdet_psd(np.diag([1.0, 0.0])) == -np.inf


def test_logdet_psd_rejects_asymmetric():
    with pytest.raises(InvalidInput):
        logdet_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_logdet_psd_rejects_indefinite():
    with pytest.raises(NotPSD):
        logdet_psd(np.diag([1.0, -1.0]))


# ---------------------------------------------------------------------------
# rate_total
# ---------------------------------------------------------------------------


def test_rate_total_identity_tokens_known_value():
    # d = n = 2, eps = 1: alpha = 1, I + Z Z^T = 2 I, rate = log 2
    cfg = CodingRateConfig(epsilon=1.0)
    assert abs(rate_total(np.eye(2), cfg) - np.log(2.0)) < 1e-12


def test_rate_total_zero_tokens_is_zero():
    cfg = CodingRateConfig()
    assert rate_total(np.zeros((4, 7)), cfg) == 0.0


def test_rate_total_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(1)
    cfg = CodingRateConfig(epsilon=0.7)
    for _ in range(50):
        d = int(rng.integers(2, 10))
        n = int(rng.integers(2, 14))
        Z = rng.normal(size=(d, n))
        alpha = d / (n * cfg.epsilon**2)
        expected = 0.5 * eig_logdet(np.eye(d) + alpha * (Z @ Z.T))
        assert abs(rate_total(Z, cfg) - expected) < 1e-8


def test_rate_total_gram_side_duality():
    # logdet(I_d + c A A^T) = logdet(I_n + c A^T A), so the rate must not
    # depend on which Gram side the implementation evaluates
    rng = np.random.default_rng(2)
    cfg = CodingRateConfig(epsilon=1.3)
    for _ in range(30):
        d = int(rng.integers(2, 6))
        n = int(rng.integers(7, 15))  # force the two sides to differ in size
        Z = rng.normal(size=(d, n))
        alpha = d / (n * cfg.epsilon**2)
        big_side = 0.5 * eig_logdet(np.eye(n) + alpha * (Z.T @ Z))
        assert abs(rate_total(Z, cfg) - big_side) < 1e-8


def test_rate_total_right_rotation_invariance():
    rng = np.random.default_rng(3)
    cfg = CodingRateConfig()
    for _ in range(20):
        d, n = 5, 8
        Z = rng.normal(size=(d, n))
        Q = orthonormal_basis(np.random.default_rng(rng.integers(2**31)), n, n)
        assert abs(rate_total(Z @ Q, cfg) - rate_total(Z, cfg)) < 1e-8


def test_rate_total_rejects_non_finite():
    cfg = CodingRateConfig()
    Z = np.ones((2, 3))
    Z[0, 0] = np.nan
    with pytest.raises(InvalidInput):
        rate_total(Z, cfg)


# ---------------------------------------------------------------------------
# rate_segmented
# ---------------------------------------------------------------------------


def test_rate_segmented_single_group_equals_total():
    rng = np.random.default_rng(4)
    cfg = CodingRateConfig(epsilon=0.9)
    Z = rng.normal(size=(4, 9))
    Pi = Membership(np.ones((1, 9)))
    assert abs(rate_segmented(Z, Pi, cfg) - rate_total(Z, cfg)) < 1e-12


def test_rate_segmented_matches_outer_product_oracle():
    # MCR²'s compression term (arXiv 2006.08558), with Z Pi_k Z^T as a sum of
    # outer products: sum_k tr(Pi_k)/(2n) logdet(I + d/(tr(Pi_k) eps^2) Z Pi_k Z^T)
    rng = np.random.default_rng(5)
    cfg = CodingRateConfig(epsilon=0.8)
    for _ in range(20):
        d = int(rng.integers(2, 7))
        n = int(rng.integers(3, 10))
        K = int(rng.integers(1, 4))
        Z = rng.normal(size=(d, n))
        weights = rng.uniform(0.1, 1.0, size=(K, n))
        expected = 0.0
        for k in range(K):
            trace = np.trace(np.diag(weights[k]))
            scatter = np.zeros((d, d))
            for j in range(n):
                scatter = scatter + weights[k, j] * np.outer(Z[:, j], Z[:, j])
            M = np.eye(d) + d / (trace * cfg.epsilon**2) * scatter
            expected += trace / (2 * n) * eig_logdet(M)
        assert abs(rate_segmented(Z, Membership(weights), cfg) - expected) < 1e-7


def test_rate_reduction_is_nonnegative_on_hard_partitions():
    # log det is concave, so MCR²'s rate reduction R(Z) - R^c(Z, Pi) is never
    # negative; without the tr(Pi_k)/n group weight it is on most partitions
    rng = np.random.default_rng(24)
    cfg = CodingRateConfig(epsilon=0.5)
    for _ in range(50):
        d, n, K = int(rng.integers(2, 8)), int(rng.integers(4, 20)), int(rng.integers(2, 4))
        Z = rng.normal(size=(d, n))
        labels = rng.integers(0, K, size=n)
        Pi = Membership((labels == np.arange(K)[:, None]).astype(np.float64))
        assert rate_total(Z, cfg) - rate_segmented(Z, Pi, cfg) >= -1e-9


def test_rate_segmented_ignores_zero_mass_group():
    rng = np.random.default_rng(6)
    cfg = CodingRateConfig()
    Z = rng.normal(size=(3, 6))
    active = rng.uniform(0.2, 1.0, size=(2, 6))
    with_empty = np.vstack([active, np.zeros((1, 6))])
    assert rate_segmented(Z, Membership(with_empty), cfg) == rate_segmented(
        Z, Membership(active), cfg
    )


def test_membership_rejects_negative_weights():
    Z = np.ones((2, 3))
    Pi = Membership(np.array([[0.5, -0.4, 0.5]]))
    with pytest.raises(InvalidInput):
        rate_segmented(Z, Pi, CodingRateConfig())


# ---------------------------------------------------------------------------
# memberships
# ---------------------------------------------------------------------------


def test_membership_from_subspaces_matches_softmax_oracle():
    rng = np.random.default_rng(8)
    Z = rng.normal(size=(5, 7))
    bank = random_bank(rng, 5, 3, 2)
    eta = 0.7
    Pi = membership_from_subspaces(Z, bank, eta)
    for i in range(7):
        raw = np.array([
            np.exp(np.sum((Uk.T @ Z[:, i]) ** 2) / (2 * eta)) for Uk in bank.bases
        ])
        expected = raw / raw.sum()
        assert np.max(np.abs(Pi.data[:, i] - expected)) < 1e-10
    assert np.max(np.abs(Pi.data.sum(axis=0) - 1.0)) < 1e-12


def test_membership_from_subspaces_rejects_bad_eta():
    rng = np.random.default_rng(9)
    Z = rng.normal(size=(4, 5))
    bank = random_bank(rng, 4, 2, 2)
    with pytest.raises(InvalidInput):
        membership_from_subspaces(Z, bank, 0.0)


# ---------------------------------------------------------------------------
# variational forms
# ---------------------------------------------------------------------------


def scalar_loop_variational(Z, weights, bases, epsilon):
    # independent oracle: everything in explicit python loops
    d, n = Z.shape
    coeff = d / epsilon**2
    total = 0.0
    for k, Uk in enumerate(bases):
        mass = sum(weights[k, j] for j in range(n))
        if mass <= 1e-12:
            continue
        term = 0.0
        for i in range(Uk.shape[1]):
            moment = 0.0
            for j in range(n):
                moment += (Uk[:, i] @ Z[:, j]) ** 2 * weights[k, j]
            term += np.log1p(coeff * moment / mass)
        total += 0.5 * (mass / n) * term
    return total


def test_variational_decoupled_matches_scalar_loop_oracle():
    rng = np.random.default_rng(10)
    cfg = CodingRateConfig(epsilon=0.9)
    for _ in range(15):
        d = int(rng.integers(3, 7))
        n = int(rng.integers(3, 8))
        K = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        Z = rng.normal(size=(d, n))
        bank = random_bank(rng, d, K, p)
        weights = rng.uniform(0.05, 1.0, size=(K, n))
        expected = scalar_loop_variational(Z, weights, bank.bases, cfg.epsilon)
        got = rate_variational_decoupled(Z, Membership(weights), bank, cfg)
        assert abs(got - expected) < 1e-9


def test_variational_coupled_equals_decoupled_at_softmax():
    # the coupled form is the decoupled form evaluated at the softmax
    # membership, so the two must agree exactly, not just approximately
    rng = np.random.default_rng(11)
    cfg = CodingRateConfig(epsilon=0.8)
    for _ in range(25):
        d = int(rng.integers(4, 9))
        n = int(rng.integers(3, 10))
        K = int(rng.integers(1, 4))
        Z = rng.normal(size=(d, n))
        bank = random_bank(rng, d, K, max(1, d // K))
        eta = float(rng.uniform(0.2, 2.0))
        Pi = membership_from_subspaces(Z, bank, eta)
        assert rate_variational_coupled(Z, bank, eta, cfg) == rate_variational_decoupled(
            Z, Pi, bank, cfg
        )


def test_variational_coupled_requires_orthonormal_bank():
    rng = np.random.default_rng(12)
    Z = rng.normal(size=(4, 5))
    bank = SubspaceBank((rng.normal(size=(4, 2)),))
    with pytest.raises(InvalidInput):
        rate_variational_coupled(Z, bank, 1.0, CodingRateConfig())


def test_variational_zero_mass_group_contributes_nothing():
    rng = np.random.default_rng(13)
    cfg = CodingRateConfig()
    Z = rng.normal(size=(4, 6))
    bank = random_bank(rng, 4, 2, 2)
    weights = np.vstack([rng.uniform(0.2, 1.0, size=(1, 6)), np.zeros((1, 6))])
    solo = rate_variational_decoupled(
        Z, Membership(weights[:1]), SubspaceBank(bank.bases[:1], orthonormal=True), cfg
    )
    assert rate_variational_decoupled(Z, Membership(weights), bank, cfg) == solo


def test_variational_decoupled_on_a_stack_equals_each_sample_alone():
    rng = np.random.default_rng(14)
    cfg = CodingRateConfig(epsilon=0.7)
    B, d, n, K = 6, 6, 7, 3
    Z = rng.normal(size=(B, d, n))
    bank = random_bank(rng, d, K, 2)
    weights = rng.uniform(0.05, 1.0, size=(B, K, n))
    weights[1, 0] = 0.0  # group 0 is empty in sample 1 only
    stacked = rate_variational_decoupled(Z, Membership(weights), bank, cfg)
    assert stacked.shape == (B,)
    for s in range(B):
        alone = rate_variational_decoupled(Z[s], Membership(weights[s]), bank, cfg)
        assert isinstance(alone, float)
        assert abs(stacked[s] - alone) <= 1e-12 * abs(alone)
    two_axes = rate_variational_decoupled(
        Z.reshape(2, 3, d, n), Membership(weights.reshape(2, 3, K, n)), bank, cfg
    )
    assert two_axes.shape == (2, 3)
    assert np.array_equal(two_axes.reshape(B), stacked)


def test_variational_stack_with_a_group_empty_everywhere_drops_it():
    rng = np.random.default_rng(17)
    cfg = CodingRateConfig()
    Z = rng.normal(size=(3, 4, 6))
    bank = random_bank(rng, 4, 2, 2)
    weights = np.concatenate([rng.uniform(0.2, 1.0, size=(3, 1, 6)), np.zeros((3, 1, 6))], axis=1)
    solo = rate_variational_decoupled(
        Z, Membership(weights[:, :1]), SubspaceBank(bank.bases[:1], orthonormal=True), cfg
    )
    assert np.array_equal(rate_variational_decoupled(Z, Membership(weights), bank, cfg), solo)


def test_stacked_tokens_and_memberships_are_validated():
    rng = np.random.default_rng(19)
    cfg = CodingRateConfig()
    Z = rng.normal(size=(3, 4, 5))
    bank = random_bank(rng, 4, 2, 2)
    Pi = Membership(rng.uniform(0.1, 1.0, size=(3, 2, 5)))
    with pytest.raises(InvalidInput):
        Membership(np.ones(5))  # no group axis
    bad = [
        (Z, Membership(np.ones((2, 2, 5)))),  # leading shapes 3 and 2
        (Z, Membership(np.ones((2, 5)))),  # a stack against one membership
        (Z[0], Pi),  # one token matrix against a stack
        (Z[:, :, :4], Pi),  # token counts differ
        (np.ones(4), Membership(np.ones((2, 1)))),  # 1-d tokens
        (np.where(Z > 1.0, np.inf, Z), Pi),
        (Z, Membership(np.ones((3, 2, 5)) * -1.0)),
    ]
    for tokens, membership in bad:
        with pytest.raises(InvalidInput):
            rate_variational_decoupled(tokens, membership, bank, cfg)
    with pytest.raises(InvalidInput):
        Membership(np.full((3, 2, 5), np.nan))
    with pytest.raises(InvalidInput):
        grad_rate_wrt_tokens(Z, Pi, bank, cfg)  # the gradient takes one token matrix


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


def finite_difference(fn, Z, h=1e-6):
    g = np.zeros_like(Z)
    for idx in np.ndindex(Z.shape):
        zp = Z.copy()
        zp[idx] += h
        zm = Z.copy()
        zm[idx] -= h
        g[idx] = (fn(zp) - fn(zm)) / (2 * h)
    return g


def test_grad_rate_matches_finite_differences():
    rng = np.random.default_rng(15)
    cfg = CodingRateConfig(epsilon=0.8)
    for _ in range(20):
        d = int(rng.integers(3, 8))
        n = int(rng.integers(3, 8))
        K = int(rng.integers(1, 4))
        p = int(rng.integers(1, 3))
        Z = rng.normal(size=(d, n))
        bank = random_bank(rng, d, K, p)
        Pi = Membership(rng.uniform(0.05, 1.0, size=(K, n)))
        grad = grad_rate_wrt_tokens(Z, Pi, bank, cfg)
        fd = finite_difference(lambda W: rate_variational_decoupled(W, Pi, bank, cfg), Z)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        assert np.max(np.abs(grad - fd)) / scale < 1e-6


def test_grad_rate_zero_mass_group_is_skipped():
    rng = np.random.default_rng(16)
    cfg = CodingRateConfig()
    Z = rng.normal(size=(4, 5))
    bank = random_bank(rng, 4, 2, 2)
    weights = np.vstack([rng.uniform(0.2, 1.0, size=(1, 5)), np.zeros((1, 5))])
    grad = grad_rate_wrt_tokens(Z, Membership(weights), bank, cfg)
    solo = grad_rate_wrt_tokens(
        Z, Membership(weights[:1]), SubspaceBank(bank.bases[:1], orthonormal=True), cfg
    )
    assert np.array_equal(grad, solo)
    assert np.all(np.isfinite(grad))


def test_grad_rate_group_count_mismatch_rejected():
    rng = np.random.default_rng(18)
    Z = rng.normal(size=(4, 5))
    bank = random_bank(rng, 4, 2, 2)
    Pi = Membership(rng.uniform(0.1, 1.0, size=(3, 5)))
    with pytest.raises(InvalidInput):
        grad_rate_wrt_tokens(Z, Pi, bank, CodingRateConfig())


# ---------------------------------------------------------------------------
# configuration validation
# ---------------------------------------------------------------------------


def test_config_rejects_nonpositive_epsilon():
    with pytest.raises(InvalidInput):
        CodingRateConfig(epsilon=0.0)
    with pytest.raises(InvalidInput):
        CodingRateConfig(epsilon=-1.0)


