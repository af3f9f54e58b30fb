"""Lossy coding-rate estimates for token features and their variational forms.

Conventions used throughout the module:

* A token matrix ``Z`` is ``d x n`` with one token per *column* (the math
  convention). Row-major ``(token, channel)`` layouts used at the package
  boundary are converted before calling in here.
* A membership ``Pi`` is ``K x n``: row ``k`` holds the weights assigning
  each token to group ``k``. Rows need not be normalized; the group mass
  ``n_k`` is the row sum.
* All rate math runs in double precision and returns values in nats.
* ``rate_variational_decoupled`` also takes a leading batch axis: a
  ``(..., d, n)`` stack with a ``(..., K, n)`` membership, one rate per sample.

The total rate ``R(Z)`` measures the volume of the whole token set under a
Gaussian codebook at precision ``epsilon``; the segmented rate measures it
after splitting tokens into groups, each group's rate weighted by its token
share ``tr(Pi_k)/n`` as in MCR² (arXiv 2006.08558); the variational forms
replace the log-determinant with a sum of scalar
``f(x) = log(1 + (d/eps^2) x)`` terms over per-direction second moments,
which is what the attention operator differentiates. ``grad_rate_wrt_tokens``
is that token gradient at a fixed membership (its negation is the DMSA
operator); it and ``rate_variational_decoupled`` share one per-group
second-moment loop.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInput, NotPSD
from .functional import softmax

logger = logging.getLogger(__name__)

# Groups whose total mass falls below this are treated as empty: they
# contribute neither rate nor gradient.
ZERO_MASS = 1e-12

# Token matrices are plain float64 arrays in the d x n column convention.
TokenMatrix = np.ndarray


def check_tokens(Z: np.ndarray, name: str = "Z", *, stacked: bool = False) -> TokenMatrix:
    """Validate and coerce a token matrix to float64 ``d x n`` (``(..., d, n)`` if stacked)."""
    Z = np.asarray(Z, dtype=np.float64)
    if Z.ndim != 2 and not (stacked and Z.ndim > 2):
        raise InvalidInput(f"{name} must be a 2-d token matrix, got ndim={Z.ndim}")
    if not np.all(np.isfinite(Z)):
        raise InvalidInput(f"{name} contains non-finite entries")
    return Z


@dataclass(frozen=True)
class CodingRateConfig:
    """Codebook precision of the rate family.

    ``epsilon`` is the codebook precision. The data dependent coefficients
    ``alpha = d / (n eps^2)`` and ``gamma_k = d / (n_k eps^2)`` are derived
    per call.
    """

    epsilon: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.epsilon) and self.epsilon > 0):
            raise InvalidInput(f"epsilon must be finite and positive, got {self.epsilon}")

    def alpha(self, d: int, n: int) -> float:
        return d / (n * self.epsilon**2)

    def gamma(self, d: int, mass: float) -> float:
        return d / (mass * self.epsilon**2)

    def f_coeff(self, d: int) -> float:
        """Coefficient of the scalar surrogate ``f(x) = log(1 + (d/eps^2) x)``."""
        return d / self.epsilon**2


@dataclass(frozen=True)
class Membership:
    """Soft assignment of ``n`` tokens to ``K`` groups, one group per row (``(..., K, n)`` stacks)."""

    data: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim < 2:
            raise InvalidInput(f"membership must be K x n, got ndim={data.ndim}")
        if not np.all(np.isfinite(data)):
            raise InvalidInput("membership contains non-finite entries")
        object.__setattr__(self, "data", data)

    @property
    def groups(self) -> int:
        return self.data.shape[-2]

    @property
    def tokens(self) -> int:
        return self.data.shape[-1]


@dataclass(frozen=True)
class SubspaceBank:
    """A family of ``K`` subspace bases, each ``d x p`` with columns as directions."""

    bases: tuple[np.ndarray, ...]
    orthonormal: bool = False

    def __post_init__(self) -> None:
        if len(self.bases) == 0:
            raise InvalidInput("subspace bank must hold at least one basis")
        bases = tuple(np.asarray(b, dtype=np.float64) for b in self.bases)
        d = bases[0].shape[0] if bases[0].ndim == 2 else -1
        for idx, b in enumerate(bases):
            if b.ndim != 2 or b.shape[0] != d:
                raise InvalidInput(f"basis {idx} is not d x p with shared d")
            if not np.all(np.isfinite(b)):
                raise InvalidInput(f"basis {idx} contains non-finite entries")
            if self.orthonormal:
                gram = b.T @ b
                if np.max(np.abs(gram - np.eye(b.shape[1]))) > 1e-8:
                    raise InvalidInput(f"basis {idx} is not orthonormal within 1e-8")
        object.__setattr__(self, "bases", bases)

    @property
    def count(self) -> int:
        return len(self.bases)

    @property
    def ambient_dim(self) -> int:
        return self.bases[0].shape[0]

    def scaled(self, gates: Sequence[float]) -> "SubspaceBank":
        """Return a bank with basis ``k`` multiplied by ``gates[k]``."""
        gates = np.asarray(gates, dtype=np.float64)
        if gates.shape != (self.count,):
            raise InvalidInput(f"expected {self.count} gates, got shape {gates.shape}")
        return SubspaceBank(tuple(g * b for g, b in zip(gates, self.bases)), orthonormal=False)


def logdet_psd(M: np.ndarray) -> float:
    """Log-determinant of a symmetric PSD matrix via factorization.

    Tries a Cholesky factorization first and falls back to an
    eigendecomposition for semi-definite inputs. Raises ``NotPSD`` when an
    eigenvalue dips below ``-1e-8``; eigenvalues in ``[-1e-8, 0)`` are
    treated as exact zeros.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInput(f"logdet_psd expects a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidInput("logdet_psd received non-finite entries")
    if M.size and np.max(np.abs(M - M.T)) > 1e-10:
        raise InvalidInput("logdet_psd expects a symmetric matrix (within 1e-10)")
    try:
        chol = np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        eigs = np.linalg.eigvalsh(M)
        if eigs.size and eigs[0] < -1e-8:
            raise NotPSD(f"matrix has negative eigenvalue {eigs[0]:.3e}")
        eigs = np.clip(eigs, 0.0, None)
        with np.errstate(divide="ignore"):
            return float(np.sum(np.log(eigs)))
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def _gram_rate(A: np.ndarray, coeff: float) -> float:
    """``0.5 * logdet(I + coeff * A A^T)`` evaluated on the smaller Gram side.

    ``logdet(I_d + c A A^T) = logdet(I_n + c A^T A)`` for any ``d x n`` A, so
    the factorization always runs on a ``min(d, n)`` square matrix.
    """
    d, n = A.shape
    if d <= n:
        gram = np.eye(d) + coeff * (A @ A.T)
    else:
        gram = np.eye(n) + coeff * (A.T @ A)
    # Blocked matmul can leave asymmetry at rounding level; symmetrize before
    # the strict symmetry check inside logdet_psd.
    gram = 0.5 * (gram + gram.T)
    return 0.5 * logdet_psd(gram)


def rate_total(Z: TokenMatrix, cfg: CodingRateConfig) -> float:
    """Rate of the whole token set, ``0.5 logdet(I + alpha Z Z^T)``."""
    Z = check_tokens(Z)
    d, n = Z.shape
    if n == 0:
        raise InvalidInput("rate_total needs at least one token")
    return _gram_rate(Z, cfg.alpha(d, n))


def _check_membership(Z: TokenMatrix, Pi: Membership) -> np.ndarray:
    if Pi.data.shape[:-2] != Z.shape[:-2] or Pi.tokens != Z.shape[-1]:
        raise InvalidInput(f"membership {Pi.data.shape} does not cover tokens {Z.shape}")
    data = Pi.data
    if np.min(data) < -ZERO_MASS:
        raise InvalidInput(f"membership weights must be nonnegative, min={np.min(data):.3e}")
    return np.clip(data, 0.0, None)


def rate_segmented(Z: TokenMatrix, Pi: Membership, cfg: CodingRateConfig) -> float:
    """Rate after segmenting tokens by ``Pi``.

    MCR²'s compression term: the sum over groups of
    ``(n_k/n) * 0.5 logdet(I + gamma_k Z diag(pi_k) Z^T)`` with
    ``n_k = tr(Pi_k)``, the group weight of ``rate_variational_decoupled``.
    Log-det concavity then makes ``rate_total - rate_segmented`` nonnegative
    for every hard partition. Groups with mass at or below ``ZERO_MASS``
    contribute zero.
    """
    Z = check_tokens(Z)
    weights = _check_membership(Z, Pi)
    d, n = Z.shape
    total = 0.0
    for pik in weights:
        mass = float(pik.sum())
        if mass <= ZERO_MASS:
            continue
        weighted = Z * np.sqrt(pik)[None, :]
        total += (mass / n) * _gram_rate(weighted, cfg.gamma(d, mass))
    return total


def _check_bank(Z: TokenMatrix, U: SubspaceBank) -> None:
    if U.ambient_dim != Z.shape[-2]:
        raise InvalidInput(
            f"subspace bank lives in dimension {U.ambient_dim} but Z has d={Z.shape[-2]}"
        )


def membership_from_subspaces(Z: TokenMatrix, U: SubspaceBank, eta: float) -> Membership:
    """Softmax membership from projection energies.

    Token ``i`` is assigned to group ``k`` with weight proportional to
    ``exp(||U_k^T z_i||^2 / (2 eta))``; columns sum to one.
    """
    Z = check_tokens(Z)
    _check_bank(Z, U)
    if not (np.isfinite(eta) and eta > 0):
        raise InvalidInput(f"eta must be finite and positive, got {eta}")
    energy = np.stack([np.sum((Uk.T @ Z) ** 2, axis=0) for Uk in U.bases])
    return Membership(softmax(energy / (2.0 * eta), axis=0))


def _nonempty_groups(Z: TokenMatrix, Pi: Membership, U: SubspaceBank):
    """Yield ``(k, U_k, pi_k, n_k, U_k^T Z, args)`` for every nonempty group of a checked ``Z``.

    ``Z`` is ``(..., d, n)`` and ``pi_k``, ``n_k`` carry its leading shape.
    ``args`` holds the per-direction second moments
    ``(1/n_k) sum_j pi_kj (U_k^T z_j)^2``, clipped at zero once they pass the
    negativity check. A group with mass at or below ``ZERO_MASS`` has zero
    ``args`` in that sample, and is skipped if empty in every sample.
    """
    _check_bank(Z, U)
    weights = _check_membership(Z, Pi)
    if Pi.groups != U.count:
        raise InvalidInput(f"membership has {Pi.groups} groups but bank has {U.count}")
    for k, Uk in enumerate(U.bases):
        pik = weights[..., k, :]
        mass = pik.sum(axis=-1)
        empty = np.count_nonzero(mass <= ZERO_MASS)
        denom = mass
        if empty:
            logger.debug("group %d has zero mass in %d sample(s), skipped", k, empty)
            if empty == np.size(mass):
                continue
            denom = np.where(mass > ZERO_MASS, mass, np.inf)  # an empty sample's moments are 0
        proj = Uk.T @ Z
        args = ((proj * proj) @ pik[..., None])[..., 0] / denom[..., None]
        if np.min(args) < -ZERO_MASS:
            raise InvalidInput(
                f"variational rate argument went negative ({np.min(args):.3e}) in group {k}"
            )
        yield k, Uk, pik, mass, proj, np.clip(args, 0.0, None)


def rate_variational_decoupled(
    Z: TokenMatrix, Pi: Membership, U_S: SubspaceBank, cfg: CodingRateConfig
) -> float | np.ndarray:
    """Variational rate with externally supplied membership and (possibly sparse) bases.

    ``0.5 sum_k (n_k/n) sum_i f((1/n_k) (U_k^T Z diag(pi_k) Z^T U_k)_ii)``
    where ``f(x) = log(1 + (d/eps^2) x)``. The membership is taken as given;
    it is not recomputed from the bases. A ``d x n`` ``Z`` gives a float, a
    ``(..., d, n)`` stack the ``(...)`` array of its samples' rates.
    """
    Z = check_tokens(Z, stacked=True)
    d, n = Z.shape[-2:]
    coeff = cfg.f_coeff(d)
    terms = np.zeros(Z.shape[:-2] + (U_S.count,))  # per group; zero for empty groups
    for k, _, _, mass, _, args in _nonempty_groups(Z, Pi, U_S):
        terms[..., k] = 0.5 * (mass / n) * np.sum(np.log1p(coeff * args), axis=-1)
    rates = np.sum(terms, axis=-1)
    return float(rates) if rates.ndim == 0 else rates


def rate_variational_coupled(
    Z: TokenMatrix, U: SubspaceBank, eta: float, cfg: CodingRateConfig
) -> float:
    """Variational rate with membership coupled to the (orthonormal) bases.

    Computes the softmax membership from projection energies onto ``U`` and
    evaluates the same sum as the decoupled form, so the two agree exactly
    when the decoupled form is handed that membership and the same bank.
    """
    if not U.orthonormal:
        raise InvalidInput("coupled variational rate requires an orthonormal bank")
    Pi = membership_from_subspaces(Z, U, eta)
    return rate_variational_decoupled(Z, Pi, U, cfg)


def grad_rate_wrt_tokens(
    Z: TokenMatrix, Pi: Membership, U_S: SubspaceBank, cfg: CodingRateConfig
) -> np.ndarray:
    """Gradient of the decoupled variational rate with respect to the tokens.

    The membership is treated as a constant. Returns a ``d x n`` matrix
    ``(1/n) sum_k U_k D_k U_k^T Z diag(pi_k)`` where ``D_k`` is the diagonal
    of ``f'`` evaluated at the per-direction second moments of group ``k``.
    Empty groups are skipped with a diagnostic.
    """
    Z = check_tokens(Z)
    d, n = Z.shape
    coeff = cfg.f_coeff(d)
    grad = np.zeros_like(Z)
    for _, Uk, pik, _, proj, args in _nonempty_groups(Z, Pi, U_S):
        dvec = coeff / (1.0 + coeff * args)
        grad += Uk @ (dvec[:, None] * proj * pik[None, :])
    return grad / n
