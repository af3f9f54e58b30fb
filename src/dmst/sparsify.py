"""Soft-thresholding onto the probability simplex, and the sparsity cells' names.

``soft_threshold`` maps a score vector ``s`` to ``max(s - t, 0)`` with the
unique threshold ``t`` that makes the outputs sum to one; this is the
Euclidean projection onto the simplex and typically zeroes a subset of the
entries. The threshold is solved exactly with a sort and a cumulative-sum
scan. An optional ``topk`` restricts the support to the k largest scores
before projecting. ``soft_threshold`` takes one vector; the model reaches
the row-wise ``soft_threshold_matrix`` through
``autodiff.soft_threshold_rows``, which holds its active-set adjoint. A
gate from either one sparsifies a subspace bank through
``SubspaceBank.scaled``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import InvalidInput

__all__ = [
    "SPARSITY_AXES",
    "ActivationKind",
    "soft_threshold",
    "soft_threshold_matrix",
]


# Where a block sparsifies: whole heads, token memberships, or both.
SPARSITY_AXES = ("head", "token", "both")


class ActivationKind(Enum):
    """Sparsifying nonlinearities applied to raw membership scores; each output is nonnegative."""

    SOFT_THRESHOLD = "st"
    SIGMOID = "sigmoid"
    RELU = "relu"


def soft_threshold_matrix(X: np.ndarray, topk: int | None = None) -> np.ndarray:
    """Row-wise simplex soft-threshold with an optional top-k support restriction.

    Each row of the result is ``max(x - t, 0)`` on its allowed support and
    zero elsewhere, with the row's own threshold ``t``. Ties at the top-k
    boundary resolve to the lowest index via a stable sort.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise InvalidInput(f"soft_threshold_matrix expects 2-d input, got ndim={X.ndim}")
    rows, n = X.shape
    if n == 0:
        raise InvalidInput("soft_threshold_matrix needs at least one column")
    if not np.all(np.isfinite(X)):
        raise InvalidInput("soft_threshold_matrix received non-finite scores")
    k = n if topk is None else int(topk)
    if not 1 <= k <= n:
        raise InvalidInput(f"topk must lie in [1, {n}], got {topk}")

    order = np.argsort(-X, axis=1, kind="stable")[:, :k]
    top = np.take_along_axis(X, order, axis=1)
    csum = np.cumsum(top, axis=1)
    counts = np.arange(1, k + 1, dtype=np.float64)
    cand = (csum - 1.0) / counts
    # The first candidate is always feasible (top[0] > top[0] - 1), so the
    # scan below finds the last index where the sorted score exceeds it.
    feasible = top > cand
    rho = k - 1 - np.argmax(feasible[:, ::-1], axis=1)
    thresholds = cand[np.arange(rows), rho]
    vals = np.clip(top - thresholds[:, None], 0.0, None)
    out = np.zeros_like(X)
    np.put_along_axis(out, order, vals, axis=1)
    return out


def soft_threshold(s: np.ndarray, topk: int | None = None) -> np.ndarray:
    """Project a score vector onto the probability simplex.

    With ``topk`` the support is restricted to the ``topk`` largest scores;
    ties at the boundary keep the lowest-index entry.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise InvalidInput(f"scores must be a nonempty 1-d vector, got shape {s.shape}")
    return soft_threshold_matrix(s[None, :], topk=topk)[0]
