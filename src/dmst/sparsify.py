"""Soft-thresholding onto the probability simplex and membership/subspace sparsifiers.

``soft_threshold`` maps a score vector ``s`` to ``max(s - t, 0)`` with the
unique threshold ``t`` that makes the outputs sum to one; this is the
Euclidean projection onto the simplex and typically zeroes a subset of the
entries. The threshold is solved exactly with a sort and a cumulative-sum
scan. An optional ``topk`` restricts the support to the k largest scores
before projecting. ``soft_threshold`` takes one vector; the model and the
autodiff op use the row-wise ``soft_threshold_matrix`` and its backward.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coding_rate import Membership, SubspaceBank
from .errors import InvalidInput

__all__ = [
    "SPARSITY_AXES",
    "ActivationKind",
    "SparseWeights",
    "soft_threshold",
    "soft_threshold_matrix",
    "soft_threshold_backward",
    "sparse_subspace",
]


# Where a block sparsifies: whole heads, token memberships, or both.
SPARSITY_AXES = ("head", "token", "both")


class ActivationKind(Enum):
    """Sparsifying nonlinearities applied to raw membership scores."""

    SOFT_THRESHOLD = "st"
    SIGMOID = "sigmoid"
    RELU = "relu"
    GELU = "gelu"


@dataclass(frozen=True)
class SparseWeights:
    """Result of a simplex soft-threshold: weights, threshold, and support."""

    values: np.ndarray
    threshold: float
    support: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))
        object.__setattr__(self, "support", np.asarray(self.support, dtype=np.int64))


def soft_threshold_matrix(
    X: np.ndarray, topk: int | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise simplex soft-threshold with an optional top-k support restriction.

    Returns ``(out, thresholds, active)`` where each row of ``out`` is
    ``max(x - t, 0)`` on its allowed support and zero elsewhere, ``thresholds``
    holds the per-row ``t``, and ``active`` flags the strictly positive
    outputs (the set the backward pass centers over). Ties at the top-k
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
    active = out > 0.0
    return out, thresholds, active


def soft_threshold_backward(dout: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Backward pass of the row-wise soft threshold at a fixed active set.

    On the active set the map is ``x -> x - (sum(x) - 1)/|A|``, so the
    Jacobian-transpose action centers the incoming gradient over the active
    entries and zeroes it elsewhere.
    """
    dout = np.asarray(dout, dtype=np.float64)
    counts = active.sum(axis=-1, keepdims=True)
    counts = np.maximum(counts, 1)
    masked = np.where(active, dout, 0.0)
    mean = masked.sum(axis=-1, keepdims=True) / counts
    return np.where(active, dout - mean, 0.0)


def soft_threshold(s: np.ndarray, topk: int | None = None) -> SparseWeights:
    """Project a score vector onto the probability simplex.

    With ``topk`` the support is restricted to the ``topk`` largest scores;
    ties at the boundary keep the lowest-index entry.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 1 or s.size == 0:
        raise InvalidInput(f"scores must be a nonempty 1-d vector, got shape {s.shape}")
    out, thresholds, _ = soft_threshold_matrix(s[None, :], topk=topk)
    values = out[0]
    return SparseWeights(values, float(thresholds[0]), np.flatnonzero(values > 0.0))


def sparse_subspace(S: SubspaceBank, Pi: Membership, axis: str, topk: int = 4) -> SubspaceBank:
    """Sparsify a subspace bank according to a membership and an axis.

    ``head``: gate whole bases with ``g = soft_threshold(mean-over-tokens of
    the membership rows, topk)``, scaling basis ``k`` by ``g_k`` (no
    renormalization of the bases afterwards). ``token``: the bank is returned
    unchanged because token-axis sparsity lives in the membership, which the
    attention weighting consumes directly.
    ``both`` composes the two, so the bank side again receives the head gate.
    """
    if axis not in SPARSITY_AXES:
        raise InvalidInput(f"axis must be one of {'/'.join(SPARSITY_AXES)}, got {axis!r}")
    if Pi.groups != S.count:
        raise InvalidInput(f"membership has {Pi.groups} groups but bank has {S.count}")
    if axis == "token":
        return SubspaceBank(S.bases, orthonormal=S.orthonormal)
    gate = soft_threshold(Pi.data.mean(axis=1), topk=min(int(topk), S.count))
    return S.scaled(gate.values)
