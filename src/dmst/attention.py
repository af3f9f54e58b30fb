"""Attention operators built on coding-rate descent, plus a softmax baseline.

The central operator, DMSA (decoupled membership-subspace attention), is the
exact negation of the token gradient of the decoupled variational rate: each
application nudges every token toward a sparse union of subspaces selected by
an externally supplied membership. Its layer form, with learned projections,
a soft-threshold head gate, sigmoid memberships and rotary position
information on the membership path only, is the attention sublayer of
:mod:`dmst.model`, as is the TSSA baseline (membership coupled to the value
projections).

This file keeps the math-form operator (``dmsa_operator``), the rotary
table the model and the analysis share (``rope_precompute``, a ``(cos,
sin)`` pair computed once per forward, and ``rotate_pairs``, which applies
it; ``(cos, -sin)`` is the inverse rotation), and one baseline that the
model does not train: standard multi-head softmax attention with its
explicit quadratic score matrix, which registers its intermediates with
:mod:`dmst.memcount` so memory contracts can be asserted on counted floats.

The paper's sparse subspaces derived from the full space S have one math
form here: ``dmsa_operator`` on ``bank.scaled(g)``, the bank with basis
``k`` multiplied by the head gate ``g[k]``. The model's head-gated layer
equals it when ``g`` gates both each head's values and its ``out_proj``
rows; the model trains the gate on the values only.

The softmax baseline makes three passes over each head's scores: the score
GEMM, an in-place ``exp``, and one GEMM against the head's values with a
ones column appended, whose last column is each row's weight sum. The usual
max shift (softmax is invariant to a per-row shift) only keeps ``exp``
finite, so a head skips it when the Cauchy-Schwarz bound ``max_i |q_i| *
max_j |k_j|`` on its scores proves ``exp`` cannot overflow or leave the
normal range; otherwise it shifts as usual. The scores of every query chunk
go into one reused buffer, and the count still registers each logical
activation (scores, weights and output of every chunk), so it counts ``2 *
heads * n**2 + 7 * n * d`` floats per forward.

``rotate_pairs`` and the softmax baseline take row-major ``(token,
channel)`` inputs; ``dmsa_operator`` keeps the ``d x n`` column convention
of :mod:`dmst.coding_rate`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coding_rate import (
    CodingRateConfig,
    Membership,
    SubspaceBank,
    TokenMatrix,
    grad_rate_wrt_tokens,
)
from .errors import InvalidInput, NumericalFault, check_int
from .memcount import track

ROPE_BASE = 10000.0

# Largest score bound at which the softmax baseline skips its max shift:
# exp(+-30) spans 9.4e-14 .. 1.1e13, about 25 decades inside each end of
# float32's normal range (1.2e-38 .. 3.4e38).
SHIFT_FREE_SCORE_BOUND = 30.0

# The ``(cos, sin)`` pair of rotary tables from :func:`rope_precompute`.
RopeTable = tuple[np.ndarray, np.ndarray]


class AttentionKind(Enum):
    DMSA = "dmsa"
    TSSA = "tssa"


# ---------------------------------------------------------------------------
# Rotary position information
# ---------------------------------------------------------------------------


def rope_precompute(max_len: int, dim: int) -> RopeTable:
    """Rotary tables: the cosines and sines of the rotation angles.

    Returns the ``(cos, sin)`` pair of ``(max_len, dim // 2)`` arrays at the
    angles ``m * theta_j``, ``theta_j = ROPE_BASE ** (-2 j / dim)``; ``dim``
    must be even because channels rotate in adjacent pairs. One pair serves
    every rotation of a forward and, as ``(cos, -sin)``, the inverse
    rotations of its backward.
    """
    if max_len < 1:
        raise InvalidInput(f"max_len must be positive, got {max_len}")
    if dim < 2 or dim % 2 != 0:
        raise InvalidInput(f"rotary dim must be a positive even number, got {dim}")
    freqs = ROPE_BASE ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
    angles = np.outer(np.arange(max_len, dtype=np.float64), freqs)
    return np.cos(angles), np.sin(angles)


def rotate_pairs(tokens: np.ndarray, rope: RopeTable) -> np.ndarray:
    """Rotate adjacent channel pairs of row-major tokens by per-position angles.

    ``tokens`` is ``(..., n, d)`` and ``rope`` a ``(cos, sin)`` pair from
    :func:`rope_precompute`; row ``i`` of every leading index is rotated
    with row ``i`` of the pair, and the caller slices the pair to select
    positions. ``(cos, -sin)`` applies the inverse rotation.
    """
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim < 2:
        raise InvalidInput(f"tokens must be (..., n, d), got ndim={tokens.ndim}")
    n, d = tokens.shape[-2:]
    cos, sin = rope
    if cos.shape[0] < n:
        raise InvalidInput(f"rope table covers {cos.shape[0]} positions, need {n}")
    if cos.shape[1] * 2 != d:
        raise InvalidInput(f"rope table is for dim {cos.shape[1] * 2}, tokens have {d}")
    cos, sin = cos[:n], sin[:n]
    even, odd = tokens[..., 0::2], tokens[..., 1::2]
    out = np.empty_like(tokens)
    out_even, out_odd = out[..., 0::2], out[..., 1::2]
    tmp = np.multiply(odd, sin)
    np.multiply(even, cos, out=out_even)
    out_even -= tmp  # even * cos - odd * sin
    np.multiply(odd, cos, out=tmp)
    np.multiply(even, sin, out=out_odd)
    out_odd += tmp  # even * sin + odd * cos
    return out


# ---------------------------------------------------------------------------
# Math-form operator
# ---------------------------------------------------------------------------


def dmsa_operator(
    Z: TokenMatrix, Pi: Membership, U_S: SubspaceBank, cfg: CodingRateConfig
) -> np.ndarray:
    """Decoupled membership-subspace attention in math form.

    Exactly the negation of ``grad_rate_wrt_tokens``: the direction that
    compresses each token toward the sparse subspaces it is assigned to.
    """
    return -grad_rate_wrt_tokens(Z, Pi, U_S, cfg)


# ---------------------------------------------------------------------------
# Softmax attention baseline
# ---------------------------------------------------------------------------


@dataclass
class MhsaLayerParams:
    """Standard multi-head softmax attention with explicit score matrices."""

    q_proj: np.ndarray
    k_proj: np.ndarray
    v_proj: np.ndarray
    out_proj: np.ndarray
    out_bias: np.ndarray
    heads: int
    chunk: int = 1024

    def __post_init__(self) -> None:
        self.q_proj = np.asarray(self.q_proj)
        self.k_proj = np.asarray(self.k_proj)
        self.v_proj = np.asarray(self.v_proj)
        self.out_proj = np.asarray(self.out_proj)
        self.out_bias = np.asarray(self.out_bias)
        check_int("heads", self.heads, 1)
        check_int("chunk", self.chunk, 1)
        if self.q_proj.ndim != 2 or self.q_proj.shape[0] < 1:
            raise InvalidInput(f"q_proj must be d x d with d >= 1, got shape {self.q_proj.shape}")
        d = self.q_proj.shape[0]
        for name, m in (("q_proj", self.q_proj), ("k_proj", self.k_proj),
                        ("v_proj", self.v_proj), ("out_proj", self.out_proj)):
            if m.shape != (d, d):
                raise InvalidInput(f"{name} must be square d x d")
        if d % self.heads != 0:
            raise InvalidInput(f"dim {d} is not divisible by {self.heads} heads")

    @property
    def dim(self) -> int:
        return self.q_proj.shape[0]

    @property
    def head_dim(self) -> int:
        return self.dim // self.heads


def mhsa_layer_forward(tokens: np.ndarray, params: MhsaLayerParams) -> np.ndarray:
    """Softmax attention on a single ``(n, d)`` sequence.

    Materializes the ``n x n`` score matrix of every head in query chunks of
    ``params.chunk`` rows, all written into one ``(min(chunk, n), n)`` buffer
    allocated once per call, and makes three passes over it: the score GEMM,
    an in-place ``exp``, and one GEMM against ``[v_h | 1]``, the head's
    values with a ones column appended. That product's last column is each
    row's weight sum, so normalizing divides a ``(chunk, head_dim)`` block
    and no pass sums the weights.

    Softmax is invariant to a per-row shift; the usual subtraction of each
    row's maximum only keeps ``exp`` finite. Each head first bounds its
    scores by Cauchy-Schwarz, ``|q_i . k_j| <= B = max_i |q_i| * max_j
    |k_j|`` with ``q`` already scaled, in ``O(n * head_dim)`` work. The head
    skips the shift when ``B <= SHIFT_FREE_SCORE_BOUND``, ``exp(-B)`` is a
    normal float (so is the weight of every row's maximum, which keeps the
    row sum away from zero), and ``n * exp(B) * max(1, max |v|)`` is below
    the dtype's largest float (so no weight, row sum or weighted value sum
    overflows). Otherwise, as for non-finite inputs, it subtracts each row's
    maximum first. The decision is per head, so it does not depend on
    ``chunk``. The arithmetic runs in the floating dtype of the projected
    tokens (float32 stays float32).

    The counted floats model logical activations, not buffers: each chunk
    registers its scores, its softmax weights and its ``(rows, head_dim)``
    value product although the first two share the buffer, so one forward
    counts exactly ``2 * heads * n**2 + 7 * n * d`` floats (the q, k and v
    projections, the head outputs, their merge and the output projection add
    ``n * d`` each).
    """
    x = np.asarray(tokens)
    if x.ndim != 2 or x.shape[1] != params.dim:
        raise InvalidInput(f"tokens must be (n, {params.dim})")
    n, d = x.shape
    K, p = params.heads, params.head_dim
    scale = 1.0 / math.sqrt(p)

    q = track(x @ params.q_proj.T).reshape(n, K, p).transpose(1, 0, 2)
    k = track(x @ params.k_proj.T).reshape(n, K, p).transpose(1, 0, 2)
    v = track(x @ params.v_proj.T).reshape(n, K, p).transpose(1, 0, 2)

    dtype = np.result_type(q, scale)
    info = np.finfo(dtype)
    tiny, huge = float(info.tiny), float(info.max)
    out_heads = track(np.empty((K, n, p), dtype=dtype))
    chunk = params.chunk
    buf = np.empty((min(chunk, n), n), dtype=dtype)
    v_ones = np.ones((n, p + 1), dtype=dtype)
    for h in range(K):
        q_h = q[h] * scale
        k_t = np.ascontiguousarray(k[h].T)
        v_ones[:, :p] = v[h]
        # Cauchy-Schwarz: |q_i . k_j| <= max_i |q_i| * max_j |k_j|; ``initial``
        # covers an empty sequence, which has no scores.
        with np.errstate(over="ignore"):
            bound = math.sqrt(
                np.einsum("ij,ij->i", q_h, q_h).max(initial=0.0)
                * np.einsum("ij,ij->j", k_t, k_t).max(initial=0.0)
            )
        v_max = max(1.0, float(np.abs(v[h]).max(initial=0.0)))
        shift = not (
            bound <= SHIFT_FREE_SCORE_BOUND
            and math.exp(-bound) >= tiny
            and n * math.exp(bound) * v_max < huge
        )
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            scores = track(np.matmul(q_h[start:stop], k_t, out=buf[: stop - start]))
            if shift:
                scores -= scores.max(axis=1, keepdims=True)
            weights = track(np.exp(scores, out=scores))
            # The ones column makes the last output column each row's weight sum.
            prod = weights @ v_ones
            track(prod[:, :p])
            np.divide(prod[:, :p], prod[:, p:], out=out_heads[h, start:stop])
    merged = track(out_heads.transpose(1, 0, 2).reshape(n, d))
    out = track(merged @ params.out_proj.T + params.out_bias)
    if not np.all(np.isfinite(out)):
        raise NumericalFault("MHSA layer produced non-finite output")
    return out
