"""Attention operators built on coding-rate descent, plus reference baselines.

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
it; ``(cos, -sin)`` is the inverse rotation), and two baselines that the
model does not train: standard multi-head softmax attention with its
explicit quadratic score matrix, which registers its intermediates with
:mod:`dmst.memcount` so memory contracts can be asserted on counted floats,
and gated channel attention with its masked-basis/matmul equivalence. The softmax baseline writes the scores of
every query chunk into one reused buffer and normalizes after the value
product; its count still registers each logical activation (scores, weights
and output of every chunk), so it counts ``2 * heads * n**2 + 7 * n * d``
floats per forward.

``rotate_pairs`` and the softmax baseline take row-major ``(token,
channel)`` inputs; ``dmsa_operator`` and gated channel attention keep the
``d x n`` column convention of :mod:`dmst.coding_rate`.
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
    check_tokens,
    grad_rate_wrt_tokens,
)
from .errors import InvalidInput, NumericalFault
from .functional import sigmoid
from .memcount import track

ROPE_BASE = 10000.0

# The ``(cos, sin)`` pair of rotary tables from :func:`rope_precompute`.
RopeTable = tuple[np.ndarray, np.ndarray]


class AttentionKind(Enum):
    DMSA = "dmsa"
    TSSA = "tssa"


# ---------------------------------------------------------------------------
# Rotary position information
# ---------------------------------------------------------------------------


def rope_precompute(max_len: int, dim: int, base: float = ROPE_BASE) -> RopeTable:
    """Rotary tables: the cosines and sines of the rotation angles.

    Returns the ``(cos, sin)`` pair of ``(max_len, dim // 2)`` arrays at the
    angles ``m * theta_j``, ``theta_j = base ** (-2 j / dim)``; ``dim`` must
    be even because channels rotate in adjacent pairs. One pair serves every
    rotation of a forward and, as ``(cos, -sin)``, the inverse rotations of
    its backward.
    """
    if max_len < 1:
        raise InvalidInput(f"max_len must be positive, got {max_len}")
    if dim < 2 or dim % 2 != 0:
        raise InvalidInput(f"rotary dim must be a positive even number, got {dim}")
    freqs = base ** (-np.arange(0, dim, 2, dtype=np.float64) / dim)
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
        if self.heads < 1:
            raise InvalidInput(f"heads must be positive, got {self.heads}")
        if self.chunk < 1 or int(self.chunk) != self.chunk:
            raise InvalidInput(f"chunk must be a positive integer, got {self.chunk}")
        self.chunk = int(self.chunk)
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
    allocated once per call: the scores are computed into it, shifted by
    their row maxima and exponentiated in place, and each chunk is
    normalized after the value product, so the divide runs over ``(chunk,
    head_dim)`` rather than ``(chunk, n)``. The arithmetic runs in the
    floating dtype of the projected tokens (float32 stays float32).

    The counted floats model logical activations, not buffers: each chunk
    registers its scores, its softmax weights and its output although the
    first two share the buffer, so one forward counts exactly ``2 * heads *
    n**2 + 7 * n * d`` floats (the q, k and v projections, the head outputs,
    their merge and the output projection add ``n * d`` each).
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
    out_heads = track(np.empty((K, n, p), dtype=dtype))
    chunk = params.chunk
    buf = np.empty((min(chunk, n), n), dtype=dtype)
    for h in range(K):
        q_h = q[h] * scale
        k_t = np.ascontiguousarray(k[h].T)
        v_h = np.ascontiguousarray(v[h])
        for start in range(0, n, chunk):
            stop = min(start + chunk, n)
            scores = track(np.matmul(q_h[start:stop], k_t, out=buf[: stop - start]))
            scores -= scores.max(axis=1, keepdims=True)
            weights = track(np.exp(scores, out=scores))
            np.divide(
                track(weights @ v_h),
                weights.sum(axis=1, keepdims=True),
                out=out_heads[h, start:stop],
            )
    merged = track(out_heads.transpose(1, 0, 2).reshape(n, d))
    out = track(merged @ params.out_proj.T + params.out_bias)
    if not np.all(np.isfinite(out)):
        raise NumericalFault("MHSA layer produced non-finite output")
    return out


# ---------------------------------------------------------------------------
# Gated channel attention
# ---------------------------------------------------------------------------


@dataclass
class GatedChannelParams:
    """Channel attention with one shared full-space basis and per-head token gates.

    ``full_space`` is the shared ``d x p`` basis; ``membership_proj`` rows
    produce one scalar gate per token and head through a sigmoid. The rate
    coefficient is folded, ``d/eps^2 = 1``.
    """

    full_space: np.ndarray
    membership_proj: np.ndarray

    def __post_init__(self) -> None:
        self.full_space = np.asarray(self.full_space, dtype=np.float64)
        self.membership_proj = np.asarray(self.membership_proj, dtype=np.float64)
        if self.full_space.ndim != 2:
            raise InvalidInput("full_space must be d x p")
        if self.membership_proj.ndim != 2 or (
            self.membership_proj.shape[1] != self.full_space.shape[0]
        ):
            raise InvalidInput("membership_proj must be K x d")

    @property
    def heads(self) -> int:
        return self.membership_proj.shape[0]

    def gates(self, Z: TokenMatrix, override: np.ndarray | None = None) -> np.ndarray:
        if override is not None:
            g = np.asarray(override, dtype=np.float64)
            if g.shape != (self.heads, Z.shape[1]):
                raise InvalidInput(f"gate override must be ({self.heads}, {Z.shape[1]})")
            return g
        return sigmoid(self.membership_proj @ Z)

    def second_moment_diag(self, Z: TokenMatrix, gates: np.ndarray) -> np.ndarray:
        """Per-head diagonal rescalings ``f'`` at the gate-weighted second moments."""
        proj = self.full_space.T @ Z  # (p, n)
        weights = gates / gates.sum(axis=1, keepdims=True)
        args = (proj * proj) @ weights.T  # (p, K)
        return 1.0 / (1.0 + args.T)  # (K, p)


def gated_channel_forward(
    Z: TokenMatrix, params: GatedChannelParams, *, gate_override: np.ndarray | None = None
) -> np.ndarray:
    """Gated channel attention, evaluated through per-token gated bases.

    For every token ``j`` and head ``k`` the shared basis is scaled by the
    scalar gate ``g_kj`` (the Hadamard-masked basis) and the resulting
    quadratic form is applied to the token. This is the literal masked-basis
    evaluation; :func:`gated_channel_reference` computes the same map in its
    matmul form with the gate applied elementwise to the channel-attention
    output.
    """
    Z = check_tokens(Z)
    gates = params.gates(Z, gate_override)
    dvecs = params.second_moment_diag(Z, gates)
    W = params.full_space
    out = np.zeros_like(Z)
    for k in range(params.heads):
        for j in range(Z.shape[1]):
            gated_basis = W * gates[k, j]
            out[:, j] += gated_basis @ (dvecs[k] * (gated_basis.T @ Z[:, j]))
    return out


def gated_channel_reference(
    Z: TokenMatrix, params: GatedChannelParams, *, gate_override: np.ndarray | None = None
) -> np.ndarray:
    """Matmul form of gated channel attention.

    The per-token scalar gates commute through the quadratic form, turning
    the Hadamard-masked bases into an elementwise (squared) gate on the
    plain channel-attention output: ``sum_k G_k^2 * (W D_k W^T Z)``. With
    all-ones gates this is plain channel attention.
    """
    Z = check_tokens(Z)
    gates = params.gates(Z, gate_override)
    dvecs = params.second_moment_diag(Z, gates)
    W = params.full_space
    out = np.zeros_like(Z)
    for k in range(params.heads):
        channel = W @ (dvecs[k][:, None] * (W.T @ Z))
        out += (gates[k] ** 2)[None, :] * channel
    return out
