"""Post-hoc analyses of trained models: rate curves, membership maps, memory profiles.

The layer-wise rate curve evaluates the decoupled variational rate on each
attention block's output under that block's own grouping: memberships are
recomputed from the block output through the model's own score path
(``model.membership_scores`` for DMSA), and the group dictionaries are the
value projection's head blocks. Output tokens are normalized to unit length
first; without that, residual-stream growth across depth swamps the geometry
the rate is meant to measure. The rate coefficient is evaluated in the
layer's folded form (``d/eps^2 = 1``). Each chunk of samples takes one
forward and one stacked rate call per block. A stack that compresses its
tokens shows a broadly non-increasing curve.

Membership maps reshape each head's token weights at a chosen block into a
near-square grid and render them as 8-bit grayscale (PGM, P5) with per-head
min-max normalization, plus a JSON sidecar holding the raw values.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .attention import (
    AttentionKind,
    MhsaLayerParams,
    RopeTable,
    mhsa_layer_forward,
    rope_precompute,
)
from .coding_rate import CodingRateConfig, Membership, SubspaceBank, rate_variational_decoupled
from .errors import FormatError, InvalidInput
from .memcount import count_floats
from .model import (
    MAX_PARAMS,
    ModelConfig,
    _dmsa_attention,
    _tssa_attention,
    detach_params,
    membership_scores,
    model_forward,
    sparsify_scores,
    split_heads,
    tssa_membership,
)
from .rng import stream
from .sparsify import ActivationKind

PGM_MAXVAL = 255


@dataclass(frozen=True)
class RateCurve:
    """Per-block variational rates averaged over samples."""

    values: np.ndarray
    samples: int

    def nonincreasing_fraction(self) -> float:
        """Fraction of consecutive block pairs where the rate does not increase."""
        if self.values.size < 2:
            return 1.0
        diffs = np.diff(self.values)
        return float(np.mean(diffs <= 1e-12))


@dataclass(frozen=True)
class MembershipMap:
    """One block's per-head token weights arranged on a near-square grid."""

    layer: int
    grid: tuple[int, int]
    values: np.ndarray  # (heads, grid_h, grid_w)

    def __post_init__(self) -> None:
        h, w = self.grid
        if self.values.ndim != 3 or self.values.shape[1:] != (h, w):
            raise InvalidInput(
                f"membership map values {self.values.shape} do not match grid {self.grid}"
            )


def infer_grid(n_tokens: int) -> tuple[int, int]:
    """Near-square factorization of the token count, rows x cols."""
    if n_tokens < 1:
        raise InvalidInput(f"need at least one token, got {n_tokens}")
    for rows in range(int(math.isqrt(n_tokens)), 0, -1):
        if n_tokens % rows == 0:
            return rows, n_tokens // rows
    return 1, n_tokens


def _chunk_rates(
    config: ModelConfig,
    params: dict[str, ad.Tensor],
    chunk: np.ndarray,
    rope: RopeTable | None,
) -> Iterator[np.ndarray]:
    """Yield each block's per-sample rates ``(B,)`` on one chunk of samples.

    A function of its own so that nothing of this chunk's forward is alive
    during the next chunk's, which keeps the curve's memory peak at one forward.
    """
    cfg = CodingRateConfig(epsilon=float(np.sqrt(config.dim)))  # folded: f(x) = log(1+x)
    capture: list[dict] = []
    model_forward(config, params, chunk, capture=capture)
    for b, entry in enumerate(capture):
        after = entry["tokens_after_attention"]  # (B, n+1, d)
        prefix = f"blocks.{b}.attn"
        value_w = params[f"{prefix}.value_proj"].data  # (d, d), columns index output
        bank = SubspaceBank(tuple(np.split(value_w, config.heads, axis=1)))
        if config.attention is AttentionKind.DMSA:
            scores = membership_scores(ad.Tensor(after), params, prefix, rope)
            Pi = sparsify_scores(ad.transpose(scores, (0, 2, 1)), config, gate=False).data
            if config.activation is ActivationKind.GELU:
                Pi = np.clip(Pi, 0.0, None)  # rate math needs nonnegative weights
        else:
            Pi = tssa_membership(split_heads(ad.Tensor(after @ value_w), config.heads)).data
        unit = after / np.maximum(np.linalg.norm(after, axis=-1, keepdims=True), 1e-12)
        yield rate_variational_decoupled(np.swapaxes(unit, -1, -2), Membership(Pi), bank, cfg)


def layer_rate_curve(
    config: ModelConfig,
    params: dict[str, ad.Tensor],
    tokens: np.ndarray,
    max_samples: int | None = None,
    batch: int = 64,
) -> RateCurve:
    """Average per-block rate over up to ``max_samples`` sequences, ``batch`` at a time."""
    tokens = np.asarray(tokens, dtype=np.float64)
    if tokens.ndim != 3:
        raise InvalidInput(f"tokens must be (N, n, input_dim), got ndim={tokens.ndim}")
    if batch < 1 or (max_samples is not None and max_samples < 1):
        raise InvalidInput(f"batch and max_samples must be at least 1, got {batch}, {max_samples}")
    tokens = tokens[:max_samples]
    if tokens.shape[0] == 0:
        raise InvalidInput("rate curve needs at least one sample")
    if config.depth == 0:
        raise InvalidInput("rate curve needs at least one block")
    detached = detach_params(params)
    rope = rope_precompute(tokens.shape[1] + 1, config.dim) if config.use_rope else None
    totals = np.zeros(config.depth)
    for start in range(0, tokens.shape[0], batch):
        chunk = tokens[start : start + batch]
        for b, rates in enumerate(_chunk_rates(config, detached, chunk, rope)):
            for rate in rates:  # in sample order, so the sum matches one sample at a time
                totals[b] += rate
    return RateCurve(values=totals / tokens.shape[0], samples=int(tokens.shape[0]))


def membership_map(
    config: ModelConfig,
    params: dict[str, ad.Tensor],
    sample_tokens: np.ndarray,
    layer: int,
) -> MembershipMap:
    """Per-head membership weights of one sample at one block.

    The class token is dropped; the remaining weights reshape to the
    near-square grid of :func:`infer_grid`.
    """
    sample_tokens = np.asarray(sample_tokens, dtype=np.float64)
    if sample_tokens.ndim != 2:
        raise InvalidInput(f"sample must be (n, input_dim), got ndim={sample_tokens.ndim}")
    if not 0 <= layer < config.depth:
        raise InvalidInput(f"layer {layer} out of range for depth {config.depth}")
    capture: list[dict] = []
    model_forward(config, detach_params(params), sample_tokens[None], capture=capture)
    Pi = capture[layer]["membership"][0]  # (K, n+1) including the class token
    token_weights = Pi[:, 1:]
    grid = infer_grid(token_weights.shape[1])
    return MembershipMap(layer=layer, grid=grid, values=token_weights.reshape(-1, *grid))


def to_grayscale(values: np.ndarray) -> np.ndarray:
    """Min-max normalize to uint8; a constant map renders mid-gray."""
    lo, hi = float(np.min(values)), float(np.max(values))
    if hi - lo < 1e-12:
        return np.full(values.shape, 128, dtype=np.uint8)
    scaled = (values - lo) / (hi - lo) * PGM_MAXVAL
    return np.round(scaled).astype(np.uint8)


def write_pgm(path: str, image: np.ndarray) -> None:
    """Write a binary (P5) grayscale image."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise InvalidInput("PGM writer expects a 2-d uint8 array")
    rows, cols = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{cols} {rows}\n{PGM_MAXVAL}\n".encode("ascii"))
        fh.write(image.tobytes())


def read_pgm(path: str) -> np.ndarray:
    """Read a binary (P5) grayscale image written by :func:`write_pgm`."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(b"P5"):
        raise FormatError(f"{path} is not a binary PGM file")
    fields: list[int] = []
    pos = 2
    while len(fields) < 3:
        while pos < len(blob) and blob[pos : pos + 1].isspace():
            pos += 1
        if pos < len(blob) and blob[pos : pos + 1] == b"#":
            while pos < len(blob) and blob[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise FormatError(f"{path} has a truncated PGM header")
        fields.append(int(blob[start:pos]))
    pos += 1  # single whitespace byte after maxval
    cols, rows, maxval = fields
    if maxval != PGM_MAXVAL:
        raise FormatError(f"{path} has unsupported maxval {maxval}")
    if len(blob) - pos < rows * cols:
        raise FormatError(f"{path} payload is truncated")
    data = np.frombuffer(blob, dtype=np.uint8, count=rows * cols, offset=pos)
    return data.reshape(rows, cols).copy()


def write_membership_artifacts(out_dir: str, mmap: MembershipMap) -> list[str]:
    """Write one PGM per head plus a JSON sidecar with the raw values."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    for k in range(mmap.values.shape[0]):
        path = os.path.join(out_dir, f"head_{k:02d}.pgm")
        write_pgm(path, to_grayscale(mmap.values[k]))
        written.append(path)
    sidecar = os.path.join(out_dir, "membership.json")
    with open(sidecar, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "layer": mmap.layer,
                "grid": list(mmap.grid),
                "heads": mmap.values.shape[0],
                "values": mmap.values.tolist(),
            },
            fh,
            sort_keys=True,
            indent=1,
        )
        fh.write("\n")
    written.append(sidecar)
    return written


# ---------------------------------------------------------------------------
# Memory profiling
# ---------------------------------------------------------------------------

PROFILE_OPS = ("dmsa", "tssa", "mhsa")

# Largest token count a profile accepts: twice the memory gate's 8192, and
# far below counts whose input alone would not fit in memory.
PROFILE_MAX_TOKENS = 16384


def profile_attention_memory(
    op: str,
    token_counts: list[int],
    dim: int = 64,
    heads: int = 8,
    seed: int = 0,
) -> list[tuple[str, int, int]]:
    """Counted activation floats of one attention forward at each token count.

    ``dmsa`` and ``tssa`` run the model's attention sublayer on a ``(1, n,
    dim)`` input in float64, counting every array an autodiff node allocates;
    ``mhsa`` runs the standalone float32 softmax baseline, which counts its
    own intermediates. The number is the cumulative total of counted floats
    over the forward, not a resident peak, so softmax attention shows its
    quadratic score cost while the second-moment operators stay linear.
    Token counts above ``PROFILE_MAX_TOKENS``, a ``dim`` or ``heads``
    below 1, a ``dim`` that ``heads`` does not divide, and a ``dim`` whose
    four ``dim x dim`` projections exceed ``model.MAX_PARAMS`` raise
    ``InvalidInput`` before anything is drawn or allocated.
    """
    if op not in PROFILE_OPS:
        raise InvalidInput(f"op must be one of {PROFILE_OPS}, got {op!r}")
    if not token_counts:
        raise InvalidInput("token_counts must be nonempty")
    if any(n < 1 for n in token_counts):
        raise InvalidInput("token counts must be positive")
    if max(token_counts) > PROFILE_MAX_TOKENS:
        raise InvalidInput(
            f"token counts must be at most {PROFILE_MAX_TOKENS}, got {max(token_counts)}"
        )
    if dim < 1 or heads < 1:
        raise InvalidInput(f"dim and heads must be positive, got dim {dim} and {heads} heads")
    if dim % heads != 0:
        raise InvalidInput(f"dim {dim} is not divisible by {heads} heads")
    if 4 * dim * dim > MAX_PARAMS:
        raise InvalidInput(
            f"dim {dim} needs {4 * dim * dim} projection weights, more than the cap of {MAX_PARAMS}"
        )
    rng = stream(seed, f"profile-{op}")
    d = dim
    scale = 1.0 / np.sqrt(d)
    if op == "mhsa":
        mhsa = MhsaLayerParams(
            q_proj=(rng.normal(size=(d, d)) * scale).astype(np.float32),
            k_proj=(rng.normal(size=(d, d)) * scale).astype(np.float32),
            v_proj=(rng.normal(size=(d, d)) * scale).astype(np.float32),
            out_proj=(rng.normal(size=(d, d)) * scale).astype(np.float32),
            out_bias=np.zeros(d, dtype=np.float32),
            heads=heads,
        )

        def forward(tokens: np.ndarray) -> None:
            mhsa_layer_forward(tokens.astype(np.float32), mhsa)

    else:
        # The sublayer alone: a config without blocks, so the cap above governs.
        config = ModelConfig(
            depth=0, dim=d, heads=heads, topk=min(4, heads), attention=AttentionKind(op)
        )
        layer = {"attn.value_proj": ad.Tensor(rng.normal(size=(d, d)) * scale)}
        if op == "dmsa":
            layer["attn.membership_proj"] = ad.Tensor(rng.normal(size=(d, heads)) * scale)
        layer["attn.out_proj"] = ad.Tensor(rng.normal(size=(d, d)) * scale)
        layer["attn.out_bias"] = ad.Tensor(np.zeros(d))
        rope = rope_precompute(max(token_counts), d)

        def forward(tokens: np.ndarray) -> None:
            x = ad.Tensor(tokens[None])
            if op == "dmsa":
                _dmsa_attention(x, config, layer, "attn", rope)
            else:
                _tssa_attention(x, config, layer, "attn")

    rows: list[tuple[str, int, int]] = []
    for n in token_counts:
        tokens = rng.normal(size=(n, d))
        with count_floats() as counter:
            forward(tokens)
        rows.append((op, n, counter.peak_floats))
    return rows
