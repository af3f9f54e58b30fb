"""Toy token classifier built from DMSA blocks.

Input tokens are linearly embedded, a class token is prepended at position
zero, and the sequence passes through ``depth`` pre-norm residual blocks: an
attention sublayer (DMSA by default, TSSA as a baseline) followed by a
two-layer GELU MLP. The class token's final state feeds a linear head. All
computation runs through :mod:`dmst.autodiff`, so gradients for every
parameter come from the same graph the forward pass builds.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .attention import AttentionKind, RopeTable, rope_precompute, rotate_pairs
from .errors import DataMismatch, InvalidInput, NumericalFault, check_int, check_real
from .rng import stream
from .sparsify import SPARSITY_AXES, ActivationKind

MLP_HIDDEN_RATIO_DEFAULT = 4.0

# Most trainable floats a config may ask for: 400 MB as float64, before
# gradients and the two AdamW moments.
MAX_PARAMS = 50_000_000

# Guard added to membership normalizers before division, so the layer and
# the math-form operator agree only up to ~1e-8/n_k.
MEMBERSHIP_EPS = 1e-8

# Token rows per tile of a no-grad forward: each block's per-token
# intermediates (norms, rotated tokens, MLP hidden activations, projection
# outputs) hold at most this many rows, whatever the token count.
_TILE = 512


# Integer fields and their least allowed value; ``max_tokens`` leaves room
# for the class token and one input token.
_INT_MINIMUMS = {
    "depth": 1, "dim": 1, "heads": 1, "num_classes": 1, "input_dim": 1, "topk": 1,
    "max_tokens": 2, "seed": 0,
}


def _enum_field(name: str, kind: type[Enum], value) -> Enum:
    """``value`` as a member of ``kind``, given the member or its string value."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise InvalidInput(f"unknown {name} {value!r}") from None


@dataclass
class ModelConfig:
    """Architecture and initialization settings of the classifier.

    ``input_dim`` is the feature size of incoming tokens; membership maps
    lay a sample's tokens out on a near-square grid. ``max_tokens`` caps the
    input length (class token included); a forward builds its rotary table
    for exactly the tokens it is given.
    Every field is checked on construction, so a bad value raises
    ``InvalidInput`` whether it comes from Python, a config file or a
    checkpoint header; ``attention`` and ``activation`` also accept their
    string values. ``topk`` above ``heads`` keeps every head. Of the
    (attention, sparsity_axis, activation) cells only the eight distinct ones construct.
    """

    depth: int = 4
    dim: int = 64
    heads: int = 8
    mlp_ratio: float = MLP_HIDDEN_RATIO_DEFAULT
    num_classes: int = 4
    input_dim: int = 32
    attention: AttentionKind = AttentionKind.DMSA
    sparsity_axis: str = "head"
    topk: int = 4
    activation: ActivationKind = ActivationKind.SOFT_THRESHOLD
    use_rope: bool = True
    max_tokens: int = 4096
    seed: int = 0

    def __post_init__(self) -> None:
        for name, minimum in _INT_MINIMUMS.items():
            check_int(name, getattr(self, name), minimum)
        self.attention = _enum_field("attention", AttentionKind, self.attention)
        self.activation = _enum_field("activation", ActivationKind, self.activation)
        if self.dim % self.heads != 0:
            raise InvalidInput(f"dim {self.dim} must be a positive multiple of heads {self.heads}")
        if self.dim % 2 != 0:
            raise InvalidInput(f"dim must be even for rotary pairs, got {self.dim}")
        if self.sparsity_axis not in SPARSITY_AXES:
            raise InvalidInput(f"unknown sparsity_axis {self.sparsity_axis!r}")
        soft = self.activation is ActivationKind.SOFT_THRESHOLD
        if self.attention is AttentionKind.TSSA and not (soft and self.sparsity_axis == "head"):
            raise InvalidInput("attention tssa derives its memberships from its subspaces, so it "
                               "has no sparsity_axis or activation; keep the defaults head and st")
        if self.sparsity_axis == "both" and not soft:
            raise InvalidInput(f"sparsity_axis both with activation {self.activation.value} is the "
                               "head cell; use sparsity_axis = head")
        if not isinstance(self.use_rope, bool):
            raise InvalidInput(f"use_rope must be true or false, got {self.use_rope!r}")
        check_real("mlp_ratio", self.mlp_ratio, 0.0, strict=True)
        if not self.dim * self.mlp_ratio < math.inf or self.mlp_hidden < 1:
            raise InvalidInput(
                f"dim x mlp_ratio must be finite and round to at least 1 MLP hidden unit, "
                f"got {self.dim} x {self.mlp_ratio}"
            )
        count = param_count(self)
        if count > MAX_PARAMS:
            raise InvalidInput(f"model has {count} parameters, more than the cap of {MAX_PARAMS}")

    @property
    def mlp_hidden(self) -> int:
        return int(round(self.dim * self.mlp_ratio))


def config_to_dict(config: ModelConfig) -> dict:
    out = {}
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, (AttentionKind, ActivationKind)):
            value = value.value
        out[f.name] = value
    return out


def config_from_dict(raw: dict) -> ModelConfig:
    """Inverse of :func:`config_to_dict`; unknown keys and bad values raise ``InvalidInput``."""
    unknown = set(raw) - {f.name for f in fields(ModelConfig)}
    if unknown:
        raise InvalidInput(f"unknown model config keys: {sorted(unknown)}")
    return ModelConfig(**raw)


def _trunc_normal(rng: np.random.Generator, shape: tuple[int, ...], std: float = 0.02) -> np.ndarray:
    """Normal draws with resampling outside two standard deviations."""
    out = rng.normal(0.0, std, size=shape)
    bad = np.abs(out) > 2.0 * std
    while bad.any():
        out[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(out) > 2.0 * std
    return out


def param_shapes(
    config: ModelConfig, depth: int | None = None
) -> Iterator[tuple[str, tuple[int, ...]]]:
    """Name and shape of every trainable tensor, in canonical serialization order.

    The only definition of the layout: a checkpoint's payload holds these
    tensors in this order. ``depth`` replaces ``config.depth``, so
    :func:`param_count` can size an untrusted config from zero and one block.
    """
    d, hidden = config.dim, config.mlp_hidden
    yield "embed.weight", (config.input_dim, d)
    yield "embed.bias", (d,)
    yield "cls_token", (1, 1, d)
    for i in range(config.depth if depth is None else depth):
        prefix = f"blocks.{i}"
        yield f"{prefix}.norm1.scale", (d,)
        yield f"{prefix}.norm1.shift", (d,)
        yield f"{prefix}.attn.value_proj", (d, d)
        if config.attention is AttentionKind.DMSA:
            yield f"{prefix}.attn.membership_proj", (d, config.heads)
        yield f"{prefix}.attn.out_proj", (d, d)
        yield f"{prefix}.attn.out_bias", (d,)
        yield f"{prefix}.norm2.scale", (d,)
        yield f"{prefix}.norm2.shift", (d,)
        yield f"{prefix}.mlp.fc1.weight", (d, hidden)
        yield f"{prefix}.mlp.fc1.bias", (hidden,)
        yield f"{prefix}.mlp.fc2.weight", (hidden, d)
        yield f"{prefix}.mlp.fc2.bias", (d,)
    yield "norm.scale", (d,)
    yield "norm.shift", (d,)
    yield "head.weight", (d, config.num_classes)
    yield "head.bias", (config.num_classes,)


def init_params(config: ModelConfig) -> dict[str, ad.Tensor]:
    """Initialize all trainable tensors, keyed by hierarchical names.

    Projections use truncated normal (std 0.02), biases and norm offsets
    start at zero, norm scales at one. Insertion order is the canonical
    serialization order of :func:`param_shapes`.
    """
    rng = stream(config.seed, "init")
    params: dict[str, ad.Tensor] = {}
    for name, shape in param_shapes(config):
        if name.endswith(("bias", "shift")):
            value = np.zeros(shape)
        elif name.endswith("scale"):
            value = np.ones(shape)
        else:
            value = _trunc_normal(rng, shape)
        params[name] = ad.Tensor(value, requires_grad=True)
    return params


def param_count(config: ModelConfig) -> int:
    """Trainable floats of ``init_params(config)``, from the layout of zero and one block."""
    outer, with_block = (
        sum(math.prod(shape) for _, shape in param_shapes(config, depth)) for depth in (0, 1)
    )
    return outer + config.depth * (with_block - outer)


# LayerNorm's variance guard.
_NORM_EPS = 1e-6


def _layer_norm(x, p: dict, name: str) -> ad.Tensor:
    """LayerNorm ``name`` of ``x`` (``norm`` is the final one); an overflow names it.

    The scale and shift are ``p``'s ``{name}.scale`` and ``{name}.shift``,
    tensors or the arrays of a forward without a graph.
    """
    try:
        return ad.layer_norm(x, p[f"{name}.scale"], p[f"{name}.shift"], _NORM_EPS)
    except NumericalFault as exc:
        raise NumericalFault(f"{name}: {exc}") from None


def sparsify_scores(scores: ad.Tensor, config: ModelConfig, *, gate: bool) -> ad.Tensor:
    """The block's sparsifying activation of raw scores, along the last axis.

    With ``gate`` the scores are the ``(..., K)`` token means and the result
    is the head mask; the soft threshold then keeps at most ``topk`` heads.
    Otherwise the scores are ``(..., K, n)`` and the result is the membership
    Pi: the soft threshold projects each head's token weights onto the
    simplex, except on head-axis blocks, which spend the simplex on the gate
    and keep sigmoid memberships. The other kinds act elementwise.
    """
    soft = config.activation is ActivationKind.SOFT_THRESHOLD
    if soft and gate:
        return ad.soft_threshold_rows(scores, topk=min(config.topk, scores.shape[-1]))
    if soft and config.sparsity_axis != "head":
        return ad.soft_threshold_rows(scores)
    return ad.relu(scores) if config.activation is ActivationKind.RELU else ad.sigmoid(scores)


def split_heads(values: ad.Tensor, heads: int) -> ad.Tensor:
    """``(B, n, d)`` projections to ``(B, K, n, d // K)`` head features."""
    B, n, d = values.shape
    return ad.transpose(ad.reshape(values, (B, n, heads, d // heads)), (0, 2, 1, 3))


def tssa_membership(w: ad.Tensor) -> ad.Tensor:
    """TSSA memberships ``(B, K, n)`` from head features ``(B, K, n, p)``.

    Each head channel is normalized over tokens; a token's membership is the
    softmax over heads of its energy in each head (temperature fixed at 1),
    so membership and subspaces are coupled.
    """
    sq = ad.sum_(w * w, axis=2, keepdims=True)  # (B, K, 1, p)
    unit = w * ad.pow_scalar(sq + 1e-12, -0.5)
    energy = ad.sum_(unit * unit, axis=3)  # (B, K, n)
    return ad.softmax(energy, axis=1)


def second_moment_tail(
    w: ad.Tensor, Pi: ad.Tensor, out_proj: ad.Tensor, out_bias: ad.Tensor
) -> ad.Tensor:
    """The rescaling step shared by DMSA and TSSA, through the output projection.

    Each head channel of ``w`` ``(B, K, n, p)`` is divided by one plus its
    second moment under the normalized memberships ``Pi`` ``(B, K, n)``; the
    output is the negated, membership-weighted result with heads merged back
    to ``(B, n, d)``. Linear in the token count.
    """
    B, K, n, hd = w.shape
    out = ad.second_moment_rescale(w, Pi, MEMBERSHIP_EPS)
    merged = ad.reshape(ad.transpose(out, (0, 2, 1, 3)), (B, n, K * hd))
    return ad.linear(merged, out_proj, out_bias)


def _dmsa_attention(
    x: ad.Tensor,
    config: ModelConfig,
    p: dict[str, ad.Tensor],
    prefix: str,
    rope: RopeTable | None,
    capture: dict | None = None,
) -> ad.Tensor:
    """DMSA sublayer on ``(B, n, d)`` tokens.

    Values split into heads; the membership scores are the (rotary-rotated)
    tokens through the membership projection, and their activation is the
    membership Pi. Head-axis blocks gate whole heads with the activation of
    the token-mean membership scores.
    """
    B = x.shape[0]
    K = config.heads
    rotated = ad.rope_rotate(x, rope) if rope is not None else x
    scores = rotated @ p[f"{prefix}.membership_proj"]  # (B, n, K)
    w = split_heads(x @ p[f"{prefix}.value_proj"], K)  # (B, K, n, hd)

    if config.sparsity_axis in ("head", "both"):
        mask = sparsify_scores(ad.mean(scores, axis=1), config, gate=True)  # (B, K)
        w = w * ad.reshape(mask, (B, K, 1, 1))
        if capture is not None:
            capture["head_mask"] = mask.data.copy()

    Pi = sparsify_scores(ad.transpose(scores, (0, 2, 1)), config, gate=False)  # (B, K, n)
    if capture is not None:
        capture["membership"] = Pi.data.copy()
    return second_moment_tail(w, Pi, p[f"{prefix}.out_proj"], p[f"{prefix}.out_bias"])


def _tssa_attention(
    x: ad.Tensor,
    config: ModelConfig,
    p: dict[str, ad.Tensor],
    prefix: str,
    capture: dict | None = None,
) -> ad.Tensor:
    """TSSA sublayer (the ToST baseline): memberships coupled to the value heads."""
    w = split_heads(x @ p[f"{prefix}.value_proj"], config.heads)  # (B, K, n, hd)
    Pi = tssa_membership(w)
    if capture is not None:
        capture["membership"] = Pi.data.copy()
    return second_moment_tail(w, Pi, p[f"{prefix}.out_proj"], p[f"{prefix}.out_bias"])


def _attention_sublayer(
    x: ad.Tensor,
    config: ModelConfig,
    p: dict[str, ad.Tensor],
    prefix: str,
    rope: RopeTable | None,
    capture: dict | None,
) -> ad.Tensor:
    """Block ``prefix``'s attention sublayer on its pre-norm of the residual stream ``x``."""
    h = _layer_norm(x, p, f"{prefix}.norm1")
    if config.attention is AttentionKind.DMSA:
        return _dmsa_attention(h, config, p, f"{prefix}.attn", rope, capture)
    return _tssa_attention(h, config, p, f"{prefix}.attn", capture)


def _mlp_sublayer(x, p: dict, prefix: str) -> ad.Tensor:
    """Block ``prefix``'s two-layer GELU MLP on its pre-norm of the residual stream ``x``.

    After the norm, two nodes: fc1 (:func:`ad.linear`) and GELU into fc2
    (:func:`ad.gelu_linear`). In a graph they keep the fc1 output of all
    tokens and its Phi for the backward. A forward without a graph calls
    this on tiles of at most ``_TILE`` token rows, where GELU writes the
    activation over Phi: a tile holds two hidden-width arrays, and no array
    of all tokens at the hidden width exists.
    """
    mlp = f"{prefix}.mlp"
    h = _layer_norm(x, p, f"{prefix}.norm2")
    h = ad.linear(h, p[f"{mlp}.fc1.weight"], p[f"{mlp}.fc1.bias"])
    return ad.gelu_linear(h, p[f"{mlp}.fc2.weight"], p[f"{mlp}.fc2.bias"])


def _row_tiles(rows: int) -> list[tuple[int, int]]:
    """``(start, stop)`` of consecutive tiles of at most ``_TILE`` of ``rows`` rows.

    No tile has one row unless ``rows`` is one: numpy sends a one-row product
    to BLAS's gemv, which rounds apart from the matrix product, so a one-row
    remainder makes the last two tiles ``_TILE - 1`` and 2 rows.
    """
    starts = list(range(0, rows, _TILE))
    if rows > _TILE and rows % _TILE == 1:
        starts[-1] -= 1
    return list(zip(starts, starts[1:] + [rows]))


def _stream_tiles(B: int, m: int) -> list[tuple[int, int, int, int]]:
    """Tiles ``(b0, b1, s, e)`` of a ``(B, m, d)`` stream: rows ``s:e`` of samples ``b0:b1``.

    Samples of at most ``_TILE`` rows go whole, as many to a tile as fit; a
    longer sample is cut into the token ranges of :func:`_row_tiles`. Either
    way a tile is one contiguous run of the stream's rows, and no tile has
    one row (``m`` is at least 2).
    """
    if m <= _TILE:
        per = _TILE // m
        return [(b, min(b + per, B), 0, m) for b in range(0, B, per)]
    return [(b, b + 1, s, e) for b in range(B) for s, e in _row_tiles(m)]


def _attention_moments(
    x: np.ndarray,
    config: ModelConfig,
    p: dict[str, np.ndarray],
    prefix: str,
    rope: RopeTable | None,
    spans: list[tuple[int, int]],
    batch: int,
) -> tuple[np.ndarray, np.ndarray | None, np.ndarray, np.ndarray]:
    """Block ``prefix``'s attention on one group of whole samples up to its output rows.

    ``x`` is the group's ``(g, m, d)`` rows of a stream of ``batch``
    samples, and ``spans`` the token ranges of its tiles: each tile is rows
    ``s:e`` of all ``g`` samples. Pass 1 runs tile by tile: norm, rotation
    and score GEMM into a ``(g, m, K)`` score array, and the value GEMM
    into a ``(g, m, d)`` value buffer. The head mask and the memberships are
    then taken from the group's scores (TSSA's from its values) by the
    graph path's own functions, the mask is applied to the values in place,
    and the channel scales come from :func:`ad.second_moment_scale`. Returns
    the masked values ``(g, m, K, hd)``, the head mask ``(g, K)`` (``None``
    on blocks without a gate), the memberships ``(g, K, m)`` and the channel
    scales ``(g, K, 1, hd)``.
    """
    g, m, d = x.shape
    K = config.heads
    layer = f"{prefix}.attn"
    dmsa = config.attention is AttentionKind.DMSA
    values = np.empty((g * m, d))
    scores = np.empty((g * m, K)) if dmsa else None
    for s, e in spans:
        r0, r1 = s, (g - 1) * m + e  # one run of rows: the span is (0, m) or g is 1
        h = _layer_norm(x[:, s:e], p, f"{prefix}.norm1").data
        if dmsa:
            rotated = h if rope is None else rotate_pairs(h, (rope[0][s:], rope[1][s:]))
            np.matmul(rotated.reshape(-1, d), p[f"{layer}.membership_proj"], out=scores[r0:r1])
            del rotated  # before the value GEMM: pass 1 peaks here on shorter samples
        np.matmul(h.reshape(-1, d), p[f"{layer}.value_proj"], out=values[r0:r1])
    values = values.reshape(g, m, K, d // K)
    w = values.transpose(0, 2, 1, 3)  # (g, K, m, hd), as split_heads lays it out

    mask = None
    if dmsa:
        scores = ad.Tensor(scores.reshape(g, m, K))
        if config.sparsity_axis in ("head", "both"):
            mask = sparsify_scores(ad.mean(scores, axis=1), config, gate=True).data  # (g, K)
            np.multiply(w, mask.reshape(g, K, 1, 1), out=w)
        Pi = sparsify_scores(ad.transpose(scores, (0, 2, 1)), config, gate=False).data
        soft = config.activation is ActivationKind.SOFT_THRESHOLD
        if batch > 1 and soft and config.sparsity_axis != "head":
            # The simplex rows of a batch of several samples come out of a
            # reshape copy in C order, those of one sample out of a reshape
            # view in F order, and the matrix product of the second moments
            # rounds apart between the two: give one sample of a larger
            # batch the batch's layout.
            Pi = np.ascontiguousarray(Pi)
        del scores
    else:
        Pi = tssa_membership(ad.Tensor(w)).data
    scale = ad.second_moment_scale(w * w, Pi, MEMBERSHIP_EPS)[2]
    return values, mask, Pi, scale


def _attention_rows(
    v: np.ndarray, Pi: np.ndarray, scale: np.ndarray, W: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Attention output rows from head features ``v`` ``(g, r, K, hd)``, rescaled in place.

    :func:`ad.second_moment_apply` with memberships ``Pi`` ``(g, K, r)`` and
    channel scales ``(g, K, 1, hd)`` writes over ``v``; its rows, heads
    merged, go through the output projection ``W`` and bias ``b``: the
    ``(g * r, d)`` rows :func:`second_moment_tail` gives.
    """
    w = v.transpose(0, 2, 1, 3)  # (g, K, r, hd), as split_heads lays it out
    ad.second_moment_apply(w, Pi, scale, out=w)
    return ad.linear(v.reshape(-1, W.shape[0]), W, b).data


def _tiled_forward(
    config: ModelConfig,
    params: dict[str, ad.Tensor],
    inputs: np.ndarray,
    rope: RopeTable | None,
    capture: list[dict] | None,
) -> np.ndarray:
    """The blocks of :func:`model_forward` on checked inputs when no parameter requires grad.

    Returns the class token's ``(B, d)`` state after the last block. The
    residual stream ``(B, n+1, d)`` is the one array of all tokens that
    lives through the forward, and every sublayer adds into it in place,
    tile by tile (:func:`_stream_tiles`). A block's attention runs one group
    at a time, a group being the whole samples of one run of tiles (the
    short samples of one tile, or one long sample): its moments
    (:func:`_attention_moments`), then its second pass, which rescales,
    projects and adds each of its tiles into the stream. A group's rows of
    the stream change only in its own second pass, so each group reads the
    rows the block began with. The value buffer and the squared head
    features hold one group; everything else is tile-sized or ``K`` floats
    per token of one group, and a capture's mask and memberships are
    written group by group into arrays of the whole batch. The embedding,
    the norms, the rescaling, the output projection and the MLP are the
    graph path's own functions on tiles, so each value is that of the graph
    path bit for bit: the same GEMMs on the same rows (none of one row where
    the graph's has more), the same elementwise operations, and the same
    reductions over whole samples.
    """
    p = {name: t.data for name, t in params.items()}
    B, n, _ = inputs.shape
    m, d = n + 1, config.dim
    x = np.empty((B, m, d))
    stream = x.reshape(B * m, d)
    x[:, 0] = p["cls_token"][0, 0]
    tokens = inputs.reshape(B * n, -1)
    for start, stop in _row_tiles(B * n):
        rows = np.arange(start, stop)
        stream[rows + rows // n + 1] = ad.linear(
            tokens[start:stop], p["embed.weight"], p["embed.bias"]
        ).data  # unnamed: the last tile would otherwise live through every block
    tiles = _stream_tiles(B, m)
    groups = [
        (b0, b1, [(s, e) for *_, s, e in run])
        for (b0, b1), run in itertools.groupby(tiles, key=lambda tile: tile[:2])
    ]

    for i in range(config.depth):
        prefix = f"blocks.{i}"
        block_capture: dict | None = {} if capture is not None else None
        W, b = p[f"{prefix}.attn.out_proj"], p[f"{prefix}.attn.out_bias"]
        for b0, b1, spans in groups:
            group = x[b0:b1]
            values, mask, Pi, scale = _attention_moments(group, config, p, prefix, rope, spans, B)
            for key, part in (("head_mask", mask), ("membership", Pi)):
                if block_capture is not None and part is not None:
                    if b0 == 0:
                        block_capture[key] = np.empty((B, *part.shape[1:]))
                    block_capture[key][b0:b1] = part
            for s, e in spans:
                rows = _attention_rows(values[:, s:e], Pi[:, :, s:e], scale, W, b)
                group[:, s:e] += rows.reshape(b1 - b0, e - s, d)
            del values, mask, Pi, scale, rows  # before the next group's buffer
        if not np.all(np.isfinite(x)):
            raise NumericalFault(f"non-finite activations after attention block {i}")
        if block_capture is not None:
            block_capture["tokens_after_attention"] = x.copy()
            capture.append(block_capture)
        if i == config.depth - 1:
            x = x[:, 0]  # the class token: nothing reads the others from here on
            mlp_tiles = [x[start:stop] for start, stop in _row_tiles(B)]
        else:
            mlp_tiles = [x[b0:b1, s:e] for b0, b1, s, e in tiles]
        for t in mlp_tiles:
            t += _mlp_sublayer(t, p, prefix).data
        if not np.all(np.isfinite(x)):
            raise NumericalFault(f"non-finite activations after MLP block {i}")
    return x


def model_forward(
    config: ModelConfig,
    params: dict[str, ad.Tensor],
    inputs: np.ndarray,
    capture: list[dict] | None = None,
) -> ad.Tensor:
    """Logits for a batch of token sequences ``(B, n, input_dim)``.

    Tokens of another width, with a non-finite entry or a token whose
    squared norm overflows, samples without tokens, or more than
    ``max_tokens`` tokens (class token included) raise ``DataMismatch``.

    When ``capture`` is a list,
    one dict per block is appended with the block's membership matrix, its
    head mask on head-gated DMSA blocks, and the token matrix after the
    attention residual (all as plain arrays).

    Only the class token is read out, and the MLP and the final LayerNorm
    act on each token on its own, so after the last block's attention
    residual (and its capture) the stream holds only the class token,
    ``(B, d)``: that block's MLP, the final norm and the head run on one
    token per sample, and the last finiteness check covers only that token.

    With parameters that require grad the forward builds the graph that
    ``backward`` walks; each sublayer is a function of its own, and the
    graph keeps what its backward reads. When no parameter requires grad
    (``predict``, ``evaluate``, the rate curve and membership maps), each
    block runs over tiles of about 512 token rows instead (whole samples
    when they fit, token ranges of one sample otherwise), calling the graph
    path's norm, rescaling, projection and MLP functions on each tile, and
    adds each sublayer's output into the residual stream in place; both
    paths share the final norm and the head. The logits and captures are
    those of the graph bit for bit. The rotary table is computed once per
    forward. Each block's attention finishes one group of whole samples
    (the short samples of one tile, or one long sample) before the next
    starts, so its value buffer and squared head features hold one group.
    At the default config under tracemalloc, 2 x 2048 tokens then peak at
    5.5 MiB, 2.7 times the residual stream: the stream, the rotary table
    (half a stream), one sample's values and squared head features while
    its second moments are taken, and ``K`` floats per token of its scores
    and memberships; an MLP tile's two hidden-width arrays come within
    4 KiB of that. They set the peak of 4 x 1024 tokens, 4.9 MiB (2.4
    streams), and of 16 x 256, 3.4 MiB (1.7 streams). A call repeated on
    16 x 256 tokens takes no minor page faults, and about 1.2k-1.4k on
    4 x 1024 and 2 x 2048.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise InvalidInput(f"inputs must be (B, n, input_dim) tokens, got ndim={inputs.ndim}")
    if inputs.shape[2] != config.input_dim:
        raise DataMismatch(
            f"tokens have feature size {inputs.shape[2]}, config.input_dim is {config.input_dim}"
        )
    if not np.all(np.isfinite(inputs)):
        raise DataMismatch("inputs contain non-finite entries")
    # Finite entries whose squares overflow are bad inputs: reject them here,
    # before the stream carries them to a LayerNorm whose variance overflows.
    if not np.all(np.isfinite(np.einsum("...i,...i->...", inputs, inputs))):
        raise DataMismatch("inputs contain a token whose squared norm overflows")
    B, n, _ = inputs.shape
    if n == 0:
        raise DataMismatch("samples hold no tokens")
    if n + 1 > config.max_tokens:
        raise DataMismatch(f"{n} tokens exceed max_tokens={config.max_tokens} (class token included)")

    rope = rope_precompute(n + 1, config.dim) if config.use_rope else None
    if not any(t.requires_grad for t in params.values()):
        x = _tiled_forward(config, params, inputs, rope, capture)
    else:
        x = ad.linear(inputs, params["embed.weight"], params["embed.bias"])
        cls = ad.broadcast_to(params["cls_token"], (B, 1, config.dim))
        x = ad.concat([cls, x], axis=1)
        for i in range(config.depth):
            prefix = f"blocks.{i}"
            block_capture: dict | None = {} if capture is not None else None
            x = x + _attention_sublayer(x, config, params, prefix, rope, block_capture)
            if not np.all(np.isfinite(x.data)):
                raise NumericalFault(f"non-finite activations after attention block {i}")
            if block_capture is not None:
                block_capture["tokens_after_attention"] = x.data.copy()
                capture.append(block_capture)
            if i == config.depth - 1:
                x = x[:, 0, :]  # the class token: nothing reads the others from here on
            x = x + _mlp_sublayer(x, params, prefix)
            if not np.all(np.isfinite(x.data)):
                raise NumericalFault(f"non-finite activations after MLP block {i}")

    logits = ad.linear(_layer_norm(x, params, "norm"), params["head.weight"], params["head.bias"])
    if not np.all(np.isfinite(logits.data)):
        raise NumericalFault("non-finite logits")
    return logits


def model_loss(
    config: ModelConfig,
    params: dict[str, ad.Tensor],
    inputs: np.ndarray,
    labels: np.ndarray,
) -> tuple[ad.Tensor, ad.Tensor]:
    """Mean cross-entropy loss and the logits tensor."""
    logits = model_forward(config, params, inputs)
    loss = ad.cross_entropy_mean(logits, labels)
    return loss, logits


def finite_grads(params: dict[str, ad.Tensor]) -> dict[str, np.ndarray]:
    """Each parameter's gradient after a backward pass, zeros where none flowed.

    A non-finite gradient raises ``NumericalFault`` naming the first such
    parameter in ``params`` order, before any caller can apply an update.
    """
    grads = {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }
    bad = next((name for name, g in grads.items() if not np.all(np.isfinite(g))), None)
    if bad is not None:
        raise NumericalFault(f"non-finite gradient in {bad}")
    return grads


def detach_params(params: dict[str, ad.Tensor]) -> dict[str, ad.Tensor]:
    """Leaves sharing each parameter's data, so a forward builds no gradients."""
    return {name: ad.Tensor(p.data) for name, p in params.items()}


def predict(config: ModelConfig, params: dict[str, ad.Tensor], inputs: np.ndarray) -> np.ndarray:
    """Class predictions without building gradients (params detached)."""
    logits = model_forward(config, detach_params(params), inputs)
    return np.argmax(logits.data, axis=1)
