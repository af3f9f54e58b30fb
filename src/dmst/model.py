"""Toy token classifier built from DMSA blocks.

Input tokens are linearly embedded, a class token is prepended at position
zero, and the sequence passes through ``depth`` pre-norm residual blocks: an
attention sublayer (DMSA by default, TSSA as a baseline) followed by a
two-layer GELU MLP. The class token's final state feeds a linear head. All
computation runs through :mod:`dmst.autodiff`, so gradients for every
parameter come from the same graph the forward pass builds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterator

import numpy as np

from . import autodiff as ad
from .attention import AttentionKind, RopeTable, rope_precompute
from .errors import InvalidInput, NumericalFault, check_int, check_real
from .rng import stream
from .sparsify import SPARSITY_AXES, ActivationKind

MLP_HIDDEN_RATIO_DEFAULT = 4.0

# Most trainable floats a config may ask for: 400 MB as float64, before
# gradients and the two AdamW moments.
MAX_PARAMS = 50_000_000

# Guard added to membership normalizers before division, so the layer and
# the math-form operator agree only up to ~1e-8/n_k.
MEMBERSHIP_EPS = 1e-8


# Integer fields and their least allowed value; ``max_tokens`` leaves room
# for the class token and one input token.
_INT_MINIMUMS = {
    "depth": 0, "dim": 1, "heads": 1, "num_classes": 1, "input_dim": 1, "topk": 1,
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
    lay a sample's tokens out on a near-square grid. ``max_tokens`` bounds
    the rotary table length (class token included).
    Every field is checked on construction, so a bad value raises
    ``InvalidInput`` whether it comes from Python, a config file or a
    checkpoint header; ``attention`` and ``activation`` also accept their
    string values. ``topk`` above ``heads`` keeps every head.
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

    A generator, so a checkpoint can be checked against an untrusted config
    without building the whole layout first. ``depth`` replaces
    ``config.depth``.
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


def _layer_norm(x: ad.Tensor, scale: ad.Tensor, shift: ad.Tensor, eps: float = 1e-6) -> ad.Tensor:
    return ad.layer_norm(x, scale, shift, eps)


def sparsify_scores(scores: ad.Tensor, config: ModelConfig, *, gate: bool) -> ad.Tensor:
    """The block's sparsifying activation of raw scores, along the last axis.

    With ``gate`` the scores are the ``(..., K)`` token means and the result
    is the head mask; the soft threshold then keeps at most ``topk`` heads.
    Otherwise the scores are ``(..., K, n)`` and the result is the membership
    Pi: the soft threshold projects each head's token weights onto the
    simplex, except on head-axis blocks, which spend the simplex on the gate
    and keep sigmoid memberships. The other kinds act elementwise.
    """
    kind = config.activation
    if kind is ActivationKind.SOFT_THRESHOLD:
        if gate:
            return ad.soft_threshold_rows(scores, topk=min(config.topk, scores.shape[-1]))
        if config.sparsity_axis != "head":
            return ad.soft_threshold_rows(scores)
        kind = ActivationKind.SIGMOID
    if kind is ActivationKind.SIGMOID:
        return ad.sigmoid(scores)
    if kind is ActivationKind.RELU:
        return ad.relu(scores)
    return ad.gelu(scores)


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


def membership_scores(
    x: ad.Tensor, p: dict[str, ad.Tensor], prefix: str, rope: RopeTable | None
) -> ad.Tensor:
    """DMSA scores ``(B, n, K)``: the (rotary-rotated) tokens through the membership projection."""
    rotated = ad.rope_rotate(x, rope) if rope is not None else x
    return rotated @ p[f"{prefix}.membership_proj"]


def _dmsa_attention(
    x: ad.Tensor,
    config: ModelConfig,
    p: dict[str, ad.Tensor],
    prefix: str,
    rope: RopeTable | None,
    capture: dict | None = None,
) -> ad.Tensor:
    """DMSA sublayer on ``(B, n, d)`` tokens.

    Values split into heads; memberships come from :func:`membership_scores`.
    Head-axis blocks gate whole heads with the activation of the token-mean
    membership scores.
    """
    B = x.shape[0]
    K = config.heads
    w = split_heads(x @ p[f"{prefix}.value_proj"], K)  # (B, K, n, hd)
    scores = membership_scores(x, p, prefix, rope)  # (B, n, K)

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
    normed = _layer_norm(x, p[f"{prefix}.norm1.scale"], p[f"{prefix}.norm1.shift"])
    if config.attention is AttentionKind.DMSA:
        return _dmsa_attention(normed, config, p, f"{prefix}.attn", rope, capture)
    return _tssa_attention(normed, config, p, f"{prefix}.attn", capture)


def _mlp_sublayer(x: ad.Tensor, p: dict[str, ad.Tensor], prefix: str) -> ad.Tensor:
    """Block ``prefix``'s two-layer GELU MLP on its pre-norm of the residual stream ``x``.

    Without a graph to hold them, the norm is freed once the first layer has
    read it, and :func:`ad.linear_gelu` runs GELU in place, so the hidden
    activation is the only array of its size.
    """
    normed = _layer_norm(x, p[f"{prefix}.norm2.scale"], p[f"{prefix}.norm2.shift"])
    hidden = ad.linear_gelu(normed, p[f"{prefix}.mlp.fc1.weight"], p[f"{prefix}.mlp.fc1.bias"])
    del normed
    return ad.linear(hidden, p[f"{prefix}.mlp.fc2.weight"], p[f"{prefix}.mlp.fc2.bias"])


def model_forward(
    config: ModelConfig,
    params: dict[str, ad.Tensor],
    inputs: np.ndarray,
    capture: list[dict] | None = None,
) -> ad.Tensor:
    """Logits for a batch of token sequences ``(B, n, input_dim)``.

    When ``capture`` is a list,
    one dict per block is appended with the block's membership matrix, its
    head mask on head-gated DMSA blocks, and the token matrix after the
    attention residual (all as plain arrays).

    Only the class token is read out, and the MLP and the final LayerNorm
    act on each token on its own, so after the last block's attention
    residual (and its capture) the stream holds only the class token,
    ``(B, d)``: that block's MLP, the final norm and the head run on one
    token per sample, and the last finiteness check covers only that token.
    With ``depth = 0`` the cut comes just before the final norm.

    Each sublayer's temporaries are locals of its function and its output
    is read once, by the residual sum, so a forward on detached parameters
    frees every activation at its last use; a training graph keeps what its
    backward reads. The rotary table is computed once per forward.
    """
    inputs = np.asarray(inputs, dtype=np.float64)
    if inputs.ndim != 3:
        raise InvalidInput(f"inputs must be (B, n, input_dim) tokens, got ndim={inputs.ndim}")
    if inputs.shape[2] != config.input_dim:
        raise InvalidInput(
            f"tokens have feature size {inputs.shape[2]}, config.input_dim is {config.input_dim}"
        )
    if not np.all(np.isfinite(inputs)):
        raise InvalidInput("inputs contain non-finite entries")
    # Finite entries whose squares overflow make LayerNorm's variance
    # infinite, and the forward would go on with every token normed to zero.
    if not np.all(np.isfinite(np.einsum("...i,...i->...", inputs, inputs))):
        raise InvalidInput("inputs contain a token whose squared norm overflows")
    B, n, _ = inputs.shape
    if n + 1 > config.max_tokens:
        raise InvalidInput(f"{n} tokens exceed max_tokens={config.max_tokens} (class token included)")

    rope = rope_precompute(n + 1, config.dim) if (config.use_rope and config.depth > 0) else None

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
    if config.depth == 0:
        x = x[:, 0, :]

    x = _layer_norm(x, params["norm.scale"], params["norm.shift"])
    logits = ad.linear(x, params["head.weight"], params["head.bias"])
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


def model_backward(
    config: ModelConfig,
    params: dict[str, ad.Tensor],
    inputs: np.ndarray,
    labels: np.ndarray,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss value and gradient arrays for every parameter on one batch.

    A non-finite gradient raises ``NumericalFault`` naming the first such
    parameter in ``params`` order.
    """
    for p in params.values():
        p.zero_grad()
    loss, _ = model_loss(config, params, inputs, labels)
    loss.backward()
    return float(loss.data), finite_grads(params)


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
