import tracemalloc

import numpy as np
import pytest

from dmst import autodiff as ad
from dmst.attention import AttentionKind, rope_precompute
from dmst.errors import InvalidInput, NumericalFault
from dmst.model import (
    MAX_PARAMS,
    ModelConfig,
    _attention_sublayer,
    _layer_norm,
    _mlp_sublayer,
    config_from_dict,
    config_to_dict,
    init_params,
    model_backward,
    model_forward,
    model_loss,
    param_count,
    predict,
)
from dmst.sparsify import ActivationKind


def small_config(**kwargs):
    base = dict(depth=1, dim=8, heads=2, mlp_ratio=1.0, num_classes=3, input_dim=5, seed=3)
    base.update(kwargs)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_dict_round_trip():
    config = ModelConfig(
        depth=2,
        dim=16,
        heads=4,
        attention=AttentionKind.TSSA,
        activation=ActivationKind.RELU,
        sparsity_axis="both",
    )
    raw = config_to_dict(config)
    assert raw["attention"] == "tssa"
    assert raw["activation"] == "relu"
    assert config_from_dict(raw) == config


def test_config_from_dict_rejects_unknown_keys():
    raw = config_to_dict(ModelConfig())
    raw["window"] = 7
    with pytest.raises(InvalidInput):
        config_from_dict(raw)


@pytest.mark.parametrize("key", ["patch_size", "image_size", "channels"])
def test_config_from_dict_rejects_the_image_keys(key):
    # the model takes tokens only; its image keys are gone, not ignored
    raw = config_to_dict(ModelConfig()) | {key: 4}
    with pytest.raises(InvalidInput, match=key):
        config_from_dict(raw)


def test_config_validation():
    with pytest.raises(InvalidInput):
        ModelConfig(depth=-1)
    with pytest.raises(InvalidInput):
        ModelConfig(dim=30, heads=8)  # not a multiple of heads
    with pytest.raises(InvalidInput):
        ModelConfig(dim=9, heads=3)  # odd dim has no rotary pairs
    with pytest.raises(InvalidInput):
        ModelConfig(sparsity_axis="channel")
    with pytest.raises(InvalidInput):
        ModelConfig(attention="mhsa")  # the softmax baseline is no attention kind
    with pytest.raises(InvalidInput):
        ModelConfig(topk=0)
    with pytest.raises(InvalidInput):
        ModelConfig(mlp_ratio=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"depth": 1.0}, {"topk": True}, {"seed": -1}, {"use_rope": "no"}, {"dim": 2**64},
        {"mlp_ratio": float("nan")}, {"mlp_ratio": float("inf")}, {"mlp_ratio": 0.001},
        {"mlp_ratio": 1e308}, {"num_classes": 0}, {"input_dim": -1}, {"max_tokens": 1},
        {"activation": "tanh"},
    ],
    ids=repr,
)
def test_config_rejects_each_bad_field(kwargs):
    with pytest.raises(InvalidInput):
        ModelConfig(**kwargs)


def test_config_takes_enum_string_values():
    config = ModelConfig(attention="tssa", activation="gelu")
    assert config.attention is AttentionKind.TSSA
    assert config.activation is ActivationKind.GELU


@pytest.mark.parametrize("kwargs", [{"depth": 10**12, "dim": 2, "heads": 2}, {"mlp_ratio": 1e12}])
def test_config_caps_the_parameter_count(kwargs):
    with pytest.raises(InvalidInput, match=str(MAX_PARAMS)):
        ModelConfig(**kwargs)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------


def test_init_params_deterministic_in_seed():
    a = init_params(small_config(seed=11))
    b = init_params(small_config(seed=11))
    c = init_params(small_config(seed=12))
    assert all(np.array_equal(a[k].data, b[k].data) for k in a)
    assert any(not np.array_equal(a[k].data, c[k].data) for k in a)


def test_init_weights_are_truncated():
    params = init_params(small_config())
    for name in ("embed.weight", "blocks.0.attn.value_proj", "head.weight"):
        assert np.max(np.abs(params[name].data)) <= 0.04  # two standard deviations


def test_param_count_gap_is_membership_projection():
    # a DMSA stack differs from TSSA by exactly one K x d projection per block
    kwargs = dict(depth=3, dim=16, heads=4, input_dim=5)
    dmsa = param_count(ModelConfig(attention=AttentionKind.DMSA, **kwargs))
    tssa = param_count(ModelConfig(attention=AttentionKind.TSSA, **kwargs))
    assert dmsa - tssa == 3 * 16 * 4


@pytest.mark.parametrize("attention", [AttentionKind.DMSA, AttentionKind.TSSA])
@pytest.mark.parametrize("depth", [0, 1, 3])
def test_param_count_equals_the_initialized_sizes(attention, depth):
    config = ModelConfig(
        depth=depth, dim=12, heads=3, mlp_ratio=1.5, input_dim=7, num_classes=5, attention=attention
    )
    assert param_count(config) == sum(p.data.size for p in init_params(config).values())


# ---------------------------------------------------------------------------
# forward pass
# ---------------------------------------------------------------------------


def test_forward_shapes_and_capture():
    config = small_config(depth=2)
    params = init_params(config)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 6, 5))
    capture: list[dict] = []
    logits = model_forward(config, params, x, capture=capture)
    assert logits.shape == (3, config.num_classes)
    assert len(capture) == 2
    for block in capture:
        assert block["membership"].shape == (3, config.heads, 7)  # class token included
        assert block["tokens_after_attention"].shape == (3, 7, config.dim)


def test_forward_without_rope_is_token_permutation_invariant():
    # memberships, gates, and second moments are all token sums, so with the
    # rotary table disabled the class-token logits ignore token order
    config = small_config(use_rope=False, depth=2)
    params = init_params(config)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(2, 6, 5))
    perm = rng.permutation(6)
    base = model_forward(config, params, x).data
    permuted = model_forward(config, params, x[:, perm]).data
    assert np.max(np.abs(base - permuted)) < 1e-10


def test_forward_with_rope_depends_on_token_order():
    config = small_config(use_rope=True)
    params = init_params(config)
    rng = np.random.default_rng(2)
    x = rng.normal(size=(2, 6, 5))
    base = model_forward(config, params, x).data
    rolled = model_forward(config, params, x[:, ::-1]).data
    assert np.max(np.abs(base - rolled)) > 1e-8


def test_depth_zero_reduces_to_constant_class_state():
    # with no blocks the head only ever sees the normalized class token, so
    # logits cannot depend on the inputs
    config = small_config(depth=0)
    params = init_params(config)
    rng = np.random.default_rng(3)
    a = model_forward(config, params, rng.normal(size=(2, 4, 5))).data
    b = model_forward(config, params, rng.normal(size=(2, 4, 5))).data
    assert np.max(np.abs(a - b)) < 1e-12
    assert np.max(np.abs(a[0] - a[1])) < 1e-12


def test_forward_input_validation():
    config = small_config()
    params = init_params(config)
    with pytest.raises(InvalidInput):
        model_forward(config, params, np.zeros((2, 4)))  # missing batch axis
    with pytest.raises(InvalidInput, match="ndim=4"):
        model_forward(config, params, np.zeros((2, 4, 4, 5)))  # images are not tokens
    with pytest.raises(InvalidInput):
        model_forward(config, params, np.zeros((2, 4, 7)))  # wrong feature size
    bad = np.zeros((2, 4, 5))
    bad[0, 0, 0] = np.inf
    with pytest.raises(InvalidInput):
        model_forward(config, params, bad)
    tight = small_config(max_tokens=4)
    with pytest.raises(InvalidInput):
        model_forward(tight, init_params(tight), np.zeros((1, 4, 5)))  # class token overflows
    # finite entries whose squares overflow LayerNorm's variance
    with pytest.raises(InvalidInput, match="squared norm overflows"):
        model_forward(config, params, np.full((2, 4, 5), 1e308))
    bad = np.zeros((2, 4, 5))
    bad[1, 2] = 1e160
    with pytest.raises(InvalidInput, match="squared norm overflows"):
        model_forward(config, params, bad)
    assert np.all(np.isfinite(model_forward(config, params, np.full((2, 4, 5), 1e100)).data))


def test_predict_peak_memory_is_a_few_hidden_activations():
    # a no-grad forward frees each activation at its last use: no graph holds
    # them, and the MLP's GELU runs in place on its projection's output
    config = ModelConfig()
    params = init_params(config)
    B, n = 2, 512
    x = np.random.default_rng(0).normal(size=(B, n, config.input_dim))
    predict(config, params, x)  # warm numpy's caches outside the measurement
    tracemalloc.start()
    try:
        predict(config, params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    hidden = B * (n + 1) * config.mlp_hidden * 8  # bytes of one MLP hidden activation
    assert peak <= 2.25 * hidden


def test_zero_input_has_finite_loss_and_gradients():
    config = small_config()
    params = init_params(config)
    loss, grads = model_backward(config, params, np.zeros((2, 4, 5)), np.array([0, 1]))
    assert np.isfinite(loss)
    assert all(np.all(np.isfinite(g)) for g in grads.values())


def test_non_finite_gradient_names_the_first_bad_parameter(monkeypatch):
    config = small_config(depth=2)
    params = init_params(config)
    poisoned = ["blocks.1.attn.membership_proj", "head.weight"]  # in params order
    backward = ad.Tensor.backward

    def poisoning_backward(self, grad=None):
        backward(self, grad)
        for name in poisoned:
            params[name].grad[0, 0] = np.nan

    monkeypatch.setattr(ad.Tensor, "backward", poisoning_backward)
    with pytest.raises(NumericalFault, match=r"^non-finite gradient in blocks\.1\.attn\.membership_proj$"):
        model_backward(config, params, np.zeros((2, 4, 5)), np.array([0, 1]))


def test_predict_uses_detached_parameters():
    config = small_config()
    params = init_params(config)
    rng = np.random.default_rng(4)
    out = predict(config, params, rng.normal(size=(3, 4, 5)))
    assert out.shape == (3,)
    assert out.dtype.kind == "i"
    assert all(p.grad is None for p in params.values())


@pytest.mark.parametrize(
    "kwargs",
    [{}, {"attention": AttentionKind.TSSA}, {"sparsity_axis": "both", "topk": 1}],
    ids=["dmsa-head", "tssa", "dmsa-both"],
)
def test_batched_forward_matches_per_sample_forwards(kwargs):
    # nothing in a block mixes samples: the head gate, memberships, norms and
    # the flattened weight products all act per sample
    config = small_config(depth=2, heads=4, **kwargs)
    params = init_params(config)
    x = np.random.default_rng(7).normal(size=(5, 6, 5))
    batched = model_forward(config, params, x).data
    single = np.concatenate([model_forward(config, params, x[i : i + 1]).data for i in range(5)])
    np.testing.assert_allclose(batched, single, rtol=0, atol=1e-9)


def test_tssa_forward_runs_and_differs_from_dmsa():
    rng = np.random.default_rng(5)
    x = rng.normal(size=(2, 4, 5))
    dmsa_cfg = small_config()
    tssa_cfg = small_config(attention=AttentionKind.TSSA)
    dmsa_logits = model_forward(dmsa_cfg, init_params(dmsa_cfg), x).data
    tssa_logits = model_forward(tssa_cfg, init_params(tssa_cfg), x).data
    assert dmsa_logits.shape == tssa_logits.shape
    assert np.max(np.abs(dmsa_logits - tssa_logits)) > 1e-8


# ---------------------------------------------------------------------------
# gradients
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("attention", [AttentionKind.DMSA, AttentionKind.TSSA])
def test_model_gradients_match_finite_differences(attention):
    config = small_config(attention=attention)
    params = init_params(config)
    rng = np.random.default_rng(6)
    x = rng.normal(size=(2, 4, 5))
    y = np.array([0, 2])
    _, grads = model_backward(config, params, x, y)

    h = 1e-5
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = model_loss(config, params, x, y)[0].data.item()
            flat[i] = orig - h
            minus = model_loss(config, params, x, y)[0].data.item()
            flat[i] = orig
            fd[i] = (plus - minus) / (2 * h)
        scale = max(float(np.max(np.abs(fd))), 1e-8)
        worst = max(worst, float(np.max(np.abs(grads[name].reshape(-1) - fd))) / scale)
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# class-token readout
# ---------------------------------------------------------------------------


def all_token_forward(config, params, inputs, capture=None):
    """Logits from a forward that runs every block and the final norm on all n+1 tokens."""
    B, n, _ = inputs.shape
    rope = rope_precompute(n + 1, config.dim) if (config.use_rope and config.depth > 0) else None
    x = ad.linear(inputs, params["embed.weight"], params["embed.bias"])
    x = ad.concat([ad.broadcast_to(params["cls_token"], (B, 1, config.dim)), x], axis=1)
    for i in range(config.depth):
        prefix = f"blocks.{i}"
        block_capture = {} if capture is not None else None
        x = x + _attention_sublayer(x, config, params, prefix, rope, block_capture)
        if block_capture is not None:
            block_capture["tokens_after_attention"] = x.data.copy()
            capture.append(block_capture)
        x = x + _mlp_sublayer(x, params, prefix)
    x = _layer_norm(x, params["norm.scale"], params["norm.shift"])
    return ad.linear(x[:, 0, :], params["head.weight"], params["head.bias"])


def all_token_grads(config, params, inputs, labels):
    for p in params.values():
        p.zero_grad()
    ad.cross_entropy_mean(all_token_forward(config, params, inputs), labels).backward()
    return {name: p.grad for name, p in params.items()}


@pytest.mark.parametrize("depth", [1, 4])
def test_last_block_mlp_sees_only_the_class_token(monkeypatch, depth):
    config = small_config(depth=depth)
    params = init_params(config)
    B, n = 3, 6
    x = np.random.default_rng(8).normal(size=(B, n, config.input_dim))
    shapes = []
    linear_gelu = ad.linear_gelu

    def recording_linear_gelu(inputs, W, b):
        shapes.append(inputs.shape)
        return linear_gelu(inputs, W, b)

    monkeypatch.setattr(ad, "linear_gelu", recording_linear_gelu)
    expected = [(B, n + 1, config.dim)] * (depth - 1) + [(B, config.dim)]
    predict(config, params, x)
    assert shapes == expected
    shapes.clear()
    model_backward(config, params, x, np.array([0, 1, 2]))
    assert shapes == expected


@pytest.mark.parametrize("depth", [0, 1, 4])
@pytest.mark.parametrize("use_rope", [True, False], ids=["rope", "norope"])
@pytest.mark.parametrize("axis", ["head", "token", "both"])
@pytest.mark.parametrize("attention", [AttentionKind.DMSA, AttentionKind.TSSA])
def test_class_token_readout_matches_an_all_token_forward(attention, axis, use_rope, depth):
    # the MLP and the LayerNorm act on each token alone, so cutting the stream
    # to the class token before them changes no value a caller reads; only a
    # one-row GEMM (B = 1) and the weight gradients' row sums may round apart
    config = small_config(
        depth=depth, heads=4, topk=2, attention=attention, sparsity_axis=axis, use_rope=use_rope
    )
    params = init_params(config)
    rng = np.random.default_rng(9)
    for B in (1, 2, 3):
        x = rng.normal(size=(B, 6, config.input_dim))
        capture, ref_capture = [], []
        logits = model_forward(config, params, x, capture=capture).data
        ref_logits = all_token_forward(config, params, x, capture=ref_capture).data
        if B == 1:
            np.testing.assert_allclose(logits, ref_logits, rtol=0, atol=1e-12)
        else:
            np.testing.assert_array_equal(logits, ref_logits)
        assert len(capture) == len(ref_capture) == depth
        for block, ref_block in zip(capture, ref_capture):
            assert block.keys() == ref_block.keys()
            for key in block:
                np.testing.assert_array_equal(block[key], ref_block[key])

    labels = np.array([0, 2, 1])
    _, grads = model_backward(config, params, x, labels)
    ref_grads = all_token_grads(config, params, x, labels)
    for name, ref in ref_grads.items():
        tol = 1e-12 * float(np.max(np.abs(ref)))
        assert np.max(np.abs(grads[name] - ref)) <= tol, name
