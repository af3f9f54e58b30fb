import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from dmst import autodiff as ad
from dmst import model
from dmst.attention import AttentionKind, rope_precompute
from dmst.errors import DataMismatch, InvalidInput, NumericalFault
from dmst.model import (
    MAX_PARAMS,
    ModelConfig,
    _TILE,
    _attention_sublayer,
    _layer_norm,
    _mlp_sublayer,
    _row_tiles,
    _stream_tiles,
    config_from_dict,
    config_to_dict,
    detach_params,
    finite_grads,
    init_params,
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


def loss_and_grads(config, params, inputs, labels):
    """Loss value and checked gradients of one batch, as a training step takes them."""
    for p in params.values():
        p.zero_grad()
    loss, _ = model_loss(config, params, inputs, labels)
    loss.backward()
    return float(loss.data), finite_grads(params)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


def test_config_dict_round_trip():
    relu = ModelConfig(
        depth=2, dim=16, heads=4, activation=ActivationKind.RELU, sparsity_axis="token"
    )
    tssa = ModelConfig(depth=2, dim=16, heads=4, attention=AttentionKind.TSSA)
    assert config_to_dict(relu)["activation"] == "relu"
    assert config_to_dict(tssa)["attention"] == "tssa"
    for config in (relu, tssa):
        assert config_from_dict(config_to_dict(config)) == config


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
    config = ModelConfig(attention="tssa", activation="st")
    assert config.attention is AttentionKind.TSSA
    assert config.activation is ActivationKind.SOFT_THRESHOLD


# (attention, sparsity_axis, activation) of every distinct model a config builds
ACCEPTED_CELLS = [
    ("dmsa", "head", "st"), ("dmsa", "token", "st"), ("dmsa", "both", "st"),
    ("dmsa", "head", "sigmoid"), ("dmsa", "token", "sigmoid"),
    ("dmsa", "head", "relu"), ("dmsa", "token", "relu"),
    ("tssa", "head", "st"),
]
# every combination of the values these keys have named, gelu included
ALL_CELLS = list(itertools.product(
    ("dmsa", "tssa"), ("head", "token", "both"), ("st", "sigmoid", "relu", "gelu")
))
REJECTED_CELLS = [cell for cell in ALL_CELLS if cell not in ACCEPTED_CELLS]


def cell_config(cell, **kwargs):
    attention, axis, activation = cell
    return small_config(attention=attention, sparsity_axis=axis, activation=activation, **kwargs)


@pytest.mark.parametrize("cell", REJECTED_CELLS, ids="-".join)
def test_config_rejects_each_cell_that_is_ill_posed_or_another_cell_in_one_line(cell):
    attention, axis, activation = cell
    with pytest.raises(InvalidInput) as rejected:
        cell_config(cell)
    message = str(rejected.value)
    assert "\n" not in message
    if activation == "gelu":
        assert message == "unknown activation 'gelu'"
    elif attention == "tssa":
        assert message.startswith("attention tssa derives its memberships from its subspaces")
    else:
        assert message == (
            f"sparsity_axis both with activation {activation} is the head cell; "
            "use sparsity_axis = head"
        )


def test_every_accepted_cell_builds_a_distinct_model():
    # one seeded batch through every cell the constructor accepts, from equal
    # weights wherever two cells share a parameter layout
    x = np.random.default_rng(12).normal(size=(3, 6, 5))
    accepted, logits = [], []
    for cell in ALL_CELLS:
        try:
            config = cell_config(cell, depth=2, heads=4, topk=2)
        except InvalidInput:
            continue
        rng = np.random.default_rng(13)
        params = {
            name: ad.Tensor(p.data + rng.normal(scale=0.5, size=p.shape))
            for name, p in init_params(config).items()
        }
        accepted.append(cell)
        logits.append(model_forward(config, params, x).data)
    assert sorted(accepted) == sorted(ACCEPTED_CELLS)
    for (i, a), (j, b) in itertools.combinations(enumerate(logits), 2):
        assert np.max(np.abs(a - b)) > 1e-6, (accepted[i], accepted[j])


@pytest.mark.parametrize("cell", [c for c in ACCEPTED_CELLS if c[0] == "dmsa"], ids="-".join)
def test_every_dmsa_cell_has_nonnegative_memberships_and_gates(cell):
    config = cell_config(cell, depth=2, heads=4, topk=2)
    rng = np.random.default_rng(14)
    for _ in range(5):
        params = {
            name: ad.Tensor(p.data + rng.normal(scale=2.0, size=p.shape))
            for name, p in init_params(config).items()
        }
        capture = []
        model_forward(config, params, rng.normal(scale=3.0, size=(4, 7, 5)), capture=capture)
        for block in capture:
            assert np.min(block["membership"]) >= 0.0
            assert np.min(block.get("head_mask", 0.0)) >= 0.0


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
@pytest.mark.parametrize("depth", [1, 3])
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


def test_depth_zero_is_rejected():
    # with no blocks the head would only ever see the normalized class token,
    # so the logits could not depend on the inputs
    with pytest.raises(InvalidInput, match="^depth must be an integer from 1 "):
        small_config(depth=0)
    with pytest.raises(InvalidInput, match="^depth must be an integer from 1 "):
        config_from_dict({**config_to_dict(small_config()), "depth": 0})


def test_forward_input_validation():
    config = small_config()
    params = init_params(config)
    with pytest.raises(InvalidInput):
        model_forward(config, params, np.zeros((2, 4)))  # missing batch axis
    with pytest.raises(InvalidInput, match="ndim=4") as malformed:
        model_forward(config, params, np.zeros((2, 4, 4, 5)))  # images are not tokens
    assert not isinstance(malformed.value, DataMismatch)
    # well-formed tokens that do not fit the model
    with pytest.raises(DataMismatch):
        model_forward(config, params, np.zeros((2, 4, 7)))  # wrong feature size
    bad = np.zeros((2, 4, 5))
    bad[0, 0, 0] = np.inf
    with pytest.raises(DataMismatch):
        model_forward(config, params, bad)
    tight = small_config(max_tokens=4)
    with pytest.raises(DataMismatch):
        model_forward(tight, init_params(tight), np.zeros((1, 4, 5)))  # class token overflows
    # finite entries whose squares overflow LayerNorm's variance
    with pytest.raises(DataMismatch, match="squared norm overflows"):
        model_forward(config, params, np.full((2, 4, 5), 1e308))
    bad = np.zeros((2, 4, 5))
    bad[1, 2] = 1e160
    with pytest.raises(DataMismatch, match="squared norm overflows"):
        model_forward(config, params, bad)
    assert np.all(np.isfinite(model_forward(config, params, np.full((2, 4, 5), 1e100)).data))
    # no tokens: the class token alone would be scored
    with pytest.raises(DataMismatch, match="^samples hold no tokens$"):
        model_forward(config, params, np.zeros((2, 0, 5)))


@pytest.mark.parametrize("param,norm", [
    ("blocks.0.mlp.fc2.weight", "norm"),
    ("embed.weight", "blocks.0.norm1"),
    ("blocks.0.attn.out_proj", "blocks.0.norm2"),
])
def test_stream_overflowing_a_layer_norm_raises_naming_it(param, norm):
    # finite inputs, but the scaled parameter carries the residual stream past
    # ~1e154, where the norm's variance overflows: unchecked, every token
    # would come out as the norm's shift
    config = small_config()
    params = init_params(config)
    params[param].data *= 1e160
    x = np.random.default_rng(4).normal(size=(2, 4, config.input_dim))
    for run in (
        lambda: model_forward(config, params, x),
        lambda: loss_and_grads(config, params, x, np.array([0, 1])),
        lambda: predict(config, params, x),  # the tiled forward
    ):
        with pytest.raises(NumericalFault, match=rf"^{norm}: LayerNorm variance overflows$"):
            run()


def test_a_layer_norm_overflow_in_a_later_tile_names_the_norm():
    # 40 samples of 31 rows make three tiles of the no-grad forward; only the
    # last sample's tokens reach the overflowing embedding, so the first two
    # tiles normalize cleanly before the third raises
    config = small_config()
    params = init_params(config)
    params["embed.weight"].data *= 1e160
    x = np.zeros((40, 30, config.input_dim))
    x[-1] = np.random.default_rng(4).normal(size=(30, config.input_dim))
    assert len(_stream_tiles(40, 31)) == 3
    message = r"^blocks\.0\.norm1: LayerNorm variance overflows$"
    for run in (lambda: predict(config, params, x), lambda: model_forward(config, params, x)):
        with pytest.raises(NumericalFault, match=message):
            run()


@pytest.mark.parametrize("B,n,streams", [(2, 2048, 3.0), (16, 256, 2.25)])
def test_predict_peak_memory_is_a_few_residual_streams(B, n, streams):
    # a no-grad forward runs each block's attention one group of whole
    # samples at a time (one long sample, or the short samples of one tile)
    # and adds every sublayer into the stream in place: beside the stream, a
    # block holds the rotary table, a value buffer and the squared head
    # features of one group, and arrays of K floats per token of the group
    # or of one tile. At 2 x 2048 a forward that made a fresh stream-sized
    # array per operation peaked at 4.9 streams, one that held one whole
    # hidden activation at 6.7, and one with a value buffer of the stream's
    # size at 3.4 (2.7 at 16 x 256).
    config = ModelConfig()
    params = init_params(config)
    x = np.random.default_rng(0).normal(size=(B, n, config.input_dim))
    predict(config, params, x)  # warm numpy's caches outside the measurement
    tracemalloc.start()
    try:
        predict(config, params, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    stream = B * (n + 1) * config.dim * 8  # bytes of the residual stream
    assert peak <= streams * stream


def default_batch(config):
    """A training step's batch at the default config: 32 samples of 16 tokens."""
    rng = np.random.default_rng(8)
    return rng.normal(size=(32, 16, config.input_dim)), rng.integers(config.num_classes, size=32)


def test_backward_frees_every_interior_activation_of_the_step():
    config = ModelConfig()
    params = init_params(config)
    loss, logits = model_loss(config, params, *default_batch(config))
    seen, stack, interior = set(), [loss], []
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if node._backward is not None and node is not loss and node is not logits:
                interior.append(weakref.ref(node.data))
            stack.extend(node._parents)
    node = stack = None  # the walk's last node would keep its array alive
    assert len(interior) > 50
    loss.backward()
    # loss and logits are still held; nothing they were made from is
    assert sum(ref() is not None for ref in interior) == 0
    assert all(p.grad is not None and np.all(np.isfinite(p.grad)) for p in params.values())


def test_training_step_peak_memory_is_about_the_forward_graph():
    # backward frees each activation and interior gradient after its last
    # use, so it adds little to what the forward's graph already holds
    config = ModelConfig()
    params = init_params(config)
    x, labels = default_batch(config)
    model_loss(config, params, x, labels)[0].backward()  # warm numpy's caches outside the measurement
    for p in params.values():
        p.zero_grad()
    tracemalloc.start()
    try:
        loss, _ = model_loss(config, params, x, labels)
        held = tracemalloc.get_traced_memory()[0]
        loss.backward()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * held


def test_training_step_forward_graph_holds_at_most_17_hidden_activations():
    # what the graph keeps for backward, in units of one MLP hidden
    # activation of the batch. Each block's MLP keeps its fc1 output and its
    # Phi; LayerNorm keeps no x-hat, the rescaling no w^2, and no node keeps
    # the GELU output. A graph that also kept those read 22.3 here.
    config = ModelConfig()
    params = init_params(config)
    x, labels = default_batch(config)
    model_loss(config, params, x, labels)[0].backward()  # warm numpy's caches outside the measurement
    tracemalloc.start()
    try:
        loss, _ = model_loss(config, params, x, labels)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    hidden = x.shape[0] * (x.shape[1] + 1) * config.mlp_hidden * 8  # bytes of one hidden activation
    assert held <= 17 * hidden


def test_zero_input_has_finite_loss_and_gradients():
    config = small_config()
    params = init_params(config)
    loss, grads = loss_and_grads(config, params, np.zeros((2, 4, 5)), np.array([0, 1]))
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
        loss_and_grads(config, params, np.zeros((2, 4, 5)), np.array([0, 1]))


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
    _, grads = loss_and_grads(config, params, x, y)

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


def loss_and_supports(config, params, inputs, labels):
    """Loss value, and each block's head-gate and membership supports read through ``capture``."""
    capture = []
    logits = model_forward(config, params, inputs, capture=capture)
    supports = [
        (block.get("head_mask", np.ones(1)) > 0, block["membership"] > 0) for block in capture
    ]
    return float(ad.cross_entropy_mean(logits, labels).data), supports


def same_supports(a, b):
    return all(np.array_equal(x, y) for pair_a, pair_b in zip(a, b) for x, y in zip(pair_a, pair_b))


@pytest.mark.parametrize("use_rope", [True, False], ids=["rope", "norope"])
@pytest.mark.parametrize("cell", ACCEPTED_CELLS, ids="-".join)
def test_every_cell_gradient_matches_a_directional_difference(cell, use_rope):
    # the whole model's gradient along a random direction in every parameter,
    # at random points off init; a point counts only where no gate or
    # membership support moves within +-h, since a kink there is no adjoint error
    config = cell_config(cell, depth=2, dim=16, heads=4, topk=2, use_rope=use_rope)
    rng = np.random.default_rng(15)
    h, counted = 1e-6, 0
    for _ in range(48):
        params = {
            name: ad.Tensor(p.data + rng.normal(scale=0.3, size=p.shape), requires_grad=True)
            for name, p in init_params(config).items()
        }
        x = rng.normal(size=(2, 5, config.input_dim))
        y = rng.integers(0, config.num_classes, size=2)
        direction = {name: rng.normal(size=p.shape) for name, p in params.items()}
        _, centre = loss_and_supports(config, detach_params(params), x, y)
        (plus, at_plus), (minus, at_minus) = (
            loss_and_supports(config, {n: ad.Tensor(p.data + step * direction[n])
                                       for n, p in params.items()}, x, y)
            for step in (h, -h)
        )
        if not (same_supports(centre, at_plus) and same_supports(centre, at_minus)):
            continue
        _, grads = loss_and_grads(config, params, x, y)
        analytic = sum(float(np.vdot(grads[n], direction[n])) for n in params)
        numeric = (plus - minus) / (2 * h)
        assert abs(analytic - numeric) <= 1e-6 * max(abs(analytic), abs(numeric)), counted
        counted += 1
        if counted == 12:
            return
    pytest.fail(f"only {counted} of 48 points kept their supports within +-h")


# ---------------------------------------------------------------------------
# class-token readout
# ---------------------------------------------------------------------------


def all_token_forward(config, params, inputs, capture=None):
    """Logits from a forward that runs every block and the final norm on all n+1 tokens."""
    B, n, _ = inputs.shape
    rope = rope_precompute(n + 1, config.dim) if config.use_rope else None
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
    x = _layer_norm(x, params, "norm")
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
    mlp_sublayer = model._mlp_sublayer

    def recording_mlp(x, *args):
        shapes.append(x.shape)
        return mlp_sublayer(x, *args)

    monkeypatch.setattr(model, "_mlp_sublayer", recording_mlp)
    loss_and_grads(config, params, x, np.array([0, 1, 2]))
    assert shapes == [(B, n + 1, config.dim)] * (depth - 1) + [(B, config.dim)]


@pytest.mark.parametrize("B", [1, 3])
@pytest.mark.parametrize("depth", [1, 4])
def test_tiled_last_block_mlp_sees_only_the_class_token(monkeypatch, depth, B):
    config = small_config(depth=depth)
    params = init_params(config)
    n = 6
    x = np.random.default_rng(8).normal(size=(B, n, config.input_dim))
    mlps = []
    mlp_sublayer = model._mlp_sublayer

    def recording_mlp(rows, *args):
        mlps.append(rows.shape)
        return mlp_sublayer(rows, *args)

    monkeypatch.setattr(model, "_mlp_sublayer", recording_mlp)
    predict(config, params, x)
    assert mlps == [(B, n + 1, config.dim)] * (depth - 1) + [(B, config.dim)]


@pytest.mark.parametrize("depth", [1, 2, 4])
@pytest.mark.parametrize("use_rope", [True, False], ids=["rope", "norope"])
@pytest.mark.parametrize(
    "attention,axis",
    [(AttentionKind.DMSA, "head"), (AttentionKind.DMSA, "token"), (AttentionKind.DMSA, "both"),
     (AttentionKind.TSSA, "head")],
    ids=["AttentionKind.DMSA-head", "AttentionKind.DMSA-token", "AttentionKind.DMSA-both",
         "AttentionKind.TSSA-head"],
)
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
    _, grads = loss_and_grads(config, params, x, labels)
    ref_grads = all_token_grads(config, params, x, labels)
    for name, ref in ref_grads.items():
        tol = 1e-12 * float(np.max(np.abs(ref)))
        assert np.max(np.abs(grads[name] - ref)) <= tol, name


# ---------------------------------------------------------------------------
# the tiled no-grad forward
# ---------------------------------------------------------------------------


def test_tiles_cover_every_row_once_and_none_has_one_row():
    for rows in (1, 2, 511, 512, 513, 1024, 1025, 1537, 2050):
        tiles = _row_tiles(rows)
        assert [start for start, _ in tiles] == [0] + [stop for _, stop in tiles[:-1]]
        assert tiles[-1][1] == rows
        assert all(0 < stop - start <= _TILE for start, stop in tiles)
        assert rows == 1 or min(stop - start for start, stop in tiles) > 1
    for B, m in ((1, 2), (513, 2), (40, 31), (3, 512), (2, 513), (2, 1025), (1, 4097)):
        tiles = _stream_tiles(B, m)
        covered = np.zeros((B, m), dtype=int)
        for b0, b1, s, e in tiles:
            assert 1 < (b1 - b0) * (e - s) <= _TILE
            assert (s, e) == (0, m) or b1 - b0 == 1  # whole samples, or a range of one
            covered[b0:b1, s:e] += 1
        assert np.all(covered == 1)
        if m <= _TILE:
            assert len(tiles) == -(-B // (_TILE // m))


# (B, n) of the tiled forward's cases: several samples to a tile; n + 1 =
# 2 * 512 + 1, whose last two tiles take 511 and 2 rows; samples longer than a
# tile with B = 1, 2 and 3; one whole sample to a tile with B = 3, whose
# one-sample groups must take the batch's layout of simplex memberships; one
# token of one sample; and 513 one-token samples, whose last tile is one
# sample and whose embedding rows leave a remainder of one
TILED_SHAPES = [
    (40, 30), (2, 1024), (1, 600), (2, 600), (3, 600), (3, 300), (1, 1), (513, 1),
]


@pytest.mark.parametrize("use_rope", [True, False], ids=["rope", "norope"])
@pytest.mark.parametrize("cell", ACCEPTED_CELLS, ids="-".join)
def test_tiled_forward_equals_the_graph_bit_for_bit(cell, use_rope):
    # parameters requiring grad take the graph path, the oracle; detached ones
    # take the tiled path, with and without a capture
    config = cell_config(cell, depth=2, dim=16, heads=4, topk=2, use_rope=use_rope)
    rng = np.random.default_rng(12)
    for off_init in (0.0, 0.3):
        params = init_params(config)
        for p in params.values():
            p.data += rng.normal(scale=off_init, size=p.shape)
        detached = detach_params(params)
        for B, n in TILED_SHAPES:
            x = rng.normal(size=(B, n, config.input_dim))
            capture, graph_capture = [], []
            graph = model_forward(config, params, x, capture=graph_capture).data
            np.testing.assert_array_equal(model_forward(config, detached, x).data, graph)
            np.testing.assert_array_equal(
                model_forward(config, detached, x, capture=capture).data, graph
            )
            assert len(capture) == len(graph_capture) == config.depth
            for block, graph_block in zip(capture, graph_capture):
                assert list(block) == list(graph_block)
                for key in block:
                    np.testing.assert_array_equal(block[key], graph_block[key])
