import json

import numpy as np
import pytest

from dmst import analysis, model
from dmst.analysis import (
    MembershipMap,
    infer_grid,
    layer_rate_curve,
    membership_map,
    profile_attention_memory,
    to_grayscale,
    write_membership_artifacts,
    write_pgm,
)
from dmst.coding_rate import CodingRateConfig, Membership, SubspaceBank, rate_variational_decoupled
from dmst.errors import InvalidInput
from dmst.model import ModelConfig, init_params, model_forward


def small_config(**kwargs):
    base = dict(depth=2, dim=8, heads=2, mlp_ratio=1.0, num_classes=3, input_dim=5, seed=0)
    base.update(kwargs)
    return ModelConfig(**base)


# ---------------------------------------------------------------------------
# grids and curves
# ---------------------------------------------------------------------------


def test_infer_grid_prefers_near_square():
    assert infer_grid(16) == (4, 4)
    assert infer_grid(12) == (3, 4)
    assert infer_grid(7) == (1, 7)
    assert infer_grid(1) == (1, 1)
    with pytest.raises(InvalidInput):
        infer_grid(0)


def test_membership_map_validates_grid():
    with pytest.raises(InvalidInput):
        MembershipMap(layer=0, grid=(2, 3), values=np.zeros((4, 3, 2)))


# ---------------------------------------------------------------------------
# grayscale and PGM round trip
# ---------------------------------------------------------------------------


def test_to_grayscale_min_max_normalizes():
    values = np.array([[0.0, 1.0], [2.0, 4.0]])
    gray = to_grayscale(values)
    assert gray.dtype == np.uint8
    assert gray[0, 0] == 0
    assert gray[1, 1] == 255
    assert gray[0, 1] < gray[1, 0]


def test_to_grayscale_constant_is_mid_gray():
    assert np.all(to_grayscale(np.full((3, 3), 0.7)) == 128)


def pgm_pixels(path):
    # the writer's layout: "P5\n<cols> <rows>\n255\n", then the rows' bytes
    magic, size, maxval, pixels = path.read_bytes().split(b"\n", 3)
    assert magic == b"P5" and maxval == b"255"
    cols, rows = map(int, size.split())
    assert len(pixels) == rows * cols
    return np.frombuffer(pixels, dtype=np.uint8).reshape(rows, cols)


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    image = rng.integers(0, 256, size=(5, 9), dtype=np.uint8)
    path = tmp_path / "map.pgm"
    write_pgm(str(path), image)
    assert path.read_bytes().startswith(b"P5\n9 5\n255\n")
    assert np.array_equal(pgm_pixels(path), image)


def test_pgm_writer_validates_input(tmp_path):
    with pytest.raises(InvalidInput):
        write_pgm(str(tmp_path / "bad.pgm"), np.zeros((2, 2)))  # not uint8
    with pytest.raises(InvalidInput):
        write_pgm(str(tmp_path / "bad.pgm"), np.zeros(4, dtype=np.uint8))


# ---------------------------------------------------------------------------
# membership maps from the model
# ---------------------------------------------------------------------------


def test_membership_map_shapes_and_inferred_grid():
    config = small_config()
    params = init_params(config)
    rng = np.random.default_rng(1)
    mmap = membership_map(config, params, rng.normal(size=(12, 5)), layer=1)
    assert mmap.layer == 1
    assert mmap.grid == (3, 4)  # class token dropped, 12 tokens remain
    assert mmap.values.shape == (config.heads, 3, 4)
    assert np.all(np.isfinite(mmap.values))


def test_membership_map_validates_layer_and_sample():
    config = small_config()
    params = init_params(config)
    rng = np.random.default_rng(3)
    sample = rng.normal(size=(12, 5))
    with pytest.raises(InvalidInput):
        membership_map(config, params, sample, layer=2)
    with pytest.raises(InvalidInput):
        membership_map(config, params, sample, layer=-1)
    with pytest.raises(InvalidInput):
        membership_map(config, params, sample[None], layer=0)


def test_membership_map_lays_tokens_in_order_on_the_inferred_grid():
    config = small_config(depth=1)
    params = init_params(config)
    rng = np.random.default_rng(5)
    for n in range(1, 21):
        sample = rng.normal(size=(n, 5))
        mmap = membership_map(config, params, sample, layer=0)
        capture: list[dict] = []
        model_forward(config, params, sample[None], capture=capture)
        assert mmap.grid == infer_grid(n)
        weights = capture[0]["membership"][0, :, 1:]  # class token dropped
        assert np.array_equal(mmap.values.reshape(weights.shape), weights)


def test_write_membership_artifacts(tmp_path):
    config = small_config()
    params = init_params(config)
    rng = np.random.default_rng(4)
    mmap = membership_map(config, params, rng.normal(size=(12, 5)), layer=0)
    written = write_membership_artifacts(str(tmp_path), mmap)
    assert [p.split("/")[-1] for p in written] == ["head_00.pgm", "head_01.pgm", "membership.json"]
    for k in range(config.heads):
        image = pgm_pixels(tmp_path / f"head_{k:02d}.pgm")
        assert image.shape == mmap.grid
    sidecar = json.loads((tmp_path / "membership.json").read_text())
    assert sidecar["layer"] == 0
    assert sidecar["grid"] == [3, 4]
    assert sidecar["heads"] == config.heads
    assert np.allclose(np.array(sidecar["values"]), mmap.values)


# ---------------------------------------------------------------------------
# rate curves
# ---------------------------------------------------------------------------


def test_layer_rate_curve_on_fresh_model_is_finite_and_nonnegative():
    config = small_config()
    params = init_params(config)
    rng = np.random.default_rng(5)
    tokens = rng.normal(size=(6, 12, 5))
    curve = layer_rate_curve(config, params, tokens)
    assert curve.values.shape == (config.depth,)
    assert curve.samples == 6
    assert np.all(np.isfinite(curve.values))
    assert np.all(curve.values >= 0.0)


def test_layer_rate_curve_is_batch_size_invariant():
    config = small_config()
    params = init_params(config)
    rng = np.random.default_rng(6)
    tokens = rng.normal(size=(5, 8, 5))
    a = layer_rate_curve(config, params, tokens, batch=64)
    b = layer_rate_curve(config, params, tokens, batch=2)
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_layer_rate_curve_truncates_to_max_samples():
    config = small_config()
    params = init_params(config)
    rng = np.random.default_rng(7)
    tokens = rng.normal(size=(8, 8, 5))
    full = layer_rate_curve(config, params, tokens[:3])
    capped = layer_rate_curve(config, params, tokens, max_samples=3)
    assert capped.samples == 3
    assert np.array_equal(full.values, capped.values)


def reference_curve(config, params, tokens):
    """Per-sample oracle: the graph forward's captured Pi, one 2-d rate call per sample."""
    assert all(p.requires_grad for p in params.values())  # the graph form, not the tiled forward
    d, K = config.dim, config.heads
    p = d // K
    capture = []
    model_forward(config, params, tokens, capture=capture)
    totals = np.zeros(config.depth)
    for b, entry in enumerate(capture):
        value_w = params[f"blocks.{b}.attn.value_proj"].data
        bank = SubspaceBank(tuple(value_w[:, k * p : (k + 1) * p] for k in range(K)))
        for x, Pi in zip(entry["tokens_after_attention"], entry["membership"]):
            unit = x / np.linalg.norm(x, axis=1, keepdims=True)
            cfg = CodingRateConfig(epsilon=float(np.sqrt(d)))
            totals[b] += rate_variational_decoupled(unit.T, Membership(Pi), bank, cfg)
    return totals / tokens.shape[0]


@pytest.mark.parametrize(
    "attention,activation,axis",
    [
        ("dmsa", "st", "head"), ("dmsa", "st", "token"), ("dmsa", "st", "both"),
        ("dmsa", "sigmoid", "head"), ("dmsa", "sigmoid", "token"),
        ("dmsa", "relu", "head"), ("dmsa", "relu", "token"),
        ("tssa", "st", "head"),
    ],
    ids=["dmsa-st-head", "dmsa-st-token", "dmsa-st-both", "dmsa-sigmoid-head", "dmsa-sigmoid-token",
         "dmsa-relu-head", "dmsa-relu-token", "tssa"],
)
def test_layer_rate_curve_matches_a_per_sample_reference(attention, activation, axis):
    config = small_config(attention=attention, activation=activation, sparsity_axis=axis)
    params = init_params(config)
    rng = np.random.default_rng(8)
    for p in params.values():  # move off the near-uniform initial memberships
        p.data = p.data + rng.normal(scale=0.5, size=p.data.shape)
    tokens = rng.normal(size=(7, 9, 5))
    curve = layer_rate_curve(config, params, tokens, batch=3)
    expected = reference_curve(config, params, tokens)
    assert np.max(np.abs(curve.values - expected) / np.abs(expected)) < 1e-12


def test_layer_rate_curve_makes_one_rate_call_per_block_per_chunk(monkeypatch):
    import dmst.analysis

    calls = []

    def counted(Z, *rest):
        calls.append(Z.shape)
        return rate_variational_decoupled(Z, *rest)

    monkeypatch.setattr(dmst.analysis, "rate_variational_decoupled", counted)
    config = small_config()
    layer_rate_curve(config, init_params(config), np.ones((7, 4, 5)), batch=3)
    assert calls == [(3, 8, 5)] * 4 + [(1, 8, 5)] * 2  # chunks of 3, 3, 1; two blocks each


def test_layer_rate_curve_input_validation():
    config = small_config()
    params = init_params(config)
    with pytest.raises(InvalidInput):
        layer_rate_curve(config, params, np.zeros((4, 5)))
    with pytest.raises(InvalidInput):
        layer_rate_curve(config, params, np.zeros((0, 4, 5)))
    tokens = np.ones((3, 4, 5))
    for chunking in ({"batch": 0}, {"batch": -1}, {"max_samples": 0}, {"max_samples": -1}):
        with pytest.raises(InvalidInput):
            layer_rate_curve(config, params, tokens, **chunking)


# ---------------------------------------------------------------------------
# memory profiles
# ---------------------------------------------------------------------------


def test_profile_rows_and_scaling_ratios():
    counts = [256, 512]
    ratios = {}
    for op in ("dmsa", "tssa", "mhsa"):
        rows = profile_attention_memory(op, counts)
        assert [r[:2] for r in rows] == [(op, 256), (op, 512)]
        assert all(r[2] > 0 for r in rows)
        ratios[op] = rows[1][2] / rows[0][2]
    # linear operators double; the explicit score matrix quadruples
    assert abs(ratios["dmsa"] - 2.0) < 0.3
    assert abs(ratios["tssa"] - 2.0) < 0.3
    assert abs(ratios["mhsa"] - 4.0) < 0.6


# integer arguments given a bool, or a float even when it holds an integer
NON_INTEGER_ARGUMENTS = [
    ("layer_rate_curve", "batch", 2.5), ("layer_rate_curve", "batch", float("nan")),
    ("layer_rate_curve", "batch", float("inf")), ("layer_rate_curve", "batch", True),
    ("layer_rate_curve", "max_samples", 2.0), ("layer_rate_curve", "max_samples", True),
    ("membership_map", "layer", 1.0), ("membership_map", "layer", True),
    ("profile_attention_memory", "token_counts", [8.0]),
    ("profile_attention_memory", "token_counts", [True]),
]


@pytest.mark.parametrize(
    "function,name,value", NON_INTEGER_ARGUMENTS,
    ids=[f"{f}-{name}-{value}" for f, name, value in NON_INTEGER_ARGUMENTS],
)
def test_integer_arguments_reject_bools_and_floats(function, name, value):
    config = small_config()
    params = init_params(config)
    leading = {
        "layer_rate_curve": (config, params, np.ones((3, 4, 5))),
        "membership_map": (config, params, np.ones((12, 5))),
        "profile_attention_memory": ("dmsa",),
    }[function]
    with pytest.raises(InvalidInput, match=" must be an integer from "):
        getattr(analysis, function)(*leading, **{name: value})


def test_profile_validates_arguments():
    with pytest.raises(InvalidInput):
        profile_attention_memory("flash", [256])
    with pytest.raises(InvalidInput):
        profile_attention_memory("dmsa", [])
    with pytest.raises(InvalidInput):
        profile_attention_memory("dmsa", [0])
    for op in ("dmsa", "tssa", "mhsa"):
        for dim, heads in ((0, 8), (-8, 8), (64, 0), (12, 8)):
            with pytest.raises(InvalidInput):
                profile_attention_memory(op, [8], dim=dim, heads=heads)


@pytest.mark.parametrize("op", ["dmsa", "tssa"])
def test_profile_dim_is_capped_by_its_four_projections_alone(monkeypatch, op):
    # the sublayer's carrier config holds fewer weights than 4 dim^2, so the
    # model's own parameter cap never rejects a dim the profile's cap allows
    monkeypatch.setattr(analysis, "MAX_PARAMS", 4 * 16 * 16)
    monkeypatch.setattr(model, "MAX_PARAMS", 4 * 16 * 16)
    assert [n for _, n, _ in profile_attention_memory(op, [8], dim=16, heads=8)] == [8]
    with pytest.raises(InvalidInput, match="^dim 18 needs 1296 projection weights"):
        profile_attention_memory(op, [8], dim=18, heads=2)


def test_mhsa_profile_counts_are_pinned():
    # 2 * K * n**2 + 7 * n * d at the defaults (dim 64, 8 heads)
    rows = profile_attention_memory("mhsa", [1024, 2048, 4096])
    assert rows == [
        ("mhsa", 1024, 17_235_968),
        ("mhsa", 2048, 68_026_368),
        ("mhsa", 4096, 270_270_464),
    ]
    assert all(peak == 2 * 8 * n * n + 7 * n * 64 for _, n, peak in rows)


@pytest.mark.parametrize(
    "op, floats",
    [
        ("dmsa", [344_080, 688_144, 1_376_272]),  # 336 * n + 16
        ("tssa", [409_792, 819_392, 1_638_592]),  # 400 * n + 192
    ],
    ids=["dmsa", "tssa"],
)
def test_second_moment_profile_counts_are_pinned(op, floats):
    # linear in n at the defaults (dim 64, 8 heads)
    rows = profile_attention_memory(op, [1024, 2048, 4096])
    assert rows == [(op, n, f) for n, f in zip((1024, 2048, 4096), floats)]
