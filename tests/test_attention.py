import itertools

import numpy as np
import pytest

from dmst import autodiff as ad
from dmst.attention import (
    SHIFT_FREE_SCORE_BOUND,
    AttentionKind,
    MhsaLayerParams,
    dmsa_operator,
    mhsa_layer_forward,
    rope_precompute,
    rotate_pairs,
)
from dmst.coding_rate import (
    CodingRateConfig,
    Membership,
    SubspaceBank,
    grad_rate_wrt_tokens,
    rate_variational_decoupled,
)
from dmst.errors import InvalidInput
from dmst.functional import sigmoid
from dmst.memcount import count_floats
from dmst.model import (
    MEMBERSHIP_EPS,
    ModelConfig,
    _dmsa_attention,
    _tssa_attention,
    init_params,
    model_forward,
    second_moment_tail,
    split_heads,
)
from dmst.rng import orthonormal_basis
from dmst.sparsify import ActivationKind, soft_threshold
from dmst.verify import simplex_project_bisection


def random_bank(rng, d, K, p):
    bases = tuple(
        orthonormal_basis(np.random.default_rng(rng.integers(2**31)), d, p) for _ in range(K)
    )
    return SubspaceBank(bases, orthonormal=True)


def random_layer(rng, d, K, membership=True):
    """Attention sublayer parameters in the model's ``x @ W`` layout."""
    layer = {"attn.value_proj": ad.Tensor(rng.normal(scale=0.5, size=(d, d)))}
    if membership:
        layer["attn.membership_proj"] = ad.Tensor(rng.normal(scale=0.5, size=(d, K)))
    layer["attn.out_proj"] = ad.Tensor(rng.normal(scale=0.5, size=(d, d)))
    layer["attn.out_bias"] = ad.Tensor(rng.normal(scale=0.1, size=d))
    return layer


# ---------------------------------------------------------------------------
# math-form operator
# ---------------------------------------------------------------------------


def test_dmsa_operator_is_exact_negated_gradient():
    rng = np.random.default_rng(0)
    cfg = CodingRateConfig(epsilon=0.9)
    for _ in range(20):
        Z = rng.normal(size=(6, 9))
        bank = random_bank(rng, 6, 3, 2)
        Pi = Membership(rng.uniform(0.05, 1.0, size=(3, 9)))
        assert np.array_equal(
            dmsa_operator(Z, Pi, bank, cfg), -grad_rate_wrt_tokens(Z, Pi, bank, cfg)
        )


def test_dmsa_operator_step_descends_the_rate():
    rng = np.random.default_rng(1)
    cfg = CodingRateConfig(epsilon=1.0)
    step = 1e-3
    for _ in range(100):
        d = int(rng.integers(4, 9))
        n = int(rng.integers(4, 12))
        K = int(rng.integers(1, 4))
        Z = rng.normal(size=(d, n))
        bank = random_bank(rng, d, K, max(1, d // (K + 1)))
        Pi = Membership(rng.uniform(0.05, 1.0, size=(K, n)))
        before = rate_variational_decoupled(Z, Pi, bank, cfg)
        after = rate_variational_decoupled(
            Z + step * dmsa_operator(Z, Pi, bank, cfg), Pi, bank, cfg
        )
        assert after < before


# ---------------------------------------------------------------------------
# rotary position encoding
# ---------------------------------------------------------------------------


def test_rope_preserves_token_norms():
    rng = np.random.default_rng(3)
    table = rope_precompute(16, 8)
    x = rng.normal(size=(16, 8))
    rotated = rotate_pairs(x, table)
    assert np.max(np.abs(np.linalg.norm(rotated, axis=1) - np.linalg.norm(x, axis=1))) < 1e-12


def test_rope_position_zero_is_identity():
    rng = np.random.default_rng(4)
    table = rope_precompute(4, 6)
    x = rng.normal(size=(1, 6))
    assert np.max(np.abs(rotate_pairs(x, table) - x)) < 1e-15


def test_rope_inner_products_depend_only_on_position_difference():
    rng = np.random.default_rng(5)
    cos, sin = rope_precompute(64, 8)
    u = rng.normal(size=(1, 8))
    v = rng.normal(size=(1, 8))

    def at(m):  # the pair's row for position m
        return cos[m : m + 1], sin[m : m + 1]

    for i, j, shift in [(0, 3, 5), (2, 9, 17), (1, 40, 20)]:
        a = rotate_pairs(u, at(i)) @ rotate_pairs(v, at(j)).T
        b = rotate_pairs(u, at(i + shift)) @ rotate_pairs(v, at(j + shift)).T
        assert abs(a.item() - b.item()) < 1e-12


def test_rotate_pairs_rotates_each_leading_index_alike():
    rng = np.random.default_rng(23)
    cos, sin = rope_precompute(5, 4)
    x = rng.normal(size=(2, 3, 5, 4))
    batched = rotate_pairs(x, (cos, sin))
    for idx in np.ndindex(2, 3):
        assert np.array_equal(batched[idx], rotate_pairs(x[idx], (cos, sin)))
    # the pair with negated sines is the inverse rotation
    assert np.max(np.abs(rotate_pairs(batched, (cos, -sin)) - x)) < 1e-12


def test_rope_rejects_bad_shapes():
    with pytest.raises(InvalidInput):
        rope_precompute(8, 7)  # odd dim has no channel pairs
    with pytest.raises(InvalidInput):
        rope_precompute(0, 4)
    table = rope_precompute(4, 6)
    with pytest.raises(InvalidInput):
        rotate_pairs(np.ones((8, 6)), table)  # more tokens than positions
    with pytest.raises(InvalidInput):
        rotate_pairs(np.ones((2, 4)), table)  # dim mismatch
    with pytest.raises(InvalidInput):
        rotate_pairs(np.ones(6), table)  # no token axis


# ---------------------------------------------------------------------------
# DMSA and TSSA sublayers vs scalar-loop references
# ---------------------------------------------------------------------------


ELEMENTWISE = {
    ActivationKind.SIGMOID: sigmoid,
    ActivationKind.RELU: lambda x: np.maximum(x, 0.0),
}


def simplex_topk(s, k):
    # top-k support by a stable sort, then bisection onto the simplex
    keep = np.argsort(-s, kind="stable")[:k]
    out = np.zeros_like(s)
    out[keep] = simplex_project_bisection(s[keep])
    return out


def reference_tail(values, mask, Pi, layer, K):
    n, d = values.shape
    p = d // K
    merged = np.zeros((n, d))
    for k in range(K):
        wk = values[:, k * p : (k + 1) * p] * mask[k]
        mass = Pi[k].sum() + MEMBERSHIP_EPS
        dots = np.zeros(p)
        for c in range(p):
            dots[c] = sum(Pi[k, i] / mass * wk[i, c] ** 2 for i in range(n))
        attn = 1.0 / (1.0 + dots)
        for i in range(n):
            merged[i, k * p : (k + 1) * p] = -(wk[i] * Pi[k, i]) * attn
    return merged @ layer["attn.out_proj"].data + layer["attn.out_bias"].data


def reference_dmsa_layer(x, layer, config, table):
    # independent oracle: per-head, per-token loops instead of batched matmuls
    K = config.heads
    values = x @ layer["attn.value_proj"].data
    rotated = rotate_pairs(x, table) if table is not None else x
    scores = rotated @ layer["attn.membership_proj"].data  # (n, K)
    soft = config.activation is ActivationKind.SOFT_THRESHOLD

    if config.sparsity_axis in ("head", "both"):
        gate = scores.mean(axis=0)
        if soft:
            mask = simplex_topk(gate, min(config.topk, K))
        else:
            mask = ELEMENTWISE[config.activation](gate)
    else:
        mask = np.ones(K)

    if soft and config.sparsity_axis == "head":
        Pi = sigmoid(scores.T)
    elif soft:
        Pi = np.vstack([simplex_project_bisection(scores[:, k]) for k in range(K)])
    else:
        Pi = ELEMENTWISE[config.activation](scores.T)
    return reference_tail(values, mask, Pi, layer, K)


def reference_tssa_layer(x, layer, K):
    # per-token softmax over heads of the energy in each token-normalized head
    n, d = x.shape
    p = d // K
    values = x @ layer["attn.value_proj"].data
    Pi = np.zeros((K, n))
    for i in range(n):
        energy = np.zeros(K)
        for k in range(K):
            for c in range(k * p, (k + 1) * p):
                energy[k] += values[i, c] ** 2 / (np.sum(values[:, c] ** 2) + 1e-12)
        e = np.exp(energy - energy.max())
        Pi[:, i] = e / e.sum()
    return reference_tail(values, np.ones(K), Pi, layer, K)


def dmsa_sublayer(x, layer, config, table):
    return _dmsa_attention(ad.Tensor(x[None]), config, layer, "attn", table).data[0]


def tssa_sublayer(x, layer, K):
    config = ModelConfig(dim=x.shape[1], heads=K, attention=AttentionKind.TSSA)
    return _tssa_attention(ad.Tensor(x[None]), config, layer, "attn").data[0]


@pytest.mark.parametrize(
    "axis,activation",
    [(axis, kind) for axis, kind in itertools.product(("head", "token"), ActivationKind)]
    + [("both", ActivationKind.SOFT_THRESHOLD)],
)
def test_dmsa_layer_matches_scalar_reference(axis, activation):
    rng = np.random.default_rng(8)
    d, K, n = 8, 4, 6
    config = ModelConfig(dim=d, heads=K, sparsity_axis=axis, topk=2, activation=activation)
    layer = random_layer(rng, d, K)
    x = rng.normal(size=(n, d))
    table = rope_precompute(n, d)
    out = dmsa_sublayer(x, layer, config, table)
    assert np.max(np.abs(out - reference_dmsa_layer(x, layer, config, table))) < 1e-10


def small_model(**kwargs):
    return ModelConfig(depth=2, dim=8, heads=4, mlp_ratio=1.0, input_dim=5, **kwargs)


def test_dmsa_layer_without_rope_ignores_token_order_in_state():
    # with no rotary table the membership path sees raw tokens, so permuting
    # tokens permutes the per-token state columns without changing values
    rng = np.random.default_rng(9)
    config = small_model(sparsity_axis="token", use_rope=False)
    params = init_params(config)
    n = 5
    x = rng.normal(size=(2, n, 5))
    perm = rng.permutation(n)
    cols = np.concatenate([[0], 1 + perm])  # the class token stays first
    state, state_p = [], []
    model_forward(config, params, x, capture=state)
    model_forward(config, params, x[:, perm], capture=state_p)
    for block, block_p in zip(state, state_p):
        assert np.max(np.abs(block_p["membership"] - block["membership"][:, :, cols])) < 1e-12
        after, after_p = block["tokens_after_attention"], block_p["tokens_after_attention"]
        assert np.max(np.abs(after_p - after[:, cols])) < 1e-12


def test_dmsa_layer_constant_scores_gate_heads_uniformly():
    # equal token-mean scores across heads make the simplex projection split
    # the gate evenly, so every head survives with weight 1/K
    rng = np.random.default_rng(11)
    config = small_model(sparsity_axis="head", topk=4)
    params = init_params(config)
    for i in range(config.depth):
        params[f"blocks.{i}.attn.membership_proj"] = ad.Tensor(np.zeros((8, 4)))
    capture = []
    model_forward(config, params, rng.normal(size=(3, 6, 5)), capture=capture)
    for block in capture:
        assert block["head_mask"].shape == (3, 4)
        assert np.max(np.abs(block["head_mask"] - 1.0 / 4)) < 1e-12


# ---------------------------------------------------------------------------
# layer-operator consistency
# ---------------------------------------------------------------------------


def folded_layer(Z, Pi, bank, g, *, gate_out_proj):
    # the rescaling tail in the operator's folded form: value heads
    # g_k U_k^T x, the pinned membership, and output columns U_k / n, gated
    # by g_k too when ``gate_out_proj``
    K, n = Pi.data.shape
    out_gate = g if gate_out_proj else np.ones(K)
    values = ad.Tensor(Z.T[None]) @ ad.Tensor(np.hstack(bank.bases))
    w = split_heads(values, K) * ad.Tensor(g.reshape(1, K, 1, 1))
    out_proj = np.vstack([g_k * U.T for g_k, U in zip(out_gate, bank.bases)]) / n
    return second_moment_tail(
        w, ad.Tensor(Pi.data[None]), ad.Tensor(out_proj), ad.Tensor(np.zeros(Z.shape[0]))
    ).data[0].T


def all_ones_gate(rng, K):
    return np.ones(K)


def top_k_gate(rng, K):
    # the model's head gate map: a top-k soft threshold of one score per head
    return soft_threshold(rng.normal(size=K), topk=max(1, K - 1))


@pytest.mark.parametrize("gate", [all_ones_gate, top_k_gate], ids=["all-ones", "top-k"])
def test_dmsa_layer_matches_operator_on_gated_bank(gate):
    # with the gate on the values and the out_proj rows the layer realizes
    # the operator on the gated bank; agreement is limited only by the 1e-8
    # normalizer guard. The model gates the values only: head k then
    # carries g_k where the operator carries g_k^2, which agree only for a
    # gate in {0, 1}.
    rng = np.random.default_rng(12)
    tol = 1e-5
    fractional = 0
    for _ in range(20):
        K = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        d = K * p
        n = int(rng.integers(3, 9))
        bank = random_bank(rng, d, K, p)
        Z = rng.normal(size=(d, n))
        Pi = Membership(rng.uniform(0.05, 1.0, size=(K, n)))
        g = gate(rng, K)
        op_out = dmsa_operator(Z, Pi, bank.scaled(g), CodingRateConfig(epsilon=float(np.sqrt(d))))
        both = folded_layer(Z, Pi, bank, g, gate_out_proj=True)
        assert np.max(np.abs(both - op_out)) < tol
        values_only_gap = np.max(np.abs(folded_layer(Z, Pi, bank, g, gate_out_proj=False) - op_out))
        if np.allclose(g * g, g, rtol=0.0, atol=1e-12):  # g in {0, 1}, up to rounding
            assert values_only_gap < tol
        else:
            fractional += 1
            assert K >= 2 and values_only_gap > 1e-3
    # only the top-k gate reaches the values-only gap, and it does on some instance
    assert (fractional > 0) == (gate is top_k_gate)


# ---------------------------------------------------------------------------
# TSSA baseline
# ---------------------------------------------------------------------------


def test_tssa_single_head_membership_is_all_ones():
    # softmax over a single head is identically one, so the layer reduces to
    # the uniform-membership rescaling
    rng = np.random.default_rng(13)
    d, n = 6, 7
    layer = random_layer(rng, d, 1, membership=False)
    x = rng.normal(size=(n, d))
    values = x @ layer["attn.value_proj"].data
    mass = float(n) + MEMBERSHIP_EPS
    dots = np.sum(values * values, axis=0) / mass
    expected = (-values / (1.0 + dots)[None, :]) @ layer["attn.out_proj"].data
    expected += layer["attn.out_bias"].data
    assert np.max(np.abs(tssa_sublayer(x, layer, 1) - expected)) < 1e-10


@pytest.mark.parametrize("K", [2, 4])
def test_tssa_layer_matches_scalar_reference(K):
    rng = np.random.default_rng(22)
    d, n = 8, 7
    layer = random_layer(rng, d, K, membership=False)
    x = rng.normal(size=(n, d))
    assert np.max(np.abs(tssa_sublayer(x, layer, K) - reference_tssa_layer(x, layer, K))) < 1e-10


def test_tssa_output_shape_and_finiteness():
    rng = np.random.default_rng(14)
    layer = random_layer(rng, 8, 4, membership=False)
    out = tssa_sublayer(rng.normal(size=(10, 8)), layer, 4)
    assert out.shape == (10, 8)
    assert np.all(np.isfinite(out))


def test_tssa_rejects_dim_mismatch():
    rng = np.random.default_rng(15)
    config = ModelConfig(depth=1, dim=8, heads=2, input_dim=8, attention=AttentionKind.TSSA)
    with pytest.raises(InvalidInput):
        model_forward(config, init_params(config), rng.normal(size=(1, 5, 6)))


# ---------------------------------------------------------------------------
# softmax attention baseline
# ---------------------------------------------------------------------------


def mhsa_params(rng, d, K, chunk=1024):
    return MhsaLayerParams(
        q_proj=rng.normal(scale=0.5, size=(d, d)),
        k_proj=rng.normal(scale=0.5, size=(d, d)),
        v_proj=rng.normal(scale=0.5, size=(d, d)),
        out_proj=rng.normal(scale=0.5, size=(d, d)),
        out_bias=rng.normal(scale=0.1, size=d),
        heads=K,
        chunk=chunk,
    )


def test_mhsa_identity_projections_two_token_example():
    # with q = k = v = I and two orthonormal tokens the weights follow from a
    # single scalar score 1/sqrt(2)
    params = MhsaLayerParams(
        q_proj=np.eye(2),
        k_proj=np.eye(2),
        v_proj=np.eye(2),
        out_proj=np.eye(2),
        out_bias=np.zeros(2),
        heads=1,
    )
    x = np.eye(2)
    s = 1.0 / np.sqrt(2.0)
    a = np.exp(s) / (np.exp(s) + 1.0)
    expected = np.array([[a, 1.0 - a], [1.0 - a, a]])
    assert np.max(np.abs(mhsa_layer_forward(x, params) - expected)) < 1e-12


def test_mhsa_single_token_attends_to_itself():
    rng = np.random.default_rng(17)
    params = mhsa_params(rng, 6, 2)
    x = rng.normal(size=(1, 6))
    expected = (x @ params.v_proj.T) @ params.out_proj.T + params.out_bias
    assert np.max(np.abs(mhsa_layer_forward(x, params) - expected)) < 1e-12


def test_mhsa_chunked_forward_matches_unchunked():
    rng = np.random.default_rng(18)
    d, K, n = 8, 2, 13
    x = rng.normal(size=(n, d))
    base = mhsa_params(rng, d, K, chunk=1024)
    chunked = MhsaLayerParams(
        q_proj=base.q_proj,
        k_proj=base.k_proj,
        v_proj=base.v_proj,
        out_proj=base.out_proj,
        out_bias=base.out_bias,
        heads=K,
        chunk=3,
    )
    # chunking only changes the matmul blocking, not the per-row math
    assert np.max(np.abs(mhsa_layer_forward(x, base) - mhsa_layer_forward(x, chunked))) < 1e-12


def dense_softmax_reference(x, params):
    # the full n x n softmax of every head in float64, one head at a time,
    # then the head merge and the output projection
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    K = params.heads
    p = d // K
    q, k, v = (x @ np.asarray(m, dtype=np.float64).T
               for m in (params.q_proj, params.k_proj, params.v_proj))
    heads = []
    for h in range(K):
        cols = slice(h * p, (h + 1) * p)
        scores = q[:, cols] @ k[:, cols].T / np.sqrt(p)
        weights = np.exp(scores - scores.max(axis=1, keepdims=True))
        weights /= weights.sum(axis=1, keepdims=True)
        heads.append(weights @ v[:, cols])
    merged = np.concatenate(heads, axis=1)
    out_proj = np.asarray(params.out_proj, dtype=np.float64)
    return merged @ out_proj.T + np.asarray(params.out_bias, dtype=np.float64)


def with_chunk(params, chunk, dtype):
    return MhsaLayerParams(
        q_proj=params.q_proj.astype(dtype),
        k_proj=params.k_proj.astype(dtype),
        v_proj=params.v_proj.astype(dtype),
        out_proj=params.out_proj.astype(dtype),
        out_bias=params.out_bias.astype(dtype),
        heads=params.heads,
        chunk=chunk,
    )


@pytest.mark.parametrize("chunk", [1, 7, 97, 1024])
def test_mhsa_matches_dense_float64_softmax_reference(chunk):
    rng = np.random.default_rng(19)
    d, K, n = 12, 3, 97
    base = mhsa_params(rng, d, K)
    x = rng.normal(size=(n, d))

    params = with_chunk(base, chunk, np.float64)
    out = mhsa_layer_forward(x, params)
    assert out.dtype == np.float64
    assert np.max(np.abs(out - dense_softmax_reference(x, params))) < 1e-12

    params32 = with_chunk(base, chunk, np.float32)
    x32 = x.astype(np.float32)
    out32 = mhsa_layer_forward(x32, params32)
    assert out32.dtype == np.float32
    ref = dense_softmax_reference(x32, params32)
    assert np.max(np.abs(out32 - ref)) <= 1e-5 * np.max(np.abs(ref))


def score_bounds(x, params):
    # each head's Cauchy-Schwarz bound max_i |q_i| * max_j |k_j| on its scores,
    # with q scaled by 1/sqrt(p) as the forward scales it
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    K = params.heads
    p = d // K
    q = (x @ np.asarray(params.q_proj, dtype=np.float64).T / np.sqrt(p)).reshape(n, K, p)
    k = (x @ np.asarray(params.k_proj, dtype=np.float64).T).reshape(n, K, p)
    return np.linalg.norm(q, axis=2).max(axis=0) * np.linalg.norm(k, axis=2).max(axis=0)


def scaled_to_bound(x, params, target, head_bound):
    # q and k are linear in x, so scaling x by c scales every bound by c**2
    return x * np.sqrt(target / head_bound(score_bounds(x, params)))


@pytest.mark.parametrize("target", [40.0, 1000.0])
def test_mhsa_scores_beyond_the_guard_take_the_shifted_path(target):
    # every head's bound exceeds the guard; at 1000 an unshifted float64 exp
    # would overflow, so matching the reference shows the shift ran
    rng = np.random.default_rng(22)
    d, K, n = 12, 3, 97
    base = mhsa_params(rng, d, K)
    x = scaled_to_bound(rng.normal(size=(n, d)), base, target, np.min)
    assert np.min(score_bounds(x, base)) > SHIFT_FREE_SCORE_BOUND
    for chunk in (7, 1024):
        params = with_chunk(base, chunk, np.float64)
        out = mhsa_layer_forward(x, params)
        assert np.max(np.abs(out - dense_softmax_reference(x, params))) < 1e-12


def test_mhsa_float32_just_inside_the_guard_meets_the_relative_bound():
    # with k_proj = q_proj the largest key's self-score attains the bound
    rng = np.random.default_rng(23)
    d, K, n = 12, 3, 97
    base = mhsa_params(rng, d, K)
    base.k_proj = base.q_proj
    x = scaled_to_bound(rng.normal(size=(n, d)), base, 0.98 * SHIFT_FREE_SCORE_BOUND, np.max)
    assert np.max(score_bounds(x, base)) <= SHIFT_FREE_SCORE_BOUND
    params32 = with_chunk(base, 1024, np.float32)
    x32 = x.astype(np.float32)
    out32 = mhsa_layer_forward(x32, params32)
    ref = dense_softmax_reference(x32, params32)
    assert np.max(np.abs(out32 - ref)) <= 1e-5 * np.max(np.abs(ref))


def test_mhsa_large_values_near_the_guard_stay_finite_in_float32():
    # with k_proj = q_proj the largest key's self-score attains the bound, and
    # exp(29) * |v| ~ 4e12 * 1e28 overflows float32: the value bound must send
    # these heads down the shifted path, where weights stay at most 1
    rng = np.random.default_rng(24)
    d, K, n = 12, 3, 97
    base = mhsa_params(rng, d, K)
    base.k_proj = base.q_proj
    base.v_proj = base.v_proj * 1e27
    x = scaled_to_bound(rng.normal(size=(n, d)), base, 29.0, np.max)
    params32 = with_chunk(base, 1024, np.float32)
    x32 = x.astype(np.float32)
    out32 = mhsa_layer_forward(x32, params32)
    ref = dense_softmax_reference(x32, params32)
    assert np.all(np.isfinite(out32))
    assert np.max(np.abs(out32 - ref)) <= 1e-5 * np.max(np.abs(ref))


def test_mhsa_empty_sequence_returns_empty_output():
    rng = np.random.default_rng(25)
    params = mhsa_params(rng, 8, 2)
    out = mhsa_layer_forward(np.zeros((0, 8)), params)
    assert out.shape == (0, 8)


@pytest.mark.parametrize("n", [1, 255, 256, 1000])
@pytest.mark.parametrize("chunk", [96, 1024])
def test_mhsa_counts_two_k_n_squared_plus_seven_n_d_floats(n, chunk):
    # 96 divides none of the token counts, so the last chunk is a short one
    rng = np.random.default_rng(20)
    d, K = 16, 4
    params = mhsa_params(rng, d, K, chunk=chunk)
    with count_floats() as counter:
        mhsa_layer_forward(rng.normal(size=(n, d)), params)
    assert counter.total_floats == 2 * K * n * n + 7 * n * d


def test_mhsa_params_reject_empty_dim_and_nonpositive_chunk():
    rng = np.random.default_rng(21)
    base = mhsa_params(rng, 4, 2)
    empty = np.zeros((0, 0))
    with pytest.raises(InvalidInput):
        MhsaLayerParams(empty, empty, empty, empty, np.zeros(0), heads=1)
    for chunk in (0, -3, 2.5):
        with pytest.raises(InvalidInput):
            with_chunk(base, chunk, np.float64)


@pytest.mark.parametrize("field, value", [
    ("chunk", float("nan")), ("chunk", float("inf")), ("chunk", True),
    ("heads", 2.0), ("heads", True),
], ids=["chunk-nan", "chunk-inf", "chunk-bool", "heads-float", "heads-bool"])
def test_mhsa_params_reject_non_integer_heads_and_chunk(field, value):
    params = {"heads": 2, "chunk": 1024, field: value}
    d = 4
    with pytest.raises(InvalidInput, match=field):
        MhsaLayerParams(np.eye(d), np.eye(d), np.eye(d), np.eye(d), np.zeros(d), **params)
