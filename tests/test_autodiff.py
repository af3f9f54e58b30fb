import inspect
import itertools
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import erf, ndtr

from dmst import autodiff as ad
from dmst.attention import rope_precompute
from dmst.errors import DataMismatch, InvalidInput
from dmst.functional import normal_pdf
from dmst.model import (
    MEMBERSHIP_EPS, ModelConfig, _mlp_sublayer, finite_grads, init_params, model_loss, predict,
)
from dmst.sparsify import soft_threshold_matrix

FD_H = 1e-6
FD_TOL = 1e-6


def fd_gradients(fn, arrays):
    # independent oracle: central differences of the scalar numpy evaluation
    grads = []
    for which, base in enumerate(arrays):
        g = np.zeros_like(base, dtype=np.float64)
        for idx in np.ndindex(base.shape):
            plus = [a.copy() for a in arrays]
            minus = [a.copy() for a in arrays]
            plus[which][idx] += FD_H
            minus[which][idx] -= FD_H
            g[idx] = (fn(*plus) - fn(*minus)) / (2 * FD_H)
        grads.append(g)
    return grads


def check_op(build, arrays):
    """Compare backward gradients of ``build`` against finite differences."""
    tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
    out = build(*tensors)
    out.backward()

    def numeric(*arrs):
        return build(*[ad.Tensor(a) for a in arrs]).data.item()

    for t, fd in zip(tensors, fd_gradients(numeric, arrays)):
        scale = max(float(np.max(np.abs(fd))), 1.0)
        assert np.max(np.abs(t.grad - fd)) / scale < FD_TOL


def weighted(rng, shape):
    # fixed projection turning an op output into a scalar with varied seeds
    C = rng.normal(size=shape)
    return lambda t: ad.sum_(ad.mul(t, C))


# ---------------------------------------------------------------------------
# arithmetic
# ---------------------------------------------------------------------------


def test_add_mul_gradients():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(3, 4))
    b = rng.uniform(0.5, 2.0, size=(3, 4))
    w = weighted(rng, (3, 4))
    check_op(lambda x, y: w(ad.add(x, y)), [a, b])
    check_op(lambda x, y: w(ad.mul(x, y)), [a, b])


def test_broadcast_add_and_mul_gradients():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(3, 1))
    b = rng.normal(size=(1, 4))
    w = weighted(rng, (3, 4))
    check_op(lambda x, y: w(ad.add(x, y)), [a, b])
    check_op(lambda x, y: w(ad.mul(x, y)), [a, b])


def test_pow_gradients():
    rng = np.random.default_rng(2)
    a = rng.uniform(0.5, 2.0, size=(2, 5))
    w = weighted(rng, (2, 5))
    check_op(lambda x: w(ad.pow_scalar(x, 3.0)), [a])
    check_op(lambda x: w(ad.pow_scalar(x, -0.5)), [a])


def test_matmul_gradients():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    w = weighted(rng, (3, 2))
    check_op(lambda x, y: w(x @ y), [a, b])


def test_batched_matmul_with_broadcast_gradients():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(2, 3, 4))
    b = rng.normal(size=(4, 5))
    w = weighted(rng, (2, 3, 5))
    check_op(lambda x, y: w(x @ y), [a, b])


@pytest.mark.parametrize("left_shape", [(2, 3, 4), (2, 2, 3, 4)])
def test_flattened_weight_matmul_gradient_of_each_side_alone(left_shape):
    # (..., n, d) @ (d, h) runs as one GEMM; check each operand's adjoint
    # with the other held constant, so neither relies on the other's branch
    rng = np.random.default_rng(14)
    a = rng.normal(size=left_shape)
    b = rng.normal(size=(4, 5))
    w = weighted(rng, left_shape[:-1] + (5,))
    check_op(lambda x: w(x @ b), [a])
    check_op(lambda y: w(ad.Tensor(a) @ y), [b])


@pytest.mark.parametrize("left_shape", [(3, 4), (2, 3, 4), (2, 2, 3, 4)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_gradient_of_each_operand_alone(left_shape, with_bias):
    rng = np.random.default_rng(18)
    x = rng.normal(size=left_shape)
    W = rng.normal(size=(4, 5))
    b = rng.normal(size=5)
    w = weighted(rng, left_shape[:-1] + (5,))
    bias = b if with_bias else None
    check_op(lambda t: w(ad.linear(t, W, bias)), [x])
    check_op(lambda t: w(ad.linear(x, t, bias)), [W])
    if with_bias:
        check_op(lambda t: w(ad.linear(x, W, t)), [b])


@pytest.mark.parametrize("weight_shape", [(4,), (2, 4, 5)])
def test_linear_and_matmul_reject_a_weight_that_is_not_2d(weight_shape):
    x, W = ad.Tensor(np.ones((2, 3, 4))), ad.Tensor(np.ones(weight_shape))
    with pytest.raises(InvalidInput):
        ad.linear(x, W)
    with pytest.raises(InvalidInput):
        x @ W


@pytest.mark.parametrize("left_shape", [(3, 4), (2, 3, 4)])
def test_linear_equals_matmul_then_add_bit_for_bit(left_shape):
    # the parent expression of every biased projection, in forward and in
    # all three gradients
    rng = np.random.default_rng(19)
    arrays = [rng.normal(size=left_shape), rng.normal(size=(4, 5)), rng.normal(size=5)]
    seed = rng.normal(size=left_shape[:-1] + (5,))
    results = []
    for build in (ad.linear, lambda x, W, b: ad.add(x @ W, b)):
        tensors = [ad.Tensor(a, requires_grad=True) for a in arrays]
        out = build(*tensors)
        out.backward(seed)
        results.append([out.data] + [t.grad for t in tensors])
    for fused, composed in zip(*results):
        assert np.array_equal(fused, composed)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------


def test_reshape_transpose_broadcast_gradients():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(2, 6))
    w1 = weighted(rng, (3, 4))
    check_op(lambda x: w1(ad.reshape(x, (3, 4))), [a])
    b = rng.normal(size=(2, 3, 4))
    w2 = weighted(rng, (4, 2, 3))
    check_op(lambda x: w2(ad.transpose(x, (2, 0, 1))), [b])
    c = rng.normal(size=(3, 1))
    w3 = weighted(rng, (3, 5))
    check_op(lambda x: w3(ad.broadcast_to(x, (3, 5))), [c])


def test_concat_and_getitem_gradients():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(2, 2))
    w = weighted(rng, (2, 5))
    check_op(lambda x, y: w(ad.concat([x, y], axis=1)), [a, b])
    c = rng.normal(size=(4, 4))
    w2 = weighted(rng, (2, 4))
    check_op(lambda x: w2(ad.getitem(x, slice(1, 3))), [c])


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def test_sum_and_mean_gradients():
    rng = np.random.default_rng(7)
    a = rng.normal(size=(3, 4))
    w = weighted(rng, (3,))
    check_op(lambda x: w(ad.sum_(x, axis=1)), [a])
    check_op(lambda x: w(ad.mean(x, axis=1)), [a])
    wk = weighted(rng, (3, 1))
    check_op(lambda x: wk(ad.sum_(x, axis=1, keepdims=True)), [a])
    check_op(lambda x: ad.mean(x), [a])


# ---------------------------------------------------------------------------
# nonlinearities
# ---------------------------------------------------------------------------


def test_sigmoid_relu_gelu_gradients():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 4))
    # keep relu inputs away from the kink where the derivative jumps
    a = np.where(np.abs(a) < 0.1, 0.3, a)
    w = weighted(rng, (3, 4))
    check_op(lambda x: w(ad.sigmoid(x)), [a])
    check_op(lambda x: w(ad.relu(x)), [a])
    check_op(lambda x: w(ad.gelu_linear(x, np.eye(4), np.zeros(4))), [a])


def test_gelu_linear_gradient_of_each_operand_alone():
    rng = np.random.default_rng(19)
    h, W, b = rng.normal(size=(2, 3, 4)), rng.normal(size=(4, 5)), rng.normal(size=5)
    w = weighted(rng, (2, 3, 5))
    check_op(lambda a: w(ad.gelu_linear(a, W, b)), [h])
    check_op(lambda a: w(ad.gelu_linear(h, a, b)), [W])
    check_op(lambda a: w(ad.gelu_linear(h, W, a)), [b])


def test_gelu_gradient_matches_finite_differences():
    # one input column through a 1 x 1 identity: the product is GELU itself
    rng = np.random.default_rng(1)
    x = rng.normal(scale=2.0, size=(200, 1))
    one, zero = np.ones((1, 1)), np.zeros(1)
    h = 1e-6
    fd = (ad.gelu_linear(x + h, one, zero).data - ad.gelu_linear(x - h, one, zero).data) / (2 * h)
    t = ad.Tensor(x, requires_grad=True)
    ad.gelu_linear(t, one, zero).backward(np.ones_like(x))
    assert np.max(np.abs(t.grad - fd)) < 1e-8


def test_no_grad_gelu_equals_grad_gelu_and_keeps_no_backward():
    x = np.random.default_rng(2).normal(scale=3.0, size=(4, 7, 9))
    plain = ad.Tensor(x)
    eye, zero = np.eye(9), np.zeros(9)
    no_grad = ad.gelu_linear(plain, eye, zero)
    with_grad = ad.gelu_linear(ad.Tensor(x, requires_grad=True), eye, zero)
    assert np.array_equal(no_grad.data, with_grad.data)
    assert not no_grad.requires_grad
    assert no_grad._backward is None and no_grad._parents == ()
    assert with_grad._backward is not None
    assert np.array_equal(plain.data, x)  # the input is read, never written
    # without a graph the activation overwrites Phi: beside its output the op
    # allocates one array of the input's size and the bias add's 64 KiB ufunc buffer
    rng = np.random.default_rng(3)
    h, W, b = rng.normal(size=(512, 256)), rng.normal(size=(256, 64)), np.zeros(64)
    ad.gelu_linear(h, W, b)  # warm numpy's caches outside the measurement
    tracemalloc.start()
    try:
        out = ad.gelu_linear(h, W, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.data.nbytes < 1.5 * h.nbytes


def test_layer_norm_gradient():
    rng = np.random.default_rng(15)
    x = rng.normal(size=(2, 3, 5))
    scale = rng.uniform(0.5, 1.5, size=5)
    shift = rng.normal(size=5)
    w = weighted(rng, (2, 3, 5))
    check_op(lambda a, s, b: w(ad.layer_norm(a, s, b, 1e-6)), [x, scale, shift])
    check_op(lambda a: w(ad.layer_norm(a, scale, shift, 1e-6)), [x])


def sigmoid_membership(rng, shape):
    return 1.0 / (1.0 + np.exp(-rng.normal(size=shape)))


def simplex_membership_with_zeros(rng, shape):
    Pi = soft_threshold_matrix(rng.normal(size=(int(np.prod(shape[:-1])), shape[-1])))
    assert not (Pi > 0.0).all()  # the case under test has exact zeros
    return Pi.reshape(shape)


@pytest.mark.parametrize("membership", [sigmoid_membership, simplex_membership_with_zeros])
def test_second_moment_rescale_gradient_of_each_input_alone(membership):
    rng = np.random.default_rng(16)
    w_in = rng.normal(size=(2, 3, 6, 4))
    Pi = membership(rng, (2, 3, 6))
    w = weighted(rng, (2, 3, 6, 4))
    check_op(lambda a: w(ad.second_moment_rescale(a, Pi, MEMBERSHIP_EPS)), [w_in])
    check_op(lambda P: w(ad.second_moment_rescale(w_in, P, MEMBERSHIP_EPS)), [Pi])


def test_fused_ops_match_their_composed_expressions():
    # independent oracles: each fused op written out as the plain numpy or
    # composed-op expression it replaces, forward and (for the graph) backward
    rng = np.random.default_rng(17)
    x = rng.normal(size=(3, 4, 6))
    weight, bias = rng.normal(size=(6, 5)), rng.normal(size=5)
    np.testing.assert_allclose(
        ad.gelu_linear(x, weight, bias).data,
        np.einsum("bnd,dh->bnh", x * 0.5 * (1.0 + erf(x / np.sqrt(2.0))), weight) + bias,
        rtol=0, atol=1e-12,
    )

    scale, shift = rng.normal(size=6), rng.normal(size=6)
    centered = x - x.mean(axis=-1, keepdims=True)
    expected = centered / np.sqrt((centered**2).mean(axis=-1, keepdims=True) + 1e-6) * scale + shift
    np.testing.assert_allclose(
        ad.layer_norm(x, scale, shift, 1e-6).data, expected, rtol=0, atol=1e-12
    )

    np.testing.assert_allclose(
        (ad.Tensor(x) @ weight).data, np.einsum("bnd,dh->bnh", x, weight), rtol=0, atol=1e-12
    )

    w_in = rng.normal(size=(2, 3, 5, 4))
    Pi = sigmoid_membership(rng, (2, 3, 5))
    seed = rng.normal(size=w_in.shape)

    def composed(w, P):
        # reciprocals as powers, the (1, n) @ (n, p) product as a summed
        # broadcast product, and the negation as a product with -1
        B, K, n, _ = w.shape
        norm = P * ad.pow_scalar(ad.sum_(P, axis=-1, keepdims=True) + MEMBERSHIP_EPS, -1.0)
        moment = ad.sum_(ad.reshape(norm, (B, K, n, 1)) * (w * w), axis=-2, keepdims=True)
        attn = ad.pow_scalar(1.0 + moment, -1.0)
        return (w * ad.reshape(P, (B, K, n, 1))) * attn * -1.0

    grads = []
    for op in (composed, lambda w, P: ad.second_moment_rescale(w, P, MEMBERSHIP_EPS)):
        tw, tp = ad.Tensor(w_in, requires_grad=True), ad.Tensor(Pi, requires_grad=True)
        out = op(tw, tp)
        out.backward(seed)
        grads.append((out.data, tw.grad, tp.grad))
    for fused, reference in zip(grads[1], grads[0]):
        np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-12)


# Reference adjoints that save every forward array their backward reads:
# x-hat of LayerNorm, w^2 of the rescaling and the GELU activation fed to the
# projection. The ops rebuild those arrays in backward by the same IEEE
# operations on the same inputs, so their gradients must match these bit for
# bit.


def saved_layer_norm(x, scale, shift, eps, g):
    xhat = x - x.mean(axis=-1, keepdims=True)
    out = np.multiply(xhat, xhat)
    inv = (out.mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat *= inv
    np.multiply(xhat, scale, out=out)
    out += shift
    gx = g * scale
    gx_mean = gx.mean(axis=-1, keepdims=True)
    tmp = np.multiply(gx, xhat)
    np.multiply(xhat, tmp.mean(axis=-1, keepdims=True), out=tmp)
    gx -= gx_mean
    gx -= tmp
    gx *= inv
    lead = tuple(range(g.ndim - 1))
    return out, [gx, (g * xhat).sum(axis=lead), g.sum(axis=lead)]


def saved_second_moment_rescale(w, Pi, eps, g):
    sq = w * w
    denom, norm, attn = ad.second_moment_scale(sq, Pi, eps)
    weight = Pi[..., None]
    out = np.multiply(w, weight)
    np.negative(out, out=out)
    out *= attn
    gw = g * w
    gd = (np.swapaxes(weight, -1, -2) @ gw) * (attn * attn)
    gnorm = (sq @ np.swapaxes(gd, -1, -2))[..., 0]
    direct = (gw @ np.swapaxes(attn, -1, -2))[..., 0]
    spread = (gnorm * Pi).sum(axis=-1, keepdims=True) / (denom * denom)
    gPi = gnorm / denom
    gPi -= spread
    gPi -= direct
    gd *= 2.0
    dw = gd * norm[..., None]
    dw *= w
    np.multiply(g, weight, out=gw)
    gw *= attn
    dw -= gw
    return out, [dw, gPi]


def saved_gelu_linear(h, W, b, g):
    cdf = ndtr(h)
    act = (h * cdf).reshape(-1, h.shape[-1])
    out = act @ W
    out += b
    g2 = g.reshape(-1, g.shape[-1])
    slope = normal_pdf(h)
    slope *= h
    slope += cdf
    slope *= (g2 @ W.T).reshape(h.shape)
    return out.reshape(g.shape), [slope, act.T @ g2, g2.sum(axis=0)]


def split_heads_view(rng, B, n, K, hd):
    # (B, K, n, hd) features as a transposed view of (B, n, K * hd) values
    return rng.normal(size=(B, n, K * hd)).reshape(B, n, K, hd).transpose(0, 2, 1, 3)


@pytest.mark.parametrize("case", ["layer_norm", "layer_norm_strided", "rescale_sigmoid",
                                  "rescale_simplex", "gelu_linear", "gelu_linear_2d"])
def test_ops_that_rebuild_saved_arrays_match_saving_adjoints_bit_for_bit(case):
    rng = np.random.default_rng(24)
    if case.startswith("layer_norm"):
        x = rng.normal(size=(3, 7, 5))
        if case == "layer_norm_strided":  # the class token of a stream, as the last block reads it
            x = x[:, 0, :]
        inputs = [x, rng.uniform(0.5, 1.5, size=5), rng.normal(size=5)]
        op = lambda a, s, b: ad.layer_norm(a, s, b, 1e-6)
        reference = lambda a, s, b, g: saved_layer_norm(a, s, b, 1e-6, g)
    elif case.startswith("rescale"):
        zeros = case == "rescale_simplex"
        membership = simplex_membership_with_zeros if zeros else sigmoid_membership
        inputs = [split_heads_view(rng, 3, 7, 2, 5), membership(rng, (3, 2, 7))]
        op = lambda w, P: ad.second_moment_rescale(w, P, MEMBERSHIP_EPS)
        reference = lambda w, P, g: saved_second_moment_rescale(w, P, MEMBERSHIP_EPS, g)
    else:
        lead = (3, 7) if case == "gelu_linear" else (3,)
        h = rng.normal(scale=2.0, size=lead + (11,))
        inputs = [h, rng.normal(size=(11, 5)), rng.normal(size=5)]
        op, reference = ad.gelu_linear, saved_gelu_linear
    tensors = [ad.Tensor(a, requires_grad=True) for a in inputs]
    out = op(*tensors)
    seed = rng.normal(size=out.shape)
    expected, grads = reference(*inputs, seed)
    out.backward(seed)
    assert np.array_equal(out.data, expected)
    for t, g in zip(tensors, grads):
        assert np.array_equal(t.grad, g)


def test_softmax_gradient():
    rng = np.random.default_rng(9)
    a = rng.normal(size=(4, 5))
    w = weighted(rng, (4, 5))
    check_op(lambda x: w(ad.softmax(x, axis=-1)), [a])
    check_op(lambda x: w(ad.softmax(x, axis=0)), [a])


def test_soft_threshold_rows_gradient_at_stable_active_set():
    rng = np.random.default_rng(10)
    checked = 0
    while checked < 10:
        a = rng.normal(size=(2, 6))
        out = soft_threshold_matrix(a)
        active = out > 0.0
        # each row's threshold: the one shift s - out shared by its active entries
        thresholds = np.where(active, a - out, 0.0).sum(axis=1) / active.sum(axis=1)
        margin = np.where(active, out, np.inf).min()
        slack = np.where(active, np.inf, thresholds[:, None] - a).min()
        if margin < 1e-3 or slack < 1e-3:
            continue  # perturbation would flip the active set
        w = weighted(rng, (2, 6))
        check_op(lambda x: w(ad.soft_threshold_rows(x)), [a])
        checked += 1


def test_soft_threshold_rows_backward_centers_over_active_set():
    # threshold 0: entries 0, 2 and 3 are active, entry 1 is not
    x = ad.Tensor(np.array([[0.5, -1.0, 0.3, 0.2]]), requires_grad=True)
    out = ad.soft_threshold_rows(x)
    assert np.array_equal(out.data, [[0.5, 0.0, 0.3, 0.2]])
    out.backward(np.array([[3.0, 5.0, 0.0, 0.0]]))
    assert np.max(np.abs(x.grad - [[2.0, 0.0, -1.0, -1.0]])) < 1e-15


def test_rope_rotate_gradient_and_norm_preservation():
    rng = np.random.default_rng(11)
    table = rope_precompute(5, 6)
    a = rng.normal(size=(5, 6))
    w = weighted(rng, (5, 6))
    check_op(lambda x: w(ad.rope_rotate(x, table)), [a])
    # the adjoint is the inverse rotation, so gradient norms match seed norms
    t = ad.Tensor(a, requires_grad=True)
    out = ad.rope_rotate(t, table)
    seed = rng.normal(size=(5, 6))
    out.backward(seed)
    assert np.max(np.abs(np.linalg.norm(t.grad, axis=1) - np.linalg.norm(seed, axis=1))) < 1e-12


def test_cross_entropy_mean_gradient():
    rng = np.random.default_rng(12)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, size=6)
    t = ad.Tensor(logits, requires_grad=True)
    loss = ad.cross_entropy_mean(t, labels)
    loss.backward()

    def numeric(arr):
        return ad.cross_entropy_mean(ad.Tensor(arr), labels).data.item()

    fd = fd_gradients(numeric, [logits])[0]
    assert np.max(np.abs(t.grad - fd)) < FD_TOL


def test_cross_entropy_mean_known_value():
    # uniform logits over C classes cost exactly log C
    logits = np.zeros((3, 4))
    labels = np.array([0, 1, 2])
    loss = ad.cross_entropy_mean(ad.Tensor(logits), labels)
    assert abs(loss.data.item() - np.log(4.0)) < 1e-12


def test_cross_entropy_rejects_bad_shapes():
    with pytest.raises(InvalidInput):
        ad.cross_entropy_mean(ad.Tensor(np.zeros((3, 4))), np.zeros(2, dtype=int))
    with pytest.raises(InvalidInput):
        ad.cross_entropy_mean(ad.Tensor(np.zeros(4)), np.zeros(4, dtype=int))


@pytest.mark.parametrize("label", [-1, 4, 7])
def test_cross_entropy_rejects_labels_outside_the_classes(label):
    # without the check -1 would score class 3 and 4 would index past the end
    with pytest.raises(DataMismatch, match="outside 0..3"):
        ad.cross_entropy_mean(ad.Tensor(np.zeros((3, 4))), np.array([0, label, 2]))


# ---------------------------------------------------------------------------
# gradient ownership
# ---------------------------------------------------------------------------


def _frozen(a):
    a.flags.writeable = False
    return a


_TABLE = rope_precompute(5, 6)
_MLP_PARAMS = ("norm2.scale", "norm2.shift", "mlp.fc1.weight", "mlp.fc1.bias",
               "mlp.fc2.weight", "mlp.fc2.bias")


def _mlp_block(x, *weights):
    """The model's MLP sublayer (its LayerNorm, fc1, GELU and fc2) with these weights."""
    return _mlp_sublayer(x, {f"b.{name}": w for name, w in zip(_MLP_PARAMS, weights)}, "b")

# Every op, its builder and its input shapes. Inputs are positive so that
# pow and relu stay on their smooth side.
BACKWARD_CASES = {
    "add": (ad.add, [(3, 4), (4,)]),
    "mul": (ad.mul, [(3, 4), (4,)]),
    "pow_scalar": (lambda a: ad.pow_scalar(a, -0.5), [(3, 4)]),
    "linear": (ad.linear, [(2, 3, 4), (4, 5), (5,)]),
    "linear_2d": (ad.linear, [(3, 4), (4, 5), (5,)]),
    "mlp": (_mlp_block, [(2, 3, 4), (4,), (4,), (4, 5), (5,), (5, 4), (4,)]),
    "matmul": (lambda a, b: a @ b, [(3, 4), (4, 2)]),
    "reshape": (lambda a: ad.reshape(a, (4, 3)), [(3, 4)]),
    "transpose": (lambda a: ad.transpose(a, (1, 0)), [(3, 4)]),
    "broadcast_to": (lambda a: ad.broadcast_to(a, (3, 4)), [(3, 1)]),
    "concat": (lambda a, b: ad.concat([a, b], axis=1), [(2, 3), (2, 2)]),
    "getitem": (lambda a: a[:, 1:3], [(3, 4)]),
    "sum_": (lambda a: ad.sum_(a, axis=1), [(3, 4)]),
    "mean": (lambda a: ad.mean(a, axis=0, keepdims=True), [(3, 4)]),
    "sigmoid": (ad.sigmoid, [(3, 4)]),
    "relu": (ad.relu, [(3, 4)]),
    "gelu_linear": (ad.gelu_linear, [(2, 3, 4), (4, 5), (5,)]),
    "softmax": (ad.softmax, [(3, 4)]),
    "layer_norm": (lambda a, s, b: ad.layer_norm(a, s, b, 1e-6), [(2, 3, 5), (5,), (5,)]),
    "second_moment_rescale": (
        lambda w, P: ad.second_moment_rescale(w, P, MEMBERSHIP_EPS), [(2, 3, 5, 4), (2, 3, 5)]
    ),
    "soft_threshold_rows": (ad.soft_threshold_rows, [(3, 6)]),
    "rope_rotate": (lambda a: ad.rope_rotate(a, _TABLE), [(2, 5, 6)]),
    "cross_entropy_mean": (lambda a: ad.cross_entropy_mean(a, np.array([0, 1, 3])), [(3, 4)]),
}


@pytest.mark.parametrize("name", sorted(BACKWARD_CASES))
def test_backward_never_writes_into_its_gradient_inputs_or_output(name):
    # read-only seed and inputs make any in-place write raise
    build, shapes = BACKWARD_CASES[name]
    rng = np.random.default_rng(20)
    tensors = [
        ad.Tensor(_frozen(rng.uniform(0.5, 1.5, size=s)), requires_grad=True) for s in shapes
    ]
    out = build(*tensors)
    before = out.data.copy()
    out.backward(_frozen(rng.normal(size=out.shape)))
    assert np.array_equal(out.data, before)
    assert all(t.grad is not None and t.grad.shape == t.shape for t in tensors)


def test_model_gradients_own_their_memory():
    config = ModelConfig(depth=2, dim=16, heads=4, input_dim=5, num_classes=3)
    params = init_params(config)
    rng = np.random.default_rng(21)
    loss, _ = model_loss(config, params, rng.normal(size=(2, 4, 5)), np.array([0, 2]))
    loss.backward()
    grads = finite_grads(params)
    for name, g in grads.items():
        assert g.flags.owndata and g.flags.writeable, name
    arrays = list(grads.values()) + [p.data for p in params.values()]
    for i, a in enumerate(arrays):
        for b in arrays[i + 1:]:
            assert not np.may_share_memory(a, b)


# ---------------------------------------------------------------------------
# graph mechanics
# ---------------------------------------------------------------------------


def test_reused_tensor_accumulates_gradient():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = ad.add(x, x)
    y.backward(np.array([1.0]))
    assert np.array_equal(x.grad, [2.0])


def test_diamond_graph_gradient():
    # z = x * y + x: dz/dx = y + 1, dz/dy = x
    x = ad.Tensor(np.array([3.0]), requires_grad=True)
    y = ad.Tensor(np.array([5.0]), requires_grad=True)
    z = ad.add(ad.mul(x, y), x)
    z.backward(np.array([1.0]))
    assert np.array_equal(x.grad, [6.0])
    assert np.array_equal(y.grad, [3.0])


def test_detach_blocks_gradient_flow():
    x = ad.Tensor(np.array([2.0]), requires_grad=True)
    y = ad.mul(ad.Tensor(x.data), x)
    y.backward(np.array([1.0]))
    assert np.array_equal(x.grad, [2.0])  # only the live branch contributes


def test_backward_requires_scalar_without_seed():
    x = ad.Tensor(np.ones((2, 2)), requires_grad=True)
    with pytest.raises(InvalidInput):
        ad.add(x, x).backward()


def test_backward_rejects_a_seed_of_another_shape():
    x = ad.Tensor(np.ones((2, 3)), requires_grad=True)
    out = ad.mul(x, 2.0)
    with pytest.raises(InvalidInput, match=r"^backward\(\) seed has shape \(3,\), tensor has shape \(2, 3\)$"):
        out.backward(np.ones(3))
    assert x.grad is None
    out.backward(np.ones((2, 3)))  # the failed call consumed nothing
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


def test_second_backward_through_a_graph_raises():
    # the interior gradient of b * 2.0 would otherwise be counted twice
    b = ad.Tensor(np.array([1.0]), requires_grad=True)
    z = ad.sum_(b * 2.0)
    z.backward()
    assert np.array_equal(b.grad, [2.0])
    with pytest.raises(InvalidInput, match=r"^backward\(\) through a graph that an earlier backward\(\) already freed$"):
        z.backward()
    assert np.array_equal(b.grad, [2.0])


def test_second_root_sharing_a_freed_subgraph_raises_before_any_gradient():
    a = ad.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    c = ad.Tensor(np.array([3.0, 4.0]), requires_grad=True)
    shared = a * 3.0
    ad.sum_(shared).backward()
    second = ad.sum_(shared * c)
    with pytest.raises(InvalidInput, match="already freed"):
        second.backward()
    assert np.array_equal(a.grad, [3.0, 3.0])
    assert c.grad is None  # second's own adjoint never ran


def test_backward_frees_interior_nodes_and_keeps_leaf_gradients():
    x = ad.Tensor(np.array([1.0, -2.0]), requires_grad=True)
    hidden = ad.relu(x * 3.0)
    out = ad.sum_(hidden)
    out.backward()
    for node in (hidden, out):
        assert node.grad is None and node._parents == ()
    assert np.array_equal(x.grad, [3.0, 0.0])


def test_zero_grad_resets_accumulation():
    x = ad.Tensor(np.array([1.0]), requires_grad=True)
    ad.mul(x, 3.0).backward(np.array([1.0]))
    assert np.array_equal(x.grad, [3.0])
    x.zero_grad()
    assert x.grad is None


def test_operator_sugar_matches_functions():
    rng = np.random.default_rng(13)
    a = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    b = ad.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    W = ad.Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    left = ((a + b) * a)[:, 1:] @ W[1:]
    right = ad.linear(ad.getitem(ad.mul(ad.add(a, b), a), (slice(None), slice(1, None))),
                      ad.getitem(W, slice(1, None)))
    assert np.array_equal(left.data, right.data)
    reflected = 1.0 + 2.0 * a
    assert np.array_equal(reflected.data, ad.add(ad.mul(a, 2.0), 1.0).data)


# ---------------------------------------------------------------------------
# op census
# ---------------------------------------------------------------------------


def test_every_node_building_op_is_reached_by_some_model_config(monkeypatch):
    # one forward and backward, and one no-grad forward, on each of the 8
    # accepted (attention, sparsity axis, activation) cells with rope on and
    # off: an op that no config builds belongs in no engine that exists to
    # train this model
    defined = {
        name for name, fn in vars(ad).items()
        if inspect.isfunction(fn) and fn.__module__ == ad.__name__
        and "_node" in fn.__code__.co_names
    }
    reached = set()
    build = ad._node

    def census(data, parents, backward):
        reached.add(sys._getframe(1).f_code.co_name)
        return build(data, parents, backward)

    monkeypatch.setattr(ad, "_node", census)
    rng = np.random.default_rng(23)
    x, labels = rng.normal(size=(2, 3, 5)), np.array([0, 1])
    cells = [
        ("dmsa", "head", "st"), ("dmsa", "token", "st"), ("dmsa", "both", "st"),
        ("dmsa", "head", "sigmoid"), ("dmsa", "token", "sigmoid"),
        ("dmsa", "head", "relu"), ("dmsa", "token", "relu"),
        ("tssa", "head", "st"),
    ]
    configs = 0
    for (attention, axis, activation), rope in itertools.product(cells, (True, False)):
        config = ModelConfig(depth=1, dim=8, heads=2, topk=1, input_dim=5, num_classes=2,
                             attention=attention, activation=activation, sparsity_axis=axis,
                             use_rope=rope)
        params = init_params(config)
        model_loss(config, params, x, labels)[0].backward()
        predict(config, params, x)
        configs += 1
    assert configs == 16
    assert reached == defined
