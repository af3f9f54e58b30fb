import numpy as np

from dmst.functional import gelu, relu, sigmoid, softmax


def test_sigmoid_known_values():
    x = np.array([0.0, np.log(3.0)])
    out = sigmoid(x)
    assert abs(out[0] - 0.5) < 1e-15
    assert abs(out[1] - 0.75) < 1e-15


def test_sigmoid_symmetry_and_saturation():
    rng = np.random.default_rng(0)
    x = rng.normal(scale=3.0, size=100)
    assert np.max(np.abs(sigmoid(-x) - (1.0 - sigmoid(x)))) < 1e-15
    # the sign-split form must not overflow for extreme inputs
    extreme = np.array([-1e4, 1e4])
    out = sigmoid(extreme)
    assert out[0] == 0.0
    assert out[1] == 1.0


def masked_sigmoid(x):
    # the sign-split form with a masked gather and scatter per half
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_equals_the_masked_sign_split_bit_for_bit():
    rng = np.random.default_rng(5)
    edges = np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -746.0])
    for x in (rng.normal(scale=6.0, size=(3, 4, 50)), edges, np.arange(-40, 41)):
        out = sigmoid(x)
        assert out.dtype == np.float64 and out.shape == x.shape
        assert np.array_equal(out, masked_sigmoid(x))
    assert np.array_equal(np.signbit(sigmoid(edges)), np.zeros(edges.size, dtype=bool))


def test_relu_clamps_negatives():
    x = np.array([-2.0, 0.0, 3.5])
    assert np.array_equal(relu(x), [0.0, 0.0, 3.5])


def test_gelu_known_values_and_limits():
    assert gelu(np.array([0.0]))[0] == 0.0
    # gelu(x) = x * Phi(x); at x = 1 this is Phi(1) ~ 0.8413447
    assert abs(gelu(np.array([1.0]))[0] - 0.841344746069) < 1e-9
    big = np.array([20.0, -20.0])
    out = gelu(big)
    assert abs(out[0] - 20.0) < 1e-12
    assert abs(out[1]) < 1e-12


def test_softmax_columns_is_column_stochastic_and_stable():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(4, 7))
    out = softmax(x, axis=0)
    assert np.max(np.abs(out.sum(axis=0) - 1.0)) < 1e-12
    assert np.min(out) > 0.0
    # shifting a column by a constant must not change its softmax
    shifted = softmax(x + rng.normal(size=(1, 7)), axis=0)
    assert np.max(np.abs(out - shifted)) < 1e-12
    # huge scores stay finite thanks to the max shift
    assert np.all(np.isfinite(softmax(np.array([[1e4], [0.0]]), axis=0)))
