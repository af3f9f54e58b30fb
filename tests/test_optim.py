import numpy as np
import pytest

from dmst.errors import InvalidInput
from dmst.optim import OptimState, adamw_step


def test_first_step_moves_by_signed_unit_lr():
    # from zero moments the bias corrections cancel the betas exactly, so the
    # first update is -lr * g / (|g| + eps) before decay
    rng = np.random.default_rng(0)
    g = rng.normal(size=(3, 4))
    p = rng.normal(size=(3, 4))
    before = p.copy()
    state = OptimState(lr=1e-3, weight_decay=0.0)
    adamw_step({"w": p}, {"w": g}, state)
    expected = before - state.lr * g / (np.abs(g) + state.eps)
    assert np.max(np.abs(p - expected)) < 1e-12
    assert state.step == 1


def test_decay_is_decoupled_from_the_gradient():
    # zero gradient leaves the moments at zero, so the update reduces to the
    # pure multiplicative decay
    p = np.full((2, 2), 4.0)
    state = OptimState(lr=0.1, weight_decay=0.5)
    adamw_step({"w": p}, {"w": np.zeros((2, 2))}, state)
    assert np.max(np.abs(p - 4.0 * (1.0 - 0.1 * 0.5))) < 1e-12


def test_moments_follow_exponential_averages():
    rng = np.random.default_rng(1)
    p = rng.normal(size=(5,))
    g1 = rng.normal(size=(5,))
    g2 = rng.normal(size=(5,))
    state = OptimState(weight_decay=0.0)
    adamw_step({"w": p}, {"w": g1}, state)
    adamw_step({"w": p}, {"w": g2}, state)
    m = (1 - state.beta1) * (state.beta1 * g1 + g2)
    v = (1 - state.beta2) * (state.beta2 * g1 * g1 + g2 * g2)
    assert np.max(np.abs(state.m["w"] - m)) < 1e-12
    assert np.max(np.abs(state.v["w"] - v)) < 1e-12
    assert state.step == 2


def test_two_steps_match_scalar_reference():
    # scalar AdamW transcribed step by step
    p = np.array([1.0])
    g = np.array([0.5])
    lr, b1, b2, wd, eps = 0.01, 0.9, 0.999, 0.04, 1e-8
    state = OptimState(lr=lr, beta1=b1, beta2=b2, weight_decay=wd, eps=eps)
    adamw_step({"w": p}, {"w": g}, state)
    adamw_step({"w": p}, {"w": g}, state)

    ref, m, v = 1.0, 0.0, 0.0
    for step in (1, 2):
        m = b1 * m + (1 - b1) * 0.5
        v = b2 * v + (1 - b2) * 0.25
        ref *= 1 - lr * wd
        ref -= lr * (m / (1 - b1**step)) / (np.sqrt(v / (1 - b2**step)) + eps)
    assert abs(p[0] - ref) < 1e-15


def test_five_in_place_steps_match_the_out_of_place_formula_bit_for_bit():
    # weights on the scale of one step, so a last-bit change in the step shows
    rng = np.random.default_rng(2)
    p = rng.normal(scale=1e-3, size=(4, 5))
    state = OptimState(lr=3e-3, weight_decay=0.1)
    lr, b1, b2, wd, eps = state.lr, state.beta1, state.beta2, state.weight_decay, state.eps
    ref, m, v = p.copy(), np.zeros_like(p), np.zeros_like(p)
    for step in range(1, 6):
        g = rng.normal(size=p.shape)
        g_before = g.copy()
        adamw_step({"w": p}, {"w": g}, state)
        m = b1 * m + (1.0 - b1) * g
        v = b2 * v + (1.0 - b2) * (g * g)
        ref = ref * (1.0 - lr * wd)
        ref = ref - lr * (m / (1.0 - b1**step)) / (np.sqrt(v / (1.0 - b2**step)) + eps)
        assert np.array_equal(p, ref)
        assert np.array_equal(state.m["w"], m) and np.array_equal(state.v["w"], v)
        assert np.array_equal(g, g_before)  # the gradient is read, never written


def test_update_is_applied_in_place_per_parameter():
    pa = np.zeros(3)
    pb = np.ones(3)
    state = OptimState(weight_decay=0.0)
    out = adamw_step({"a": pa, "b": pb}, {"a": np.ones(3), "b": np.zeros(3)}, state)
    assert out is state
    assert np.all(pa < 0.0)  # moved against its gradient
    assert np.array_equal(pb, np.ones(3))  # zero gradient, zero decay


def test_state_validation():
    with pytest.raises(InvalidInput):
        OptimState(lr=0.0)
    with pytest.raises(InvalidInput):
        OptimState(beta1=1.0)
    for decay in (-0.1, float("nan"), float("inf")):
        with pytest.raises(InvalidInput):
            OptimState(weight_decay=decay)


def test_key_and_shape_mismatches_are_rejected():
    state = OptimState()
    with pytest.raises(InvalidInput):
        adamw_step({"a": np.zeros(2)}, {"b": np.zeros(2)}, state)
    with pytest.raises(InvalidInput):
        adamw_step({"a": np.zeros(2)}, {"a": np.zeros(3)}, OptimState())
