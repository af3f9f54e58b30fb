"""Elementwise nonlinearities shared by the rate math, the layers and the autodiff engine."""

from __future__ import annotations

import numpy as np

_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function ``1 / (1 + exp(-x))`` in float64, without overflow at any sign.

    With ``e = exp(-|x|)`` it is ``1 / (1 + e)`` where ``x >= 0`` and
    ``e / (1 + e)`` elsewhere: ``exp`` only sees nonpositive arguments, and
    no mask gathers or scatters the two halves.
    """
    x = np.asarray(x, dtype=np.float64)
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    out = np.where(x >= 0, 1.0, e)
    e += 1.0
    out /= e
    return out


def normal_pdf(x: np.ndarray) -> np.ndarray:
    """Standard normal density phi(x), evaluated in one fresh buffer."""
    out = np.empty(np.shape(x))
    np.multiply(x, -0.5, out=out)
    out *= x
    np.exp(out, out=out)
    out *= _INV_SQRT_2PI
    return out


def softmax(x: np.ndarray, axis: int) -> np.ndarray:
    """Softmax along ``axis``, shifted by the axis maximum so ``exp`` cannot overflow."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)
