"""AdamW with decoupled weight decay.

Moments are stored per parameter name and updated in place; decay
multiplies the weights directly by ``1 - lr * weight_decay`` instead of
entering the gradient, and both moment estimates are bias corrected. Each
parameter's update allocates one scratch array plus the step, and runs the
IEEE operations of the textbook expressions in their order. Defaults follow
the training recipe used throughout the package: lr 1e-3 and weight decay
5e-2; the betas (0.9, 0.999) and eps 1e-8 are constants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, check_real

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class OptimState:
    """First/second moment estimates and step count for AdamW."""

    lr: float = 1e-3
    weight_decay: float = 5e-2
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        check_real("lr", self.lr, 0.0, strict=True)
        check_real("weight_decay", self.weight_decay, 0.0)


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimState,
) -> OptimState:
    """Apply one AdamW update in place and return the advanced state.

    From zero state with gradient ``g`` the parameter moves by
    ``-lr * g / (|g| + eps)`` after bias correction (decay aside), which is
    what the unit tests pin down.
    """
    if set(params) != set(grads):
        raise InvalidInput("params and grads must share the same keys")
    state.step += 1
    bc1 = 1.0 - BETA1**state.step
    bc2 = 1.0 - BETA2**state.step
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise InvalidInput(f"gradient shape {g.shape} mismatches parameter {name} {p.shape}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m, v = state.m[name], state.v[name]
        # m = b1 * m + (1 - b1) * g and v = b2 * v + (1 - b2) * g^2, in place
        scratch = np.multiply(g, 1.0 - BETA1)
        m *= BETA1
        m += scratch
        np.multiply(g, g, out=scratch)
        scratch *= 1.0 - BETA2
        v *= BETA2
        v += scratch
        if state.weight_decay:
            p *= 1.0 - state.lr * state.weight_decay
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + eps)
        np.divide(v, bc2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += EPS
        step = m / bc1
        step *= state.lr
        step /= scratch
        p -= step
    return state
