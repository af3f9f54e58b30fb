"""Minimal reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ndarray and remembers how it was produced; calling
``backward`` on a scalar result walks the recorded graph in reverse
topological order and accumulates gradients into every tensor that requires
them. Only the 20 operations the classifier builds are provided, each with
an exact adjoint: ``add``, ``mul``, ``pow_scalar``, ``linear``, ``reshape``,
``transpose``, ``broadcast_to``, ``concat``, ``getitem``, ``sum_``,
``mean``, ``sigmoid``, ``relu``, ``gelu``, ``softmax``, ``layer_norm``,
``second_moment_rescale``, ``soft_threshold_rows`` (the simplex soft
threshold, through its active-set Jacobian), ``rope_rotate`` (the pairwise
rotary rotation) and ``cross_entropy_mean``; ``linear_gelu`` builds
``linear`` and ``gelu`` nodes. ``+``, ``*`` and ``[]`` are ``add``, ``mul``
and ``getitem``, and ``@`` is ``linear`` without a bias, so its right
operand is a 2-D weight. LayerNorm and the DMSA/TSSA
second-moment rescaling are single nodes with closed-form adjoints, since
per-node overhead dominates a training step on arrays this small; for the
same reason a biased projection is one :func:`linear` node, a single GEMM
whose fresh output takes the bias in place. While a :mod:`dmst.memcount`
counter is active, every node's array is registered with it unless it is a
view into a parent's array.

A node links to its parents and keeps its backward closure only when a
parent requires grad. In a no-grad forward (every input and parameter a
plain leaf) a result therefore holds none of the arrays it was made from,
and each activation lives only as long as its caller holds it. GELU keeps
Phi only for a backward; without one it writes the product into Phi's own
buffer, and :func:`linear_gelu` runs GELU in place on its projection's
fresh output, so an MLP holds one hidden activation at a time. The rotary
rotation takes the ``(cos, sin)`` pair that a forward computes once and,
as ``(cos, -sin)``, rotates its gradient back.

Gradient ownership: an interior node (one with a backward closure) keeps
the first gradient it receives without a copy, so interior gradients may
alias each other and the arrays their children's backwards computed. Only a
read-only view, such as a broadcast reduction gradient, is copied. Leaves
(parameters and inputs) always get an owned copy, so every ``p.grad`` a
caller sees owns its memory and shares it with no other array. Fused
adjoints reuse their temporaries in place, with the same IEEE operations in
the same order as the plain expressions, so every value is bit for bit that
of the out-of-place evaluation. One rule makes the aliasing safe: a backward
never writes into ``g``, into any parent's ``.data``, or into an array it
has saved for backward, and a second gradient is accumulated out of place.

Bit-identical training runs rest on a fixed seed, one platform and one
BLAS build; numpy's BLAS may use several threads, and with OpenBLAS 0.3.31
on x86_64 the thread count (1 or 2) did not change a bit of a seeded run.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .attention import RopeTable, rotate_pairs
from .errors import InvalidInput
from .functional import normal_cdf, normal_pdf
from .functional import sigmoid as _sigmoid_fwd
from .functional import softmax as _softmax_fwd
from .memcount import counting, track
from .sparsify import soft_threshold_backward, soft_threshold_matrix


class Tensor:
    """An ndarray plus the bookkeeping needed to backpropagate through it."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def zero_grad(self) -> None:
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        if grad is None:
            if self.data.size != 1:
                raise InvalidInput("backward() without a seed needs a scalar tensor")
            grad = np.ones_like(self.data)
        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, expanded = stack.pop()
            if expanded:
                topo.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                stack.append((parent, False))
        self.grad = np.asarray(grad, dtype=np.float64)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # Operator sugar; every dunder defers to the module-level ops.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __matmul__(self, other):
        return linear(self, other)

    def __getitem__(self, key):
        return getitem(self, key)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def as_tensor(value) -> Tensor:
    return value if isinstance(value, Tensor) else Tensor(value)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _node(
    data: np.ndarray,
    parents: Sequence[Tensor],
    backward: Callable[[np.ndarray], None] | None,
) -> Tensor:
    """A tensor made from ``parents``; ``backward`` is kept only if one requires grad."""
    out = Tensor(data)
    if counting() and not any(np.may_share_memory(out.data, p.data) for p in parents):
        track(out.data)
    live = tuple(p for p in parents if p.requires_grad)
    if live:
        out.requires_grad = True
        out._parents = live
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        owned = t._backward is None or not g.flags.writeable
        t.grad = np.array(g, dtype=np.float64) if owned else g
    else:
        t.grad = t.grad + g


# ---------------------------------------------------------------------------
# Arithmetic
# ---------------------------------------------------------------------------


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data + b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _node(data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    data = a.data * b.data

    def backward(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g * b.data, a.shape))
        _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _node(data, (a, b), backward)


def pow_scalar(a, exponent: float) -> Tensor:
    a = as_tensor(a)
    data = a.data**exponent

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * exponent * a.data ** (exponent - 1))

    return _node(data, (a,), backward)


def linear(x, W, b=None) -> Tensor:
    """``x @ W + b`` for ``(..., d)`` inputs, a ``(d, h)`` weight and a ``(h,)`` bias, as one node.

    The product runs as one ``(N, d) @ (d, h)`` GEMM over the flattened
    leading axes, so the weight gradient is one ``(d, N) @ (N, h)`` product
    instead of a batch of products summed afterwards; the bias is added in
    place into the GEMM's fresh output. ``Tensor.__matmul__`` is this
    function without a bias, so ``x @ W`` needs a 2-D ``W`` too; any other
    weight raises ``InvalidInput``.
    """
    x, W = as_tensor(x), as_tensor(W)
    if W.ndim != 2:
        raise InvalidInput(f"linear expects a 2-d (d, h) weight, got shape {W.shape}")
    bias = None if b is None else as_tensor(b)
    parents = (x, W) if bias is None else (x, W, bias)
    x2 = x.data.reshape(-1, x.shape[-1])
    out = x2 @ W.data
    if bias is not None:
        out += bias.data

    def backward(g: np.ndarray) -> None:
        g2 = g.reshape(-1, g.shape[-1])
        if x.requires_grad:
            _accumulate(x, (g2 @ W.data.T).reshape(x.shape))
        if W.requires_grad:
            _accumulate(W, x2.T @ g2)
        if bias is not None and bias.requires_grad:
            _accumulate(bias, g2.sum(axis=0))

    return _node(out.reshape(x.shape[:-1] + W.shape[-1:]), parents, backward)


# ---------------------------------------------------------------------------
# Shape manipulation
# ---------------------------------------------------------------------------


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.reshape(a.shape))

    return _node(a.data.reshape(shape), (a,), backward)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    inverse = tuple(np.argsort(axes))

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g.transpose(inverse))

    return _node(a.data.transpose(axes), (a,), backward)


def broadcast_to(a, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))

    return _node(np.broadcast_to(a.data, shape).copy(), (a,), backward)


def concat(parts: Sequence[Tensor], axis: int) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    sizes = [p.shape[axis] for p in parts]
    split_points = np.cumsum(sizes)[:-1]

    def backward(g: np.ndarray) -> None:
        for part, piece in zip(parts, np.split(g, split_points, axis=axis)):
            _accumulate(part, piece)

    return _node(np.concatenate([p.data for p in parts], axis=axis), parts, backward)


def getitem(a, key) -> Tensor:
    a = as_tensor(a)

    def backward(g: np.ndarray) -> None:
        full = np.zeros(a.shape)
        full[key] = g
        _accumulate(a, full)

    return _node(a.data[key], (a,), backward)


# ---------------------------------------------------------------------------
# Reductions
# ---------------------------------------------------------------------------


def _restore_axes(g: np.ndarray, shape: tuple[int, ...], axis, keepdims: bool) -> np.ndarray:
    """Reinsert reduced axes so a reduction gradient broadcasts over ``shape``."""
    if axis is None:
        axes = tuple(range(len(shape)))
    elif isinstance(axis, tuple):
        axes = tuple(ax % len(shape) for ax in axis)
    else:
        axes = (axis % len(shape),)
    if not keepdims:
        expanded = list(g.shape)
        for ax in sorted(axes):
            expanded.insert(ax, 1)
        g = g.reshape(expanded)
    return np.broadcast_to(g, shape)


def sum_(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, _restore_axes(g, a.shape, axis, keepdims))

    return _node(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = as_tensor(a)
    data = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size / data.size

    def backward(g: np.ndarray) -> None:
        _accumulate(a, _restore_axes(g, a.shape, axis, keepdims) / count)

    return _node(data, (a,), backward)


# ---------------------------------------------------------------------------
# Nonlinearities
# ---------------------------------------------------------------------------


def sigmoid(a) -> Tensor:
    a = as_tensor(a)
    data = _sigmoid_fwd(a.data)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * data * (1.0 - data))

    return _node(data, (a,), backward)


def relu(a) -> Tensor:
    a = as_tensor(a)

    def backward(g: np.ndarray) -> None:
        _accumulate(a, g * (a.data > 0))

    return _node(np.maximum(a.data, 0.0), (a,), backward)


def gelu(a) -> Tensor:
    """Exact GELU ``x * Phi(x)``; Phi is kept only for a backward.

    Without one (``a`` requires no gradient) the product is written into
    Phi's own buffer, so a no-grad forward holds one array instead of two.
    """
    a = as_tensor(a)
    cdf = normal_cdf(a.data)
    if not a.requires_grad:
        return _node(np.multiply(a.data, cdf, out=cdf), (a,), None)

    def backward(g: np.ndarray) -> None:
        slope = normal_pdf(a.data)
        slope *= a.data
        slope += cdf
        slope *= g
        _accumulate(a, slope)

    return _node(a.data * cdf, (a,), backward)


# Elements per pass of the in-place GELU in :func:`linear_gelu`, so that
# Phi of one pass is a small temporary rather than a second hidden activation.
_GELU_CHUNK = 1 << 16


def linear_gelu(x, W, b) -> Tensor:
    """``gelu(linear(x, W, b))``: a projection into an MLP's hidden layer and its GELU.

    With a gradient to build, these are the two nodes :func:`linear` and
    :func:`gelu`. Without one, the projection's output is a fresh array that
    no caller has seen, so GELU overwrites it in place, one chunk at a time:
    the forward holds one hidden activation where the two nodes hold the
    pre-activation and Phi or the product beside it. Both paths do the same
    IEEE operations, so their values are equal bit for bit.
    """
    pre = linear(x, W, b)
    if pre.requires_grad:
        return gelu(pre)
    flat = pre.data.reshape(-1)  # a view: the GEMM output is contiguous
    for start in range(0, flat.size, _GELU_CHUNK):
        chunk = flat[start : start + _GELU_CHUNK]
        chunk *= normal_cdf(chunk)
    return pre


def softmax(a, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    data = _softmax_fwd(a.data, axis)

    def backward(g: np.ndarray) -> None:
        inner = (g * data).sum(axis=axis, keepdims=True)
        _accumulate(a, data * (g - inner))

    return _node(data, (a,), backward)


def layer_norm(x, scale, shift, eps: float) -> Tensor:
    """LayerNorm over the last axis as one node.

    With ``xhat = (x - mean) * inv`` and ``inv = (var + eps)^-1/2``, the
    input adjoint is ``inv * (gx - mean(gx) - xhat * mean(gx * xhat))`` for
    ``gx = g * scale``, all means over the last axis.
    """
    x, scale, shift = as_tensor(x), as_tensor(scale), as_tensor(shift)
    xhat = x.data - x.data.mean(axis=-1, keepdims=True)
    out = np.multiply(xhat, xhat)
    inv = (out.mean(axis=-1, keepdims=True) + eps) ** -0.5
    xhat *= inv
    np.multiply(xhat, scale.data, out=out)
    out += shift.data

    def backward(g: np.ndarray) -> None:
        if x.requires_grad:
            gx = g * scale.data
            gx_mean = gx.mean(axis=-1, keepdims=True)
            tmp = np.multiply(gx, xhat)
            np.multiply(xhat, tmp.mean(axis=-1, keepdims=True), out=tmp)
            gx -= gx_mean
            gx -= tmp
            gx *= inv
            _accumulate(x, gx)
        if scale.requires_grad:
            _accumulate(scale, _unbroadcast(g * xhat, scale.shape))
        if shift.requires_grad:
            _accumulate(shift, _unbroadcast(g, shift.shape))

    return _node(out, (x, scale, shift), backward)


def second_moment_rescale(w, Pi, eps: float) -> Tensor:
    """The DMSA/TSSA rescaling ``-w * Pi / (1 + norm @ w^2)`` as one node.

    ``w`` is ``(..., n, p)`` head features and ``Pi`` ``(..., n)`` token
    memberships; ``norm = Pi / (sum(Pi) + eps)`` and every channel ``j`` is
    scaled by ``attn_j = 1 / (1 + sum_n norm_n w_nj^2)``. The adjoint, with
    ``D = sum(Pi) + eps``::

        gd     = sum_n g * w * Pi * attn^2                 (..., 1, p)
        d w    = -g * Pi * attn + 2 * gd * norm * w
        gnorm  = sum_j gd * w^2                            (..., n)
        d Pi   = -sum_j g * w * attn + gnorm / D - sum_n(gnorm * Pi) / D^2
    """
    w, Pi = as_tensor(w), as_tensor(Pi)
    denom = Pi.data.sum(axis=-1, keepdims=True) + eps  # (..., 1)
    norm = Pi.data / denom
    sq = w.data * w.data
    attn = norm[..., None, :] @ sq  # (..., 1, p)
    attn += 1.0
    np.divide(1.0, attn, out=attn)
    weight = Pi.data[..., None]  # (..., n, 1)
    out = np.multiply(w.data, weight)
    np.negative(out, out=out)
    out *= attn

    def backward(g: np.ndarray) -> None:
        gw = g * w.data
        gd = (np.swapaxes(weight, -1, -2) @ gw) * (attn * attn)
        if Pi.requires_grad:
            gnorm = (sq @ np.swapaxes(gd, -1, -2))[..., 0]
            direct = (gw @ np.swapaxes(attn, -1, -2))[..., 0]
            spread = (gnorm * Pi.data).sum(axis=-1, keepdims=True) / (denom * denom)
            gPi = gnorm / denom
            gPi -= spread
            gPi -= direct
            _accumulate(Pi, gPi)
        if w.requires_grad:
            gd *= 2.0
            dw = gd * norm[..., None]
            dw *= w.data
            np.multiply(g, weight, out=gw)
            gw *= attn
            dw -= gw
            _accumulate(w, dw)

    return _node(out, (w, Pi), backward)


def soft_threshold_rows(a, topk: int | None = None) -> Tensor:
    """Simplex soft threshold along the last axis, with the active-set adjoint."""
    a = as_tensor(a)
    flat = a.data.reshape(-1, a.shape[-1])
    out, _, active = soft_threshold_matrix(flat, topk=topk)

    def backward(g: np.ndarray) -> None:
        gflat = g.reshape(-1, a.shape[-1])
        _accumulate(a, soft_threshold_backward(gflat, active).reshape(a.shape))

    return _node(out.reshape(a.shape), (a,), backward)


def rope_rotate(a, rope: RopeTable) -> Tensor:
    """Rotate adjacent channel pairs of ``(..., n, d)`` tokens by position.

    ``rope`` is the ``(cos, sin)`` pair of :func:`dmst.attention.rope_precompute`.
    The adjoint rotates the gradient by ``(cos, -sin)``, the rotation's
    transpose, so the pass is exactly norm preserving in both directions.
    """
    a = as_tensor(a)
    cos, sin = rope

    def backward(g: np.ndarray) -> None:
        _accumulate(a, rotate_pairs(g, (cos, -sin)))

    return _node(rotate_pairs(a.data, rope), (a,), backward)


def cross_entropy_mean(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy of ``(B, C)`` logits against integer labels.

    The adjoint is the classic ``(softmax - onehot) / B`` scaled by the
    incoming gradient. Labels outside ``[0, C)`` raise ``InvalidInput``;
    numpy would read a negative one as a class counted from the end.
    """
    logits = as_tensor(logits)
    labels = np.asarray(labels)
    if logits.ndim != 2 or labels.shape != (logits.shape[0],):
        raise InvalidInput("cross_entropy_mean expects (B, C) logits and (B,) labels")
    B, C = logits.shape
    if B and not 0 <= labels.min() <= labels.max() < C:
        raise InvalidInput(f"labels span {labels.min()}..{labels.max()}, outside 0..{C - 1}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - lse
    data = -log_probs[np.arange(B), labels].mean()

    def backward(g: np.ndarray) -> None:
        probs = np.exp(log_probs)
        probs[np.arange(B), labels] -= 1.0
        _accumulate(logits, g * probs / B)

    return _node(data, (logits,), backward)
