"""Self-contained invariant suites behind the ``verify`` command.

Each suite runs a batch of randomized property checks against independent
reference computations (bisection for the simplex projection, eigenvalue
log-determinants, finite differences for gradients) and reports one line
per property with the instance count. A failing check carries the instance
that broke it, serialized to JSON for replay.

The bisection check draws all 10,000 vectors' entries in one call, which
gives the values and the generator state of drawing them one at a time in
the same order. The simplex-projection checks run the library's row-wise
projection and the row-wise bisection oracle once per group of equal-length
vectors; results are scattered back to draw order, so the instance reported
is the one a one-vector-at-a-time loop would report. The oracle's 200
halvings are a cap: it stops at the first halving that changes no bit of any
row's bracket, since every later halving would repeat that one, so its
output is bit for bit that of all 200.

The finite-difference gradient scores the 2·d perturbed copies of one token
column in one stacked rate call, not one call per copy; each copy is built
as the one-entry loop builds it, so the differences are bit for bit the
loop's. The stack is bounded to one column to keep the pass's peak memory
near that of the one-matrix loop; a stack over every entry is faster still
but doubles that peak.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import dmsa_operator
from .coding_rate import (
    CodingRateConfig,
    Membership,
    SubspaceBank,
    grad_rate_wrt_tokens,
    logdet_psd,
    membership_from_subspaces,
    rate_segmented,
    rate_total,
    rate_variational_coupled,
    rate_variational_decoupled,
)
from .errors import InvalidInput
from .model import second_moment_tail, split_heads
from .rng import orthonormal_basis, stream
from .sparsify import soft_threshold, soft_threshold_matrix

SUITES = ("rates", "sparsify", "gradients", "equivalence")


@dataclass
class Check:
    """Outcome of one property over ``count`` random instances."""

    suite: str
    name: str
    passed: bool
    count: int
    detail: str = ""
    instance: dict = field(default_factory=dict)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        msg = f"[{status}] {self.suite}/{self.name} ({self.count} instances)"
        if self.detail:
            msg += f": {self.detail}"
        return msg


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def write_failure_report(checks: list[Check], path: str) -> int:
    """Serialize failing instances for replay; returns the failure count."""
    failures = [
        {"suite": c.suite, "name": c.name, "detail": c.detail, "instance": _jsonable(c.instance)}
        for c in checks
        if not c.passed
    ]
    if failures:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(failures, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return len(failures)


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether two float64 arrays hold the same bits: ``-0.0`` differs from ``0.0``."""
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def simplex_project_bisection(s: np.ndarray, iters: int = 200) -> np.ndarray:
    """Euclidean projection onto the probability simplex by bisecting the shift.

    Solves ``sum_i max(s_i - theta, 0) = 1`` for ``theta``; independent of the
    sort-based route used by the package. ``s`` is one vector or an ``(m, L)``
    stack of rows; each row runs its own bisection, all rows in one pass, and
    comes out bitwise equal to projecting that row alone. One vector in gives
    one vector out.

    ``iters`` caps the halvings. The loop stops early at the first halving
    that leaves every row's ``(lo, hi)`` bit for bit unchanged: a halving is a
    pure function of ``(lo, hi)``, so each later one would repeat it, and the
    result is bit for bit that of running all ``iters``. In float64 the
    bracket stops moving after about 55-66 halvings, well inside the
    default 200.
    """
    s = np.asarray(s, dtype=np.float64)
    rows = np.atleast_2d(s)
    lo = np.min(rows, axis=1) - 1.0
    hi = np.max(rows, axis=1)
    gap = np.empty_like(rows)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        np.subtract(rows, mid[:, None], out=gap)
        np.maximum(gap, 0.0, out=gap)
        above = np.sum(gap, axis=1) > 1.0
        new_lo = np.where(above, mid, lo)
        new_hi = np.where(above, hi, mid)
        if _same_bits(new_lo, lo) and _same_bits(new_hi, hi):
            break
        lo, hi = new_lo, new_hi
    theta = 0.5 * (lo + hi)
    out = np.maximum(rows - theta[:, None], 0.0)
    return out[0] if s.ndim == 1 else out


def _length_groups(lengths: np.ndarray):
    """``(n, indices)`` for each distinct vector length ``n``, indices in draw order."""
    for n in np.unique(lengths):
        yield int(n), np.flatnonzero(lengths == n)


def _rate_total_eig(Z: np.ndarray, cfg: CodingRateConfig) -> float:
    """Total rate through an explicit eigenvalue log-determinant."""
    d, n = Z.shape
    M = np.eye(d) + cfg.alpha(d, n) * (Z @ Z.T)
    return 0.5 * float(np.sum(np.log(np.linalg.eigvalsh(M))))


def _fd_grad(fn, Z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central differences of ``fn`` at the ``d x n`` matrix ``Z``, one token column per call.

    ``fn`` maps an ``(m, d, n)`` stack to its ``m`` values. Column ``j``'s
    call holds ``2·d`` copies of ``Z``: copy ``i`` has ``h`` added at
    ``(i, j)`` and copy ``d + i`` has it subtracted, so each entry of the
    result is bit for bit the one-entry-per-call loop's. One column bounds
    the stack to ``2·d`` matrices, which keeps the peak memory near the
    loop's; stacking all ``2·d·n`` copies at once doubles it.
    """
    d, n = Z.shape
    g = np.empty_like(Z)
    rows = np.arange(d)
    for j in range(n):
        stack = np.repeat(Z[None], 2 * d, axis=0)
        stack[rows, rows, j] += h
        stack[d + rows, rows, j] -= h
        values = fn(stack)
        g[:, j] = (values[:d] - values[d:]) / (2 * h)
    return g


def _project_heavy_rows(P: np.ndarray) -> np.ndarray:
    """``P`` with each row whose mass exceeds 1 projected onto the simplex, in one call."""
    heavy = P.sum(axis=1) > 1.0
    out = P.copy()
    out[heavy] = soft_threshold_matrix(P[heavy])
    return out


def _random_problem(rng, d: int, n: int, K: int):
    Z = rng.normal(size=(d, n))
    p = max(1, d // K)
    bases = tuple(orthonormal_basis(stream(int(rng.integers(2**31)), f"basis-{k}"), d, p)
                  for k in range(K))
    Pi = rng.uniform(0.05, 1.0, size=(K, n))
    return Z, SubspaceBank(bases, orthonormal=True), Membership(Pi)


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------


def suite_rates(seed: int = 0) -> list[Check]:
    rng = stream(seed, "verify-rates")
    cfg = CodingRateConfig(epsilon=0.7)
    checks: list[Check] = []

    worst, bad = 0.0, {}
    count = 40
    for _ in range(count):
        d, n = int(rng.integers(2, 10)), int(rng.integers(2, 14))
        Z = rng.normal(size=(d, n))
        err = abs(rate_total(Z, cfg) - _rate_total_eig(Z, cfg))
        if err > worst:
            worst, bad = err, {"Z": Z}
    checks.append(Check("rates", "total-rate-vs-eigendecomposition", worst < 1e-8, count,
                        f"max abs err {worst:.2e}", bad))

    worst, bad = 0.0, {}
    for _ in range(count):
        d, n = int(rng.integers(2, 8)), int(rng.integers(2, 12))
        Z = rng.normal(size=(d, n))
        c = float(rng.uniform(0.1, 3.0))
        left = logdet_psd(np.eye(d) + c * (Z @ Z.T))
        right = logdet_psd(np.eye(n) + c * (Z.T @ Z))
        err = abs(left - right)
        if err > worst:
            worst, bad = err, {"Z": Z, "c": c}
    checks.append(Check("rates", "gram-side-duality", worst < 1e-8, count,
                        f"max abs err {worst:.2e}", bad))

    worst, bad = 0.0, {}
    for _ in range(count):
        d, n = int(rng.integers(2, 8)), int(rng.integers(2, 10))
        Z = rng.normal(size=(d, n))
        Q = orthonormal_basis(stream(int(rng.integers(2**31)), "rot"), n, n)
        err = abs(rate_total(Z @ Q, cfg) - rate_total(Z, cfg))
        if err > worst:
            worst, bad = err, {"Z": Z}
    checks.append(Check("rates", "right-rotation-invariance", worst < 1e-8, count,
                        f"max abs err {worst:.2e}", bad))

    worst, bad = 0.0, {}
    for _ in range(count):
        d, n = int(rng.integers(4, 10)), int(rng.integers(3, 12))
        K = int(rng.integers(1, 4))
        Z, bank, _ = _random_problem(rng, d, n, K)
        eta = float(rng.uniform(0.2, 2.0))
        coupled = rate_variational_coupled(Z, bank, eta, cfg)
        Pi = membership_from_subspaces(Z, bank, eta)
        decoupled = rate_variational_decoupled(Z, Pi, bank, cfg)
        err = abs(coupled - decoupled)
        if err > worst:
            worst, bad = err, {"Z": Z, "eta": eta}
    checks.append(Check("rates", "coupled-equals-decoupled-at-softmax", worst == 0.0, count,
                        f"max abs err {worst:.2e}", bad))

    worst, bad = 0.0, {}
    for _ in range(count):
        d, n = int(rng.integers(2, 8)), int(rng.integers(2, 10))
        Z = rng.normal(size=(d, n))
        one_hot = Membership(np.ones((1, n)))
        err = abs(rate_segmented(Z, one_hot, cfg) - rate_total(Z, cfg))
        if err > worst:
            worst, bad = err, {"Z": Z}
    checks.append(Check("rates", "single-group-segmentation-equals-total", worst < 1e-8, count,
                        f"max abs err {worst:.2e}", bad))

    violations = 0
    min_gap, bad = np.inf, {}
    count_thm = 200
    for _ in range(count_thm):
        d = int(rng.integers(4, 12))
        K = int(rng.integers(2, 5))
        n = int(rng.integers(K + 1, 16))
        Z, bank, _ = _random_problem(rng, d, n, K)
        eta = float(rng.uniform(0.3, 2.0))
        coupled = rate_variational_coupled(Z, bank, eta, cfg)
        Pi = membership_from_subspaces(Z, bank, eta)
        gated = bank.scaled(soft_threshold(Pi.data.mean(axis=1), topk=min(4, K)))
        decoupled = rate_variational_decoupled(
            Z, Membership(_project_heavy_rows(Pi.data)), gated, cfg
        )
        gap = coupled - decoupled
        if gap <= 0:
            violations += 1
            bad = {"Z": Z, "eta": eta}
        min_gap = min(min_gap, gap)
    checks.append(Check("rates", "sparse-decoupled-rate-below-coupled", violations == 0,
                        count_thm, f"violations {violations}, min gap {min_gap:.2e}", bad))

    # MCR²'s rate reduction R(Z) - R^c(Z, Pi) is nonnegative by the concavity
    # of log det; a partition that puts every token in one group gives exactly
    # 0, so only rounding may take it below zero.
    hard_cfg = CodingRateConfig(epsilon=0.5)
    min_gap, bad = np.inf, {}
    for _ in range(count_thm):
        d, n, K = int(rng.integers(2, 8)), int(rng.integers(4, 20)), int(rng.integers(2, 4))
        Z = rng.normal(size=(d, n))
        labels = rng.integers(0, K, size=n)
        one_hot = Membership((labels == np.arange(K)[:, None]).astype(np.float64))
        gap = rate_total(Z, hard_cfg) - rate_segmented(Z, one_hot, hard_cfg)
        if gap < min_gap:
            min_gap, bad = gap, {"Z": Z, "labels": labels}
    checks.append(Check("rates", "rate-reduction-nonnegative-on-hard-partitions",
                        min_gap >= -1e-9, count_thm, f"min gap {min_gap:.2e}", bad))
    return checks


def suite_sparsify(seed: int = 0) -> list[Check]:
    rng = stream(seed, "verify-sparsify")
    checks: list[Check] = []

    count = 10_000
    lengths = rng.integers(2, 65, size=count)
    # one draw for every entry: the values and generator state of drawing
    # the vectors one at a time; vector i is values[starts[i]:][:lengths[i]]
    values = rng.normal(scale=2.0, size=int(lengths.sum()))
    starts = np.cumsum(lengths) - lengths
    # errors stay in draw order, so argmax picks the first worst vector
    errors = np.empty(count)
    for n, idx in _length_groups(lengths):
        S = values[starts[idx, None] + np.arange(n)]
        diff = soft_threshold_matrix(S) - simplex_project_bisection(S)
        errors[idx] = np.max(np.abs(diff), axis=1)
    first = int(np.argmax(errors))
    worst = float(errors[first])
    bad = {"s": values[starts[first]:][:lengths[first]].copy()} if worst > 0.0 else {}
    checks.append(Check("sparsify", "soft-threshold-vs-bisection", worst < 1e-9, count,
                        f"max abs err {worst:.2e}", bad))

    count = 500
    vectors, shifts = [], np.empty(count)
    for i in range(count):
        n = int(rng.integers(2, 33))
        vectors.append(rng.normal(scale=3.0, size=n))
        shifts[i] = rng.normal()
    ok = np.empty(count, dtype=bool)
    for _, idx in _length_groups(np.array([v.size for v in vectors])):
        S = np.stack([vectors[i] for i in idx])
        out = soft_threshold_matrix(S)
        ranked = np.take_along_axis(out, np.argsort(-S, axis=1, kind="stable"), axis=1)
        shifted = soft_threshold_matrix(S + shifts[idx, None])
        ok[idx] = (
            np.all(out >= 0, axis=1)
            & (np.abs(out.sum(axis=1) - 1.0) < 1e-9)
            & np.all(np.diff(ranked, axis=1) <= 1e-12, axis=1)
            & np.all(np.isclose(shifted, out, atol=1e-9), axis=1)
        )
    failing = np.flatnonzero(~ok)
    bad = {"s": vectors[failing[-1]], "shift": float(shifts[failing[-1]])} if failing.size else {}
    checks.append(Check("sparsify", "simplex-and-translation-invariance", failing.size == 0,
                        count, f"failures {failing.size}", bad))

    failures = 0
    count = 500
    bad = {}
    for _ in range(count):
        n = int(rng.integers(3, 33))
        k = int(rng.integers(1, n))
        s = rng.normal(scale=2.0, size=n)
        out = soft_threshold(s, topk=k)
        if np.count_nonzero(out) > k or abs(out.sum() - 1.0) > 1e-9:
            failures += 1
            bad = {"s": s, "k": k}
    checks.append(Check("sparsify", "topk-support-bound", failures == 0, count,
                        f"failures {failures}", bad))
    return checks


def suite_gradients(seed: int = 0) -> list[Check]:
    rng = stream(seed, "verify-gradients")
    cfg = CodingRateConfig(epsilon=0.8)
    checks: list[Check] = []

    worst, bad = 0.0, {}
    count = 25
    for _ in range(count):
        d = int(rng.integers(3, 9))
        n = int(rng.integers(3, 9))
        K = int(rng.integers(1, 4))
        Z, bank, Pi = _random_problem(rng, d, n, K)
        grad = grad_rate_wrt_tokens(Z, Pi, bank, cfg)
        fd = _fd_grad(lambda W: rate_variational_decoupled(
            W, Membership(np.broadcast_to(Pi.data, W.shape[:-2] + Pi.data.shape)), bank, cfg
        ), Z)
        err = float(np.max(np.abs(grad - fd)) / max(np.max(np.abs(fd)), 1e-12))
        if err > worst:
            worst, bad = err, {"Z": Z, "Pi": Pi.data}
    checks.append(Check("gradients", "rate-gradient-vs-finite-difference", worst < 1e-4,
                        count, f"max rel err {worst:.2e}", bad))

    worst, bad = 0.0, {}
    for _ in range(count):
        d = int(rng.integers(3, 9))
        n = int(rng.integers(3, 9))
        K = int(rng.integers(1, 4))
        Z, bank, Pi = _random_problem(rng, d, n, K)
        op = dmsa_operator(Z, Pi, bank, cfg)
        grad = grad_rate_wrt_tokens(Z, Pi, bank, cfg)
        err = float(np.max(np.abs(op + grad)))
        if err > worst:
            worst, bad = err, {"Z": Z, "Pi": Pi.data}
    checks.append(Check("gradients", "operator-is-negated-gradient", worst == 0.0, count,
                        f"max abs err {worst:.2e}", bad))
    return checks


def suite_equivalence(seed: int = 0) -> list[Check]:
    rng = stream(seed, "verify-equivalence")
    checks: list[Check] = []

    worst, bad = 0.0, {}
    count = 20
    for _ in range(count):
        K = int(rng.integers(1, 4))
        p = int(rng.integers(2, 5))
        d = K * p
        n = int(rng.integers(3, 10))
        bases = tuple(orthonormal_basis(stream(int(rng.integers(2**31)), f"u{k}"), d, p)
                      for k in range(K))
        bank = SubspaceBank(bases, orthonormal=True)
        tokens = rng.normal(size=(n, d))
        Pi = Membership(rng.uniform(0.05, 1.0, size=(K, n)))
        # the model's top-k head gate map; K = 1 gives g = [1] up to rounding
        g = soft_threshold(rng.normal(size=K), topk=max(1, K - 1))
        # value heads g_k U_k^T x, the pinned membership, and output columns
        # g_k U_k / n realize the operator's folded form on the gated bank
        values = ad.Tensor(tokens[None]) @ ad.Tensor(np.hstack(bases))
        w = split_heads(values, K) * ad.Tensor(g.reshape(1, K, 1, 1))
        layer = second_moment_tail(
            w, ad.Tensor(Pi.data[None]),
            ad.Tensor(np.vstack([g_k * U.T for g_k, U in zip(g, bases)]) / n),
            ad.Tensor(np.zeros(d)),
        )
        out = layer.data[0]
        cfg = CodingRateConfig(epsilon=float(np.sqrt(d)))
        op = dmsa_operator(tokens.T, Pi, bank.scaled(g), cfg)
        err = float(np.max(np.abs(out.T - op)))
        if err > worst:
            worst, bad = err, {"tokens": tokens, "Pi": Pi.data, "g": g}
    checks.append(Check("equivalence", "layer-matches-operator-on-gated-bank",
                        worst < 1e-5, count, f"max abs err {worst:.2e}", bad))
    return checks


def run_suite(name: str, seed: int = 0) -> list[Check]:
    """Run one named suite, or all of them."""
    table = {
        "rates": suite_rates,
        "sparsify": suite_sparsify,
        "gradients": suite_gradients,
        "equivalence": suite_equivalence,
    }
    if name == "all":
        checks: list[Check] = []
        for suite in SUITES:
            checks.extend(table[suite](seed))
        return checks
    if name not in table:
        raise InvalidInput(f"unknown suite {name!r}; choose from {('all',) + SUITES}")
    return table[name](seed)
