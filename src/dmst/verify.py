"""Self-contained invariant suites behind the ``verify`` command.

Each suite runs a batch of randomized property checks against independent
reference computations (bisection for the simplex projection, eigenvalue
log-determinants, finite differences for gradients) and reports one line
per property with the instance count. A failing check carries the instance
that broke it, serialized to JSON for replay.

The simplex-projection checks draw their vectors one at a time in a fixed
order, then run the library's row-wise projection and the row-wise bisection
oracle once per group of equal-length vectors; results are scattered back to
draw order, so the instance reported is the one a one-vector-at-a-time loop
would report.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .attention import (
    GatedChannelParams,
    dmsa_operator,
    gated_channel_forward,
    gated_channel_reference,
)
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
from .sparsify import soft_threshold, soft_threshold_matrix, sparse_subspace

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


def simplex_project_bisection(s: np.ndarray, iters: int = 200) -> np.ndarray:
    """Euclidean projection onto the probability simplex by bisecting the shift.

    Solves ``sum_i max(s_i - theta, 0) = 1`` for ``theta``; independent of the
    sort-based route used by the package. ``s`` is one vector or an ``(m, L)``
    stack of rows; each row runs its own bisection, all rows in one pass, and
    comes out bitwise equal to projecting that row alone. One vector in gives
    one vector out.
    """
    s = np.asarray(s, dtype=np.float64)
    rows = np.atleast_2d(s)
    lo = np.min(rows, axis=1) - 1.0
    hi = np.max(rows, axis=1)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        above = np.sum(np.maximum(rows - mid[:, None], 0.0), axis=1) > 1.0
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    theta = 0.5 * (lo + hi)
    out = np.maximum(rows - theta[:, None], 0.0)
    return out[0] if s.ndim == 1 else out


def _length_groups(vectors: list[np.ndarray]):
    """``(indices, rows)`` for each distinct vector length, indices in draw order."""
    lengths = np.array([v.size for v in vectors])
    for n in np.unique(lengths):
        idx = np.flatnonzero(lengths == n)
        yield idx, np.stack([vectors[i] for i in idx])


def _rate_total_eig(Z: np.ndarray, cfg: CodingRateConfig) -> float:
    """Total rate through an explicit eigenvalue log-determinant."""
    d, n = Z.shape
    M = np.eye(d) + cfg.alpha(d, n) * (Z @ Z.T)
    return 0.5 * float(np.sum(np.log(np.linalg.eigvalsh(M))))


def _fd_grad(fn, Z: np.ndarray, h: float = 1e-6) -> np.ndarray:
    g = np.zeros_like(Z)
    for idx in np.ndindex(Z.shape):
        zp = Z.copy()
        zp[idx] += h
        zm = Z.copy()
        zm[idx] -= h
        g[idx] = (fn(zp) - fn(zm)) / (2 * h)
    return g


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
        sparse_rows = np.stack([
            soft_threshold(row).values if row.sum() > 1.0 else row for row in Pi.data
        ])
        decoupled = rate_variational_decoupled(
            Z, Membership(sparse_rows), sparse_subspace(bank, Pi, "head"), cfg
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
    vectors = [rng.normal(scale=2.0, size=int(n)) for n in lengths]
    # errors stay in draw order, so argmax picks the first worst vector
    errors = np.empty(count)
    for idx, S in _length_groups(vectors):
        diff = soft_threshold_matrix(S)[0] - simplex_project_bisection(S)
        errors[idx] = np.max(np.abs(diff), axis=1)
    first = int(np.argmax(errors))
    worst = float(errors[first])
    bad = {"s": vectors[first]} if worst > 0.0 else {}
    checks.append(Check("sparsify", "soft-threshold-vs-bisection", worst < 1e-9, count,
                        f"max abs err {worst:.2e}", bad))

    count = 500
    vectors, shifts = [], np.empty(count)
    for i in range(count):
        n = int(rng.integers(2, 33))
        vectors.append(rng.normal(scale=3.0, size=n))
        shifts[i] = rng.normal()
    ok = np.empty(count, dtype=bool)
    for idx, S in _length_groups(vectors):
        out = soft_threshold_matrix(S)[0]
        ranked = np.take_along_axis(out, np.argsort(-S, axis=1, kind="stable"), axis=1)
        shifted = soft_threshold_matrix(S + shifts[idx, None])[0]
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
        out = soft_threshold(s, topk=k).values
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
        fd = _fd_grad(lambda W: rate_variational_decoupled(W, Pi, bank, cfg), Z)
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
    count = 50
    for _ in range(count):
        d = int(rng.integers(3, 9))
        p = int(rng.integers(1, d + 1))
        K = int(rng.integers(1, 4))
        n = int(rng.integers(2, 10))
        params = GatedChannelParams(
            full_space=orthonormal_basis(stream(int(rng.integers(2**31)), "full"), d, p),
            membership_proj=rng.normal(size=(K, d)),
        )
        Z = rng.normal(size=(d, n))
        err = float(np.max(np.abs(
            gated_channel_forward(Z, params) - gated_channel_reference(Z, params)
        )))
        if err > worst:
            worst, bad = err, {"Z": Z}
    checks.append(Check("equivalence", "gated-bases-match-channel-form", worst < 1e-6,
                        count, f"max abs err {worst:.2e}", bad))

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
        # value heads U_k^T x, an all-ones head mask, the pinned membership,
        # and output columns U_k / n realize the operator's folded form
        values = ad.Tensor(tokens[None]) @ ad.Tensor(np.hstack(bases))
        w = split_heads(values, K) * ad.Tensor(np.ones((1, K, 1, 1)))
        layer = second_moment_tail(
            w, ad.Tensor(Pi.data[None]), ad.Tensor(np.vstack([U.T for U in bases]) / n),
            ad.Tensor(np.zeros(d)),
        )
        out = layer.data[0]
        cfg = CodingRateConfig(epsilon=float(np.sqrt(d)))
        op = dmsa_operator(tokens.T, Pi, bank, cfg)
        err = float(np.max(np.abs(out.T - op)))
        if err > worst:
            worst, bad = err, {"tokens": tokens, "Pi": Pi.data}
    checks.append(Check("equivalence", "layer-matches-operator-on-orthonormal-bank",
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
