"""End-to-end acceptance checks, one printed pass/fail line per property.

Each test prints ``[PASS]``/``[FAIL] <property> (<measurement>)`` before
asserting, so a ``pytest -s`` run reads as a checklist. Tolerances and
instance counts are stated inline next to each check.
"""

import numpy as np
import pytest

from dmst import autodiff as ad
from dmst.analysis import layer_rate_curve, profile_attention_memory
from dmst.attention import dmsa_operator
from dmst.checkpoint import save_checkpoint
from dmst.coding_rate import (
    CodingRateConfig,
    Membership,
    SubspaceBank,
    membership_from_subspaces,
    rate_variational_coupled,
    rate_variational_decoupled,
)
from dmst.data import SyntheticDatasetSpec, generate_synthetic, nearest_subspace_accuracy
from dmst.model import (
    ModelConfig,
    finite_grads,
    init_params,
    model_loss,
    second_moment_tail,
    split_heads,
)
from dmst.rng import orthonormal_basis
from dmst.sparsify import soft_threshold
from dmst.train import TrainOptions, format_metrics, train


def report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name} ({detail})")
    assert ok, f"{name}: {detail}"


def random_bank(rng, d, K, p):
    bases = tuple(
        orthonormal_basis(np.random.default_rng(rng.integers(2**31)), d, p) for _ in range(K)
    )
    return SubspaceBank(bases, orthonormal=True)


@pytest.fixture(scope="module")
def toy_run():
    """One trained default-geometry classifier, shared by the trend checks."""
    spec = SyntheticDatasetSpec()  # 4 classes, ambient 32, noise 0.05
    train_ds = generate_synthetic(spec, seed=0, split="train")
    test_ds = generate_synthetic(spec, seed=0, split="test")
    result = train(ModelConfig(), train_ds, test_ds, epochs=20, seed=0, options=TrainOptions())
    return test_ds, result


# ---------------------------------------------------------------------------
# 1. simplex projection against a bisection oracle
# ---------------------------------------------------------------------------


def test_simplex_projection_matches_bisection_oracle():
    # 10,000 random vectors with lengths 2..64, grouped by length so the
    # 200-step bisection runs vectorized over every vector of that length.
    rng = np.random.default_rng(11)
    lengths = rng.integers(2, 65, size=10_000)
    worst_gap = 0.0
    worst_sum = 0.0
    min_value = 0.0
    for L in np.unique(lengths):
        m = int(np.sum(lengths == L))
        S = rng.normal(size=(m, L)) * rng.uniform(0.2, 5.0, size=(m, 1))
        lo = S.min(axis=1) - 1.0
        hi = S.max(axis=1)
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            mass = np.maximum(S - mid[:, None], 0.0).sum(axis=1)
            hi = np.where(mass < 1.0, mid, hi)
            lo = np.where(mass >= 1.0, mid, lo)
        expected = np.maximum(S - hi[:, None], 0.0)
        got = np.stack([soft_threshold(row) for row in S])
        worst_gap = max(worst_gap, float(np.max(np.abs(got - expected))))
        worst_sum = max(worst_sum, float(np.max(np.abs(got.sum(axis=1) - 1.0))))
        min_value = min(min_value, float(got.min()))
    ok = worst_gap < 1e-9 and worst_sum < 1e-9 and min_value >= 0.0
    report(
        "simplex soft-threshold matches bisection over 10000 vectors",
        ok,
        f"max oracle gap {worst_gap:.2e}, max sum error {worst_sum:.2e}, min value {min_value:.1e}",
    )


# ---------------------------------------------------------------------------
# 2. attention operator is the negated compression gradient
# ---------------------------------------------------------------------------


def test_operator_equals_negated_finite_difference_gradient():
    # 50 random instances with d <= 16, n <= 12, K <= 4: the operator must
    # match central finite differences of the decoupled rate (membership
    # held fixed) entrywise, relative to the gradient scale, below 1e-4.
    rng = np.random.default_rng(23)
    cfg = CodingRateConfig()
    h = 1e-6
    worst = 0.0
    for _ in range(50):
        K = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        d = int(rng.integers(max(2, K * p), 17))
        n = int(rng.integers(2, 13))
        Z = rng.normal(size=(d, n))
        bank = random_bank(rng, d, K, p)
        Pi = Membership(rng.uniform(0.05, 1.0, size=(K, n)))
        got = dmsa_operator(Z, Pi, bank, cfg)
        fd = np.zeros_like(Z)
        for i in range(d):
            for j in range(n):
                Zp, Zm = Z.copy(), Z.copy()
                Zp[i, j] += h
                Zm[i, j] -= h
                fd[i, j] = (
                    rate_variational_decoupled(Zp, Pi, bank, cfg)
                    - rate_variational_decoupled(Zm, Pi, bank, cfg)
                ) / (2 * h)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, float(np.max(np.abs(got + fd))) / scale)
    report(
        "attention operator equals negated rate gradient on 50 instances",
        worst < 1e-4,
        f"worst relative error {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. sparsified decoupled rate sits strictly below the coupled rate
# ---------------------------------------------------------------------------


def test_sparse_decoupled_rate_strictly_below_coupled():
    # 1000 instances built so the preconditions hold: membership from the
    # projection softmax (every head keeps mass > 1), rows re-projected onto
    # the simplex (elementwise dominated, at least one entry strictly
    # smaller), and the bank gated by the head weights. The coupled rate on
    # the ungated bank must then be strictly larger every single time.
    rng = np.random.default_rng(37)
    cfg = CodingRateConfig()
    violations = 0
    min_margin = np.inf
    for _ in range(1000):
        K = int(rng.integers(2, 5))
        p = int(rng.integers(1, 4))
        d = int(rng.integers(K * p, 13))
        n = int(rng.integers(4 * K, 25))
        Z = rng.normal(size=(d, n))
        bank = random_bank(rng, d, K, p)
        Pi = membership_from_subspaces(Z, bank, eta=1.0)
        sparse_rows = np.stack([soft_threshold(row) for row in Pi.data])
        # construction guards: dominance with at least one strict decrease
        assert np.all(sparse_rows <= Pi.data + 1e-12)
        assert np.any(sparse_rows < Pi.data - 1e-12)
        gated = bank.scaled(soft_threshold(Pi.data.mean(axis=1), topk=min(4, K)))
        coupled = rate_variational_coupled(Z, bank, eta=1.0, cfg=cfg)
        decoupled = rate_variational_decoupled(Z, Membership(sparse_rows), gated, cfg)
        margin = coupled - decoupled
        min_margin = min(min_margin, margin)
        if margin <= 0.0:
            violations += 1
    report(
        "sparse decoupled rate strictly below coupled rate on 1000 instances",
        violations == 0,
        f"{violations} violations, smallest margin {min_margin:.3e}",
    )


# ---------------------------------------------------------------------------
# 4. head-gated layer equals the operator on the gated bank
# ---------------------------------------------------------------------------


def test_head_gated_layer_equals_operator_on_gated_bank():
    # 100 random instances of the layer's folded form: value heads
    # g_k U_k^T x, a pinned membership and output columns g_k U_k / n, with
    # the top-k head gate g on both the values and the out_proj rows, must
    # equal the operator on the gated bank (basis k scaled by g_k) entrywise
    # below 1e-6.
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(1, 5))
        p = int(rng.integers(1, 4))
        d = K * p
        n = int(rng.integers(2, 11))
        bank = random_bank(rng, d, K, p)
        Z = rng.normal(size=(d, n))
        Pi = Membership(rng.uniform(0.05, 1.0, size=(K, n)))
        g = soft_threshold(rng.normal(size=K), topk=max(1, K - 1))
        values = ad.Tensor(Z.T[None]) @ ad.Tensor(np.hstack(bank.bases))
        w = split_heads(values, K) * ad.Tensor(g.reshape(1, K, 1, 1))
        out_proj = np.vstack([g_k * U.T for g_k, U in zip(g, bank.bases)]) / n
        layer = second_moment_tail(
            w, ad.Tensor(Pi.data[None]), ad.Tensor(out_proj), ad.Tensor(np.zeros(d))
        ).data[0]
        op = dmsa_operator(Z, Pi, bank.scaled(g), CodingRateConfig(epsilon=float(np.sqrt(d))))
        worst = max(worst, float(np.max(np.abs(layer.T - op))))
    report(
        "head-gated layer equals the operator on the gated bank on 100 instances",
        worst < 1e-6,
        f"worst gap {worst:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. full-model reverse-mode gradients
# ---------------------------------------------------------------------------


def test_full_model_gradients_match_central_differences():
    # depth 2, width 16, 2 heads, 10 tokens through attention (9 inputs plus
    # the class token): every parameter tensor against central differences.
    config = ModelConfig(
        depth=2, dim=16, heads=2, mlp_ratio=1.0, num_classes=3, input_dim=6, seed=5
    )
    params = init_params(config)
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 9, 6))
    y = np.array([0, 2])
    model_loss(config, params, x, y)[0].backward()
    grads = finite_grads(params)

    h = 1e-5
    worst = 0.0
    for name, p in params.items():
        flat = p.data.reshape(-1)
        fd = np.zeros(flat.size)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            plus = model_loss(config, params, x, y)[0].data.item()
            flat[i] = orig - h
            minus = model_loss(config, params, x, y)[0].data.item()
            flat[i] = orig
            fd[i] = (plus - minus) / (2 * h)
        scale = max(float(np.max(np.abs(fd))), 1e-8)
        worst = max(worst, float(np.max(np.abs(grads[name].reshape(-1) - fd))) / scale)
    report(
        "full-model reverse-mode gradients match central differences",
        worst < 1e-3,
        f"worst relative error {worst:.2e} over {len(params)} tensors",
    )


# ---------------------------------------------------------------------------
# 6. counted activation memory scaling
# ---------------------------------------------------------------------------


def test_memory_doubling_ratios():
    # Counted activation floats when the token count doubles from each of
    # 256, 1024, 4096: softmax attention quadruples (ratio 4 +- 15%), both
    # second-moment operators double (ratio 2 +- 15%).
    counts = [256, 512, 1024, 2048, 4096, 8192]
    expected = {"dmsa": 2.0, "tssa": 2.0, "mhsa": 4.0}
    details = []
    ok = True
    for op, target in expected.items():
        rows = dict((n, peak) for _, n, peak in profile_attention_memory(op, counts))
        for n in (256, 1024, 4096):
            ratio = rows[2 * n] / rows[n]
            details.append(f"{op}@{n}: {ratio:.2f}")
            ok = ok and abs(ratio - target) <= 0.15 * target
    report(
        "activation floats double for second-moment ops, quadruple for softmax",
        ok,
        ", ".join(details),
    )


# ---------------------------------------------------------------------------
# 7. per-layer compression after training
# ---------------------------------------------------------------------------


def test_layer_rates_mostly_nonincreasing_after_training(toy_run):
    # Averaged over 128 held-out samples, the per-block compression rate of
    # the trained depth-4 model must not increase across more than half of
    # the consecutive block pairs.
    test_ds, result = toy_run
    curve = layer_rate_curve(ModelConfig(), result.params, test_ds.tokens, max_samples=128)
    fraction = float(np.mean(np.diff(curve.values) <= 1e-12))  # over the 3 block pairs
    report(
        "per-layer compression rate non-increasing for most block pairs",
        fraction > 0.5,
        f"fraction {fraction:.3f}, rates {np.array2string(curve.values, precision=3)}",
    )


# ---------------------------------------------------------------------------
# 8. end-to-end learning on a certified synthetic task
# ---------------------------------------------------------------------------


def test_classifier_reaches_target_accuracy(toy_run):
    test_ds, result = toy_run
    oracle = nearest_subspace_accuracy(test_ds)
    accuracy = result.final_test_accuracy
    ok = oracle >= 0.99 and accuracy is not None and accuracy >= 0.90
    report(
        "held-out accuracy at least 90% where the subspace oracle certifies 99%",
        ok,
        f"model {accuracy:.4f}, oracle {oracle:.4f}, 20 epochs",
    )


# ---------------------------------------------------------------------------
# 9. determinism of training and checkpoints
# ---------------------------------------------------------------------------


def test_seeded_runs_are_byte_identical(tmp_path):
    spec = SyntheticDatasetSpec(
        num_classes=2, ambient_dim=8, subspace_dim=2, tokens_per_sample=6, samples_per_class=16
    )
    config = ModelConfig(depth=1, dim=16, heads=2, input_dim=8, num_classes=2)
    train_ds = generate_synthetic(spec, seed=0, split="train")
    test_ds = generate_synthetic(spec, seed=0, split="test")

    logs = []
    blobs = []
    for run in range(2):
        result = train(config, train_ds, test_ds, epochs=2, seed=9)
        logs.append(format_metrics(result.metrics).encode())
        path = tmp_path / f"run{run}.dmst"
        save_checkpoint(str(path), config, {k: t.data for k, t in result.params.items()})
        blobs.append(path.read_bytes())
    identical = logs[0] == logs[1] and blobs[0] == blobs[1]

    # save -> load -> save must reproduce the file bit for bit
    from dmst.checkpoint import load_checkpoint

    loaded_config, loaded = load_checkpoint(str(tmp_path / "run0.dmst"))
    save_checkpoint(str(tmp_path / "again.dmst"), loaded_config, loaded)
    round_trip = (tmp_path / "again.dmst").read_bytes() == blobs[0]
    report(
        "seeded training, metric logs, and checkpoints are byte-identical",
        identical and round_trip,
        f"reruns identical: {identical}, save/load round trip exact: {round_trip}",
    )
