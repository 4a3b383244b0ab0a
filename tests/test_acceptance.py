"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The synthetic end-to-end batches are shared across criteria through
module-scoped fixtures, so the whole gate stays within its runtime budgets.
"""

import json

import numpy as np
import pytest

from elmsc import cli
from elmsc.dataset import (
    MultiViewDataset,
    build_augmented,
    default_pca_components,
    gen_synthetic,
)
from elmsc.metrics import LabelPair, acc, ari, nmi, pairwise_f1
from elmsc.numerics import col_l21_prox, orthogonal_procrustes, solve_sylvester
from elmsc.solver import (
    ElmscConfig,
    aggregate_z,
    kkt_residuals,
    run,
    update_e,
    update_h,
    update_j,
    update_p,
    update_z,
)
from elmsc.spectral import cluster

from conftest import phi, random_admm_state, random_row_orthonormal
from test_metrics import (
    acc_permutation_oracle,
    ari_pair_oracle,
    f1_pair_oracle,
    nmi_contingency_oracle,
)
from test_numerics import (
    kron_sylvester_oracle,
    l21_objective,
    projected_gradient_l21_oracle,
)


def check(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------------------
# shared synthetic end-to-end batches
# ---------------------------------------------------------------------------

FAMILY = dict(clusters=5, per_cluster=40, views=3, latent_dim=8,
              view_dims=[40, 32, 36])
THIN_FAMILY = dict(clusters=5, per_cluster=40, views=3, latent_dim=8,
                   view_dims=[9, 8, 10], noise_sigma=2.0)
LAM = 1.0


def run_pipeline(family, seed, ablation="full"):
    ds = gen_synthetic(seed=seed, **family)
    m = default_pca_components(family["clusters"], ds)
    xa = build_augmented(ds, m)
    cfg = ElmscConfig(lam=LAM, latent_dim=family["latent_dim"], seed=seed,
                      ablation=ablation)
    out = run(xa, cfg)
    zhat = aggregate_z(out.z, xa.n_views, xa.n_samples)
    result = cluster(zhat, family["clusters"], seed=seed)
    pair = LabelPair(predicted=result.labels, truth=ds.labels)
    kkt = kkt_residuals(out.state, xa.xa, cfg.effective_lam,
                        xa.n_views, xa.n_samples)
    return {
        "converged": out.converged,
        "iterations": len(out.trace),
        "residuals": (out.trace.r1[-1], out.trace.r2[-1], out.trace.r3[-1]),
        "kkt": kkt.as_tuple(),
        "acc": acc(pair),
        "nmi": nmi(pair),
        "tol": cfg.tol,
    }


@pytest.fixture(scope="module")
def noisy_runs():
    return [run_pipeline(dict(FAMILY, noise_sigma=0.05), seed)
            for seed in range(10)]


@pytest.fixture(scope="module")
def clean_runs():
    return [run_pipeline(dict(FAMILY, noise_sigma=0.0), seed)
            for seed in range(10)]


# ---------------------------------------------------------------------------
# 1. kernel oracle suite
# ---------------------------------------------------------------------------

def test_criterion_1_kernel_oracles():
    rng = np.random.default_rng(100)
    worst_sylvester = 0.0
    for _ in range(100):
        k = int(rng.integers(2, 9))
        m = int(rng.integers(2, 9))
        ga = rng.standard_normal((k, k))
        gb = rng.standard_normal((m, m))
        a = ga @ ga.T + 0.3 * np.eye(k)  # spectra bounded away from cancellation
        b = gb @ gb.T + 0.3 * np.eye(m)
        c = rng.standard_normal((k, m))
        h = solve_sylvester(a, b, c)
        expected = kron_sylvester_oracle(a, b, c)
        err = np.linalg.norm(h - expected) / max(1.0, np.linalg.norm(expected))
        worst_sylvester = max(worst_sylvester, err)
    sylvester_ok = worst_sylvester <= 1e-8

    g = rng.standard_normal((5, 4))
    tau = 0.3
    e = col_l21_prox(g, tau)
    base = l21_objective(e, g, tau)
    prox_dominates = True
    for _ in range(10_000):
        scale = 10 ** rng.uniform(-6, -1)
        if l21_objective(e + scale * rng.standard_normal(e.shape), g, tau) \
                < base - 1e-12:
            prox_dominates = False
            break
    pg_err = np.abs(e - projected_gradient_l21_oracle(g, tau)).max()
    prox_ok = prox_dominates and pg_err <= 1e-6

    kmat = rng.standard_normal((3, 6))
    r = orthogonal_procrustes(kmat)
    best = np.sum(r * kmat)
    procrustes_ok = all(
        best >= np.sum(random_row_orthonormal(rng, 3, 6) * kmat) - 1e-10
        for _ in range(1000)
    )

    check(
        "criterion-1 kernel oracles",
        sylvester_ok and prox_ok and procrustes_ok,
        f"sylvester max rel err {worst_sylvester:.2e}, prox-vs-PG err "
        f"{pg_err:.2e}, prox dominates 1e4 perturbations: {prox_dominates}, "
        f"procrustes beats 1000 samples: {procrustes_ok}",
    )


# ---------------------------------------------------------------------------
# 2. subproblem optimality
# ---------------------------------------------------------------------------

def fd_gradient(value_fn, x, eps=1e-6):
    grad = np.zeros_like(x)
    for idx in np.ndindex(x.shape):
        delta = np.zeros_like(x)
        delta[idx] = eps
        grad[idx] = (value_fn(x + delta) - value_fn(x - delta)) / (2 * eps)
    return grad


def test_criterion_2_subproblem_optimality():
    rng = np.random.default_rng(200)
    lam = 0.5
    worst_grad = 0.0
    descent_ok = True
    for _ in range(20):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(k, 13))
        v = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        st = random_admm_state(rng, d=d, k=k, v=v, n=n,
                               mu=float(rng.uniform(0.5, 2.0)))
        xa = rng.standard_normal((d, v * n))

        def p_val(p):
            return phi(st.y1, xa - p @ st.h - st.e1, st.mu)

        def h_val(h):
            return (phi(st.y1, xa - st.p @ h - st.e1, st.mu)
                    + phi(st.y2, h - h @ st.z - st.e2, st.mu))

        def z_val(z):
            return (phi(st.y3, st.j - z, st.mu)
                    + phi(st.y2, st.h - st.h @ z - st.e2, st.mu))

        def e_val(e1, e2):
            e = np.vstack([e1, e2])
            return (np.linalg.norm(e, axis=0).sum()
                    + phi(st.y1, xa - st.p @ st.h - e1, st.mu)
                    + phi(st.y2, st.h - st.h @ st.z - e2, st.mu))

        def j_val(j):
            from elmsc.solver import block_diagonal_part
            off = j - block_diagonal_part(j, v, n)
            return lam * np.abs(off).sum() + phi(st.y3, j - st.z, st.mu)

        before = p_val(st.p)
        st.p = update_p(st, xa)
        descent_ok &= p_val(st.p) <= before + 1e-9

        before = h_val(st.h)
        st.h = update_h(st, xa)
        descent_ok &= h_val(st.h) <= before + 1e-9
        worst_grad = max(worst_grad, np.linalg.norm(fd_gradient(h_val, st.h)))

        before = z_val(st.z)
        st.z = update_z(st)
        descent_ok &= z_val(st.z) <= before + 1e-9
        worst_grad = max(worst_grad, np.linalg.norm(fd_gradient(z_val, st.z)))

        before = e_val(st.e1, st.e2)
        st.e1, st.e2 = update_e(st, xa)
        descent_ok &= e_val(st.e1, st.e2) <= before + 1e-9

        before = j_val(st.j)
        st.j = update_j(st, lam, v, n)
        descent_ok &= j_val(st.j) <= before + 1e-9

    check(
        "criterion-2 subproblem optimality",
        descent_ok and worst_grad <= 1e-6,
        f"all updates weakly decrease their objectives: {descent_ok}, "
        f"worst finite-difference gradient norm {worst_grad:.2e}",
    )


# ---------------------------------------------------------------------------
# 3. convergence of the full schedule
# ---------------------------------------------------------------------------

def test_criterion_3_convergence(noisy_runs):
    converged = [r for r in noisy_runs if r["converged"]]
    count = len(converged)
    residual_ok = all(max(r["residuals"]) < 1e-3 and r["iterations"] <= 100
                      for r in converged)
    kkt_worst = max(max(r["kkt"]) for r in converged) if converged else np.inf
    kkt_ok = kkt_worst <= 10 * 1e-3
    check(
        "criterion-3 convergence",
        count >= 9 and residual_ok and kkt_ok,
        f"{count}/10 seeds converged within 100 iterations at tol 1e-3, "
        f"worst KKT gap {kkt_worst:.2e} (limit 1e-2)",
    )


def test_noisy_family_mean_iterations(noisy_runs):
    # the penalty growth rho sets the iteration count: about 16.6 on this
    # family at rho = 2, about 12.7 at the default rho = 3
    mean_iters = float(np.mean([r["iterations"] for r in noisy_runs]))
    assert mean_iters <= 14, f"mean iterations {mean_iters:.1f} (limit 14)"


# ---------------------------------------------------------------------------
# 4. end-to-end recovery
# ---------------------------------------------------------------------------

def test_criterion_4_end_to_end(noisy_runs, clean_runs):
    acc_median = float(np.median([r["acc"] for r in noisy_runs]))
    nmi_median = float(np.median([r["nmi"] for r in noisy_runs]))
    clean_median = float(np.median([r["acc"] for r in clean_runs]))
    check(
        "criterion-4 end-to-end recovery",
        acc_median >= 0.95 and nmi_median >= 0.90 and clean_median == 1.0,
        f"noisy median ACC {acc_median:.4f} (>=0.95), median NMI "
        f"{nmi_median:.4f} (>=0.90), noiseless median ACC {clean_median:.4f} "
        f"(==1.0)",
    )


# ---------------------------------------------------------------------------
# 5. ablation ordering
# ---------------------------------------------------------------------------

def test_criterion_5_ablation_ordering():
    means = {}
    for ablation in ("full", "v1", "v2"):
        accs = [run_pipeline(THIN_FAMILY, seed, ablation)["acc"]
                for seed in range(10)]
        means[ablation] = float(np.mean(accs))
    ordered = means["full"] >= means["v1"] >= means["v2"] - 0.02
    check(
        "criterion-5 ablation ordering",
        ordered,
        f"mean ACC full {means['full']:.4f} >= v1 {means['v1']:.4f} >= "
        f"v2-0.02 {means['v2'] - 0.02:.4f}",
    )


# ---------------------------------------------------------------------------
# 6. structural reductions
# ---------------------------------------------------------------------------

def test_criterion_6_structural_reductions():
    rng = np.random.default_rng(600)

    # v = 1: the aggregation is the identity and the pipeline is single-view
    z = rng.standard_normal((9, 9))
    single_view_ok = np.array_equal(aggregate_z(z, 1, 9), z)

    # identity-similarity hook: every block in block-row p repeats view p
    ds = MultiViewDataset(views=[rng.standard_normal((6, 12)),
                                 rng.standard_normal((5, 12)),
                                 rng.standard_normal((4, 12))])
    aug = build_augmented(ds, 3, identity_similarity=True)
    hook_ok = all(
        np.array_equal(aug.block(p, q), ds.views[p])
        for p in range(3) for q in range(3)
    )

    # lam = 0 makes the auxiliary update a pure pass-through
    st = random_admm_state(rng, d=6, k=2, v=2, n=4)
    j = update_j(st, 0.0, 2, 4)
    passthrough_ok = np.array_equal(j, st.z - st.y3 / st.mu)

    check(
        "criterion-6 structural reductions",
        single_view_ok and hook_ok and passthrough_ok,
        f"v=1 aggregation identity: {single_view_ok}, identity-similarity "
        f"blocks bit-exact: {hook_ok}, lam=0 pass-through: {passthrough_ok}",
    )


# ---------------------------------------------------------------------------
# 7. metric cross-validation
# ---------------------------------------------------------------------------

def test_criterion_7_metric_cross_validation():
    rng = np.random.default_rng(700)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(4, 51))
        c = int(rng.integers(2, 6))
        truth = rng.integers(0, c, size=n)
        predicted = rng.integers(0, c, size=n)
        pair = LabelPair(predicted=predicted, truth=truth)
        t, p = truth.tolist(), predicted.tolist()
        worst = max(
            worst,
            abs(acc(pair) - acc_permutation_oracle(p, t)),
            abs(nmi(pair) - nmi_contingency_oracle(p, t)),
            abs(ari(pair) - ari_pair_oracle(p, t)),
            abs(pairwise_f1(pair) - f1_pair_oracle(p, t)),
        )
    check(
        "criterion-7 metric cross-validation",
        worst <= 1e-12,
        f"worst |metric - brute-force oracle| = {worst:.2e} over 50 pairs",
    )


# ---------------------------------------------------------------------------
# 8. spectral exactness on block-constant affinities
# ---------------------------------------------------------------------------

def test_criterion_8_spectral_exactness():
    rng = np.random.default_rng(800)
    all_exact = True
    for trial in range(20):
        c = int(rng.integers(2, 6))
        sizes = rng.integers(2, 13, size=c)
        n = int(sizes.sum())
        if n > 60:
            sizes = np.maximum(2, (sizes * 60) // n)
            n = int(sizes.sum())
        truth = np.repeat(np.arange(c), sizes)
        w = np.zeros((n, n))
        start = 0
        for s in sizes:
            w[start:start + s, start:start + s] = rng.uniform(0.5, 2.0)
            start += s
        result = cluster(w, c, seed=trial)
        pair = LabelPair(predicted=result.labels, truth=truth)
        all_exact &= acc(pair) == 1.0
    check(
        "criterion-8 spectral exactness",
        all_exact,
        "20/20 block-constant affinities recovered exactly" if all_exact
        else "some block-constant affinity was not recovered",
    )


# ---------------------------------------------------------------------------
# 9. determinism of the command-line pipeline
# ---------------------------------------------------------------------------

def test_criterion_9_cli_determinism(tmp_path):
    args = [
        "cluster",
        "--synthetic", json.dumps({
            "clusters": 2, "per_cluster": 8, "views": 2, "latent_dim": 3,
            "view_dims": [8, 6], "noise_sigma": 0.05, "seed": 3,
        }),
        "--clusters", "2", "--lambda", "1.0", "--latent-dim", "3",
        "--trials", "2", "--seed", "1", "--out", str(tmp_path / "run"),
    ]
    assert cli.main(args) == 0
    first = (tmp_path / "run" / "report.json").read_bytes()
    assert cli.main(args) == 0
    second = (tmp_path / "run" / "report.json").read_bytes()

    def canonical(raw):
        report = json.loads(raw)
        for trial in report["trials"]:
            trial.pop("wall_clock_sec", None)
        return json.dumps(report, sort_keys=True).encode()

    identical = canonical(first) == canonical(second)
    check(
        "criterion-9 determinism",
        identical,
        "two invocations produced byte-identical reports (wall-clock excluded)",
    )
