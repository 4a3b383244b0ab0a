import numpy as np
import pytest
from numpy.testing import assert_allclose

import elmsc.numerics as numerics
from elmsc.numerics import (
    NonFiniteError,
    NumericalError,
    col_l21_prox,
    col_norms,
    finite_real,
    gram_cg_solve,
    l21_scale,
    number,
    orthogonal_procrustes,
    pca_reduce,
    soft_threshold,
    solve_sylvester,
    spd_solve,
    svd,
    sym_eig,
)

from conftest import random_admm_state, random_row_orthonormal


# ---------------------------------------------------------------------------
# number rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("rule,low,at", [(number, 1, 1), (number, 2, 2),
                                         (finite_real, 0, 0.0),
                                         (finite_real, 0, 0)])
def test_number_rules_pass_the_bound_and_refuse_below_it(rule, low, at):
    assert rule(at, "x", low=low) == at
    assert rule(at + 1, "x", low=low) == at + 1
    with pytest.raises(ValueError) as info:
        rule(at - 1, "x", low=low)
    assert str(info.value) == f"'x' must be >= {low}, not {at - 1!r}"


@pytest.mark.parametrize("rule", [number, finite_real])
def test_number_rules_refuse_a_bool_as_a_type_before_the_bound(rule):
    # True >= 0 and False < 1 as numbers, but neither is taken as one
    for value, low in ((True, 0), (False, 1)):
        with pytest.raises(ValueError, match="'x' must be (integral|real), "):
            rule(value, "x", low=low)


@pytest.mark.parametrize("value,low,rule", [
    (np.nan, None, "finite"), (np.nan, 0, "finite"), (np.inf, None, "finite"),
    (np.inf, 0, "finite"), (-np.inf, None, "finite"), (-np.inf, 0, ">= 0"),
])
def test_finite_real_refuses_nan_and_inf(value, low, rule):
    # the bound comes before finiteness, and NaN compares below no bound
    with pytest.raises(ValueError, match=f"'x' must be {rule}, not "):
        finite_real(value, "x", low=low)


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------

def test_svd_identity():
    u, s, vt = svd(np.eye(3))
    assert_allclose(s, np.ones(3), atol=1e-12)
    assert_allclose(u, np.eye(3), atol=1e-12)
    assert_allclose(vt, np.eye(3), atol=1e-12)


def test_svd_diagonal():
    _, s, _ = svd(np.diag([3.0, 2.0, 1.0]))
    assert_allclose(s, [3.0, 2.0, 1.0], atol=1e-12)


def test_svd_reconstruction_random():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((5, 3))
    u, s, vt = svd(m)
    recon = u @ np.diag(s) @ vt
    assert np.linalg.norm(recon - m) <= 1e-8 * np.linalg.norm(m)
    assert_allclose(u.T @ u, np.eye(3), atol=1e-10)
    assert_allclose(vt @ vt.T, np.eye(3), atol=1e-10)
    assert np.all(np.diff(s) <= 0) and np.all(s >= 0)


def test_svd_rejects_bad_input():
    with pytest.raises(ValueError):
        svd(np.array([[np.nan, 1.0]]))
    with pytest.raises(ValueError):
        svd(np.zeros((0, 3)))


# ---------------------------------------------------------------------------
# sym_eig
# ---------------------------------------------------------------------------

def test_sym_eig_diagonal():
    lam, q = sym_eig(np.diag([2.0, 5.0]))
    assert_allclose(lam, [2.0, 5.0], atol=1e-12)
    assert_allclose(np.abs(q), np.eye(2), atol=1e-12)


def test_sym_eig_known_2x2():
    lam, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert_allclose(lam, [-1.0, 1.0], atol=1e-12)


def test_sym_eig_reconstruction_random():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    m = a + a.T
    lam, q = sym_eig(m)
    recon = q @ np.diag(lam) @ q.T
    assert np.linalg.norm(recon - m) <= 1e-8 * np.linalg.norm(m)
    assert_allclose(q.T @ q, np.eye(6), atol=1e-10)
    assert np.all(np.diff(lam) >= 0)


def test_sym_eig_rejects_nonsquare_and_asymmetric():
    with pytest.raises(ValueError):
        sym_eig(np.ones((2, 3)))
    with pytest.raises(ValueError):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# solve_sylvester
# ---------------------------------------------------------------------------

def kron_sylvester_oracle(a, b, c):
    """Solve the vectorized (k*m) x (k*m) linear system built from the
    Kronecker-sum identity vec(aH + Hb) = (I (x) a + b.T (x) I) vec(H)."""
    k, m = a.shape[0], b.shape[0]
    big = np.kron(np.eye(m), a) + np.kron(b.T, np.eye(k))
    x = np.linalg.solve(big, c.flatten(order="F"))
    return x.reshape((k, m), order="F")


def test_sylvester_diagonal_case():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0])
    c = np.ones((2, 2))
    h = solve_sylvester(a, b, c)
    assert_allclose(h, [[1 / 4, 1 / 5], [1 / 5, 1 / 6]], atol=1e-12)


def test_sylvester_identity_pair():
    rng = np.random.default_rng(2)
    c = rng.standard_normal((3, 4))
    h = solve_sylvester(np.eye(3), np.eye(4), c)
    assert_allclose(h, c / 2, atol=1e-12)


def test_sylvester_matches_kron_oracle():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    a = a + a.T
    b = rng.standard_normal((3, 3))
    b = b + b.T + 10 * np.eye(3)  # keep the spectra away from cancellation
    c = rng.standard_normal((4, 3))
    h = solve_sylvester(a, b, c)
    expected = kron_sylvester_oracle(a, b, c)
    assert_allclose(h, expected, atol=1e-8)


def test_sylvester_residual_random_pairs():
    rng = np.random.default_rng(4)
    for _ in range(20):
        k = int(rng.integers(2, 7))
        m = int(rng.integers(2, 7))
        a = rng.standard_normal((k, k))
        a = a @ a.T + 0.5 * np.eye(k)  # PD
        b = rng.standard_normal((m, m))
        b = b @ b.T + 0.5 * np.eye(m)
        c = rng.standard_normal((k, m))
        h = solve_sylvester(a, b, c)
        res = np.linalg.norm(a @ h + h @ b - c)
        assert res <= 1e-8 * max(1.0, np.linalg.norm(c))
        assert np.all(np.isfinite(h))


def test_sylvester_singular_pair_raises():
    a = np.diag([1.0, -2.0])
    b = np.diag([2.0, 5.0])  # alpha=-2 + beta=2 = 0
    with pytest.raises(NumericalError, match="singular Sylvester spectrum"):
        solve_sylvester(a, b, np.ones((2, 2)))


def test_sylvester_shape_contracts():
    with pytest.raises(ValueError):
        solve_sylvester(np.ones((2, 3)), np.eye(2), np.ones((2, 2)))
    with pytest.raises(ValueError):
        solve_sylvester(np.eye(2), np.eye(3), np.ones((3, 2)))


# ---------------------------------------------------------------------------
# orthogonal_procrustes
# ---------------------------------------------------------------------------

def test_procrustes_identity():
    assert_allclose(orthogonal_procrustes(np.eye(3)), np.eye(3), atol=1e-12)


def test_procrustes_padded_diagonal():
    k = np.zeros((2, 4))
    k[0, 0], k[1, 1] = 5.0, 3.0
    expected = np.zeros((2, 4))
    expected[0, 0] = expected[1, 1] = 1.0
    assert_allclose(orthogonal_procrustes(k), expected, atol=1e-12)


def test_procrustes_beats_random_samples():
    rng = np.random.default_rng(5)
    k = rng.standard_normal((3, 6))
    r = orthogonal_procrustes(k)
    best = np.sum(r * k)  # trace(R k^T)
    for _ in range(1000):
        q = random_row_orthonormal(rng, 3, 6)
        assert best >= np.sum(q * k) - 1e-10


def test_procrustes_row_orthonormal_always():
    rng = np.random.default_rng(6)
    for _ in range(20):
        r_dim = int(rng.integers(1, 5))
        c_dim = int(rng.integers(r_dim, 8))
        r = orthogonal_procrustes(rng.standard_normal((r_dim, c_dim)))
        assert_allclose(r @ r.T, np.eye(r_dim), atol=1e-10)


def test_procrustes_ill_conditioned_matches_svd_factor():
    # singular values 1 .. 1e-5: a route through k @ k.T would square the
    # condition number to 1e10 and miss both bounds
    rng = np.random.default_rng(7)
    u = random_row_orthonormal(rng, 30, 30)
    vt = random_row_orthonormal(rng, 30, 200)
    k = (u * np.logspace(0, -5, 30)) @ vt
    r = orthogonal_procrustes(k)
    assert np.abs(r - u @ vt).max() <= 1e-9
    assert np.abs(r @ r.T - np.eye(30)).max() <= 1e-12


def test_procrustes_rank_deficient_still_orthonormal():
    k = np.outer([1.0, 2.0], [1.0, 0.0, -1.0, 3.0])  # rank 1, 2x4
    r = orthogonal_procrustes(k)
    assert_allclose(r @ r.T, np.eye(2), atol=1e-10)


def test_procrustes_rejects_tall_input():
    with pytest.raises(ValueError):
        orthogonal_procrustes(np.ones((4, 2)))


# ---------------------------------------------------------------------------
# soft_threshold
# ---------------------------------------------------------------------------

def test_soft_threshold_direct_values():
    assert soft_threshold(np.array([[1.2]]), 0.5)[0, 0] == pytest.approx(0.7)
    assert soft_threshold(np.array([[0.5]]), 1.0)[0, 0] == 0.0
    assert soft_threshold(np.array([[-5.0]]), 2.0)[0, 0] == pytest.approx(-3.0)


def test_soft_threshold_rejects_negative_eta():
    with pytest.raises(ValueError):
        soft_threshold(np.ones((2, 2)), -0.1)


def test_soft_threshold_is_contraction():
    rng = np.random.default_rng(7)
    for _ in range(50):
        x = rng.standard_normal((4, 5)) * 3
        y = rng.standard_normal((4, 5)) * 3
        eta = float(rng.uniform(0, 2))
        assert np.all(
            np.abs(soft_threshold(x, eta) - soft_threshold(y, eta))
            <= np.abs(x - y) + 1e-15
        )



def test_soft_threshold_matches_sign_form_bitwise():
    rng = np.random.default_rng(8)
    eta = 0.375
    m = rng.standard_normal((40, 50))
    m.flat[::7] = 0.0
    m.flat[1::11] = eta
    m.flat[2::13] = -eta
    out = soft_threshold(m, eta)
    ref = np.sign(m) * np.maximum(np.abs(m) - eta, 0.0)
    nz = ref != 0
    assert nz.any() and (~nz).any()
    assert np.array_equal(out[nz].view(np.int64), ref[nz].view(np.int64))
    assert not out[~nz].any()


def test_soft_threshold_keeps_float32():
    m = np.random.default_rng(9).standard_normal((6, 7)).astype(np.float32)
    out = soft_threshold(m, 0.5)
    assert out.dtype == np.float32
    ref = np.sign(m) * np.maximum(np.abs(m) - np.float32(0.5), 0)
    assert np.array_equal(out, ref)
    # anything but float32 is still worked on in float64
    assert soft_threshold(np.arange(4).reshape(2, 2), 1.0).dtype == np.float64


# ---------------------------------------------------------------------------
# col_l21_prox
# ---------------------------------------------------------------------------

def l21_objective(e, g, tau):
    return tau * np.linalg.norm(e, axis=0).sum() + 0.5 * np.sum((e - g) ** 2)


def projected_gradient_l21_oracle(g, tau, iters=200):
    """Columnwise projected gradient on the scale of each column.

    The minimizer of tau*||e|| + 0.5*||e - g||^2 is colinear with g (the
    perturbation test certifies this independently), so each column reduces
    to min_{t>=0} tau*t + 0.5*(t - ||g||)^2, solved by gradient steps
    projected onto t >= 0. Linear convergence with step 0.5.
    """
    out = np.zeros_like(g)
    for i in range(g.shape[1]):
        gnorm = np.linalg.norm(g[:, i])
        if gnorm == 0:
            continue
        t = gnorm
        for _ in range(iters):
            t = max(0.0, t - 0.5 * (t - gnorm + tau))
        if t > 0:
            out[:, i] = t * g[:, i] / gnorm
    return out


def test_l21_prox_zero_fixed_point():
    assert np.array_equal(col_l21_prox(np.zeros((3, 4)), 0.7), np.zeros((3, 4)))


def test_l21_prox_single_column():
    g = np.array([[0.0], [2.0]])
    assert_allclose(col_l21_prox(g, 1.0), [[0.0], [1.0]], atol=1e-12)


def test_l21_prox_beats_perturbations_and_matches_oracle():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((5, 4))
    tau = 0.3
    e = col_l21_prox(g, tau)
    base = l21_objective(e, g, tau)
    scales = 10 ** rng.uniform(-6, -1, size=10_000)
    for s in scales:
        perturbed = e + s * rng.standard_normal(e.shape)
        assert l21_objective(perturbed, g, tau) >= base - 1e-12
    assert_allclose(e, projected_gradient_l21_oracle(g, tau), atol=1e-6)


def test_l21_prox_tiny_tau_approaches_identity():
    rng = np.random.default_rng(9)
    g = rng.standard_normal((6, 5))
    out = col_l21_prox(g, 1e-12)
    assert np.abs(out - g).max() <= 1e-10


def test_l21_prox_rejects_nonpositive_tau():
    with pytest.raises(ValueError):
        col_l21_prox(np.ones((2, 2)), 0.0)


def test_l21_prox_in_place_matches_fresh_output():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((7, 6))
    fresh = col_l21_prox(g, 1.5)
    out = col_l21_prox(g, 1.5, out=g)
    assert out is g
    assert np.array_equal(out, fresh)


def test_col_norms_of_blocks_match_stacked_norms():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((9, 5))
    b = rng.standard_normal((3, 5))
    assert_allclose(col_norms(a, b), np.linalg.norm(np.vstack([a, b]), axis=0),
                    rtol=1e-14)
    assert_allclose(col_norms(a), np.linalg.norm(a, axis=0), rtol=1e-14)


def test_kernels_keep_float32_and_still_reject_nan():
    rng = np.random.default_rng(10)
    g = rng.standard_normal((5, 4)).astype(np.float32)
    assert col_l21_prox(g, 0.5).dtype == np.float32
    assert all(f.dtype == np.float32 for f in svd(g))
    assert pca_reduce(g, 2).dtype == np.float32
    # constant data centers to zeros, which the SVD path projects to zeros
    for dtype in (np.float64, np.float32):
        reduced = pca_reduce(np.full((5, 10), 3.0, dtype), 2)
        assert reduced.dtype == dtype and reduced.shape == (2, 10)
        assert not reduced.any()
    g[2, 1] = np.nan
    for kernel in (lambda m: col_l21_prox(m, 0.5), svd,
                   lambda m: spd_solve(m[:4], np.ones((4, 1), np.float32))):
        with pytest.raises(NonFiniteError):
            kernel(g)


def test_nonfinite_input_is_both_value_and_numerical_error():
    g = np.ones((3, 2))
    g[1, 0] = np.inf
    with pytest.raises(NonFiniteError) as info:
        col_l21_prox(g, 0.5)
    assert isinstance(info.value, ValueError)
    assert isinstance(info.value, NumericalError)


def test_l21_scale_rejects_an_infinite_norm():
    # the E step hands l21_scale norms it took itself, past col_l21_prox's
    # check of its input
    with pytest.raises(NonFiniteError, match="non-finite norms"):
        l21_scale(np.array([1.0, np.inf]), 0.5)


# ---------------------------------------------------------------------------
# pca_reduce
# ---------------------------------------------------------------------------

def pdist(a):
    """Pairwise Euclidean distances between the columns of a."""
    diff = a[:, :, None] - a[:, None, :]
    return np.sqrt((diff**2).sum(axis=0))


def test_pca_exact_subspace_retains_everything():
    # samples on a 3-dimensional affine subspace keep every pairwise
    # distance when projected onto 3 components
    rng = np.random.default_rng(10)
    basis = rng.standard_normal((9, 3))
    offset = rng.standard_normal((9, 1))
    x = basis @ rng.standard_normal((3, 40)) + offset
    reduced = pca_reduce(x, 3)
    assert reduced.shape == (3, 40)
    assert_allclose(pdist(reduced), pdist(x), atol=1e-8)


def test_pca_full_rank_preserves_distances():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((6, 15))
    m = min(6, 15 - 1)
    reduced = pca_reduce(x, m)
    centered = x - x.mean(axis=1, keepdims=True)
    assert_allclose(pdist(reduced), pdist(centered), atol=1e-8)


def test_pca_rejects_out_of_range_components():
    x = np.random.default_rng(14).standard_normal((5, 10))
    with pytest.raises(ValueError):
        pca_reduce(x, 0)
    with pytest.raises(ValueError):
        pca_reduce(x, 6)


# ---------------------------------------------------------------------------
# spd_solve
# ---------------------------------------------------------------------------

def test_spd_solve_identity_and_scalar():
    b = np.arange(6.0).reshape(3, 2)
    assert_allclose(spd_solve(np.eye(3), b), b, atol=1e-12)
    assert_allclose(spd_solve(np.array([[4.0]]), np.array([[8.0]])), [[2.0]])


def test_spd_solve_random_residual():
    rng = np.random.default_rng(15)
    a = rng.standard_normal((6, 6))
    a = a @ a.T + 6 * np.eye(6)
    b = rng.standard_normal((6, 4))
    x = spd_solve(a, b)
    assert np.linalg.norm(a @ x - b) <= 1e-8 * max(1.0, np.linalg.norm(b))


def test_spd_solve_factors_in_a_and_solves_in_b_precision():
    rng = np.random.default_rng(16)
    a = rng.standard_normal((8, 8))
    a = (a @ a.T + 8 * np.eye(8)).astype(np.float32)
    b = rng.standard_normal((8, 3))
    x32 = spd_solve(a, b.astype(np.float32))
    assert x32.dtype == np.float32
    x = spd_solve(a, b)
    assert x.dtype == np.float64
    a64 = a.astype(np.float64)
    # a float32 eigendecomposition: float32's backward error, either way
    for sol in (x32, x):
        assert np.linalg.norm(a64 @ sol - b) <= 1e-5 * np.linalg.norm(b)


def test_spd_solve_rejects_indefinite():
    from elmsc.numerics import NumericalError

    with pytest.raises(NumericalError):
        spd_solve(np.diag([1.0, -1.0]), np.ones((2, 1)))


# ---------------------------------------------------------------------------
# gram_cg_solve
# ---------------------------------------------------------------------------

def test_gram_cg_solve_matches_cholesky_on_h_step_systems():
    # the H step's system X (I + W W.T) = C / mu, W = I - Z, started from H,
    # on states drawn as acceptance criterion 2 draws them
    rng = np.random.default_rng(31)
    for _ in range(20):
        k = int(rng.integers(2, 6))
        d = int(rng.integers(k, 13))
        v = int(rng.integers(1, 4))
        n = int(rng.integers(2, 11))
        st = random_admm_state(rng, d=d, k=k, v=v, n=n,
                               mu=float(rng.uniform(0.5, 2.0)))
        xa = rng.standard_normal((d, v * n))
        w = np.eye(v * n) - st.z
        c = (st.p.T @ (st.mu * (xa - st.e1) + st.y1)
             - (st.y2 - st.mu * st.e2) @ w.T)
        b = c / st.mu
        x, _ = gram_cg_solve(w, b, st.h)
        gram = np.eye(v * n) + w @ w.T
        ref = spd_solve(gram, b.T).T
        b_norms = np.linalg.norm(b, axis=1)
        # the stop rule is 1e-12 per row on the recurred residual; the
        # true residual may drift from it by rounding
        assert np.all(np.linalg.norm(x @ gram - b, axis=1) <= 1e-11 * b_norms)
        assert np.abs(x - ref).max() <= 1e-9 * np.abs(ref).max()


def test_gram_cg_solve_with_float32_w_stops_at_its_reach():
    # the products with W run in float32, which bounds the residual near
    # 1e-7 relative; at the float64 stop of 1e-12 every solve would run to
    # the cap and fall back
    assert numerics.cg_rtol(np.float64) == numerics.CG_RTOL
    assert numerics.cg_rtol(np.float32) == pytest.approx(1.19e-5, rel=1e-2)
    rng = np.random.default_rng(35)
    vn, k = 60, 3
    w = np.eye(vn) - rng.standard_normal((vn, vn)) / (2 * np.sqrt(vn))
    b = rng.standard_normal((k, vn))
    x, its = gram_cg_solve(w.astype(np.float32), b, np.zeros((k, vn)))
    assert x is not None and x.dtype == np.float64
    assert its < numerics.CG_MAX_ITER
    gram = np.eye(vn) + w @ w.T
    assert np.all(np.linalg.norm(x @ gram - b, axis=1)
                  <= 1e-4 * np.linalg.norm(b, axis=1))


@pytest.mark.parametrize("vn, k", [(60, 1), (600, 8)])
def test_gram_cg_solve_float32_w_edge_shapes_match_cholesky(vn, k):
    # the product with W.T runs as (W Y.T).T: at k = 1 that is W times a
    # vector, and vn = 600, k = 8 is the dense-k8 bench workload's shape;
    # cond(I + W W.T) is about 2, as on the H step's systems
    rng = np.random.default_rng(37)
    w = (np.eye(vn) - rng.standard_normal((vn, vn)) / (4 * np.sqrt(vn))
         ).astype(np.float32)
    b = rng.standard_normal((k, vn))
    x, _ = gram_cg_solve(w, b, np.zeros((k, vn)))
    assert x.dtype == np.float64 and x.shape == b.shape
    w64 = w.astype(np.float64)
    ref = spd_solve(np.eye(vn) + w64 @ w64.T, b.T).T
    assert np.all(np.linalg.norm(x - ref, axis=1)
                  <= numerics.cg_rtol(np.float32)
                  * np.linalg.norm(ref, axis=1))


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_gram_cg_solve_takes_the_warm_start_product_it_would_form(dtype):
    # x0 W W.T passed in, formed as the solver forms it, gives the same bits
    rng = np.random.default_rng(38)
    vn, k = 80, 3
    w = (np.eye(vn) - rng.standard_normal((vn, vn)) / (2 * np.sqrt(vn))
         ).astype(dtype)
    b = rng.standard_normal((k, vn))
    x0 = rng.standard_normal((k, vn))
    x0ww = (w @ (x0.astype(dtype) @ w).T).T
    x, its = gram_cg_solve(w, b, x0)
    x_given, its_given = gram_cg_solve(w, b, x0, x0ww=x0ww)
    assert its > 1 and its_given == its
    assert np.array_equal(x_given, x)


def test_gram_cg_solve_identity_w_converges_in_one_iteration():
    rng = np.random.default_rng(32)
    b = rng.standard_normal((4, 30))
    x, its = gram_cg_solve(np.eye(30), b, rng.standard_normal((4, 30)))
    assert its == 1
    assert_allclose(x, b / 2, rtol=0, atol=1e-14)


def test_gram_cg_solve_steps_once_from_a_start_within_tolerance():
    # a float32 W's stop is 1.19e-5 relative; a start that already meets it
    # still takes one step, and stays within the stop
    rng = np.random.default_rng(36)
    w = np.eye(30) - rng.standard_normal((30, 30)) / 10
    gram = np.eye(30) + w @ w.T
    x_true = rng.standard_normal((4, 30))
    b = x_true @ gram
    x0 = x_true + 1e-7 * rng.standard_normal((4, 30))
    x, its = gram_cg_solve(w.astype(np.float32), b, x0)
    assert its == 1 and not np.array_equal(x, x0)
    assert np.all(np.linalg.norm(x @ gram - b, axis=1)
                  <= numerics.cg_rtol(np.float32) * np.linalg.norm(b, axis=1))


def test_gram_cg_solve_exactly_solved_row_stays_put():
    # a row with zero residual has p.q = 0; it must not turn into NaN
    rng = np.random.default_rng(33)
    w = np.eye(12) - rng.standard_normal((12, 12)) / 4
    b = rng.standard_normal((3, 12))
    b[1] = 0.0
    x0 = np.zeros((3, 12))
    x, _ = gram_cg_solve(w, b, x0)
    assert not x[1].any()
    assert_allclose(x @ (np.eye(12) + w @ w.T), b, atol=1e-10)


def test_gram_cg_solve_gives_up_at_cap_or_overflow(monkeypatch):
    rng = np.random.default_rng(34)
    w = np.eye(20) - rng.standard_normal((20, 20)) / 3
    b = rng.standard_normal((2, 20))
    monkeypatch.setattr(numerics, "CG_MAX_ITER", 2)
    assert gram_cg_solve(w, b, np.zeros((2, 20))) == (None, 2)
    monkeypatch.undo()
    # finite, but its squared row norms overflow
    assert gram_cg_solve(w, b * 1e160, np.zeros((2, 20)))[0] is None
    with pytest.raises(NonFiniteError):
        gram_cg_solve(w, np.full((2, 20), np.nan), np.zeros((2, 20)))
