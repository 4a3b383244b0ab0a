import dataclasses
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

import elmsc.numerics as numerics
import elmsc.solver as solver
from elmsc.dataset import (
    AugmentedMatrix,
    MultiViewDataset,
    build_augmented,
    default_pca_components,
    gen_synthetic,
)
from elmsc.numerics import NumericalError, spd_solve
from elmsc.solver import (
    ElmscConfig,
    aggregate_z,
    block_diagonal_part,
    init_state,
    kkt_residuals,
    objective,
    residuals,
    run,
    update_e,
    update_h,
    update_j,
    update_multipliers,
    update_p,
    update_z,
)
from elmsc.spectral import cluster

from conftest import fix_iterations, phi, random_admm_state


def make_xa(rng, d, vn):
    return rng.standard_normal((d, vn))


# ---------------------------------------------------------------------------
# config and initialization
# ---------------------------------------------------------------------------

def test_config_defaults_match_reference_schedule():
    cfg = ElmscConfig(lam=1.0, latent_dim=5)
    assert (solver.MU0, solver.MU_MAX, solver.RHO) == (1e-4, 1e6, 3.0)
    assert cfg.tol == 1e-3
    assert cfg.max_iter == 100
    assert [f.name for f in dataclasses.fields(ElmscConfig)] == [
        "lam", "latent_dim", "seed", "ablation"]
    for name in ("rho", "tol", "max_iter"):
        with pytest.raises(TypeError):
            ElmscConfig(lam=1.0, latent_dim=2, **{name: 2})


def test_config_validation():
    with pytest.raises(ValueError):
        ElmscConfig(lam=-1.0, latent_dim=5)
    with pytest.raises(ValueError):
        ElmscConfig(lam=1.0, latent_dim=5, ablation="v3")


@pytest.mark.parametrize("field,value", [
    ("latent_dim", 2.5), ("latent_dim", True), ("seed", 1.7), ("seed", True),
])
def test_config_counts_must_be_integers(field, value):
    kwargs = {"lam": 1.0, "latent_dim": 2, field: value}
    with pytest.raises(ValueError, match=field):
        ElmscConfig(**kwargs)


def _tiny_aug(rng, d=6, v=2, n=5):
    views = [rng.standard_normal((d // 2, n)) for _ in range(v)]
    return build_augmented(MultiViewDataset(views=views), 2)


def test_init_state_deterministic_and_zeroed():
    rng = np.random.default_rng(0)
    xa = _tiny_aug(rng)
    cfg = ElmscConfig(lam=1.0, latent_dim=3, seed=11)
    a = init_state(xa, cfg)
    b = init_state(xa, cfg)
    assert np.array_equal(a.h, b.h)
    for name in ("p", "z", "e1", "e2", "j", "y1", "y2", "y3"):
        assert not getattr(a, name).any(), name
    # run refills E1 and E2 in place through their stacked buffer
    assert a.e1.base is a.e2.base
    assert a.e1.base.shape == (xa.xa.shape[0] + 3, xa.xa.shape[1])
    assert a.mu == 1e-4




# ---------------------------------------------------------------------------
# update_p
# ---------------------------------------------------------------------------

def p_subproblem_value(p, state, xa):
    return phi(state.y1, xa - p @ state.h - state.e1, state.mu)


def test_update_p_identity_case():
    rng = np.random.default_rng(2)
    st = random_admm_state(rng, d=4, k=2, v=1, n=2)
    st.h = np.eye(2)
    st.y1 = np.zeros((4, 2))
    st.e1 = np.zeros((4, 2))
    xa = np.zeros((4, 2))
    xa[0, 0] = xa[1, 1] = 1.0  # h @ xa.T = [I_2 | 0]
    p = update_p(st, xa)
    assert_allclose(p.T, np.hstack([np.eye(2), np.zeros((2, 2))]), atol=1e-12)


def test_update_p_never_increases_its_objective():
    rng = np.random.default_rng(3)
    for _ in range(10):
        st = random_admm_state(rng, d=8, k=3, v=2, n=4)
        xa = make_xa(rng, 8, 8)
        before = p_subproblem_value(st.p, st, xa)
        p_new = update_p(st, xa)
        after = p_subproblem_value(p_new, st, xa)
        assert after <= before + 1e-9


def test_update_p_orthonormal_columns():
    rng = np.random.default_rng(4)
    for _ in range(10):
        st = random_admm_state(rng, d=9, k=4, v=1, n=7)
        p = update_p(st, make_xa(rng, 9, 7))
        assert np.abs(p.T @ p - np.eye(4)).max() <= 1e-8


# ---------------------------------------------------------------------------
# update_h
# ---------------------------------------------------------------------------

def h_subproblem_value(h, state, xa):
    return (
        phi(state.y1, xa - state.p @ h - state.e1, state.mu)
        + phi(state.y2, h - h @ state.z - state.e2, state.mu)
    )


def h_subproblem_grad_fd(h, state, xa, eps=1e-6):
    """Central finite differences; exact for this quadratic up to rounding."""
    grad = np.zeros_like(h)
    for idx in np.ndindex(h.shape):
        delta = np.zeros_like(h)
        delta[idx] = eps
        grad[idx] = (
            h_subproblem_value(h + delta, state, xa)
            - h_subproblem_value(h - delta, state, xa)
        ) / (2 * eps)
    return grad


def test_update_h_degenerate_closed_form():
    rng = np.random.default_rng(5)
    st = random_admm_state(rng, d=7, k=3, v=1, n=4, mu=0.7)
    st.z = np.zeros((4, 4))
    st.y1 = np.zeros((7, 4))
    st.y2 = np.zeros((3, 4))
    st.e1 = np.zeros((7, 4))
    st.e2 = np.zeros((3, 4))
    xa = make_xa(rng, 7, 4)
    h = update_h(st, xa)
    assert_allclose(h, st.p.T @ xa / 2, atol=1e-10)


def test_update_h_sylvester_residual():
    rng = np.random.default_rng(6)
    for _ in range(5):
        st = random_admm_state(rng, d=8, k=3, v=2, n=4, mu=1.3)
        xa = make_xa(rng, 8, 8)
        h = update_h(st, xa)
        eye = np.eye(8)
        a = st.mu * (st.p.T @ st.p)
        b = st.mu * ((eye - st.z) @ (eye - st.z).T)
        c = (
            st.p.T @ st.y1
            + st.y2 @ (st.z.T - eye)
            + st.mu * (st.p.T @ (xa - st.e1) + st.e2 - st.e2 @ st.z.T)
        )
        res = np.linalg.norm(a @ h + h @ b - c)
        assert res <= 1e-8 * max(1.0, np.linalg.norm(c))


def test_update_h_gradient_vanishes():
    rng = np.random.default_rng(7)
    st = random_admm_state(rng, d=5, k=2, v=1, n=3, mu=0.9)
    xa = make_xa(rng, 5, 3)
    h = update_h(st, xa)
    grad = h_subproblem_grad_fd(h, st, xa)
    assert np.linalg.norm(grad) <= 1e-6


def test_update_h_refuses_p_without_orthonormal_columns():
    # the H step's system holds for P.T P = I only, which update_p gives;
    # any other P is refused before W is written over Z's buffer
    rng = np.random.default_rng(8)
    st = random_admm_state(rng, d=6, k=3, v=1, n=4, mu=1.1)
    st.p = rng.standard_normal((6, 3))
    xa = make_xa(rng, 6, 4)
    z = st.z.copy()
    with pytest.raises(ValueError, match="orthonormal columns"):
        update_h(st, xa, out=st.z)
    assert np.array_equal(st.z, z)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_steps_given_the_terms_they_would_form_give_the_same_bits(dtype):
    # `run` hands the H step H W from the last E step and the Z step A from
    # J's buffer; each, given what it would form itself, is unchanged
    rng = np.random.default_rng(13)
    st = random_admm_state(rng, d=8, k=3, v=2, n=5, mu=1.3)
    st.z, st.j, st.y3 = (m.astype(dtype) for m in (st.z, st.j, st.y3))
    xa = make_xa(rng, 8, 10)
    st.p = update_p(st, xa)
    hw = solver._latent_gap(st.h, st.z)
    assert np.array_equal(update_h(st, xa, hw=hw), update_h(st, xa))
    a = st.j + st.y3 / st.mu
    z = update_z(st, a=a, out=np.empty_like(a))
    assert z.dtype == dtype
    assert np.array_equal(z, update_z(st))


# ---------------------------------------------------------------------------
# update_z
# ---------------------------------------------------------------------------

def z_subproblem_value(z, state):
    return (
        phi(state.y3, state.j - z, state.mu)
        + phi(state.y2, state.h - state.h @ z - state.e2, state.mu)
    )


def test_update_z_degenerate_when_h_zero():
    rng = np.random.default_rng(9)
    st = random_admm_state(rng, d=6, k=2, v=1, n=4, mu=2.0)
    st.h = np.zeros((2, 4))
    z = update_z(st)
    assert_allclose(z, st.j + st.y3 / st.mu, atol=1e-10)


def test_update_z_non_finite_h_is_numerical_error():
    # the k x k system S = I + H H.T is checked before numpy's solve, so an
    # overflowed H keeps the solver's exit class
    rng = np.random.default_rng(12)
    st = random_admm_state(rng, d=6, k=2, v=1, n=4, mu=2.0)
    st.h[1, 2] = np.inf
    with np.errstate(all="ignore"), pytest.raises(NumericalError,
                                                  match="S contains NaN/Inf"):
        update_z(st)


def test_update_z_residual_identity():
    rng = np.random.default_rng(10)
    st = random_admm_state(rng, d=6, k=3, v=2, n=3, mu=1.4)
    z = update_z(st)
    hth = st.h.T @ st.h
    lhs = hth + np.eye(6)
    rhs = (st.j + hth - st.h.T @ st.e2) + (st.y3 + st.h.T @ st.y2) / st.mu
    assert np.linalg.norm(lhs @ z - rhs) <= 1e-8 * max(1.0, np.linalg.norm(rhs))


def test_update_z_gradient_vanishes():
    rng = np.random.default_rng(11)
    st = random_admm_state(rng, d=5, k=2, v=1, n=3, mu=0.8)
    z = update_z(st)
    eps = 1e-6
    grad = np.zeros_like(z)
    for idx in np.ndindex(z.shape):
        delta = np.zeros_like(z)
        delta[idx] = eps
        grad[idx] = (
            z_subproblem_value(z + delta, st) - z_subproblem_value(z - delta, st)
        ) / (2 * eps)
    assert np.linalg.norm(grad) <= 1e-6



def dense_update_z(state, a, **_):
    """Reference Z step: the vn x vn normal equations, factored densely.

    Takes A = J + Y3/mu from `run`'s `a`, since J's buffer holds A during
    the Z step, and ignores its buffer keyword, returning a new array."""
    h, mu = state.h, state.mu
    hth = h.T @ h
    rhs = a + hth + h.T @ (state.y2 / mu - state.e2)
    return spd_solve(np.eye(hth.shape[0]) + hth, rhs)


def test_run_low_rank_z_matches_dense_reference(monkeypatch):
    # on this input sigma(H) grows past 1e4; the Woodbury right-hand side
    # R - H.T S^-1 H R would cancel terms of size |H|^2 there and miss these
    # tolerances by two orders of magnitude. The check is of algebraic
    # exactness, so it runs wholly in float64
    monkeypatch.setattr(solver, "VN2_DTYPE", np.float64)
    ds = gen_synthetic(clusters=5, per_cluster=12, views=3, latent_dim=30,
                       view_dims=[256, 128, 192], noise_sigma=0.1, seed=0)
    xa = build_augmented(ds, default_pca_components(5, ds))
    cfg = ElmscConfig(lam=1.0, latent_dim=30, seed=0)
    fast = run(xa, cfg)
    monkeypatch.setattr(solver, "update_z", dense_update_z)
    dense = run(xa, cfg)
    assert len(fast.trace) == len(dense.trace)
    obj_fast = np.array(fast.trace.objective)
    obj_dense = np.array(dense.trace.objective)
    assert np.max(np.abs(obj_fast - obj_dense) / np.abs(obj_dense)) <= 1e-6
    assert np.abs(fast.z - dense.z).max() <= 1e-6


def dense_update_h(state, xa, target, **_):
    """Reference H step for orthonormal P: H mu (I + W W.T) = C with the
    vn x vn Gram factored densely. Takes T from `run`'s `target`, since
    E1's buffer holds T during the H step, and ignores its other keywords."""
    mu, vn = state.mu, state.z.shape[0]
    w = np.eye(vn) - state.z
    c = mu * (state.p.T @ target) - (state.y2 - mu * state.e2) @ w.T
    return spd_solve(mu * (np.eye(vn) + w @ w.T), c.T).T


def counting_cg(monkeypatch):
    """Route solver.gram_cg_solve through a wrapper; returns the list of
    its results' iteration counts, None for each give-up."""
    results = []
    cg = solver.gram_cg_solve

    def wrapper(*args, **kwargs):
        x, its = cg(*args, **kwargs)
        results.append(None if x is None else its)
        return x, its

    monkeypatch.setattr(solver, "gram_cg_solve", wrapper)
    return results


def dense_k8_aug(scale=1.0):
    """The dense-k8 benchmark data, its views scaled: vn = 600, d = 108."""
    ds = gen_synthetic(clusters=5, per_cluster=40, views=3, latent_dim=8,
                       view_dims=[40, 32, 36], noise_sigma=0.05, seed=0)
    xa = build_augmented(ds, default_pca_components(5, ds))
    return dataclasses.replace(xa, views=tuple(x * scale for x in xa.views))


@pytest.mark.parametrize("k", [8, 10])
@pytest.mark.parametrize("seed", [7, 8])
def test_run_cg_h_step_matches_dense_reference(monkeypatch, k, seed):
    # every H step here is solved by CG; at k = 10 a relative
    # stop of 1e-10 instead of 1e-12 drifts 2.7e-9 in objective here; the
    # check is of algebraic exactness, so it runs wholly in float64
    monkeypatch.setattr(solver, "VN2_DTYPE", np.float64)
    xa = dense_k8_aug()
    cfg = ElmscConfig(lam=1.0, latent_dim=k, seed=seed)
    cg_runs = counting_cg(monkeypatch)
    fast = run(xa, cfg)
    assert len(cg_runs) == len(fast.trace) and None not in cg_runs
    monkeypatch.setattr(solver, "update_h", dense_update_h)
    dense = run(xa, cfg)
    assert len(fast.trace) == len(dense.trace)
    obj_fast = np.array(fast.trace.objective)
    obj_dense = np.array(dense.trace.objective)
    assert np.all(np.abs(obj_fast - obj_dense) <= 1e-9 * np.abs(obj_dense))
    assert np.abs(fast.z - dense.z).max() <= 1e-9


def cg_iterations(monkeypatch, xa, cfg, form_warm_start):
    """Per-H-step CG iterations of one run; with form_warm_start, CG forms
    x0 W W.T itself instead of taking the H step's."""
    its = []
    cg = numerics.gram_cg_solve

    def wrapper(w, b, x0, x0ww=None):
        assert x0ww is not None
        x, it = cg(w, b, x0, x0ww=None if form_warm_start else x0ww)
        its.append(it)
        return x, it

    monkeypatch.setattr(solver, "gram_cg_solve", wrapper)
    assert len(run(xa, cfg).trace) == len(its)
    return its


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_cg_warm_start_from_the_e_step_costs_no_iterations(monkeypatch,
                                                               seed):
    # the H step takes H W W.T, CG's first residual term, from the last E
    # step's float64 H W = H - H Z; CG forming it in float32 from H takes
    # as many iterations per H step, never fewer
    xa, cfg = dense_k8_aug(), ElmscConfig(lam=1.0, latent_dim=8, seed=seed)
    given = cg_iterations(monkeypatch, xa, cfg, form_warm_start=False)
    formed = cg_iterations(monkeypatch, xa, cfg, form_warm_start=True)
    assert len(given) == len(formed)
    assert all(a <= b for a, b in zip(given, formed)), (given, formed)


@pytest.mark.parametrize("cap", [0, 1])
def test_run_cg_h_step_falls_back_to_dense_at_its_cap(monkeypatch, cap):
    # vn = 90, k = 2 takes the CG branch; with a cap of 0 every step falls
    # back, with 1 all but the first (W = I there, solved in one iteration);
    # the check is of algebraic exactness, so it runs wholly in float64
    monkeypatch.setattr(solver, "VN2_DTYPE", np.float64)
    xa, cfg = shaped_case([8, 6, 7], 3, "full")
    cfg = dataclasses.replace(cfg, latent_dim=2)
    ref = run(xa, cfg)
    monkeypatch.setattr(numerics, "CG_MAX_ITER", cap)
    cg_runs = counting_cg(monkeypatch)
    spd_calls = []
    monkeypatch.setattr(solver, "spd_solve",
                        lambda a, b: spd_calls.append(1) or spd_solve(a, b))
    capped = run(xa, cfg)
    iters = len(capped.trace)
    assert cg_runs == [1] * cap + [None] * (iters - cap)
    # the Z step solves its k x k system without spd_solve, so every call
    # is a dense H step
    assert len(spd_calls) == iters - cap
    monkeypatch.setattr(solver, "update_h", dense_update_h)
    dense = run(xa, cfg)
    assert iters == len(dense.trace) == len(ref.trace)
    obj_dense = np.array(dense.trace.objective)
    for out in (capped, ref):
        obj = np.array(out.trace.objective)
        assert np.all(np.abs(obj - obj_dense) <= 1e-9 * np.abs(obj_dense))
        assert np.abs(out.z - dense.z).max() <= 1e-9


# ---------------------------------------------------------------------------
# update_e
# ---------------------------------------------------------------------------

def e_stack_target(state, xa):
    return np.vstack([
        xa - state.p @ state.h + state.y1 / state.mu,
        state.h - state.h @ state.z + state.y2 / state.mu,
    ])


def test_update_e_zero_target_fixed_point():
    rng = np.random.default_rng(12)
    st = random_admm_state(rng, d=6, k=2, v=1, n=4)
    st.y1 = np.zeros_like(st.y1)
    st.y2 = np.zeros_like(st.y2)
    st.z = np.eye(4)  # h - h @ I = 0
    xa = st.p @ st.h  # xa - p h = 0
    e1, e2 = update_e(st, xa)
    assert not e1.any() and not e2.any()


def test_update_e_small_column_is_zeroed():
    rng = np.random.default_rng(13)
    st = random_admm_state(rng, d=4, k=2, v=1, n=3, mu=2.0)
    st.y1 = np.zeros_like(st.y1)
    st.y2 = np.zeros_like(st.y2)
    st.z = np.eye(3)
    xa = st.p @ st.h
    xa[:, 1] += 0.05  # column norm 0.1 <= 1/mu = 0.5
    e1, e2 = update_e(st, xa)
    assert not e1[:, 1].any() and not e2[:, 1].any()


def test_update_e_beats_endpoint_candidates():
    rng = np.random.default_rng(14)
    st = random_admm_state(rng, d=6, k=3, v=2, n=3, mu=1.7)
    xa = make_xa(rng, 6, 6)
    e1, e2 = update_e(st, xa)
    e = np.vstack([e1, e2])
    g = e_stack_target(st, xa)

    def value(cand):
        return (1 / st.mu) * np.linalg.norm(cand, axis=0).sum() \
            + 0.5 * np.sum((cand - g) ** 2)

    assert value(e) <= value(g) + 1e-12
    assert value(e) <= value(np.zeros_like(g)) + 1e-12


# ---------------------------------------------------------------------------
# update_j
# ---------------------------------------------------------------------------

def test_update_j_zero_lambda_passthrough():
    rng = np.random.default_rng(15)
    st = random_admm_state(rng, d=6, k=2, v=2, n=3)
    j = update_j(st, 0.0, 2, 3)
    assert np.array_equal(j, st.z - st.y3 / st.mu)


def test_update_j_full_offdiagonal_shrinkage():
    rng = np.random.default_rng(16)
    st = random_admm_state(rng, d=6, k=2, v=2, n=3, mu=1.0)
    m = st.z - st.y3 / st.mu
    lam = (np.abs(m).max() + 1.0) * st.mu
    j = update_j(st, lam, 2, 3)
    diag = block_diagonal_part(m, 2, 3)
    assert np.array_equal(j, diag)


def test_block_diagonal_part_rejects_a_matrix_of_another_shape():
    with pytest.raises(ValueError, match="expected a 6x6 matrix"):
        block_diagonal_part(np.ones((5, 5)), 2, 3)


def test_update_j_matches_entrywise_recomputation():
    rng = np.random.default_rng(17)
    st = random_admm_state(rng, d=6, k=2, v=2, n=3, mu=1.0)
    lam = 0.2  # lam/mu = 0.2
    j = update_j(st, lam, 2, 3)
    m = st.z - st.y3 / st.mu
    expected = np.empty_like(m)
    for a in range(6):
        for b in range(6):
            same_block = a // 3 == b // 3
            x = m[a, b]
            if same_block:
                expected[a, b] = x
            else:
                expected[a, b] = np.sign(x) * max(abs(x) - 0.2, 0.0)
    assert_allclose(j, expected, atol=1e-14)


# ---------------------------------------------------------------------------
# multipliers and residuals
# ---------------------------------------------------------------------------

def zero_residual_state(rng, d=5, k=2, v=1, n=4):
    """State whose three coupling residuals are exactly zero: the error
    matrices are defined as the computed residuals themselves."""
    st = random_admm_state(rng, d=d, k=k, v=v, n=n)
    st.j = st.z.copy()
    xa = make_xa(rng, d, v * n)
    st.e1 = xa - st.p @ st.h
    st.e2 = st.h - st.h @ st.z
    return st, xa


def test_multipliers_zero_residuals_scale_mu_only():
    rng = np.random.default_rng(18)
    st, xa = zero_residual_state(rng)
    y1, y2, y3, mu = st.y1.copy(), st.y2.copy(), st.y3.copy(), st.mu
    update_multipliers(st, xa)
    assert_allclose(st.y1, y1, atol=1e-12)
    assert_allclose(st.y2, y2, atol=1e-12)
    assert_allclose(st.y3, y3, atol=1e-12)
    assert st.mu == pytest.approx(mu * solver.RHO)


def test_multipliers_mu_clamped_at_max():
    rng = np.random.default_rng(19)
    st, xa = zero_residual_state(rng)
    st.mu = solver.MU_MAX
    update_multipliers(st, xa)
    assert st.mu == solver.MU_MAX


def test_multipliers_ascent_step_exact():
    rng = np.random.default_rng(20)
    st = random_admm_state(rng, d=6, k=2, v=2, n=3, mu=1.9)
    xa = make_xa(rng, 6, 6)
    y1_before = st.y1.copy()
    expected_step = st.mu * (xa - st.p @ st.h - st.e1)
    update_multipliers(st, xa)
    assert_allclose(st.y1 - y1_before, expected_step, atol=1e-12)


def test_residuals_zero_state():
    rng = np.random.default_rng(21)
    st, xa = zero_residual_state(rng)
    assert residuals(st, xa) == (0.0, 0.0, 0.0)


def test_residuals_max_entry():
    rng = np.random.default_rng(22)
    st, xa = zero_residual_state(rng)
    xa = xa.copy()
    xa[2, 1] += 0.7
    r1, _, _ = residuals(st, xa)
    assert r1 == pytest.approx(0.7, abs=1e-12)


def test_residuals_match_independent_recomputation():
    rng = np.random.default_rng(23)
    st = random_admm_state(rng, d=6, k=2, v=2, n=3)
    xa = make_xa(rng, 6, 6)
    r1, r2, r3 = residuals(st, xa)
    assert r1 == pytest.approx(
        np.linalg.norm(xa - st.p @ st.h - st.e1, axis=0).max(), rel=1e-14)
    assert r2 == np.abs(st.h - st.h @ st.z - st.e2).max()
    assert r3 == np.abs(st.j - st.z).max()


def test_residuals_r1_bounds_the_max_abs_entry_and_keeps_nan():
    # r1 is R1's largest column l2 norm, which a rotation of the rows
    # leaves unchanged; it bounds the max-abs entry from above
    rng = np.random.default_rng(24)
    st = random_admm_state(rng, d=6, k=2, v=2, n=3)
    xa = make_xa(rng, 6, 6)
    r1, _, _ = residuals(st, xa)
    assert r1 >= np.abs(xa - st.p @ st.h - st.e1).max()
    xa[4, 2] = np.nan
    assert np.isnan(residuals(st, xa)[0])


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def noiseless_two_cluster_aug(seed=0):
    ds = gen_synthetic(clusters=2, per_cluster=10, views=2, latent_dim=4,
                       view_dims=[8, 6], noise_sigma=0.0, seed=seed)
    return ds, build_augmented(ds, 4)


def test_run_converges_on_noiseless_synthetic():
    _, xa = noiseless_two_cluster_aug()
    cfg = ElmscConfig(lam=1.0, latent_dim=4, seed=0)
    out = run(xa, cfg)
    assert out.converged
    assert len(out.trace) <= 100
    assert out.trace.r1[-1] < 1e-3
    assert out.trace.r2[-1] < 1e-3
    assert out.trace.r3[-1] < 1e-3


def test_run_deterministic_traces():
    _, xa = noiseless_two_cluster_aug()
    cfg = ElmscConfig(lam=0.5, latent_dim=4, seed=3)
    a = run(xa, cfg)
    b = run(xa, cfg)
    assert a.trace.r1 == b.trace.r1
    assert a.trace.objective == b.trace.objective
    assert np.array_equal(a.z, b.z)


def test_run_trace_contract_on_convergence():
    _, xa = noiseless_two_cluster_aug(seed=5)
    cfg = ElmscConfig(lam=1.0, latent_dim=4, seed=5)
    out = run(xa, cfg)
    assert out.converged
    assert max(out.trace.r1[-1], out.trace.r2[-1], out.trace.r3[-1]) < cfg.tol


def test_run_mu_monotone_and_bounded():
    _, xa = noiseless_two_cluster_aug(seed=6)
    cfg = ElmscConfig(lam=1.0, latent_dim=4, seed=6)
    out = run(xa, cfg)
    mus = out.trace.mu
    assert all(b >= a for a, b in zip(mus, mus[1:]))
    assert mus[-1] <= solver.MU_MAX


def unreduced(xa, ablation):
    """X itself, never its views' factors, under v2 without its
    off-diagonal blocks."""
    return (dataclasses.replace(xa, aligned=()) if ablation == "v2"
            else xa).xa


def unfused_run(xa, cfg):
    """Reference loop: the standalone updates in the order P, H, Z, E, J, each
    forming its own terms, with no shared arguments and no reused buffers."""
    mat = unreduced(xa, cfg.ablation)
    v, n = xa.n_views, xa.n_samples
    lam = cfg.effective_lam
    st = init_state(xa, cfg)
    objs = []
    for _ in range(cfg.max_iter):
        st.p = update_p(st, mat)
        st.h = update_h(st, mat)
        st.z = update_z(st)
        st.e1, st.e2 = update_e(st, mat)
        st.j = update_j(st, lam, v, n)
        objs.append(objective(st, lam, v, n))
        res = residuals(st, mat)
        update_multipliers(st, mat)
        if max(res) < cfg.tol:
            break
    return st, objs


def shaped_case(view_dims, views, ablation, per_cluster=None,
                noise_sigma=0.1):
    """Three clusters of 18 samples each (two views) or 10 (three)."""
    if per_cluster is None:
        per_cluster = 36 // views if views == 2 else 10
    ds = gen_synthetic(clusters=3, per_cluster=per_cluster, views=views,
                       latent_dim=4, view_dims=view_dims,
                       noise_sigma=noise_sigma, seed=1)
    xa = build_augmented(ds, default_pca_components(3, ds))
    return xa, ElmscConfig(lam=0.5, latent_dim=4, seed=2, ablation=ablation)


# d = 70 > vn = 36 with k = 4: `run` solves on X = QR's R
REDUCED = dict(per_cluster=6)
# noiseless as well: X has rank 8
RANK_DEFICIENT = dict(per_cluster=6, noise_sigma=0.0)
# with view_dims [80, 12], d = 92 > vn = 60, and the second view has 12
# rows for 30 samples: under v2 its factor is padded with zero rows
PADDED = dict(per_cluster=10)


@pytest.mark.parametrize("view_dims,views,ablation,spec", [
    ([40, 30], 2, "full", {}),     # d = 70 < vn = 108
    ([8, 6, 7], 3, "full", {}),    # d = 21 < vn = 90
    ([8, 6, 7], 3, "v1", {}),
    ([40, 30], 2, "v2", {}),
    ([40, 30], 2, "full", REDUCED),
    ([40, 30], 2, "v2", REDUCED),
    ([40, 30], 2, "full", RANK_DEFICIENT),
    ([40, 30], 2, "v2", RANK_DEFICIENT),
    ([80, 12], 2, "v2", PADDED),
], ids=["wide", "tall", "tall-v1", "wide-v2", "reduced", "reduced-v2",
        "rank-deficient", "rank-deficient-v2", "padded-v2"])
def test_run_matches_unfused_reference(monkeypatch, view_dims, views,
                                      ablation, spec):
    # `run` holds J and Y3 implicitly (Y3 = -mu C after each J step), and
    # E1 and Y1 as column scalings of the E step's target, formed after the
    # last iteration; this rounds differently from the standalone steps.
    # The check is of algebraic exactness, so it runs wholly in float64 (in
    # float32 the objectives differ by up to 4.8e-8 relative). The
    # reference loop always runs on X itself, never on R
    monkeypatch.setattr(solver, "VN2_DTYPE", np.float64)
    xa, cfg = shaped_case(view_dims, views, ablation, **spec)
    fused = run(xa, cfg)
    ref, ref_objs = unfused_run(xa, cfg)
    assert len(fused.trace) == len(ref_objs)
    obj, ref_obj = np.array(fused.trace.objective), np.array(ref_objs)
    # the l2,1 term is exactly 0 while E is still zero
    assert np.all(np.abs(obj - ref_obj) <= 1e-9 * np.abs(ref_obj))
    state = fused.state
    if state.e1.shape != ref.e1.shape:  # solved on R: lift E1 and Y1 by Q
        q = solve_q(xa)
        state = dataclasses.replace(state, e1=q @ state.e1, y1=q @ state.y1)
    for name in ("z", "j", "y3", "e1", "e2", "y1", "y2"):
        assert np.abs(getattr(state, name)
                      - getattr(ref, name)).max() <= 1e-9, name


def dropping_buffers(fn):
    """The step as called without `run`'s buffer keyword, and with a copy
    of the A it is given, so that it reads no buffer it writes."""
    def wrapper(*args, out=None, **kwargs):
        if kwargs.get("a") is not None:
            kwargs["a"] = kwargs["a"].copy()
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("view_dims,views,ablation,spec", [
    ([40, 30], 2, "full", {}),     # d = 70 < vn = 108
    ([8, 6, 7], 3, "full", {}),    # d = 21 < vn = 90
    ([8, 6, 7], 3, "v1", {}),      # lam = 0: J shrinks by a zero threshold
    ([40, 30], 2, "full", REDUCED),
], ids=["wide", "tall", "tall-v1", "reduced"])
def test_run_buffer_reuse_is_bit_identical(monkeypatch, view_dims, views,
                                           ablation, spec):
    # the H step writes W, and the Z step Z, into Z's buffer, and the Z
    # step reads A from J's; each must run the same operations as when it
    # allocates, and none may read a buffer another step has already
    # overwritten
    xa, cfg = shaped_case(view_dims, views, ablation, **spec)
    reused = run(xa, cfg)
    for name in ("update_h", "update_z"):
        monkeypatch.setattr(solver, name, dropping_buffers(getattr(solver, name)))
    fresh = run(xa, cfg)
    for column in ("r1", "r2", "r3", "objective", "mu"):
        assert np.array_equal(getattr(reused.trace, column),
                              getattr(fresh.trace, column)), column
    for name in ("z", "j", "y3"):
        assert np.array_equal(getattr(reused.state, name),
                              getattr(fresh.state, name)), name


def warm_solve_peak(xa, cfg):
    """(output, tracemalloc peak in bytes) of a second solve: the first also
    allocates one-off library state."""
    run(xa, cfg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = run(xa, cfg)
        return out, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_run_reuses_init_state_buffers_without_raising_memory_peak(monkeypatch):
    made = []  # the arrays each fresh state started with

    def recording_init_state(xa, cfg):
        state = init_state(xa, cfg)
        made.append(dict(vars(state)))
        return state

    monkeypatch.setattr(solver, "init_state", recording_init_state)
    xa, cfg = shaped_case([8, 6, 7], 3, "full", per_cluster=30)
    fix_iterations(monkeypatch, 3)
    vn = xa.xa.shape[1]  # d = 21 < vn = 270
    out, peak = warm_solve_peak(xa, cfg)
    assert len(out.trace) == 3
    assert out.z is made[-1]["z"]
    # J's and Y3's buffers hold the J pass's terms and end with J and Y3,
    # and the other multipliers are updated in place
    for name in ("j", "y1", "y2", "y3"):
        assert getattr(out.state, name) is made[-1][name], name
    for name in ("z", "j", "y3"):
        assert getattr(out.state, name).dtype == np.float32, name
    # before the buffers were reused, this warm run peaked at 3,066,220
    # bytes, 5.2576 vn x vn float64 buffers: Z, J, Y3, B and B's Cholesky
    # copy (every H step was then the dense one); with float64 iterates and
    # reused buffers at 2,674,864 (4.59); with float32 Z, J, Y3 and a spare
    # at 1,581,378 (2.71); and with J and Y3 held implicitly and no spare at
    # 1,225,720 (2.10)
    assert peak / (8.0 * vn * vn) <= 2.15


def test_run_inside_reuse_buffers_allocates_less_than_one_vn2_buffer(
        monkeypatch):
    # the case above: inside the block Z, J, Y3, [E1; E2] and Y1 exist
    # already, and a warm run peaks at 241,096 bytes, 0.83 vn x vn float32
    # buffers, against 1,215,768 outside it
    xa, cfg = shaped_case([8, 6, 7], 3, "full", per_cluster=30)
    xa = solver.solve_matrix(xa, cfg)
    fix_iterations(monkeypatch, 3)
    vn = xa.xa.shape[1]
    with solver.reuse_buffers(xa, cfg.latent_dim):
        first = run(xa, cfg).state
        out, peak = warm_solve_peak(xa, cfg)
        for name in ("z", "j", "y3", "y1"):
            assert getattr(out.state, name) is getattr(first, name), name
        assert out.state.e1.base is first.e1.base
        # another k is another workspace: this solve allocates its own
        other = init_state(xa, dataclasses.replace(cfg, latent_dim=3))
        assert other.z is not first.z
    assert len(out.trace) == 3
    assert peak < vn * vn * np.dtype(solver.VN2_DTYPE).itemsize
    # the block holds nothing once it closes
    assert not solver._REUSED
    assert init_state(xa, cfg).z is not first.z


def test_init_state_zero_fills_the_reused_buffers():
    xa, cfg = shaped_case([8, 6, 7], 3, "full")
    xa = solver.solve_matrix(xa, cfg)
    with solver.reuse_buffers(xa, cfg.latent_dim):
        dirty = init_state(xa, cfg)
        for name in ("z", "j", "y3", "y1", "e1", "e2"):
            getattr(dirty, name)[...] = 1.0
        again = init_state(xa, cfg)
    assert again.z is dirty.z
    fresh = init_state(xa, cfg)
    for name in ("p", "h", "z", "e1", "e2", "j", "y1", "y2", "y3"):
        assert np.array_equal(getattr(again, name), getattr(fresh, name)), name
        assert getattr(again, name).dtype == getattr(fresh, name).dtype, name


def wide_aug():
    ds = gen_synthetic(clusters=3, per_cluster=20, views=2, latent_dim=4,
                       view_dims=[300, 240], noise_sigma=0.1, seed=1)
    return build_augmented(ds, default_pca_components(3, ds))


def test_run_dense_h_step_on_a_wide_input_stays_within_seven_vn2_buffers(
        monkeypatch):
    # k = 4 <= vn = 120 < d = 540: the solve runs on the views' factors, so
    # Y1 and E are vn x vn, and beside them it holds at most Z, J, Y3, B and
    # B's eigenvectors, in float32 and as a float64 copy; a CG cap of 0 makes
    # every H step the dense one, which forms them. This warm run peaks at
    # 786,266 bytes, 6.83 vn x vn float64 buffers (901,906 when each solve
    # took the QR of the whole X). On X itself it peaked at 1,606,050 bytes,
    # and at 2,459,950 while T and X - P H were fresh d x vn arrays and the
    # KKT check formed Y - E / safe whole; the near-square test below guards
    # those row panels unreduced
    xa = wide_aug()
    vn = xa.n_views * xa.n_samples
    cfg = ElmscConfig(lam=0.5, latent_dim=4, seed=2)
    fix_iterations(monkeypatch, 3)
    monkeypatch.setattr(numerics, "CG_MAX_ITER", 0)
    out, peak = warm_solve_peak(xa, cfg)
    assert len(out.trace) == 3
    assert out.state.y1.shape == (vn, vn)
    assert peak <= 8.0 * 7 * vn * vn


def test_run_on_a_wide_input_holds_no_d_by_vn_array(monkeypatch):
    # the solve on the views' factors holds every iterate at vn rows, and
    # the matrix keeps those factors, so a warm solve forms no d x vn array
    xa = wide_aug()
    vn = xa.n_views * xa.n_samples
    fix_iterations(monkeypatch, 3)
    out, peak = warm_solve_peak(xa, ElmscConfig(lam=0.5, latent_dim=4, seed=2))
    assert len(out.trace) == 3
    assert out.state.y1.shape == (vn, vn)
    # it peaks at 531,440 bytes, against 651,240 when each solve took the
    # QR of the whole X, and 1,351,320 on X itself
    assert peak <= 8.0 * 5 * vn * vn


def test_run_on_a_near_square_input_forms_no_d_by_vn_temporary(monkeypatch):
    # d = 270 < vn = 280, so the solve runs on X itself: T, the E step and
    # the KKT check go by row panels. The warm run peaks at about 4.24
    # d x vn buffers (2,563,000 bytes); a whole-array T or E-step term
    # Y1/mu takes it to 4.65 (2,812,000), and a whole-array R1 or KKT gap
    # Y - E / safe to 5.66 or more
    ds = gen_synthetic(clusters=2, per_cluster=70, views=2, latent_dim=4,
                       view_dims=[150, 120], noise_sigma=0.1, seed=1)
    xa = build_augmented(ds, default_pca_components(2, ds))
    d, vn = xa.xa.shape
    fix_iterations(monkeypatch, 3)
    out, peak = warm_solve_peak(xa, ElmscConfig(lam=0.5, latent_dim=4, seed=2))
    assert len(out.trace) == 3
    assert out.state.y1.shape == (d, vn) == (270, 280)
    assert peak <= 8.0 * 4.45 * d * vn


def solve_q(xa):
    """The Q = blockdiag(Q_p) of X = QR that `solve_matrix` factors without
    forming it, under every ablation (each view has at least n rows here,
    so no padding column is needed)."""
    n = xa.n_samples
    q = np.zeros((sum(xa.view_dims), xa.n_views * n))
    for l, (r0, view) in enumerate(zip(xa.block_rows, xa.views)):
        ql = np.linalg.qr(view)[0]
        q[r0:r0 + len(ql), l * n:l * n + ql.shape[1]] = ql
    return q


@pytest.mark.parametrize("ablation", ["full", "v2"])
def test_reduced_state_lifted_by_q_has_the_reported_kkt_gaps(ablation):
    xa, cfg = shaped_case([40, 30], 2, ablation, **REDUCED)
    mat = unreduced(xa, ablation)
    out = run(xa, cfg)
    q = solve_q(xa)
    lifted = dataclasses.replace(out.state, p=q @ out.state.p,
                                 e1=q @ out.state.e1, y1=q @ out.state.y1)
    kkt = kkt_residuals(lifted, mat, cfg.effective_lam,
                        xa.n_views, xa.n_samples)
    # a gap at rounding level (the e_gap reads about 5e-14) is compared
    # absolutely, at 1e-9 of the stop tolerance
    assert_allclose(kkt.as_tuple(), out.kkt.as_tuple(), rtol=1e-9,
                    atol=1e-9 * cfg.tol)


@pytest.mark.parametrize("view_dims,ablation,spec", [
    ([40, 30], "full", {}),        # d = 70 < vn = 108
    ([40, 30], "v1", {}),
    ([40, 30], "v2", {}),
    ([40, 30], "full", REDUCED),   # d = 70 > vn = 36
    ([40, 30], "v1", REDUCED),
    ([40, 30], "v2", REDUCED),
    ([80, 12], "v2", PADDED),
], ids=["full", "v1", "v2", "reduced", "reduced-v1", "reduced-v2",
        "padded-v2"])
def test_solve_matrix_is_idempotent_and_run_passes_it_through(
        view_dims, ablation, spec):
    # cli forms the matrix once per run and each trial's run forms it again
    # from that: both must be the first result, to the bit
    xa, cfg = shaped_case(view_dims, 2, ablation, **spec)
    once = solver.solve_matrix(xa, cfg)
    twice = solver.solve_matrix(once, cfg)
    reduced = bool(spec)  # d > vn >= k
    assert once.xa.shape[0] == (xa.xa.shape[1] if reduced else xa.xa.shape[0])
    assert twice is once
    assert (once is xa) == (ablation != "v2" and not reduced)
    assert np.array_equal(twice.xa, once.xa)
    assert twice.block_rows == once.block_rows
    assert twice.pca_dim == once.pca_dim == xa.pca_dim
    direct, passed = run(xa, cfg), run(once, cfg)
    for column in ("r1", "r2", "r3", "objective", "mu"):
        assert np.array_equal(getattr(direct.trace, column),
                              getattr(passed.trace, column)), column
    for name in ("p", "h", "z", "e1", "e2", "j", "y1", "y2", "y3"):
        assert np.array_equal(getattr(direct.state, name),
                              getattr(passed.state, name)), name
    assert direct.kkt == passed.kkt


@pytest.mark.parametrize("ablation", ["full", "v2"])
def test_solve_matrix_refuses_k_above_d_before_factoring_or_copying(
        monkeypatch, ablation):
    # d = 70 > vn = 36: the one check of k, before the QR that a k <= vn
    # takes and before any matrix is formed
    xa, cfg = shaped_case([40, 30], 2, ablation, **REDUCED)
    d = sum(xa.view_dims)

    def forbidden(*args, **kwargs):
        raise AssertionError("reached past the latent_dim check")

    monkeypatch.setattr(np.linalg, "qr", forbidden)
    monkeypatch.setattr(AugmentedMatrix, "xa", property(forbidden))
    cfg = dataclasses.replace(cfg, latent_dim=d + 1)
    message = f"latent_dim={d + 1} exceeds the stacked feature dimension d={d}"
    with pytest.raises(ValueError, match=message):
        solver.solve_matrix(xa, cfg)
    with pytest.raises(ValueError, match=message):
        run(xa, cfg)


@pytest.mark.parametrize("ablation", ["full", "v2"])
def test_solve_matrix_factors_each_view_on_its_own_block(ablation):
    # view 2 has 12 rows for 30 samples: its factor fills 12 of its block
    # row's 30 rows, and Y.T Y = X.T X, under v2 for the block-diagonal X
    xa, cfg = shaped_case([80, 12], 2, ablation, **PADDED)
    y = solver.solve_matrix(xa, cfg).xa
    n, mat = xa.n_samples, unreduced(xa, ablation)
    assert y.shape == (2 * n, 2 * n)
    if ablation == "v2":
        assert np.array_equal(y, block_diagonal_part(y, 2, n))
    assert not y[n + 12:].any()
    assert_allclose(y.T @ y, mat.T @ mat, atol=1e-12 * np.abs(mat).max() ** 2)


def test_run_solves_unreduced_when_k_exceeds_vn():
    ds = gen_synthetic(clusters=2, per_cluster=5, views=2, latent_dim=4,
                       view_dims=[40, 30], noise_sigma=0.1, seed=1)
    xa = build_augmented(ds, default_pca_components(2, ds))
    d, vn = xa.xa.shape  # d = 70 >= k = 25 > vn = 20
    out = run(xa, ElmscConfig(lam=0.5, latent_dim=25, seed=2))
    assert out.converged
    assert out.state.p.shape == (d, 25)
    assert out.state.y1.shape == (d, vn)


NOISY_FAMILY = dict(clusters=5, per_cluster=40, views=3, latent_dim=8,
                    view_dims=[40, 32, 36], noise_sigma=0.05)


@pytest.mark.parametrize("seed", [1, 2, 4])
def test_run_float32_iterates_keep_the_float64_gaps_exact(seed):
    # acceptance criterion 3's family at seeds that take 16 iterations.
    # With X, E and Y1 in float32 too, Y1/mu (about 2e-4) is lost against X
    # (about 800) and the final e_gap reads 2e-2 to 6e-2; with H in float32
    # it reads 2e-4 to 3e-4; with H - H Z formed in float32 the traced r2
    # misreads the float64 gap by 1.4e-3 to 1.5e-3
    ds = gen_synthetic(seed=seed, **NOISY_FAMILY)
    xa = build_augmented(ds, default_pca_components(5, ds))
    out = run(xa, ElmscConfig(lam=1.0, latent_dim=8, seed=seed))
    st = out.state
    assert st.z.dtype == np.float32
    assert out.kkt.e_gap <= 1e-6
    r2 = np.abs(st.h - st.h @ st.z.astype(np.float64) - st.e2).max()
    assert abs(out.trace.r2[-1] - r2) <= 1e-6


def ten_cluster_aug():
    """The 10-cluster spec: vn = 600, d = 330."""
    ds = gen_synthetic(clusters=10, per_cluster=20, views=3, latent_dim=30,
                       view_dims=[120, 100, 110], noise_sigma=0.1, seed=0)
    return build_augmented(ds, default_pca_components(10, ds))


@pytest.mark.parametrize("case", ["dense-k8", "ten-cluster-k100-lam1000",
                                  "ten-cluster-k100-lam1000-dense"])
def test_run_float32_iterates_match_a_float64_solve(monkeypatch, case):
    # every H step is solved by CG, except in the "-dense" case, where a CG
    # cap of 0 makes it the dense fallback, spd_solve's eigendecomposition.
    # In the CG case at k = 100 the float32 solve's CG tolerance (1.19e-5
    # against 1e-12) spreads the objective gap over solver seeds, from
    # 5.7e-5 at seed 0 to 1.24e-4 at seed 1, so the bound holds the median
    # over seeds 0-5; the dense step reads <= 2.4e-6 at every seed
    seeds = [0]
    if case == "dense-k8":
        xa, cfg, c = dense_k8_aug(), ElmscConfig(lam=1.0, latent_dim=8), 5
    else:
        if case.endswith("-dense"):
            monkeypatch.setattr(numerics, "CG_MAX_ITER", 0)
        else:
            seeds = range(6)
        xa, cfg, c = ten_cluster_aug(), ElmscConfig(lam=1000.0,
                                                    latent_dim=100), 10
    gaps = []
    for seed in seeds:
        cfg = dataclasses.replace(cfg, seed=seed)
        outs, labels = [], []
        for dtype in (np.float64, np.float32):
            monkeypatch.setattr(solver, "VN2_DTYPE", dtype)
            out = run(xa, cfg)
            assert out.z.dtype == dtype
            zhat = aggregate_z(out.z, xa.n_views, xa.n_samples)
            labels.append(cluster(zhat, c, seed=cfg.seed).labels)
            outs.append(out)
        ref, single = outs
        assert len(single.trace) == len(ref.trace)
        assert np.array_equal(*labels)
        obj, ref_obj = single.trace.objective[-1], ref.trace.objective[-1]
        gaps.append(abs(obj - ref_obj) / abs(ref_obj))
        # acceptance criterion 3's limit
        assert max(single.kkt.as_tuple()) <= 1e-2
        if cfg.lam == 1000.0:
            # Y3 = -mu C by construction: one float32 ulp of lam, 6.1e-5.
            # Formed by the dual step Y3 += mu (J - Z) at mu = 1e6, it read
            # 4.3e-4
            assert single.kkt.j_gap <= 1e-4
    assert np.median(gaps) <= 1e-4


def test_run_cg_h_step_solves_the_paper_grids_largest_k(monkeypatch):
    # k = 200, lam = 1000 is the slowest cell of the paper's lam x k grid;
    # warm-started CG solves every H step there, so no run forms the
    # vn x vn Gram for the dense solve
    cg_runs = counting_cg(monkeypatch)
    spd_calls = []
    monkeypatch.setattr(solver, "spd_solve",
                        lambda a, b: spd_calls.append(1) or spd_solve(a, b))
    out = run(ten_cluster_aug(), ElmscConfig(lam=1000.0, latent_dim=200))
    assert len(cg_runs) == len(out.trace) and None not in cg_runs
    assert not spd_calls


def test_run_divergence_is_numerical_error_naming_iteration():
    # an input this large overflows H H.T in the first Z step; the finiteness
    # guard must surface as a NumericalError (CLI exit 3), not a ValueError
    _, xa = noiseless_two_cluster_aug()
    big = dataclasses.replace(xa, views=tuple(x * 1e160 for x in xa.views))
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as info:
        run(big, ElmscConfig(lam=1.0, latent_dim=4, seed=0))
    assert not isinstance(info.value, ValueError)
    assert str(info.value).startswith("iteration 1: ")
    assert "NaN/Inf" in str(info.value)


def test_run_divergence_on_the_cg_h_step_is_numerical_error(monkeypatch):
    # the same guard on dense-k8's shape: CG gives up
    # on the overflowing norms, and the dense path and Z step keep the
    # NaN/Inf check
    cg_runs = counting_cg(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(NumericalError) as info:
        run(dense_k8_aug(1e160), ElmscConfig(lam=1.0, latent_dim=8, seed=0))
    assert cg_runs
    assert not isinstance(info.value, ValueError)
    assert str(info.value).startswith("iteration 1: ")
    assert "NaN/Inf" in str(info.value)


def test_run_keeps_p_orthonormal_on_rank_deficient_procrustes_input(
        monkeypatch):
    # a rank-1 X keeps H T.T rank-deficient at every iteration: every view
    # is a multiple of one row b, and every S the identity
    rng = np.random.default_rng(0)
    b = rng.standard_normal(20)
    ds = MultiViewDataset(views=[np.outer(rng.standard_normal(dp), b)
                                 for dp in (8, 6)])
    low = build_augmented(ds, 1, identity_similarity=True)
    cfg = ElmscConfig(lam=1.0, latent_dim=4, seed=0)
    fix_iterations(monkeypatch, 5)
    out = run(low, cfg)
    assert len(out.trace) == 5
    p = out.state.p
    assert_allclose(p.T @ p, np.eye(p.shape[1]), atol=1e-10)


def test_run_single_view_v2_ablation_identical_to_full():
    ds = gen_synthetic(clusters=2, per_cluster=8, views=1, latent_dim=3,
                       view_dims=[7], noise_sigma=0.0, seed=7)
    xa = build_augmented(ds, 3)
    full = run(xa, ElmscConfig(lam=1.0, latent_dim=3, seed=7))
    v2 = run(xa, ElmscConfig(lam=1.0, latent_dim=3, seed=7, ablation="v2"))
    assert np.array_equal(full.z, v2.z)
    assert np.array_equal(full.state.h, v2.state.h)
    assert full.trace.r1 == v2.trace.r1


def test_run_v1_ablation_equals_lam_zero():
    _, xa = noiseless_two_cluster_aug(seed=8)
    v1 = run(xa, ElmscConfig(lam=5.0, latent_dim=4, seed=8, ablation="v1"))
    lam0 = run(xa, ElmscConfig(lam=0.0, latent_dim=4, seed=8))
    assert np.array_equal(v1.z, lam0.z)


# ---------------------------------------------------------------------------
# subproblem descent invariant (all five updates)
# ---------------------------------------------------------------------------

def j_subproblem_value(j, state, lam, v, n):
    off = j - block_diagonal_part(j, v, n)
    return lam * np.abs(off).sum() + phi(state.y3, j - state.z, state.mu)


def e_subproblem_value(e1, e2, state, xa):
    e = np.vstack([e1, e2])
    return (
        np.linalg.norm(e, axis=0).sum()
        + phi(state.y1, xa - state.p @ state.h - e1, state.mu)
        + phi(state.y2, state.h - state.h @ state.z - e2, state.mu)
    )


def test_every_update_weakly_decreases_its_subproblem():
    rng = np.random.default_rng(24)
    lam = 0.4
    for _ in range(8):
        d, k, v, n = 8, 3, 2, 4
        st = random_admm_state(rng, d=d, k=k, v=v, n=n, mu=1.2)
        xa = make_xa(rng, d, v * n)

        before = p_subproblem_value(st.p, st, xa)
        st.p = update_p(st, xa)
        assert p_subproblem_value(st.p, st, xa) <= before + 1e-9

        before = h_subproblem_value(st.h, st, xa)
        st.h = update_h(st, xa)
        assert h_subproblem_value(st.h, st, xa) <= before + 1e-9

        before = z_subproblem_value(st.z, st)
        st.z = update_z(st)
        assert z_subproblem_value(st.z, st) <= before + 1e-9

        before = e_subproblem_value(st.e1, st.e2, st, xa)
        st.e1, st.e2 = update_e(st, xa)
        assert e_subproblem_value(st.e1, st.e2, st, xa) <= before + 1e-9

        before = j_subproblem_value(st.j, st, lam, v, n)
        st.j = update_j(st, lam, v, n)
        assert j_subproblem_value(st.j, st, lam, v, n) <= before + 1e-9


# ---------------------------------------------------------------------------
# aggregate_z
# ---------------------------------------------------------------------------

def test_aggregate_single_view_identity():
    rng = np.random.default_rng(25)
    z = rng.standard_normal((7, 7))
    assert np.array_equal(aggregate_z(z, 1, 7), z)


def test_aggregate_identity_blocks():
    assert_allclose(aggregate_z(np.eye(12), 3, 4), 3 * np.eye(4), atol=1e-15)


def test_aggregate_matches_nested_loop_oracle():
    rng = np.random.default_rng(26)
    v, n = 2, 5
    z = rng.standard_normal((v * n, v * n))
    expected = np.zeros((n, n))
    for i in range(v):
        for j in range(v):
            expected += z[i * n:(i + 1) * n, j * n:(j + 1) * n]
    assert_allclose(aggregate_z(z, v, n), expected, atol=1e-12)


def test_aggregate_linearity():
    rng = np.random.default_rng(27)
    a = rng.standard_normal((6, 6))
    b = rng.standard_normal((6, 6))
    assert_allclose(
        aggregate_z(a + b, 2, 3),
        aggregate_z(a, 2, 3) + aggregate_z(b, 2, 3),
        atol=1e-12,
    )


def test_aggregate_dimension_contract():
    with pytest.raises(ValueError):
        aggregate_z(np.ones((7, 7)), 2, 3)


# ---------------------------------------------------------------------------
# kkt_residuals
# ---------------------------------------------------------------------------

def test_kkt_gaps_small_after_converged_run():
    ds, xa = noiseless_two_cluster_aug(seed=9)
    cfg = ElmscConfig(lam=1.0, latent_dim=4, seed=9)
    out = run(xa, cfg)
    assert out.converged
    report = kkt_residuals(out.state, xa.xa, cfg.effective_lam,
                           xa.n_views, xa.n_samples)
    assert all(g <= 10 * cfg.tol for g in report.as_tuple())


def test_kkt_gaps_small_for_v2_ablation_against_effective_data():
    ds, xa = noiseless_two_cluster_aug(seed=12)
    cfg = ElmscConfig(lam=1.0, latent_dim=4, seed=12, ablation="v2")
    out = run(xa, cfg)
    assert out.converged
    # run's report is taken against the block-diagonal matrix it solved on
    assert all(g <= 10 * cfg.tol for g in out.kkt.as_tuple())
    # against the raw matrix the reconstruction gap would be large
    raw = kkt_residuals(out.state, xa.xa, cfg.effective_lam,
                        xa.n_views, xa.n_samples)
    assert raw.recon > 10 * cfg.tol


@pytest.mark.parametrize("ablation", ["full", "v1", "v2"])
def test_run_reports_kkt_against_the_matrix_and_lam_it_solved_with(
        monkeypatch, ablation):
    # v1 solves with lam treated as 0, v2 on the block-diagonal part
    _, xa = noiseless_two_cluster_aug(seed=13)
    cfg = ElmscConfig(lam=1.0, latent_dim=4, seed=13, ablation=ablation)
    fix_iterations(monkeypatch, 2)
    out = run(xa, cfg)
    mat = unreduced(xa, ablation)
    assert out.kkt == kkt_residuals(out.state, mat, cfg.effective_lam,
                                    xa.n_views, xa.n_samples)


def test_kkt_l21_membership_active_columns():
    rng = np.random.default_rng(28)
    st, xa = zero_residual_state(rng, d=4, k=2, v=1, n=3)
    e = np.vstack([st.e1, st.e2])
    norms = np.linalg.norm(e, axis=0)
    assert np.all(norms > 0)
    y = e / norms  # exact subgradient column per column
    st.y1, st.y2 = y[:4], y[4:]
    report = kkt_residuals(st, xa, 0.5, 1, 3)
    assert report.e_gap == pytest.approx(0.0, abs=1e-12)


def test_kkt_l21_membership_zero_column_inside_ball():
    rng = np.random.default_rng(29)
    st, xa = zero_residual_state(rng, d=4, k=2, v=1, n=3)
    st.e1 = np.zeros_like(st.e1)
    st.e2 = np.zeros_like(st.e2)
    y = rng.standard_normal((6, 3))
    y /= np.linalg.norm(y, axis=0) * 2  # every column norm 0.5 <= 1
    st.y1, st.y2 = y[:4], y[4:]
    report = kkt_residuals(st, xa, 0.5, 1, 3)
    assert report.e_gap == 0.0


def test_kkt_j_gap_zero_for_shrinkage_consistent_state():
    # after one exact J-update + multiplier step the l1 condition holds
    rng = np.random.default_rng(30)
    st = random_admm_state(rng, d=6, k=2, v=2, n=3, mu=1.5)
    cfg = ElmscConfig(lam=0.3, latent_dim=2)
    st.j = update_j(st, cfg.lam, 2, 3)
    xa = make_xa(rng, 6, 6)
    update_multipliers(st, xa)
    report = kkt_residuals(st, xa, cfg.lam, 2, 3)
    assert report.j_gap <= 1e-10


@pytest.mark.parametrize("zero_col_norm", [0.5, 5.0])
@pytest.mark.parametrize("spike", ["diagonal", "active", "inactive"])
def test_kkt_dual_gaps_match_columnwise_and_entrywise_oracles(zero_col_norm,
                                                              spike):
    # zero and nonzero E columns side by side, and exact zeros inside J's
    # off-diagonal blocks; the zero columns' multipliers sit inside the
    # unit ball or decide the e_gap, and a spike in Y3 makes one kind of
    # J entry decide the j_gap
    rng = np.random.default_rng(32)
    v, n, lam = 3, 4, 0.3
    vn = v * n
    st = random_admm_state(rng, d=5, k=2, v=v, n=n)
    xa = make_xa(rng, 5, vn)
    for e in (st.e1, st.e2):
        e[:, [1, 6]] = 0.0
    y = np.vstack([st.y1, st.y2])
    y[:, [1, 6]] *= zero_col_norm / np.linalg.norm(y[:, [1, 6]], axis=0)
    st.y1, st.y2 = y[:5], y[5:]
    off = np.kron(1 - np.eye(v), np.ones((n, n))).astype(bool)
    st.j[off & (rng.random((vn, vn)) < 0.5)] = 0.0
    st.j[0, n], st.j[0, 2 * n] = 0.0, 0.5
    where = {"diagonal": (0, 1), "active": (0, 2 * n), "inactive": (0, n)}
    st.y3[where[spike]] = 7.0
    report = kkt_residuals(st, xa, lam, v, n)

    e = np.vstack([st.e1, st.e2])
    e_gap = 0.0
    for c in range(vn):
        norm = np.linalg.norm(e[:, c])
        if norm > 0:
            e_gap = max(e_gap, np.linalg.norm(y[:, c] - e[:, c] / norm))
        else:
            e_gap = max(e_gap, np.linalg.norm(y[:, c]) - 1.0)
    j_gap = 0.0
    for a in range(vn):
        for b in range(vn):
            y3, j = st.y3[a, b], st.j[a, b]
            if a // n == b // n:
                j_gap = max(j_gap, abs(y3))
            elif j != 0:
                j_gap = max(j_gap, abs(y3 + lam * np.sign(j)))
            else:
                j_gap = max(j_gap, abs(y3) - lam)
    assert report.e_gap == pytest.approx(e_gap, rel=1e-12)
    if zero_col_norm > 1:
        assert report.e_gap == pytest.approx(zero_col_norm - 1.0, rel=1e-12)
    assert report.j_gap == pytest.approx(j_gap, rel=1e-12)
    assert report.j_gap == pytest.approx(
        {"diagonal": 7.0, "active": 7.0 + lam, "inactive": 7.0 - lam}[spike],
        rel=1e-12)


def j_gap_by_temporaries(state, lam, v, n):
    """kkt_residuals' j_gap with fresh temporaries per block, about five
    n x n at once: the reference that its two-scratch loop must match bit
    for bit."""
    lam = state.y3.dtype.type(lam)
    y3, j = state.y3.reshape(v, n, v, n), state.j.reshape(v, n, v, n)
    j_gap = 0.0
    for a, b in np.ndindex(v, v):
        w = lam * (a != b)
        sgn = np.sign(j[a, :, b])
        gap = np.abs(y3[a, :, b] + w * sgn)
        gap -= w * (1 - np.abs(sgn))
        j_gap = max(j_gap, float(gap.max(initial=0.0)))
    return j_gap


def j_gap_peak(fn, *args):
    """(fn's result, its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lam", [0.0, 1.0, 1000.0])
@pytest.mark.parametrize("poison", [None, "j-nan", "j-inf", "y3-nan",
                                    "y3-inf"])
def test_kkt_j_gap_matches_the_temporaries_loop_in_two_scratches(
        dtype, lam, poison):
    # J with exact zeros, as a J pass leaves off the diagonal blocks, and
    # |Y3| on both sides of lam. A NaN in a block of J makes that block's
    # gap NaN, which the running max passes over, so a diagonal block's
    # gap is max |Y3| only where J has no NaN there
    rng = np.random.default_rng(36)
    v, n = 3, 200
    st = random_admm_state(rng, d=5, k=2, v=v, n=n)
    st.j[np.abs(st.j) < 0.03] = 0.0
    st.j, st.y3 = st.j.astype(dtype), (st.y3 * 10 * (lam + 0.1)).astype(dtype)
    spike = {"j-nan": ("j", np.nan), "j-inf": ("j", np.inf),
             "y3-nan": ("y3", np.nan), "y3-inf": ("y3", -np.inf)}
    if poison is not None:
        name, value = spike[poison]
        getattr(st, name)[3, 5] = value  # in diagonal block (0, 0)
        st.y3[4, 6] = 1e5  # the largest |Y3|, in the same block
    oracle, oracle_peak = j_gap_peak(j_gap_by_temporaries, st, lam, v, n)
    report, peak = j_gap_peak(kkt_residuals, st, None, lam, v, n,
                              (0.0, 0.0, 0.0))
    assert report.j_gap == oracle
    if poison in ("j-nan", "y3-nan"):
        assert report.j_gap < 1e5  # block (0, 0)'s gap is NaN, passed over
    elif poison is not None:
        assert report.j_gap == {"j-inf": 1e5, "y3-inf": np.inf}[poison]
    # two n x n scratches and the e_gap's panel, against about five
    # temporaries at once before
    unit = n * n * np.dtype(dtype).itemsize
    assert peak <= 2.5 * unit < oracle_peak, (peak / unit, oracle_peak / unit)


# ---------------------------------------------------------------------------
# objective and trace export
# ---------------------------------------------------------------------------

def test_objective_value_composition():
    rng = np.random.default_rng(31)
    st = random_admm_state(rng, d=6, k=2, v=2, n=3)
    lam = 0.7
    e = np.vstack([st.e1, st.e2])
    expected = np.linalg.norm(e, axis=0).sum() + lam * np.abs(
        st.z - block_diagonal_part(st.z, 2, 3)
    ).sum()
    assert objective(st, lam, 2, 3) == pytest.approx(expected)


def test_trace_csv_roundtrip(tmp_path):
    _, xa = noiseless_two_cluster_aug(seed=10)
    out = run(xa, ElmscConfig(lam=1.0, latent_dim=4, seed=10))
    path = tmp_path / "trace.csv"
    out.trace.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "iter,r1,r2,r3,objective,mu"
    assert len(rows) == len(out.trace) + 1
    first = rows[1].split(",")
    assert int(first[0]) == 1
    assert float(first[1]) == out.trace.r1[0]
