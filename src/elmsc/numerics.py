"""Dense-matrix kernels and proximal operators used throughout the toolkit.

Precision follows the input: a float32 array is worked on and returned in
float32, anything else in float64, and the NaN/Inf checks hold for both.
Factorizations go to LAPACK through numpy, and spd_solve's Cholesky through
scipy.linalg, imported on first use; the Sylvester solver and the proximal
operators are here.
"""

import numpy as np

SYLVESTER_SINGULAR_TOL = 1e-12


class NumericalError(RuntimeError):
    """A factorization or iterative kernel failed to produce a result."""


class SylvesterSingularError(NumericalError):
    """The spectral pair of a Sylvester system is (near-)singular."""

    def __init__(self, alpha, beta, i, j):
        self.alpha = alpha
        self.beta = beta
        super().__init__(
            f"singular Sylvester spectrum: alpha[{i}]={alpha:.6e} + "
            f"beta[{j}]={beta:.6e} = {alpha + beta:.6e}"
        )


class NonFiniteError(NumericalError, ValueError):
    """A kernel input holds NaN/Inf entries.

    A ValueError, as a contract violation, and a NumericalError, because
    inside the solver it means the iterate has overflowed.
    """


def _float_array(m):
    """m as an array in its own precision: float32 stays, all else float64."""
    m = np.asarray(m)
    return m if m.dtype == np.float32 else m.astype(np.float64, copy=False)


def _as_matrix(m, name="matrix"):
    m = _float_array(m)
    if m.ndim != 2 or m.size == 0:
        raise ValueError(f"{name} must be a nonempty 2-d array, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{name} contains NaN/Inf entries")
    return m


def svd(m):
    """Thin SVD of a dense matrix as numpy's (u, s, vt), s nonincreasing."""
    m = _as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"SVD failed to converge on a {m.shape[0]}x{m.shape[1]} matrix"
        ) from exc
    return u, s, vt


def sym_eig(m):
    """Eigenvalues, ascending, and eigenvectors (lam, q) of a symmetric matrix.

    The input is symmetrized internally; asymmetry beyond
    1e-8 * max|m| is rejected as a contract violation.
    """
    m = _as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"sym_eig requires a square matrix, got shape {m.shape}")
    scale = np.abs(m).max()
    defect = np.abs(m - m.T).max()
    if defect > 1e-8 * max(scale, 1e-300):
        raise ValueError(
            f"matrix is not symmetric: max|m - m.T| = {defect:.3e} "
            f"exceeds 1e-8 * max|m| = {1e-8 * scale:.3e}"
        )
    sym = 0.5 * (m + m.T)
    try:
        lam, q = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigendecomposition failed on a {m.shape[0]}x{m.shape[0]} matrix"
        ) from exc
    return lam, q


def solve_sylvester(a, b, c):
    """Solve a @ H + H @ b = c for symmetric a (k x k) and b (m x m).

    Both sides are diagonalized, c is transformed into the joint eigenbasis,
    divided entrywise by alpha_i + beta_j, and transformed back. Raises
    SylvesterSingularError when |alpha_i + beta_j| <= SYLVESTER_SINGULAR_TOL.
    """
    a = _as_matrix(a, "a")
    b = _as_matrix(b, "b")
    c = _as_matrix(c, "c")
    if a.shape[0] != a.shape[1] or b.shape[0] != b.shape[1]:
        raise ValueError("a and b must be square")
    if c.shape != (a.shape[0], b.shape[0]):
        raise ValueError(
            f"c must be {a.shape[0]}x{b.shape[0]}, got {c.shape[0]}x{c.shape[1]}"
        )
    lam_a, qa = sym_eig(a)
    lam_b, qb = sym_eig(b)
    denom = lam_a[:, None] + lam_b[None, :]
    bad = np.abs(denom) <= SYLVESTER_SINGULAR_TOL
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise SylvesterSingularError(lam_a[i], lam_b[j], int(i), int(j))
    f = qa.T @ c @ qb
    return qa @ (f / denom) @ qb.T


def orthogonal_procrustes(k):
    """Row-orthonormal maximizer of trace(R @ k.T) for an r x c input, r <= c.

    R = u @ vt from the thin SVD k = u s vt, taken through the reduced QR
    k.T = q t: with u s wt the SVD of the r x r t.T, R = (u @ wt) @ q.T.
    (An eigh of k @ k.T would square the condition number.) R @ R.T = I_r
    holds for any input, including rank-deficient ones.
    """
    k = _as_matrix(k, "k")
    r, c = k.shape
    if r > c:
        raise ValueError(f"procrustes input must have rows <= cols, got {r}x{c}")
    q, t = np.linalg.qr(k.T)
    u, _, wt = svd(t.T)
    return (u @ wt) @ q.T


def soft_threshold(m, eta, out=None):
    """Elementwise shrinkage (|x| - eta)_+ * sgn(x).

    Computed as x - clip(x, -eta, eta), which gives the same bits on every
    entry beyond the threshold and zero on the others, with one temporary.
    The result goes to `out` when given, which may hold anything but must
    not be m itself: the clip is written there before m is read again.
    """
    if eta < 0:
        raise ValueError(f"threshold must be nonnegative, got {eta}")
    m = _float_array(m)
    out = np.clip(m, -eta, eta, out=out)
    return np.subtract(m, out, out=out)


def col_norms(*blocks):
    """Euclidean norms of the columns of the row-stacked blocks.

    Sums the squares block by block, so the blocks are never stacked and no
    temporary of their size is made.
    """
    sq = sum(np.einsum("ij,ij->j", b, b) for b in blocks)
    return np.sqrt(sq)


def l21_scale(norms, tau):
    """col_l21_prox's column factors for columns of these norms; a NaN/Inf
    norm, which any NaN/Inf entry of its column gives, is a NonFiniteError."""
    if tau <= 0:
        raise ValueError(f"tau must be positive, got {tau}")
    if not np.isfinite(norms).all():
        raise NonFiniteError("g contains NaN/Inf entries (non-finite norms)")
    return np.divide(norms - tau, norms, out=np.zeros_like(norms),
                     where=norms > tau)


def col_l21_prox(g, tau, out=None, norms=None):
    """Columnwise proximal operator of tau * ||.||_{2,1}.

    Column i becomes ((||g_i|| - tau)/||g_i||) * g_i when ||g_i|| > tau and
    zero otherwise; this minimizes tau*||E||_{2,1} + 0.5*||E - g||_F^2.
    The result goes to `out` when given, which may be g itself. `norms`
    takes g's column norms, or for a row block g those of the whole matrix.
    """
    g = _as_matrix(g, "g")
    scale = l21_scale(col_norms(g) if norms is None else norms, tau)
    return np.multiply(g, scale[None, :], out=out)


def pca_reduce(x, m):
    """Project samples (columns of x) onto the top-m principal directions.

    Columns are centered by the feature-wise mean first. Returns the m x n
    reduced matrix.
    """
    x = _as_matrix(x, "x")
    n_feat, n_samp = x.shape
    limit = min(n_feat, n_samp - 1)
    if not 1 <= m <= limit:
        raise ValueError(
            f"component count {m} outside [1, {limit}] for a "
            f"{n_feat}x{n_samp} sample matrix"
        )
    centered = x - x.mean(axis=1, keepdims=True)
    if not centered.any():
        # constant data: zero variance everywhere, projection is trivial
        return np.zeros((m, n_samp))
    u = svd(centered)[0]
    return u[:, :m].T @ centered


# gram_cg_solve's stopping rule: relative residual per row (see cg_rtol),
# and the iteration cap past which the caller factors instead
CG_RTOL = 1e-12
CG_MAX_ITER = 50


def cg_rtol(dtype):
    """gram_cg_solve's relative stop for products with W in `dtype`:
    CG_RTOL, or 100 eps where that is larger, 1.19e-5 for float32. Float32
    products reach about 1e-7, so at CG_RTOL every float32 solve would run
    to the cap and fall back to the factorization."""
    return max(CG_RTOL, 100 * float(np.finfo(dtype).eps))


def _row_dots(a, b):
    return np.einsum("ij,ij->i", a, b)


def gram_cg_solve(w, b, x0):
    """Solve X (I + W W.T) = b for X, one conjugate-gradient run per row.

    The k rows run together: each iteration applies X -> X + (X W) W.T to
    all of them at once, two k x vn by vn x vn products (the second formed
    as (W (X W).T).T, since OpenBLAS runs faster with the thin block on the
    right), with per-row step lengths. The products run in W's precision (a
    float64 row block is cast to a float32 W's dtype first, so no float64
    copy of W is made); the iterate, the residuals and the step lengths
    stay in b's. The run starts at x0 and stops once every row's residual
    is at most cg_rtol(W's dtype) times its row of b, tested only after the
    first step, so x0 is never returned without one; CG_MAX_ITER caps the
    iterations. Returns (X, iterations), or (None, iterations) when some
    row is still above its tolerance at the cap, or the iterate overflows,
    so that the caller can fall back to a factorization. W is not checked
    for NaN/Inf: it can only make the iterate non-finite.
    """
    b = _as_matrix(b, "b")
    x = np.array(_as_matrix(x0, "x0"), dtype=b.dtype)

    def ww(m):  # m W W.T
        return (w @ (m.astype(w.dtype, copy=False) @ w).T).T

    r = b - x
    r -= ww(x)
    p = r.copy()
    rr = _row_dots(r, r)
    tol = cg_rtol(w.dtype)**2 * _row_dots(b, b)
    for it in range(CG_MAX_ITER + 1):
        if not np.isfinite(rr).all():
            return None, it
        if it and (rr <= tol).all():
            return x, it
        if it == CG_MAX_ITER:
            return None, it
        q = p + ww(p)
        # rows already within tolerance keep stepping, at no extra cost in
        # the shared products, unless exactly solved: then p.q is 0 and
        # rr / p.q undefined, and alpha = beta = 0 keeps x and r
        live = rr > 0
        alpha = np.divide(rr, _row_dots(p, q), out=np.zeros_like(rr),
                          where=live)
        x += alpha[:, None] * p
        r -= alpha[:, None] * q
        rr_new = _row_dots(r, r)
        beta = np.divide(rr_new, rr, out=np.zeros_like(rr), where=live)
        p *= beta[:, None]
        p += r
        rr = rr_new


def spd_solve(a, b):
    """Solve a @ X = b for SPD a by SciPy's Cholesky, imported on first use.

    The factorization runs in a's precision and the triangular solves in
    b's: a float32 a is factored by LAPACK's spotrf, and with a float64 b
    SciPy solves from a float64 copy of the factor.
    """
    from scipy.linalg import cho_factor, cho_solve
    a = _as_matrix(a, "a")
    b = _float_array(b)
    try:
        factor = cho_factor(a, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"Cholesky factorization failed: {a.shape[0]}x{a.shape[1]} "
            "matrix is not positive definite"
        ) from exc
    return cho_solve(factor, b, check_finite=False)
