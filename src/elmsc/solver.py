"""ADMM solver for the augmented latent-representation clustering objective.

The iteration cycles five subproblems (projection P, latent H, representation
Z, error E, auxiliary J), then performs dual ascent on three multipliers with
a penalty that grows from MU0 by a factor RHO per iteration up to MU_MAX.
P comes from an orthogonal Procrustes step. H solves a Sylvester system, SPD
since P is orthonormal: by conjugate gradients on its k rows, and through an
eigendecomposition of the vn x vn Gram only when CG gives up. Z comes
from a k x k LU solve through the push-through identity (Z's system
I + H.T H is the identity plus a rank-k term), E from the columnwise l2,1
proximal map, and J from block-diagonal-preserving shrinkage.

`solve_matrix` forms the matrix the loop iterates on (`cli`, once per run):
X, its block-diagonal part under v2, or when d > vn >= k the vn x vn R of
its QR. Z, J and Y3 are float32 (see `init_state`); every other iterate, and
every product whose rounding reaches a multiplier or the stop test, is
float64. Each step follows its arrays' dtypes: a float64 state runs in float64.
"""

import csv
from dataclasses import dataclass, field, replace
from typing import ClassVar

import numpy as np

from .numerics import (
    NumericalError,
    _as_matrix,
    col_l21_prox,
    col_norms,
    finite_real,
    gram_cg_solve,
    l21_scale,
    number,
    orthogonal_procrustes,
    rng_from,
    soft_threshold,
    solve_sylvester,
    spd_solve,
)

ABLATIONS = ("full", "v1", "v2")


@dataclass
class ElmscConfig:
    """Solver configuration.

    `lam` weighs the l1 penalty on the off-diagonal blocks of Z; `latent_dim`
    is the row count of H. Ablations: "v1" drops the sparsity term (lam
    treated as 0), "v2" zeroes the off-diagonal blocks of the augmented data
    matrix before solving. The stop rule, `tol` and `max_iter`, is the same
    for every run, so it is held on the class, not per instance.
    """

    tol: ClassVar[float] = 1e-3
    max_iter: ClassVar[int] = 100

    lam: float
    latent_dim: int
    seed: int = 0
    ablation: str = "full"

    def __post_init__(self):
        if finite_real(self.lam, "lam") < 0:
            raise ValueError(f"lam must be nonnegative, got {self.lam}")
        if number(self.latent_dim, "latent_dim") < 1:
            raise ValueError(f"latent_dim must be positive, got {self.latent_dim}")
        number(self.seed, "seed")
        if self.ablation not in ABLATIONS:
            raise ValueError(
                f"ablation must be one of {ABLATIONS}, got {self.ablation!r}"
            )

    @property
    def effective_lam(self):
        return 0.0 if self.ablation == "v1" else self.lam


@dataclass
class AdmmState:
    """All solver variables plus the penalty value."""

    p: np.ndarray
    h: np.ndarray
    z: np.ndarray
    e1: np.ndarray
    e2: np.ndarray
    j: np.ndarray
    y1: np.ndarray
    y2: np.ndarray
    y3: np.ndarray
    mu: float


@dataclass
class ConvergenceTrace:
    """Per-iteration residuals, objective values, and penalty values."""

    r1: list = field(default_factory=list)
    r2: list = field(default_factory=list)
    r3: list = field(default_factory=list)
    objective: list = field(default_factory=list)
    mu: list = field(default_factory=list)

    def append(self, r1, r2, r3, obj, mu):
        self.r1.append(r1)
        self.r2.append(r2)
        self.r3.append(r3)
        self.objective.append(obj)
        self.mu.append(mu)

    def __len__(self):
        return len(self.r1)

    def write_csv(self, path):
        """One row per iteration, numbered from 1."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "r1", "r2", "r3", "objective", "mu"])
            rows = zip(self.r1, self.r2, self.r3, self.objective, self.mu)
            for it, row in enumerate(rows, 1):
                w.writerow([it, *(repr(x) for x in row)])


@dataclass(frozen=True)
class KktReport:
    """Stationarity diagnostics at the final iterate.

    Three primal feasibility gaps, as `residuals` takes them (recon is the
    largest column l2 norm), plus two subgradient membership gaps: the
    distance of the stacked multiplier [Y1; Y2] from the l2,1 subdifferential
    at E, and the distance of -Y3 from lam times the l1 subdifferential at
    the off-diagonal blocks of J.
    """

    recon: float
    selfrep: float
    aux: float
    e_gap: float
    j_gap: float

    def as_tuple(self):
        return (self.recon, self.selfrep, self.aux, self.e_gap, self.j_gap)


@dataclass
class SolverOutput:
    """Result of `run`: the final iterate, whose Z is also `z`, and its
    stationarity diagnostics against the matrix and lam the solve used.
    P, E1 and Y1 are in R's coordinates after a solve on X = QR's R (Q P,
    Q E1, Q Y1 in X's; Q per view under v2); the report holds for X."""

    z: np.ndarray
    trace: ConvergenceTrace
    converged: bool
    state: AdmmState
    kkt: KktReport


def block_diagonal_part(m, v, n):
    """Zero everything except the v diagonal n x n blocks."""
    if m.shape != (v * n, v * n):
        raise ValueError(f"expected a {v * n}x{v * n} matrix, got {m.shape}")
    out = np.zeros(m.shape, m.dtype)
    d = range(v)
    out.reshape(v, n, v, n)[d, :, d] = m.reshape(v, n, v, n)[d, :, d]
    return out


def check_latent_dim(k, d):
    """Raise ValueError unless H's k rows fit the d stacked features."""
    if k > d:
        raise ValueError(
            f"latent_dim={k} exceeds the stacked feature dimension d={d}"
        )


# dtype of the vn x vn iterates Z, J and Y3
VN2_DTYPE = np.float32

# the penalty schedule. RHO = 3 needs fewer iterations than 2 at the same
# clustering accuracy, though where lam is large it stops at a higher
# objective value; 4 lowers the accuracy on a noisy low-dimensional family
MU0, MU_MAX, RHO = 1e-4, 1e6, 3.0


def init_state(xa, cfg):
    """Fresh state: H i.i.d. standard Gaussian from cfg.seed, all else zero.

    E1 and E2 are views of one stacked (d+k) x vn buffer, which `run` hands
    to each E step to refill in place.

    Z, J and Y3, `run`'s vn x vn iterates, are VN2_DTYPE, float32: the
    vn x vn passes (the H step's products with W = I - Z or its Gram and
    eigendecomposition, the Z step's H.T S^-1 G, the J pass) are bound by
    memory bandwidth or gemm speed, which float32 halves, and their rounding of
    6e-8 relative stays far below the 1e-3 stop. X, P, H, E1, E2, Y1 and Y2
    are float64: in float32, Y1/mu is lost against X, H keeps a solve on the
    dense H step from converging, and H - H Z misreads the self-representation
    gap.
    """
    d, vn = xa.xa.shape
    k = cfg.latent_dim
    check_latent_dim(k, d)
    h = rng_from(cfg.seed).standard_normal((k, vn))
    e = np.zeros((d + k, vn))
    return AdmmState(
        p=np.zeros((d, k)),
        h=h,
        z=np.zeros((vn, vn), VN2_DTYPE),
        e1=e[:d],
        e2=e[d:],
        j=np.zeros((vn, vn), VN2_DTYPE),
        y1=np.zeros((d, vn)),
        y2=np.zeros((k, vn)),
        y3=np.zeros((vn, vn), VN2_DTYPE),
        mu=MU0,
    )


# rows per panel of the d x vn passes: a 32 x vn scratch buffer is small
PANEL_ROWS = 32


def _row_panels(rows, cols, step=PANEL_ROWS, dtype=np.float64):
    """(rows slice, scratch of its shape) per panel of `step` rows; one
    buffer serves all."""
    buf = np.empty((min(rows, step), cols), dtype)
    for i in range(0, rows, step):
        yield slice(i, i + step), buf[:min(rows - i, step)]


def _latent_target(state, xa, out=None):
    """T = X + Y1/mu - E1: the matrix P H is pulled toward in the P and H steps.

    Formed as (Y1/mu + X) - E1 by row panels into `out`, else a new array;
    `out` may be E1's own buffer, as in `run`: each panel is read first.
    """
    t = np.empty(xa.shape) if out is None else out
    for s, panel in _row_panels(*t.shape):
        np.divide(state.y1[s], state.mu, out=panel)
        panel += xa[s]
        np.subtract(panel, state.e1[s], out=t[s])
    return t


def _latent_gap(h, z):
    """H - H Z in float64, summed over row panels of Z, each copied into a
    float64 scratch panel, so that a float32 Z is never copied whole."""
    dh = h.copy()
    for s, panel in _row_panels(*z.shape, step=64):
        np.copyto(panel, z[s])
        dh -= h[:, s] @ panel
    return dh


def update_p(state, xa, target=None):
    """Projection step: P maximizing alignment with the latent reconstruction.

    P.T is the row-orthonormal Procrustes solution for H @ T.T with
    T = X + Y1/mu - E1, so the returned P has orthonormal columns. `target`
    takes T when the caller already has it.
    """
    if target is None:
        target = _latent_target(state, xa)
    return orthogonal_procrustes(state.h @ target.T).T


def update_h(state, xa, target=None, hw=None, out=None):
    """Latent step: solve the Sylvester system A H + H B = C.

    The subproblem's normal equations, divided through by mu, have
    A = P.T P, B = W W.T with W = I - Z, and C = P.T T - D W.T with
    D = Y2/mu - E2 and update_p's target T = X + Y1/mu - E1; `target` takes
    T when the caller already has it, and then E1 is not read (in `run` E1's
    buffer holds T by then). With P orthonormal, as update_p returns it,
    the system is H (I + W W.T) = C, SPD, solved by conjugate gradients on
    the k rows (`gram_cg_solve`), warm-started from the current H; only when
    CG gives up (at its cap, or on overflow) is the Gram W W.T formed and
    solved through its eigendecomposition (`spd_solve`). The general
    Sylvester branch, for any other P, is never reached by `run`.

    `hw` takes H W = H - H Z when the caller already has it (`run` keeps
    the last E step's); D W.T and the warm start's H W W.T come from one
    product W [D; H W].T. `out` takes a vn x vn buffer for W, which may be
    Z's own (Z is read only to form W), but no other state array.

    W and B take Z's dtype; C, H and the CG iterate are float64. k x vn
    operands are cast to Z's dtype for their products with W, formed as
    (W D.T).T, the faster order, so that W is never copied into float64.
    The dense step decomposes B in its own precision and solves in C's, since
    a float32 solve moves the final objective two orders of magnitude more.
    """
    p, z = state.p, state.z
    k, vn = p.shape[1], z.shape[0]
    diag = np.s_[::vn + 1]
    hw = _latent_gap(state.h, z) if hw is None else hw
    w = np.negative(z, out=out)
    w.flat[diag] += 1.0
    c = p.T @ (_latent_target(state, xa) if target is None else target)
    dhw = np.concatenate([state.y2 / state.mu - state.e2, hw], dtype=w.dtype)
    dhw = (w @ dhw.T).T
    c -= dhw[:k]
    ptp = p.T @ p
    orthonormal = np.abs(ptp - np.eye(k)).max() <= 1e-8
    h = None
    if orthonormal:
        h, _ = gram_cg_solve(w, c, state.h, x0ww=dhw[k:])
    if h is None:
        # matmul on w and its own transpose view runs as a syrk
        b = np.matmul(w, w.T)
        if orthonormal:
            b.flat[diag] += 1.0
            h = spd_solve(b, c.T).T
        else:
            h = solve_sylvester(ptp, b, c)
    return h.astype(state.h.dtype, copy=False)


def update_z(state, a=None, out=None):
    """Representation step: closed-form solve of the quadratic subproblem.

    The normal equations are (I + H.T H) Z = A + H.T (H + D) with
    A = J + Y3/mu and D = Y2/mu - E2. By the push-through identity
    (I + H.T H)^-1 H.T = H.T S^-1 with S = I_k + H H.T, and by Woodbury,
    Z = A + H.T S^-1 (H + D - H A): one k x k LU solve (S >= I, so partial
    pivoting is stable and S never singular) and two k x vn^2 products, no
    vn x vn factorization. No term of size |H|^2 is formed; the textbook
    Woodbury form R - H.T S^-1 H R with R = A + H.T (H + D) would cancel
    two of them into an O(1) result once H grows large.

    `a` takes A when the caller has it (in `run`, J's buffer holds it), and
    `out` the result's buffer, which may be Z's own but not A's.

    Z takes A's dtype. H - H A is summed in float64 (`_latent_gap`), since
    a float32 sum loses digits once |H| is large. S and its solve are float64,
    and H and S^-1 G are cast to Z's dtype for the product H.T S^-1 G, so
    that A is never copied into another precision.
    """
    h, mu = state.h, state.mu
    if a is None:
        a = state.j + state.y3 / mu
    g = _latent_gap(h, a)
    g += state.y2 / mu
    g -= state.e2
    s = _as_matrix(np.eye(h.shape[0]) + h @ h.T, "S")
    sg = np.linalg.solve(s, g).astype(a.dtype, copy=False)
    z = np.matmul(h.astype(a.dtype, copy=False).T, sg, out=out)
    z += a
    return z


def update_e(state, xa, out=None, ascent=False):
    """Error step: columnwise l2,1 shrinkage of the stacked residual target.

    G = [X - P H + Y1/mu; H - H Z + Y2/mu] is formed in one (d+k) x vn
    buffer, `out` when given (P H is written first, so it may hold anything:
    in `run`, T), and shrunk in place; E1 and E2 are returned as its views.
    Each row panel of G1 yields its rows of R1 = (G1 - Y1/mu) - E1 as it is
    shrunk; with `ascent` Y1 takes its dual step Y1 += mu R1 there, and the
    step returns (E1, E2, `residuals`' r1, H - H Z), whence R2 = H - H Z - E2.
    H - H Z is formed in float64 from a float32 Z too (`_latent_gap`).
    """
    mu, (d, vn) = state.mu, xa.shape
    g = np.empty((d + state.h.shape[0], vn)) if out is None else out
    g1 = np.subtract(xa, np.matmul(state.p, state.h, out=g[:d]), out=g[:d])
    for s, panel in _row_panels(d, vn):
        g1[s] += np.divide(state.y1[s], mu, out=panel)
    dh = _latent_gap(state.h, state.z)
    e2 = np.add(state.y2 / mu, dh, out=g[d:])
    norms = col_norms(g)
    scale = l21_scale(norms, 1.0 / mu)
    sq = np.zeros(vn)
    for s, r in _row_panels(d, vn):
        np.subtract(g1[s], np.divide(state.y1[s], mu, out=r), out=r)
        g1[s] *= scale
        r -= g1[s]
        sq += np.einsum("ij,ij->j", r, r)
        if ascent:
            r *= mu
            state.y1[s] += r
    col_l21_prox(e2, 1.0 / mu, out=e2, norms=norms)
    return (g1, e2, float(np.sqrt(sq.max())), dh) if ascent else (g1, e2)


def update_j(state, lam, v, n):
    """Auxiliary step: keep diagonal blocks, shrink off-diagonal entries of
    M = Z - Y3/mu by lam/mu. `run` folds this step into its J pass."""
    m = state.z - state.y3 / state.mu
    j = soft_threshold(m, lam / state.mu)
    d = range(v)
    j.reshape(v, n, v, n)[d, :, d] = m.reshape(v, n, v, n)[d, :, d]
    return j


def _j_pass(z, b, c, eta, v, n):
    """`run`'s J step and Y3 dual step: B = Z + c (c = -Y3/mu on entry) into
    b, C = clip(B, -eta, eta) with zeroed diagonal blocks into c, J = B - C
    (update_j's shrinkage) into b; Y3 + mu (J - Z) is then -mu C. Returns
    max |J - Z|, taken by row panels through one scratch panel."""
    np.add(z, c, out=b)
    np.clip(b, -eta, eta, out=c)
    c.reshape(v, n, v, n)[range(v), :, range(v)] = 0
    b -= c
    return float(np.max([np.abs(np.subtract(b[s], z[s], out=p), out=p).max()
                         for s, p in _row_panels(*z.shape, dtype=z.dtype)]))


def _residual_mats(state, xa):
    """(X - P H - E1, H - H Z - E2, J - Z), each a new array."""
    return (xa - state.p @ state.h - state.e1,
            _latent_gap(state.h, state.z) - state.e2, state.j - state.z)


def residuals(state, xa, mats=None):
    """Feasibility residuals of the three coupling constraints: R1's largest
    column l2 norm (>= its max-abs entry; NaN with a NaN entry) and R2's and
    R3's max-abs. `mats` takes these values, or R2 and R3 in their places."""
    if mats is None:
        r1, r2, r3 = _residual_mats(state, xa)
        mats = (col_norms(r1).max(), r2, r3)
    return tuple(float(max(np.max(r), -np.min(r))) for r in mats)


def update_multipliers(state, xa, mats=None):
    """Dual ascent Y <- Y + mu R on Y1-Y3, then penalty growth
    mu <- min(RHO mu, MU_MAX).

    `mats` takes the residual matrices R when the caller already has them;
    they are consumed as scratch, and an R of None leaves its multiplier
    as it is (`run` steps Y1 in the E step and Y3 in its J pass). The
    multipliers are updated in place, so the step allocates nothing.
    """
    if mats is None:
        mats = _residual_mats(state, xa)
    for r, y in zip(mats, (state.y1, state.y2, state.y3)):
        if r is not None:
            r *= state.mu
            y += r
    state.mu = min(RHO * state.mu, MU_MAX)
    return state


def objective(state, lam, v, n):
    """Value of the unconstrained objective at the current primal variables:
    l2,1 norm of the stacked error [E1; E2] plus lam times the l1 norm of
    the off-diagonal blocks of Z. Both are summed block by block, so E is
    never stacked and no vn x vn temporary is made; a float32 Z's blocks
    are summed in float64."""
    l21 = float(col_norms(state.e1, state.e2).sum())
    blocks = state.z.reshape(v, n, v, n)
    off = sum(float(np.abs(blocks[i, :, l, :]).sum(dtype=np.float64))
              for i in range(v) for l in range(v) if i != l)
    return l21 + lam * off


def solve_matrix(xa, cfg):
    """The matrix `run` iterates on: X, or under v2 its block-diagonal part;
    when d > vn >= k, the vn x vn R of X = QR instead, Q never formed (Liu
    et al., TPAMI 2013), under v2 one view's R per diagonal block, padded
    with zero rows (d > vn leaves Q room). Idempotent: R is vn x vn, so a
    second call returns its argument, or under v2 an equal copy."""
    (d, vn), n = xa.xa.shape, xa.n_samples
    v2 = cfg.ablation == "v2"
    if not cfg.latent_dim <= vn < d:
        return replace(xa, xa=xa.block_diagonal()) if v2 else xa
    if v2:
        r = np.zeros((vn, vn), xa.xa.dtype)
        for l in range(xa.n_views):
            f = np.linalg.qr(xa.block(l, l), mode="r")
            r[l * n:l * n + len(f), l * n:(l + 1) * n] = f
    else:
        r = np.linalg.qr(xa.xa, mode="r")
    return replace(xa, xa=r, block_rows=tuple(range(0, vn, n)))


def run(xa, cfg):
    """Execute the full alternating schedule on an augmented matrix.

    Updates run in the fixed order P, H, Z, J, E, multipliers, penalty (J
    and E read neither each other's variable, so this is the P, H, Z, E, J
    iteration); the trace records every iteration; the loop stops once all
    three residuals drop below cfg.tol or cfg.max_iter is reached. The KKT
    report is taken at the final iterate, against the matrix the solve ran
    on, `solve_matrix(xa, cfg)`: a caller that solves one matrix many times
    (`cli`'s trials) passes that result, which `run` then uses unchanged.
    E1's buffer holds T from the P step to the E step, which steps Y1 too.
    Deterministic for a fixed seed.

    When that matrix is the vn x vn R of X = QR: Y1 and E1 start at 0, so
    every d x vn iterate on X stays in range(Q), and as column norms and
    P.T P = I hold under Q.T, H, Z, E2, Y2, J, Y3, the trace and the KKT
    report equal those on X (P is completed freely where H T.T has rank
    below k, on X as on R).

    J and Y3 are held implicitly: the J step and Y3's dual step give
    Y3 = -mu C (`_j_pass`), the last block's dual condition (Boyd et al.,
    FnT-ML 2011, 3.3). Y3's buffer holds C, then r C = -Y3/mu' (mu' the
    next penalty, r = mu/mu'), and J's holds B, then J, then the next Z
    step's A = J - r C. After the last iteration Y3 = -mu C is formed.
    """
    xa = solve_matrix(xa, cfg)
    mat, v, n = xa.xa, xa.n_views, xa.n_samples
    lam = cfg.effective_lam

    state = init_state(xa, cfg)
    e = state.e1.base  # the stacked [E1; E2] that init_state made
    # beside X, Y1 and E are the only d x vn arrays: T goes over E1, and the
    # E step refills E and steps Y1. A and -Y3/mu start at 0, as J and Y3
    # do, and H W at H, as W = I - Z = I
    a, c, hw = state.j, state.y3, state.h
    trace = ConvergenceTrace()
    for t in range(1, cfg.max_iter + 1):
        mu = state.mu
        try:
            target = _latent_target(state, mat, out=state.e1)
            state.p = update_p(state, mat, target=target)
            # W = I - Z goes over Z, which nothing reads again before
            # update_z writes the new Z there
            state.h = update_h(state, mat, target=target, hw=hw, out=state.z)
            state.z = update_z(state, a=a, out=state.z)
            r3 = _j_pass(state.z, a, c, lam / mu, v, n)
            state.e1, state.e2, r1, hw = update_e(state, mat, out=e,
                                                  ascent=True)
        except NumericalError as exc:
            raise NumericalError(f"iteration {t}: {exc}") from exc
        obj = objective(state, lam, v, n)
        r2 = hw - state.e2
        primal = residuals(state, mat, (r1, r2, r3))
        trace.append(*primal, obj, mu)
        update_multipliers(state, mat, (None, r2, None))
        converged = max(primal) < cfg.tol
        if converged or t == cfg.max_iter:
            break
        c *= mu / state.mu
        a -= c

    c *= -mu
    # the multiplier step leaves P, H, Z, E and J as they were, so the last
    # traced residuals are the final iterate's primal gaps
    kkt = kkt_residuals(state, mat, lam, v, n, primal=primal)
    return SolverOutput(z=state.z, trace=trace, converged=converged,
                        state=state, kkt=kkt)


def aggregate_z(z, v, n):
    """Entrywise sum of all v*v blocks of size n x n."""
    z = np.asarray(z)
    if z.shape != (v * n, v * n):
        raise ValueError(
            f"expected a {v * n}x{v * n} matrix for v={v}, n={n}, got {z.shape}"
        )
    return z.reshape(v, n, v, n).sum(axis=(0, 2))


def kkt_residuals(state, xa, lam, v, n, primal=None):
    """First-order stationarity gaps at the current iterate.

    The primal gaps are `residuals`' three; `primal` takes them when the
    caller already has them. The e_gap is the worst columnwise distance of
    [Y1; Y2] from the l2,1 subdifferential at E (the unit-normalized column
    for active columns, the unit ball for zero columns), read from Y and E
    by row panels into panel-sized temporaries, never a d x vn one. The
    j_gap is the l1 condition on J: on active off-diagonal-block entries
    |Y3 + lam * sgn(J)|, on inactive ones the excess of |Y3| over lam, and
    on diagonal blocks, where the penalty's weight is 0, |Y3| itself: the
    multiplier must vanish there.
    """
    p1, p2, p3 = residuals(state, xa) if primal is None else primal

    # a zero column has E / safe = 0, so its gap is ||Y|| - 1; one inside
    # the ball is negative and never counts, since the gaps start at 0
    e_norms = col_norms(state.e1, state.e2)
    idle = e_norms == 0
    safe = e_norms + idle
    sq = np.zeros_like(e_norms)
    for y, e in ((state.y1, state.e1), (state.y2, state.e2)):
        for s, gap in _row_panels(*y.shape):
            np.subtract(y[s], np.divide(e[s], safe, out=gap), out=gap)
            sq += np.einsum("ij,ij->j", gap, gap)
    e_gap = float((np.sqrt(sq) - idle).max(initial=0.0))

    # block by block in Y3's dtype, with the l1 weight w = lam off the
    # diagonal blocks and 0 on them: w (1 - |sgn J|) is 0 on active entries
    # and w on inactive ones, where sgn J = 0 and the gap is |Y3| - w
    lam = state.y3.dtype.type(lam)
    y3, j = state.y3.reshape(v, n, v, n), state.j.reshape(v, n, v, n)
    j_gap = 0.0
    for a, b in np.ndindex(v, v):
        w = lam * (a != b)
        sgn = np.sign(j[a, :, b])
        gap = np.abs(y3[a, :, b] + w * sgn)
        gap -= w * (1 - np.abs(sgn))
        j_gap = max(j_gap, float(gap.max(initial=0.0)))

    return KktReport(recon=p1, selfrep=p2, aux=p3, e_gap=e_gap, j_gap=j_gap)
