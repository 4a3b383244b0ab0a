"""ADMM solver for the augmented latent-representation clustering objective.

The iteration cycles five subproblems (projection P, latent H, representation
Z, error E, auxiliary J), then performs dual ascent on three multipliers with
a penalty that grows from MU0 by a factor RHO per iteration up to MU_MAX.
P comes from an orthogonal Procrustes step. H solves a Sylvester system, SPD
since P is orthonormal: by conjugate gradients on its k rows, and by one
Cholesky factorization of the vn x vn Gram only when CG gives up. Z comes
from a k x k LU solve through the push-through identity (Z's system
I + H.T H is the identity plus a rank-k term), E from the columnwise l2,1
proximal map, and J from block-diagonal-preserving shrinkage.

The vn x vn iterates Z, J, Y3 and the one spare buffer are float32 (see
`init_state`); every d x vn and k x vn array, and every product whose
rounding reaches a multiplier or the stop test, is float64. Each step
follows the dtypes of the arrays it is given, so a state built in float64
runs wholly in float64.
"""

import csv
from dataclasses import dataclass, field
from typing import ClassVar

import numpy as np

from ._seeds import rng_from
from .dataset import finite_real
from .numerics import (
    NumericalError,
    _as_matrix,
    col_l21_prox,
    col_norms,
    gram_cg_solve,
    l21_scale,
    orthogonal_procrustes,
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
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be positive, got {self.latent_dim}")
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

    Three primal feasibility gaps (max-abs residuals of the reconstruction,
    self-representation, and auxiliary constraints) plus two subgradient
    membership gaps: the distance of the stacked multiplier [Y1; Y2] from the
    l2,1 subdifferential at E, and the distance of -Y3 from lam times the l1
    subdifferential at the off-diagonal blocks of J.
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
    stationarity diagnostics against the matrix and lam the solve used."""

    z: np.ndarray
    trace: ConvergenceTrace
    converged: bool
    state: AdmmState
    kkt: KktReport


def block_diagonal_part(m, v, n):
    """Zero everything except the v diagonal n x n blocks."""
    if m.shape != (v * n, v * n):
        raise ValueError(f"expected a {v * n}x{v * n} matrix, got {m.shape}")
    out = np.zeros_like(m)
    for i in range(v):
        s = slice(i * n, (i + 1) * n)
        out[s, s] = m[s, s]
    return out


def check_latent_dim(k, d):
    """Raise ValueError unless H's k rows fit the d stacked features."""
    if k > d:
        raise ValueError(
            f"latent_dim={k} exceeds the stacked feature dimension d={d}"
        )


# dtype of the vn x vn iterates Z, J and Y3; `run`'s spare follows Z
VN2_DTYPE = np.float32

# the penalty schedule. RHO = 3 needs fewer iterations than 2 at the same
# clustering accuracy, though where lam is large it stops at a higher
# objective value; 4 lowers the accuracy on a noisy low-dimensional family
MU0, MU_MAX, RHO = 1e-4, 1e6, 3.0


def init_state(xa, cfg):
    """Fresh state: H i.i.d. standard Gaussian from cfg.seed, all else zero.

    E1 and E2 are views of one stacked (d+k) x vn buffer, which `run` hands
    to each E step to refill in place.

    Z, J and Y3 are VN2_DTYPE, float32: the vn x vn passes (the H step's
    products with W = I - Z or its Gram and Cholesky, the Z step's product
    H.T S^-1 G, the J shrinkage) are bound by memory bandwidth or
    gemm speed, which float32 halves, and their rounding of 6e-8 relative
    stays far below the 1e-3 stop. X, P, H, E1, E2, Y1 and Y2 are float64:
    in float32, Y1/mu is lost against X, a large H breaks the dense H
    step's Cholesky, and H - H Z misreads the self-representation gap.
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


def _row_panels(rows, cols, step=PANEL_ROWS):
    """(rows slice, float64 scratch of its shape) per panel of `step` rows;
    one buffer serves all."""
    buf = np.empty((min(rows, step), cols))
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


def update_h(state, xa, target=None, out=None):
    """Latent step: solve the Sylvester system A H + H B = C.

    The subproblem's normal equations, divided through by mu, have
    A = P.T P, B = W W.T with W = I - Z, and C = P.T T - (Y2/mu - E2) W.T,
    where T = X + Y1/mu - E1 is update_p's target; `target` takes T when the
    caller already has it, and then E1 is not read (in `run` E1's buffer
    holds T by then). When P is orthonormal, as update_p always returns
    it, A is I and the system reduces to H (I + W W.T) = C, SPD, solved by
    conjugate gradients on the k rows (`gram_cg_solve`), warm-started from
    the current H and needing only products with W. Only when CG gives up
    (at its iteration cap, or on overflow) are the vn x vn Gram W W.T and
    one Cholesky factorization formed. The general Sylvester branch, for P
    that is not orthonormal, is never reached by `run`; it keeps the step a
    solver of the H-subproblem for any P.

    `out` takes two vn x vn buffers (for W, for B) to write into instead of
    allocating them; the CG path uses only the first. The W buffer may be
    Z's own: the step reads Z only entry by entry, to form W, and never
    again after. Neither buffer may be any other state array, nor may the
    two be the same.

    W and B take Z's dtype, and C, H and the CG iterate H's, float64. A
    k x vn operand is cast to Z's dtype before its product with W, so that
    W is never copied into float64; D W.T is formed as (W D.T).T, the
    faster order, as in `gram_cg_solve`. The dense step factors B in its
    own precision and solves with the factor in C's, since a float32 solve
    moves the final objective an order of magnitude more.
    """
    p, z = state.p, state.z
    k, vn = p.shape[1], z.shape[0]
    diag = np.s_[::vn + 1]
    wbuf, bbuf = (None, None) if out is None else out
    w = np.negative(z, out=wbuf)
    w.flat[diag] += 1.0
    c = p.T @ (_latent_target(state, xa) if target is None else target)
    d = (state.y2 / state.mu - state.e2).astype(w.dtype, copy=False)
    c = c - (w @ d.T).T
    ptp = p.T @ p
    orthonormal = np.abs(ptp - np.eye(k)).max() <= 1e-8
    h = None
    if orthonormal:
        h, _ = gram_cg_solve(w, c, state.h)
    if h is None:
        # matmul on w and its own transpose view runs as a syrk
        b = np.matmul(w, w.T, out=bbuf)
        del w
        if orthonormal:
            b.flat[diag] += 1.0
            h = spd_solve(b, c.T).T
        else:
            h = solve_sylvester(ptp, b, c)
    return h.astype(state.h.dtype, copy=False)


def update_z(state, out=None, tmp=None):
    """Representation step: closed-form solve of the quadratic subproblem.

    The normal equations are (I + H.T H) Z = A + H.T (H + D) with
    A = J + Y3/mu and D = Y2/mu - E2. By the push-through identity
    (I + H.T H)^-1 H.T = H.T S^-1 with S = I_k + H H.T, and by Woodbury,
    Z = A + H.T S^-1 (H + D - H A): one k x k LU solve (S >= I, so partial
    pivoting is stable and S never singular) and two k x vn^2 products, no
    vn x vn factorization. No term of size |H|^2 is formed; the textbook
    Woodbury form R - H.T S^-1 H R with R = A + H.T (H + D) would cancel
    two of them into an O(1) result once H grows large.

    The result goes to `out` when given, and `tmp` takes a second vn x vn
    buffer for the term H.T S^-1 (...) added to it. `out` may be Z's own
    buffer, whatever it holds, since the step does not read Z; neither may
    be J or Y3, which it reads, nor may the two be the same.

    Z takes Y3's dtype. H - H A is summed in float64 (`_latent_gap`), since
    a float32 sum loses digits once |H| is large. S and its solve are float64,
    and H and S^-1 G are cast to Z's dtype for the product H.T S^-1 G, so
    that A is never copied into another precision.
    """
    h, mu = state.h, state.mu
    a = np.divide(state.y3, mu, out=out)
    a += state.j
    hz = h.astype(a.dtype, copy=False)
    g = _latent_gap(h, a)
    g += state.y2 / mu
    g -= state.e2
    s = _as_matrix(np.eye(h.shape[0]) + h @ h.T, "S")
    sg = np.linalg.solve(s, g).astype(a.dtype, copy=False)
    a += np.matmul(hz.T, sg, out=tmp)
    return a


def update_e(state, xa, out=None, ascent=False):
    """Error step: columnwise l2,1 shrinkage of the stacked residual target.

    G = [X - P H + Y1/mu; H - H Z + Y2/mu] is formed in one (d+k) x vn
    buffer, `out` when given (P H is written first, so it may hold anything:
    in `run`, T), and shrunk in place; E1 and E2 are returned as its views.
    Each row panel of G1 yields its rows of R1 = (G1 - Y1/mu) - E1 as it is
    shrunk; with `ascent` Y1 takes its dual step Y1 += mu R1 there, and the
    step returns (E1, E2, max |R1|, R2 = H - H Z - E2). H - H Z is formed
    in float64 from a float32 Z too (`_latent_gap`).
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
    peak = 0.0
    for s, r in _row_panels(d, vn):
        np.subtract(g1[s], np.divide(state.y1[s], mu, out=r), out=r)
        g1[s] *= scale
        r -= g1[s]
        peak = np.maximum(peak, np.maximum(r.max(), -r.min()))  # keeps NaN
        if ascent:
            r *= mu
            state.y1[s] += r
    col_l21_prox(e2, 1.0 / mu, out=e2, norms=norms)
    dh -= e2
    return (g1, e2, float(peak), dh) if ascent else (g1, e2)


def update_j(state, lam, v, n, out=None, tmp=None):
    """Auxiliary step: keep diagonal blocks, shrink off-diagonal entries.

    The result goes to `out` when given, and `tmp` takes a second vn x vn
    buffer for M = Z - Y3/mu. `out` may be J's own buffer: the step does
    not read J. Neither may be Z or Y3, which it reads, nor each other.
    """
    m = np.divide(state.y3, state.mu, out=tmp)
    np.subtract(state.z, m, out=m)
    j = soft_threshold(m, lam / state.mu, out=out)
    jb, mb = j.reshape(v, n, v, n), m.reshape(v, n, v, n)
    for i in range(v):
        jb[i, :, i, :] = mb[i, :, i, :]
    return j


def _residual_mats(state, xa):
    """(X - P H - E1, H - H Z - E2, J - Z), each a new array."""
    return (xa - state.p @ state.h - state.e1,
            _latent_gap(state.h, state.z) - state.e2, state.j - state.z)


def residuals(state, xa, mats=None):
    """Max-abs feasibility residuals of the three coupling constraints.

    `mats` takes the residual matrices, or their max-abs values, when the
    caller already has them.
    """
    if mats is None:
        mats = _residual_mats(state, xa)
    return tuple(float(max(np.max(r), -np.min(r))) for r in mats)


def update_multipliers(state, xa, mats=None):
    """Dual ascent Y <- Y + mu R on Y1-Y3, then penalty growth
    mu <- min(RHO mu, MU_MAX).

    `mats` takes the residual matrices R when the caller already has them;
    they are consumed as scratch, and an R of None leaves its multiplier
    as it is (`run` steps Y1 in the E step). The multipliers are updated
    in place, so the step allocates nothing.
    """
    if mats is None:
        mats = _residual_mats(state, xa)
    for r, y in zip(mats, (state.y1, state.y2, state.y3)):
        if r is None:
            continue
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


def run(xa, cfg):
    """Execute the full alternating schedule on an augmented matrix.

    Updates run in the fixed order P, H, Z, J, E, multipliers, penalty (J
    and E read neither each other's variable, so this is the P, H, Z, E, J
    iteration); the trace records every iteration; the loop stops once all
    three residuals drop below cfg.tol or cfg.max_iter is reached. The KKT
    report is taken at the final iterate, against the matrix the solve ran
    on: the augmented matrix, or a copy of its block-diagonal part under v2.
    E1's buffer holds T from the P step to the E step, which steps Y1 too.
    Deterministic for a fixed seed.
    """
    mat = xa.block_diagonal() if cfg.ablation == "v2" else xa.xa
    v, n = xa.n_views, xa.n_samples
    lam = cfg.effective_lam

    state = init_state(xa, cfg)
    e = state.e1.base  # the stacked [E1; E2] that init_state made
    # with one spare, every vn x vn step writes into Z, J or the spare, and
    # so does the J - Z residual; beside X, Y1 and E are the only d x vn
    # arrays: T goes over E1, and the E step refills E and steps Y1
    spare = np.empty_like(state.z)
    trace = ConvergenceTrace()
    converged = False
    for t in range(1, cfg.max_iter + 1):
        try:
            target = _latent_target(state, mat, out=state.e1)
            state.p = update_p(state, mat, target=target)
            # W = I - Z goes over Z, which nothing reads again before
            # update_z writes the new Z there
            state.h = update_h(state, mat, target=target,
                               out=(state.z, spare))
            state.z = update_z(state, out=state.z, tmp=spare)
            # J before E: neither step reads the other's variable
            state.j = update_j(state, lam, v, n, out=state.j, tmp=spare)
            state.e1, state.e2, r1, r2 = update_e(state, mat, out=e,
                                                  ascent=True)
        except NumericalError as exc:
            raise NumericalError(f"iteration {t}: {exc}") from exc
        obj = objective(state, lam, v, n)
        r3 = np.subtract(state.j, state.z, out=spare)
        primal = residuals(state, mat, (r1, r2, r3))
        trace.append(*primal, obj, state.mu)
        update_multipliers(state, mat, (None, r2, r3))
        if max(primal) < cfg.tol:
            converged = True
            break

    del spare, r3  # the KKT check's temporaries take its place
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

    The primal gaps are the three max-abs constraint residuals; `primal`
    takes them when the caller already has them. The e_gap is the worst
    columnwise distance of [Y1; Y2] from the l2,1 subdifferential at E (the
    unit-normalized column for active columns, the unit ball for zero
    columns), read from Y and E by row panels into panel-sized temporaries,
    never a d x vn one. The j_gap is the l1 condition on J: on active
    off-diagonal-block entries |Y3 + lam * sgn(J)|, on inactive ones the
    excess of |Y3| over lam, and on diagonal blocks |Y3| itself (the penalty
    does not act there, so the multiplier must vanish).
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

    # block by block in Y3's dtype: on a diagonal block the gap is |Y3|
    # itself; elsewhere lam (1 - |sgn J|) is 0 on active entries and lam on
    # inactive ones, where sgn J = 0 and the gap is |Y3| - lam
    lam = state.y3.dtype.type(lam)
    j_gap = 0.0
    for a, b in np.ndindex(v, v):
        blk = np.s_[a * n:(a + 1) * n, b * n:(b + 1) * n]
        if a == b:
            gap = np.abs(state.y3[blk])
        else:
            sgn = np.sign(state.j[blk])
            gap = np.abs(state.y3[blk] + lam * sgn)
            gap -= lam * (1 - np.abs(sgn))
        j_gap = max(j_gap, float(gap.max(initial=0.0)))

    return KktReport(recon=p1, selfrep=p2, aux=p3, e_gap=e_gap, j_gap=j_gap)
