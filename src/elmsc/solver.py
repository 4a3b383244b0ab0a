"""ADMM solver for the augmented latent-representation clustering objective.

The iteration cycles five subproblems (projection P, latent H, representation
Z, error E, auxiliary J), then performs dual ascent on three multipliers with
a penalty that grows from MU0 by a factor RHO per iteration up to MU_MAX.
P comes from an orthogonal Procrustes step. H solves H (I + W W.T) = C, SPD
since P is orthonormal: by conjugate gradients on its k rows, and through an
eigendecomposition of the vn x vn Gram only when CG gives up. Z comes
from a k x k LU solve through the push-through identity (Z's system
I + H.T H is the identity plus a rank-k term), E from the columnwise l2,1
proximal map, and J from block-diagonal-preserving shrinkage.

`solve_matrix` forms the matrix the loop iterates on (`cli`, once per run):
X, or when d > vn >= k its views' QR factors R_p in X's block formula.
Z, J and Y3 are float32 (see `init_state`); every other iterate, and
every product whose rounding reaches a multiplier or the stop test, is
float64. Each step follows its arrays' dtypes: a float64 state runs in float64.
"""

import csv
from contextlib import contextmanager
from dataclasses import dataclass, field
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
    soft_threshold,  # looked up here by bench/traced_cluster.py
    solve_sylvester,  # looked up here by bench/traced_cluster.py
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
        finite_real(self.lam, "lam", low=0)
        number(self.latent_dim, "latent_dim", low=1)
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
    Q E1, Q Y1 in X's; Q = blockdiag(Q_p)); the report holds for X."""

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


# dtype of the vn x vn iterates Z, J and Y3
VN2_DTYPE = np.float32

# the penalty schedule. RHO = 3 needs fewer iterations than 2 at the same
# clustering accuracy, though where lam is large it stops at a higher
# objective value; 4 lowers the accuracy on a noisy low-dimensional family
MU0, MU_MAX, RHO = 1e-4, 1e6, 3.0


def init_state(xa, cfg):
    """Fresh state: H i.i.d. standard Gaussian from cfg.seed, all else zero.

    E1 and E2 are views of one stacked (d+k) x vn buffer, which `run` hands
    to each E step to refill in place. Inside `reuse_buffers(xa, k)` Z, J,
    Y3, that stack and Y1 are the block's buffers, zero-filled, not new ones.

    Z, J and Y3, `run`'s vn x vn iterates, are VN2_DTYPE, float32: the
    vn x vn passes (the H step's products with W = I - Z or its Gram and
    eigendecomposition, the Z step's H.T S^-1 G, the J pass) are bound by
    memory bandwidth or gemm speed, which float32 halves, and their rounding of
    6e-8 relative stays far below the 1e-3 stop. X, P, H, E1, E2, Y1 and Y2
    are float64: in float32, Y1/mu is lost against X, H keeps a solve on the
    dense H step from converging, and H - H Z misreads the self-representation
    gap.
    """
    (d, vn), k = xa.xa.shape, cfg.latent_dim
    h = rng_from(cfg.seed).standard_normal((k, vn))
    reused = _REUSED.get((id(xa), k))
    if reused is None:
        z, j, y3, e, y1 = _zeroed_buffers(d, vn, k)
    else:
        z, j, y3, e, y1 = reused[1]
        for buf in reused[1]:
            buf.fill(0)
    return AdmmState(p=np.zeros((d, k)), h=h, z=z, e1=e[:d], e2=e[d:], j=j,
                     y1=y1, y2=np.zeros((k, vn)), y3=y3, mu=MU0)


def _zeroed_buffers(d, vn, k):
    """init_state's Z, J, Y3 (vn x vn, VN2_DTYPE), [E1; E2] and Y1."""
    return (*(np.zeros((vn, vn), VN2_DTYPE) for _ in range(3)),
            np.zeros((d + k, vn)), np.zeros((d, vn)))


# (id of a solve matrix, k) -> (that matrix, its buffers), only while a
# reuse_buffers block on them is open; holding the matrix keeps its id
_REUSED = {}


@contextmanager
def reuse_buffers(xa, k):
    """Within the block, every init_state on the solve matrix `xa` (a
    `solve_matrix` result) at latent_dim k zero-fills one set of buffers,
    made and paged in here, before any solve, rather than allocating its
    own; `workspace_plan` counts them. A `run` output made inside the block
    shares them, so it holds only until the next solve there; `cli` keeps
    none past its trial. Any other matrix or k, and any solve once the
    block closes, allocates."""
    key = (id(xa), k)
    bufs = _zeroed_buffers(*xa.xa.shape, k)
    for buf in bufs:
        buf.fill(0)  # np.zeros maps pages at first touch: commit them now
    _REUSED[key] = (xa, bufs)
    try:
        yield
    finally:
        del _REUSED[key]


def solve_rows(xa, cfg):
    """Row count of the matrix `run` iterates on: vn when d > vn >= k (the
    views' factors), else d = sum d_p; a k above d is refused."""
    d, vn, k = sum(xa.view_dims), xa.n_views * xa.n_samples, cfg.latent_dim
    if k > d:
        raise ValueError(
            f"latent_dim={k} exceeds the stacked feature dimension d={d}")
    return vn if k <= vn < d else d


def workspace_plan(xa, cfg):
    """Bytes of the arrays a run on `xa` allocates once (`reuse_buffers`),
    from shapes alone: the solve matrix, Z, J and Y3, [E1; E2] and Y1 at
    the solve's row count, and their total."""
    rows, vn = solve_rows(xa, cfg), xa.n_views * xa.n_samples
    f64 = np.dtype(np.float64).itemsize
    plan = {"solve_matrix": rows * vn * f64,
            "z_j_y3": 3 * vn * vn * np.dtype(VN2_DTYPE).itemsize,
            "e1_e2": (rows + cfg.latent_dim) * vn * f64,
            "y1": rows * vn * f64}
    plan["total"] = sum(plan.values())
    return plan


# rows per panel of the d x vn passes: a 32 x vn scratch buffer is small
PANEL_ROWS = 32


def _row_panels(rows, cols, step=PANEL_ROWS, dtype=np.float64):
    """(rows slice, scratch of its shape) per panel of `step` rows; one
    buffer serves all."""
    buf = np.empty((min(rows, step), cols), dtype)
    for i in range(0, rows, step):
        yield slice(i, i + step), buf[:min(rows - i, step)]


def _latent_target(state, xa):
    """T = X + Y1/mu - E1: the matrix P H is pulled toward in the P and H
    steps, formed as (Y1/mu + X) - E1 by row panels into a new array."""
    t = np.empty(xa.shape)
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
    """Latent step: solve H (I + W W.T) = C.

    The subproblem's normal equations, divided through by mu, have W = I - Z
    and C = P.T T - D W.T with D = Y2/mu - E2 and update_p's target
    T = X + Y1/mu - E1; `target` takes T when the caller already has it, and
    then neither E1 nor Y1 is read (in `run` Y1's buffer holds T). P must have
    orthonormal columns (P.T P = I within 1e-8), as update_p returns it; any
    other P is refused with a ValueError before anything is written. The SPD
    system is solved by conjugate gradients on the k rows (`gram_cg_solve`),
    warm-started from the current H; only when CG gives up (at its cap, or
    on overflow) is B = I + W W.T formed and solved through its
    eigendecomposition (`spd_solve`).

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
    if not np.abs(p.T @ p - np.eye(k)).max() <= 1e-8:
        raise ValueError("update_h needs P with orthonormal columns")
    diag = np.s_[::vn + 1]
    hw = _latent_gap(state.h, z) if hw is None else hw
    w = np.negative(z, out=out)
    w.flat[diag] += 1.0
    c = p.T @ (_latent_target(state, xa) if target is None else target)
    dhw = np.concatenate([state.y2 / state.mu - state.e2, hw], dtype=w.dtype)
    dhw = (w @ dhw.T).T
    c -= dhw[:k]
    h, _ = gram_cg_solve(w, c, state.h, x0ww=dhw[k:])
    if h is None:
        # matmul on w and its own transpose view runs as a syrk
        b = np.matmul(w, w.T)
        b.flat[diag] += 1.0
        h = spd_solve(b, c.T).T
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
    that A is never copied into another precision. The LU solve stays,
    though inv(S) @ G is about 4x faster: with that product a float32
    solve's final objective left the float64 one's 1e-4 bound, which
    tests/test_solver.py holds, at two BLAS threads.
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


def update_e(state, xa, out=None, ascent=None):
    """Error step: columnwise l2,1 shrinkage of the stacked residual target.

    G = [X - P H + Y1/mu; H - H Z + Y2/mu] is formed in one (d+k) x vn
    buffer, `out` when given (P H is written first, so it may hold
    anything), and shrunk in place; E1 and E2 are returned as its views.
    H - H Z is formed in float64 from a float32 Z too (`_latent_gap`).

    `ascent` is `run`'s mode, in which E1 and Y1 are held as column
    scalings of G1, G's first d rows. On entry `out`'s first d rows hold
    the last step's G1, with Y1/mu = ascent * G1, and Y1's buffer is free:
    X - P H goes there, and G1 = (X - P H) + ascent * G1 over the old G1,
    which is left unshrunk. With s = l21_scale(||G||, 1/mu), E1 = s G1, and
    the dual step Y1 += mu R1 gives Y1 = mu (1 - s) G1, so neither is
    written. The step returns (s, ||G||, `residuals`' r1, H - H Z), whence
    R1 = (X - P H) - s G1 and R2 = H - H Z - E2.
    """
    mu, (d, vn) = state.mu, xa.shape
    g = np.empty((d + state.h.shape[0], vn)) if out is None else out
    g1 = g[:d]
    xph = np.matmul(state.p, state.h, out=g1 if ascent is None else state.y1)
    np.subtract(xa, xph, out=xph)
    if ascent is None:
        for s, panel in _row_panels(d, vn):
            g1[s] += np.divide(state.y1[s], mu, out=panel)
    else:
        g1 *= ascent
        g1 += xph
    dh = _latent_gap(state.h, state.z)
    np.add(state.y2 / mu, dh, out=g[d:])
    norms = col_norms(g)
    e2 = col_l21_prox(g[d:], 1.0 / mu, out=g[d:], norms=norms)
    scale = l21_scale(norms, 1.0 / mu)
    if ascent is None:
        g1 *= scale
        return g1, e2
    sq = np.zeros(vn)
    for s, r in _row_panels(d, vn):
        np.subtract(xph[s], np.multiply(g1[s], scale, out=r), out=r)
        sq += np.einsum("ij,ij->j", r, r)
    return scale, norms, float(np.sqrt(sq.max())), dh


def update_j(state, lam, v, n):
    """Auxiliary step: keep diagonal blocks, shrink off-diagonal entries of
    M = Z - Y3/mu by lam/mu, into a new array; `run` makes it in place."""
    c = np.negative(state.y3 / state.mu)
    j = np.empty(c.shape, np.result_type(state.z, c))
    _j_pass(state.z, j, c, lam / state.mu, v, n)
    return j


def _j_pass(z, b, c, eta, v, n):
    """The J step and Y3 dual step: B = Z + c (c = -Y3/mu on entry) into b,
    C = clip(B, -eta, eta), zero on the diagonal blocks, into c, J = B - C
    (B shrunk by eta off them) into b; Y3 + mu (J - Z) is then -mu C.
    Returns max |J - Z|, taken by row panels through one scratch panel.
    eta is cast to b's dtype first, the rounding np.clip gives a Python
    float bound, so J and C keep their bits."""
    eta = b.dtype.type(eta)
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


def objective(state, lam, v, n, norms=None):
    """Value of the unconstrained objective at the current primal variables:
    l2,1 norm of the stacked error [E1; E2] plus lam times the l1 norm of
    the off-diagonal blocks of Z. Both are summed block by block, so E is
    never stacked and no vn x vn temporary is made; a float32 Z's blocks
    are summed in float64. `norms` takes the column norms of a G whose
    shrinkage at the current mu is E: E's are then max(||G_j|| - 1/mu, 0)."""
    l21 = float(col_norms(state.e1, state.e2).sum() if norms is None
                else np.maximum(norms - 1.0 / state.mu, 0).sum())
    blocks = state.z.reshape(v, n, v, n)
    off = sum(float(np.abs(blocks[i, :, l, :]).sum(dtype=np.float64))
              for i in range(v) for l in range(v) if i != l)
    return l21 + lam * off


def solve_matrix(xa, cfg):
    """The augmented matrix `run` iterates on, its `xa` formed, once a k
    above d = sum d_p is refused (before any factoring or forming). When
    d > vn >= k the views are factored, and X = QR with the vn x vn R and
    Q = blockdiag(Q_p) never formed (Liu et al., TPAMI 2013; d > vn leaves
    Q room for padding rows). Under v2 the off-diagonal blocks are dropped.
    Its row count is `solve_rows`'. Idempotent: a second call returns its
    argument."""
    if solve_rows(xa, cfg) < sum(xa.view_dims):
        xa = xa.factored
    if cfg.ablation == "v2" and xa.aligned:
        xa = xa.v2
    xa.xa  # formed here, so that every trial shares it
    return xa


def run(xa, cfg):
    """Execute the full alternating schedule on an augmented matrix.

    Updates run in the fixed order P, H, Z, J, E, multipliers, penalty (J
    and E read neither each other's variable, so this is the P, H, Z, E, J
    iteration); the trace records every iteration; the loop stops once all
    three residuals drop below cfg.tol or cfg.max_iter is reached. The KKT
    report is taken at the final iterate, against the matrix the solve ran
    on, `solve_matrix(xa, cfg)`: a caller that solves one matrix many times
    (`cli`'s trials) passes that result, which `run` then uses unchanged.
    Deterministic for a fixed seed.

    When that matrix is the factored R of X = QR: Y1 and E1 start at 0, so
    every d x vn iterate on X stays in range(Q), and as column norms and
    P.T P = I hold under Q.T, H, Z, E2, Y2, J, Y3, the trace and the KKT
    report equal those on X (P is completed freely where H T.T has rank
    below k, on X as on R).

    J and Y3 are held implicitly: the J step and Y3's dual step give
    Y3 = -mu C (`_j_pass`), the last block's dual condition (Boyd et al.,
    FnT-ML 2011, 3.3). Y3's buffer holds C, then r C = -Y3/mu' (mu' the
    next penalty, r = mu/mu'), and J's holds B, then J, then the next Z
    step's A = J - r C. After the last iteration Y3 = -mu C is formed.

    E1 and Y1 are held implicitly too, by the E block's dual condition
    (`update_e`'s ascent mode): E1's buffer holds the E step's unshrunk G1,
    with E1 = s G1 and Y1 = mu (1 - s) G1. Y1's buffer holds the next
    T = X + (r (1 - s) - s) G1 through the P and H steps, then X - P H.
    After the last iteration Y1 and then E1 are formed.
    """
    xa = solve_matrix(xa, cfg)
    mat, v, n = xa.xa, xa.n_views, xa.n_samples
    lam = cfg.effective_lam

    state = init_state(xa, cfg)
    e = state.e1.base  # the stacked [E1; E2] that init_state made
    # beside X, Y1's buffer and E are the only d x vn arrays. A and -Y3/mu
    # start at 0, as J and Y3 do, and H W at H, as W = I - Z = I; G1 is 0,
    # so any column scales give E1 = Y1 = 0
    a, c, hw = state.j, state.y3, state.h
    e_scale = y_scale = np.zeros(mat.shape[1])
    trace = ConvergenceTrace()
    for t in range(1, cfg.max_iter + 1):
        mu = state.mu
        try:
            target = np.multiply(state.e1, y_scale - e_scale, out=state.y1)
            target += mat
            state.p = update_p(state, mat, target=target)
            # W = I - Z goes over Z, which nothing reads again before
            # update_z writes the new Z there
            state.h = update_h(state, mat, target=target, hw=hw, out=state.z)
            state.z = update_z(state, a=a, out=state.z)
            r3 = _j_pass(state.z, a, c, lam / mu, v, n)
            e_scale, norms, r1, hw = update_e(state, mat, out=e,
                                              ascent=y_scale)
        except NumericalError as exc:
            raise NumericalError(f"iteration {t}: {exc}") from exc
        obj = objective(state, lam, v, n, norms=norms)
        r2 = hw - state.e2
        primal = residuals(state, mat, (r1, r2, r3))
        trace.append(*primal, obj, mu)
        update_multipliers(state, mat, (None, r2, None))
        converged = max(primal) < cfg.tol
        if converged or t == cfg.max_iter:
            break
        c *= mu / state.mu
        a -= c
        y_scale = (mu / state.mu) * (1 - e_scale)

    c *= -mu
    np.multiply(state.e1, mu * (1 - e_scale), out=state.y1)
    state.e1 *= e_scale
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

    # block by block through two n x n scratches, with the l1 weight w = lam
    # off the diagonal blocks and 0 on them: w (1 - |sgn J|) is 0 on active
    # entries and w on inactive ones, where sgn J = 0 and the gap is
    # |Y3| - w
    lam = state.y3.dtype.type(lam)
    y3, j = state.y3.reshape(v, n, v, n), state.j.reshape(v, n, v, n)
    sgn, gap = np.empty((2, n, n), np.result_type(y3, j))
    j_gap = 0.0
    for a, b in np.ndindex(v, v):
        w = lam * (a != b)
        np.sign(j[a, :, b], out=sgn)
        np.add(y3[a, :, b], np.multiply(w, sgn, out=gap), out=gap)
        np.abs(gap, out=gap)
        np.subtract(1, np.abs(sgn, out=sgn), out=sgn)
        gap -= np.multiply(w, sgn, out=sgn)
        j_gap = max(j_gap, float(gap.max(initial=0.0)))

    return KktReport(recon=p1, selfrep=p2, aux=p3, e_gap=e_gap, j_gap=j_gap)
