"""Shared fixtures and random-state builders for the test suite."""

import os

# Must be set before numpy loads: multi-threaded OpenBLAS is slower than
# single-threaded at these matrix sizes on small machines.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402

from elmsc.solver import AdmmState, ElmscConfig  # noqa: E402


def random_row_orthonormal(rng, r, c):
    """r x c matrix with orthonormal rows, r <= c."""
    q, _ = np.linalg.qr(rng.standard_normal((c, r)))
    return q.T


def random_admm_state(rng, d, k, v, n, mu=1.0):
    """A generic mid-iteration solver state with column-orthonormal P."""
    vn = v * n
    return AdmmState(
        p=random_row_orthonormal(rng, k, d).T,
        h=rng.standard_normal((k, vn)),
        z=rng.standard_normal((vn, vn)) / np.sqrt(vn),
        e1=rng.standard_normal((d, vn)) * 0.1,
        e2=rng.standard_normal((k, vn)) * 0.1,
        j=rng.standard_normal((vn, vn)) / np.sqrt(vn),
        y1=rng.standard_normal((d, vn)) * 0.1,
        y2=rng.standard_normal((k, vn)) * 0.1,
        y3=rng.standard_normal((vn, vn)) * 0.1,
        mu=mu,
    )


def fix_iterations(monkeypatch, n):
    """Make every solve in the test run exactly n iterations: the stop
    rule is a class constant of ElmscConfig, not a per-run setting."""
    monkeypatch.setattr(ElmscConfig, "tol", 1e-300)
    monkeypatch.setattr(ElmscConfig, "max_iter", n)


def phi(theta, psi, mu):
    """Penalty-plus-multiplier coupling term of the augmented Lagrangian."""
    return 0.5 * mu * np.sum(psi**2) + np.sum(theta * psi)
