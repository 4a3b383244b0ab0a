"""Spectral clustering of an aggregated self-representation matrix.

Pipeline: symmetrized absolute affinity, unnormalized graph Laplacian,
eigenvector embedding on the smallest eigenvalues, then Lloyd k-means with
greedy distance-weighted seeding.
"""

from dataclasses import dataclass

import numpy as np

from ._seeds import rng_from
from .numerics import sym_eig

_LLOYD_CAP = 300
_RESTARTS = 10


@dataclass(frozen=True)
class ClusteringResult:
    labels: np.ndarray
    embedding: np.ndarray
    kmeans_inertia: float


def affinity(zhat):
    """Symmetric nonnegative similarity graph over samples:
    W = (|Z| + |Z.T|) / 2, exactly symmetric by construction."""
    zhat = np.asarray(zhat, dtype=np.float64)
    if zhat.ndim != 2 or zhat.shape[0] != zhat.shape[1]:
        raise ValueError(f"affinity needs a square matrix, got shape {zhat.shape}")
    return 0.5 * (np.abs(zhat) + np.abs(zhat.T))


def laplacian(w):
    """Unnormalized Laplacian L = D - W of an affinity matrix W, with D the
    row-sum degree matrix."""
    return np.diag(w.sum(axis=1)) - w


def spectral_embed(l, c):
    """Eigenvectors of L for the c smallest eigenvalues, as columns of an
    n x c matrix with orthonormal columns."""
    l = np.asarray(l, dtype=np.float64)
    n = l.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"embedding dimension {c} outside [1, {n}]")
    return sym_eig(l)[1][:, :c]


def _greedy_seed(points, c, rng):
    """Distance-weighted (k-means++ style) seeding with greedy candidate
    selection; ties and degenerate weights resolve deterministically."""
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    n_candidates = 2 + int(np.log(c)) if c > 1 else 1
    for i in range(1, c):
        total = d2.sum()
        if total <= 0:
            # all points already coincide with chosen centers
            centers[i] = points[int(rng.integers(n))]
            continue
        cand = rng.choice(n, size=n_candidates, p=d2 / total)
        best_j, best_pot = None, np.inf
        for jdx in cand:
            pot = np.minimum(d2, ((points - points[jdx]) ** 2).sum(axis=1)).sum()
            if pot < best_pot:
                best_pot, best_j = pot, int(jdx)
        centers[i] = points[best_j]
        d2 = np.minimum(d2, ((points - centers[i]) ** 2).sum(axis=1))
    return centers


def _lloyd(points, centers):
    n, c = points.shape[0], centers.shape[0]
    labels = np.full(n, -1)
    for _ in range(_LLOYD_CAP):
        # argmin breaks ties toward the lowest centroid index
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        for k in range(c):
            mask = new_labels == k
            if mask.any():
                centers[k] = points[mask].mean(axis=0)
            else:
                # revive an empty cluster at the point farthest from its centroid
                far = int(d2[np.arange(n), new_labels].argmax())
                centers[k] = points[far]
                new_labels[far] = k
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, inertia


def kmeans(points, c, seed=0):
    """Best-of-`_RESTARTS` Lloyd clustering, deterministic for a fixed seed.

    Each restart draws its own derived seed; the run with the lowest inertia
    wins, ties going to the lowest restart index.
    """
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    if c > n:
        raise ValueError(f"cannot form {c} clusters from {n} points")
    best_labels, best_inertia = None, np.inf
    for r in range(_RESTARTS):
        rng = rng_from(seed, r)
        centers = _greedy_seed(points, c, rng)
        labels, inertia = _lloyd(points, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia


def cluster(zhat, c, seed=0):
    """Full pipeline from aggregated representation to cluster labels."""
    # the n x n affinity and Laplacian are not kept past the embedding
    f = spectral_embed(laplacian(affinity(zhat)), c)
    labels, inertia = kmeans(f, c, seed=seed)
    return ClusteringResult(
        labels=labels,
        embedding=f,
        kmeans_inertia=inertia,
    )
