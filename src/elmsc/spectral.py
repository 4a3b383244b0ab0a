"""Spectral clustering of an aggregated self-representation matrix.

Pipeline: symmetrized absolute affinity W, the Ng-Jordan-Weiss embedding
(top eigenvectors of D^-1/2 W D^-1/2, rows scaled to unit length), then
Lloyd k-means with greedy distance-weighted seeding.
"""

from dataclasses import dataclass

import numpy as np

from .numerics import rng_from, sym_eig

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


def spectral_embed(w, c):
    """Ng-Jordan-Weiss embedding of an affinity W: the n x c eigenvectors of
    D^-1/2 W D^-1/2 for its c largest eigenvalues, each row scaled to unit
    length. A sample of zero degree gets a zero row."""
    w = np.asarray(w, dtype=np.float64)
    n = w.shape[0]
    if not 1 <= c <= n:
        raise ValueError(f"embedding dimension {c} outside [1, {n}]")
    deg = w.sum(axis=1)
    s = np.divide(1.0, np.sqrt(deg), out=np.zeros(n), where=deg > 0)
    # an isolated sample's entries are rounding noise: keep its row zero
    u = sym_eig(s[:, None] * w * s)[1][:, n - c:] * (deg > 0)[:, None]
    norms = np.linalg.norm(u, axis=1, keepdims=True)
    return np.divide(u, norms, out=np.zeros_like(u), where=norms > 0)


def _greedy_seed(points, c, rng):
    """Distance-weighted (k-means++ style) seeding with greedy candidate
    selection; ties and degenerate weights resolve deterministically."""
    n = points.shape[0]
    centers = np.empty((c, points.shape[1]))
    first = int(rng.integers(n))
    centers[0] = points[first]
    d2 = ((points - centers[0]) ** 2).sum(axis=1)
    n_candidates = 2 + int(np.log(c))
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
                # revive an empty cluster at the point farthest from its
                # centroid whose own cluster keeps another member
                kept = np.bincount(new_labels, minlength=c)[new_labels] > 1
                own = d2[np.arange(n), new_labels]
                far = int(np.where(kept, own, -1.0).argmax())
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
    # the n x n affinity is not kept past the embedding
    f = spectral_embed(affinity(zhat), c)
    labels, inertia = kmeans(f, c, seed=seed)
    return ClusteringResult(
        labels=labels,
        embedding=f,
        kmeans_inertia=inertia,
    )
