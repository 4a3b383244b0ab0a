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


def _sqdist(a, points):
    """Squared distances (..., m, n) from the rows of a (..., m, f) to the n
    points, summed one feature at a time: no (..., m, n, f) temporary."""
    d2 = np.zeros(a.shape[:-1] + (len(points),))
    diff = np.empty_like(d2)
    for j, pj in enumerate(points.T):
        d2 += np.square(np.subtract(pj, a[..., j, None], out=diff), out=diff)
    return d2


def _greedy_seed(points, c, rngs):
    """Greedy distance-weighted (k-means++) seeding, shape (restarts, c, f):
    one restart per generator, all at once, each drawing as it would alone;
    ties and zero weights resolve deterministically."""
    n, rows, n_cand = len(points), np.arange(len(rngs)), 2 + int(np.log(c))
    # one distance row per distinct point drawn, computed when it is first
    # drawn and shared by every restart and step: at most restarts x
    # (1 + (c - 1) n_cand) rows, and no more than there are points
    slot = np.full(n, -1)
    cache = np.empty((min(n, len(rngs) * (1 + (c - 1) * n_cand)), n))
    cached = 0

    def sqdist_rows(idx):
        nonlocal cached
        # sorted and distinct, as np.unique gives them without its import
        # of numpy.ma
        new = np.flatnonzero(np.bincount(idx[slot[idx] < 0], minlength=n))
        slot[new] = range(cached, cached + len(new))
        cache[cached:cached + len(new)] = _sqdist(points[new], points)
        cached += len(new)
        return cache[slot[idx]]

    picks = [np.array([rng.integers(n) for rng in rngs])]
    d2 = sqdist_rows(picks[0])
    for _ in range(1, c):
        total = d2.sum(axis=1)
        with np.errstate(invalid="ignore"):  # a zero-weight row is not read
            cdf = np.cumsum(d2 / total[:, None], axis=1)
            cdf /= cdf[:, -1:]
        # rng.choice(n, n_cand, p=d2[r] / total[r]) by numpy's own rule; a
        # restart whose points all coincide with its centers draws one point
        cand = np.array([cdf[r].searchsorted(rng.random(n_cand), "right")
                         if total[r] > 0 else np.full(n_cand, rng.integers(n))
                         for r, rng in enumerate(rngs)])
        # candidate potentials; argmin takes the first-drawn of equal ones
        d2s = np.minimum(d2[:, None], sqdist_rows(cand))
        best = d2s.sum(axis=2).argmin(axis=1)
        picks.append(cand[rows, best])
        d2 = d2s[rows, best]
    return points[np.stack(picks, axis=1)]


def _lloyd(points, centers):
    """Lloyd passes on all restarts' centers (restarts, c, f) at once, in place,
    each until a pass keeps its labels or leaves every point on a centre;
    returns the labels, shape (restarts, n)."""
    n, c = len(points), centers.shape[1]
    labels, live = np.full((len(centers), n), -1), np.arange(len(centers))
    for _ in range(_LLOYD_CAP):
        d2 = _sqdist(centers[live], points)
        new = d2.argmin(axis=1)  # ties go to the lowest centroid index
        offset = c * np.arange(len(live))[:, None]
        counts = np.bincount((new + offset).ravel(), minlength=len(live) * c)
        counted = new.copy()  # the cluster whose mean each point joins
        for r, k in np.argwhere(counts.reshape(-1, c) == 0):
            # revive an empty cluster on the point farthest from its centroid
            # whose cluster keeps another member; means go in index order, so
            # a lower-indexed cluster's mean still counts that point
            lab = new[r]
            kept = np.bincount(lab, minlength=c)[lab] > 1
            far = int(np.where(kept, d2[r, lab, np.arange(n)], -1.0).argmax())
            counted[r, far], lab[far] = min(k, lab[far]), k
        # each mean sums its members in index order, as a row mean does
        flat = (counted + offset).ravel()
        counts = np.maximum(np.bincount(flat, minlength=len(counts)), 1)
        centers[live] = np.stack([np.bincount(flat, w, len(counts)) / counts
                                  for w in np.tile(points.T, len(live))], -1
                                 ).reshape(len(live), c, -1)
        r, far = np.nonzero(counted != new)
        centers[live[r], new[r, far]] = points[far]
        # past a pass that leaves every point on a centre, revivals cycle
        done = (new == labels[live]).all(axis=1) | (d2.min(axis=1).max(axis=1) == 0)
        labels[live] = new
        live = live[~done]
        if not live.size:
            break
    return labels


def kmeans(points, c, seed=0):
    """Best-of-`_RESTARTS` Lloyd clustering, deterministic for a fixed seed:
    the restarts run as one batch, each drawing from its own derived seed,
    and the lowest inertia wins, ties going to the lowest restart index."""
    points = np.asarray(points, dtype=np.float64)
    if c > len(points):
        raise ValueError(f"cannot form {c} clusters from {len(points)} points")
    centers = _greedy_seed(points, c, [rng_from(seed, r) for r in range(_RESTARTS)])
    labels = _lloyd(points, centers)
    inertia = [float(((points - m[lab]) ** 2).sum())
               for m, lab in zip(centers, labels)]
    best = int(np.argmin(inertia))
    return labels[best], inertia[best]


def cluster(zhat, c, seed=0):
    """Full pipeline from aggregated representation to cluster labels."""
    # the n x n affinity is not kept past the embedding
    f = spectral_embed(affinity(zhat), c)
    labels, inertia = kmeans(f, c, seed=seed)
    return ClusteringResult(labels=labels, embedding=f, kmeans_inertia=inertia)
