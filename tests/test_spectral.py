import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elmsc import cli
from elmsc.spectral import (
    affinity,
    cluster,
    kmeans,
    spectral_embed,
)


def block_affinity(sizes, rng=None, value=1.0):
    """Block-constant symmetric affinity with one block per component."""
    n = sum(sizes)
    w = np.zeros((n, n))
    start = 0
    for s in sizes:
        w[start:start + s, start:start + s] = value
        start += s
    return w


# ---------------------------------------------------------------------------
# affinity
# ---------------------------------------------------------------------------

def test_affinity_fixed_point_for_symmetric_nonnegative():
    rng = np.random.default_rng(0)
    z = np.abs(rng.standard_normal((5, 5)))
    z = 0.5 * (z + z.T)
    assert_allclose(affinity(z), z, atol=1e-15)


def test_affinity_direct_formula():
    z = np.array([[0.0, -2.0], [4.0, 0.0]])
    assert_allclose(affinity(z), [[0.0, 3.0], [3.0, 0.0]], atol=1e-15)


def test_affinity_exactly_symmetric_and_nonnegative():
    rng = np.random.default_rng(1)
    w = affinity(rng.standard_normal((8, 8)))
    assert np.array_equal(w, w.T)
    assert np.all(w >= 0)


def test_affinity_rejects_nonsquare():
    with pytest.raises(ValueError):
        affinity(np.ones((2, 3)))


# ---------------------------------------------------------------------------
# spectral_embed (Ng-Jordan-Weiss)
# ---------------------------------------------------------------------------

def test_embed_rows_unit_norm():
    rng = np.random.default_rng(4)
    f = spectral_embed(affinity(rng.standard_normal((8, 8))), 4)
    assert f.shape == (8, 4)
    assert_allclose(np.linalg.norm(f, axis=1), np.ones(8), atol=1e-12)


def test_embed_zero_degree_sample_gets_zero_row():
    rng = np.random.default_rng(2)
    w = affinity(rng.standard_normal((7, 7)))
    w[3, :] = w[:, 3] = 0.0  # an isolated sample
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        f = spectral_embed(w, 3)
    assert np.all(np.isfinite(f))
    assert np.array_equal(f[3], np.zeros(3))
    others = np.delete(f, 3, axis=0)
    assert_allclose(np.linalg.norm(others, axis=1), np.ones(6), atol=1e-12)


def test_embed_two_components_span_indicators():
    # block-constant affinity: one point per block on the unit sphere, the
    # blocks' points mutually orthogonal, whatever the block sizes
    sizes = [4, 3]
    f = spectral_embed(block_affinity(sizes), 2)
    blocks = np.split(f, np.cumsum(sizes)[:-1])
    for block in blocks:
        assert_allclose(block, np.broadcast_to(block[0], block.shape),
                        atol=1e-8)
    centers = np.array([block[0] for block in blocks])
    assert_allclose(centers @ centers.T, np.eye(2), atol=1e-8)


def test_embed_contains_constant_vector_for_connected_graph():
    # the top eigenvector of D^-1/2 W D^-1/2 is D^1/2 1, positive on a
    # connected graph, so one dimension embeds every sample at one point
    rng = np.random.default_rng(3)
    w = affinity(np.abs(rng.standard_normal((9, 9))) + 0.1)
    f = spectral_embed(w, 1)
    assert_allclose(np.abs(f), np.ones((9, 1)), atol=1e-12)
    assert len(set(np.sign(f[:, 0]))) == 1


def test_embed_rejects_dimension_out_of_range():
    w = block_affinity([2, 2])
    for c in (0, 5):
        with pytest.raises(ValueError):
            spectral_embed(w, c)


# ---------------------------------------------------------------------------
# kmeans
# ---------------------------------------------------------------------------

def test_kmeans_separated_clouds():
    rng = np.random.default_rng(6)
    a = rng.standard_normal((12, 2)) * 0.1
    b = rng.standard_normal((15, 2)) * 0.1 + 100.0
    points = np.vstack([a, b])
    labels, _ = kmeans(points, 2, seed=0)
    assert len(set(labels[:12])) == 1
    assert len(set(labels[12:])) == 1
    assert labels[0] != labels[-1]


def test_kmeans_singletons_zero_inertia():
    rng = np.random.default_rng(7)
    points = rng.standard_normal((6, 3))
    _, inertia = kmeans(points, 6, seed=1)
    assert inertia == pytest.approx(0.0, abs=1e-20)


def test_kmeans_deterministic():
    rng = np.random.default_rng(8)
    points = rng.standard_normal((30, 4))
    la, ia = kmeans(points, 4, seed=9)
    lb, ib = kmeans(points, 4, seed=9)
    assert np.array_equal(la, lb)
    assert ia == ib


@pytest.mark.parametrize("points, c", [
    (np.zeros((6, 2)), 2),
    (np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 3),
    (np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), 3),
], ids=["all-coincide", "distinct-last", "distinct-first"])
def test_kmeans_coincident_points_fill_every_cluster(points, c):
    # seeding runs out of distance weight and Lloyd revives empty clusters;
    # a revival must not empty a singleton cluster
    labels, inertia = kmeans(points, c, seed=0)
    assert len(set(labels.tolist())) == c
    assert inertia == 0.0
    again, inertia_again = kmeans(points, c, seed=0)
    assert np.array_equal(labels, again)
    assert inertia_again == inertia


def test_kmeans_rejects_too_many_clusters():
    with pytest.raises(ValueError):
        kmeans(np.zeros((3, 2)), 4)


def test_kmeans_lloyd_inertia_monotone():
    # replicate the assignment/update cycle and check inertia never rises
    from elmsc.spectral import _greedy_seed
    from elmsc.numerics import rng_from

    rng = np.random.default_rng(10)
    points = rng.standard_normal((40, 3))
    centers = _greedy_seed(points, 5, rng_from(3, 0))
    prev = np.inf
    for _ in range(50):
        d2 = ((points[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels = d2.argmin(axis=1)
        inertia = float(d2[np.arange(40), labels].sum())
        assert inertia <= prev + 1e-9
        prev = inertia
        new_centers = centers.copy()
        for k in range(5):
            if (labels == k).any():
                new_centers[k] = points[labels == k].mean(axis=0)
        # the mean update also never raises the objective
        post = float(((points - new_centers[labels]) ** 2).sum())
        assert post <= inertia + 1e-9
        prev = post
        if np.allclose(new_centers, centers):
            break
        centers = new_centers


# ---------------------------------------------------------------------------
# cluster pipeline
# ---------------------------------------------------------------------------

def test_cluster_recovers_two_blocks_exactly():
    zhat = block_affinity([5, 7])
    result = cluster(zhat, 2, seed=0)
    assert len(set(result.labels[:5])) == 1
    assert len(set(result.labels[5:])) == 1
    assert result.labels[0] != result.labels[-1]


def test_cluster_permutation_equivariance():
    rng = np.random.default_rng(11)
    zhat = block_affinity([4, 6, 5]) + 0.01  # connected noise floor off-blocks
    perm = rng.permutation(15)
    base = cluster(zhat, 3, seed=2).labels
    permuted = cluster(zhat[np.ix_(perm, perm)], 3, seed=2).labels
    # same partition after undoing the permutation, up to renaming
    from elmsc.metrics import LabelPair, acc

    assert acc(LabelPair(predicted=permuted, truth=base[perm])) == 1.0


def test_cluster_single_cluster_degenerate():
    rng = np.random.default_rng(12)
    result = cluster(np.abs(rng.standard_normal((6, 6))), 1, seed=0)
    assert len(set(result.labels)) == 1


def test_cluster_retains_intermediates():
    zhat = block_affinity([3, 3])
    result = cluster(zhat, 2, seed=0)
    assert result.embedding.shape == (6, 2)
    assert result.kmeans_inertia >= 0


def test_cluster_recovers_at_large_latent_dim(tmp_path):
    # ten clusters at latent dim 100 (vn=600): the unnormalized Laplacian
    # L = D - W embedding clustered this case at ACC 0.39 and 0.305
    spec = {"clusters": 10, "per_cluster": 20, "views": 3, "latent_dim": 30,
            "view_dims": [120, 100, 110], "noise_sigma": 0.1, "seed": 0}
    out = tmp_path / "o"
    code = cli.main(["cluster", "--synthetic", json.dumps(spec), "--clusters",
                     "10", "--latent-dim", "100", "--trials", "2", "--seed",
                     "0", "--out", str(out)])
    assert code == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["aggregate"]["acc"]["mean"] >= 0.95
