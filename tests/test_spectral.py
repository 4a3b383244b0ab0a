import json
import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elmsc import cli, solver, spectral
from elmsc.dataset import build_augmented, default_pca_components, gen_synthetic
from elmsc.numerics import rng_from
from elmsc.spectral import (
    _LLOYD_CAP,
    _RESTARTS,
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
    rng = np.random.default_rng(10)
    points = rng.standard_normal((40, 3))
    centers = reference_greedy_seed(points, 5, rng_from(3, 0))
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
# kmeans: the one-restart-at-a-time program it batches, kept as a reference
# ---------------------------------------------------------------------------

def reference_greedy_seed(points, c, rng):
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


def reference_lloyd(points, centers):
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
        done = (np.array_equal(new_labels, labels)
                or d2.min(axis=1).max() == 0)
        labels = new_labels
        if done:
            break
    inertia = float(((points - centers[labels]) ** 2).sum())
    return labels, inertia


def reference_kmeans(points, c, seed):
    best_labels, best_inertia = None, np.inf
    for r in range(_RESTARTS):
        centers = reference_greedy_seed(points, c, rng_from(seed, r))
        labels, inertia = reference_lloyd(points, centers)
        if inertia < best_inertia:
            best_labels, best_inertia = labels, inertia
    return best_labels, best_inertia


def assert_matches_reference(points, c, seeds):
    for seed in seeds:
        labels, inertia = kmeans(points, c, seed=seed)
        ref_labels, ref_inertia = reference_kmeans(points, c, seed)
        assert np.array_equal(labels, ref_labels), seed
        assert inertia == ref_inertia, seed


@pytest.fixture(scope="module", params=["dense-k8", "wide-manifest"])
def solved_embedding(request):
    # the NJW embedding of a solve at a bench workload's shape: dense-k8
    # (vn = 600, d = 108, k = 8) and wide-manifest (vn = 450, d = 2304,
    # k = 30), whose data reach the bench through text files
    spec, k = {
        "dense-k8": ({"clusters": 5, "per_cluster": 40, "views": 3,
                      "latent_dim": 8, "view_dims": [40, 32, 36],
                      "noise_sigma": 0.05, "seed": 0}, 8),
        "wide-manifest": ({"clusters": 10, "per_cluster": 15, "views": 3,
                           "latent_dim": 30, "view_dims": [1024, 512, 768],
                           "noise_sigma": 0.1, "seed": 0}, 30),
    }[request.param]
    ds = gen_synthetic(**spec)
    cfg = solver.ElmscConfig(lam=1.0, latent_dim=k, seed=1)
    xa = solver.solve_matrix(
        build_augmented(ds, default_pca_components(spec["clusters"], ds)), cfg)
    with np.errstate(all="ignore"):
        out = solver.run(xa, cfg)
    zhat = solver.aggregate_z(out.z, xa.n_views, xa.n_samples)
    return spectral_embed(affinity(zhat), spec["clusters"]), spec["clusters"]


def test_kmeans_matches_the_one_restart_program_on_solved_embeddings(
        solved_embedding):
    points, c = solved_embedding
    assert_matches_reference(points, c, range(4))


@pytest.mark.parametrize("n, c, f", [(60, 4, 2), (90, 6, 6), (150, 10, 10),
                                     (120, 12, 7), (40, 9, 20)])
def test_kmeans_matches_the_one_restart_program_on_random_points(n, c, f):
    # a mean over a single feature is summed pairwise by numpy, so at f = 1
    # the reference's inertia can differ in its last bits; the pipeline's
    # embedding has f = c columns, and c = 1 labels every point alike
    rng = np.random.default_rng(n + c + f)
    points = rng.standard_normal((n, f))
    points[: n // 4] = points[n // 4: 2 * (n // 4)]  # coincident pairs
    assert_matches_reference(points, c, range(3))


@pytest.mark.parametrize("points, c", [
    (np.zeros((6, 2)), 2),
    (np.array([[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]]), 3),
    (np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]), 3),
], ids=["all-coincide", "distinct-last", "distinct-first"])
def test_kmeans_matches_the_one_restart_program_on_coincident_points(points, c):
    # these reach the zero-weight seeding branch and the empty-cluster revival
    assert_matches_reference(points, c, range(5))


@pytest.mark.parametrize("n, c, distinct", [(40, 8, 4), (60, 12, 7),
                                            (90, 10, 9)])
def test_kmeans_matches_the_one_restart_program_with_fewer_points_than_c(
        n, c, distinct):
    # fewer distinct points than clusters: clusters empty on most passes,
    # and revived points leave clusters whose means come before and after
    rng = np.random.default_rng(n + c)
    points = rng.standard_normal((distinct, 3))[rng.integers(distinct, size=n)]
    assert_matches_reference(points, c, [0])


@pytest.mark.parametrize("n, c, distinct", [(40, 8, 4), (60, 12, 7)])
def test_kmeans_ends_each_restart_once_every_point_sits_on_a_centre(
        monkeypatch, n, c, distinct):
    # seeding puts a centre on every distinct point, so the first pass
    # leaves every point at distance 0; passes after it would cycle
    # through revivals up to the cap
    rng = np.random.default_rng(n + c)
    points = rng.standard_normal((distinct, 3))[rng.integers(distinct, size=n)]
    shapes = []
    sqdist = spectral._sqdist
    monkeypatch.setattr(spectral, "_sqdist",
                        lambda a, b: shapes.append(a.shape) or sqdist(a, b))
    labels, _ = kmeans(points, c, seed=0)
    # a Lloyd pass measures (live restarts, c, f) centres, a seeding step
    # fewer than c candidates
    assert [s for s in shapes if s[1] == c] == [(_RESTARTS, c, 3)]
    assert set(labels.tolist()) == set(range(c))


@pytest.mark.parametrize("n, c", [(150, 10), (200, 5), (400, 40)])
def test_seeding_computes_each_drawn_points_distances_once(monkeypatch, n,
                                                           c):
    # wide-manifest's, dense-k8's and ORL's shapes: the restarts draw many
    # points more than once (370 rows for 140 points at 150, 10), and each
    # point's distance row is computed only the first time
    rng = np.random.default_rng(c)
    points = rng.standard_normal((c, c))[np.arange(n) % c]
    points += 0.2 * rng.standard_normal((n, c))
    rows = []
    sqdist = spectral._sqdist
    monkeypatch.setattr(spectral, "_sqdist",
                        lambda a, b: rows.extend(map(tuple, a)) or sqdist(a, b))
    spectral._greedy_seed(points, c, [rng_from(0, r) for r in range(_RESTARTS)])
    n_cand = 2 + int(np.log(c))
    assert len(rows) == len(set(rows))
    assert len(rows) <= min(n, _RESTARTS * (1 + (c - 1) * n_cand))


def test_kmeans_batch_forms_no_four_way_broadcast():
    # c = 40, n = 400 (ORL's shape): the batch peaks at about 4.4 MB against
    # 5.4 MB one restart at a time; a restarts x n x c x f broadcast of the
    # distances peaked at about 55 MB
    rng = np.random.default_rng(40)
    centers = np.linalg.qr(rng.standard_normal((40, 40)))[0]
    points = centers[np.arange(400) % 40] + 0.3 * rng.standard_normal((400, 40))
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        labels, _ = kmeans(points, 40, seed=0)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(set(labels.tolist())) == 40
    assert peak <= 8_000_000


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
