import dataclasses
import json
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from elmsc.dataset import (
    DatasetError,
    MultiViewDataset,
    build_augmented,
    cosine_similarity,
    default_pca_components,
    gen_synthetic,
    load_dataset,
    load_labels,
    save_dataset,
)
from elmsc.numerics import pca_reduce


# ---------------------------------------------------------------------------
# cosine_similarity
# ---------------------------------------------------------------------------

def test_cosine_identical_unit_samples_give_unit_diagonal():
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    s = cosine_similarity(x, x)
    assert_allclose(np.diag(s), [1.0, 1.0], atol=1e-12)


def test_cosine_orthogonal_pair_maps_to_half():
    xp = np.array([[1.0], [0.0]])
    xq = np.array([[0.0], [1.0]])
    assert cosine_similarity(xp, xq)[0, 0] == pytest.approx(0.5, abs=1e-12)


def test_cosine_antiparallel_pair_maps_to_zero():
    xp = np.array([[1.0], [2.0]])
    assert cosine_similarity(xp, -xp)[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_cosine_zero_norm_sample_is_neutral():
    xp = np.array([[0.0, 1.0], [0.0, 0.0]])
    s = cosine_similarity(xp, xp)
    assert s[0, 0] == 0.5 and s[0, 1] == 0.5


def test_cosine_range_and_transpose_relation():
    rng = np.random.default_rng(0)
    xp = rng.standard_normal((4, 7))
    xq = rng.standard_normal((4, 7))
    spq = cosine_similarity(xp, xq)
    sqp = cosine_similarity(xq, xp)
    assert np.all(spq >= 0) and np.all(spq <= 1)
    assert_allclose(spq, sqp.T, atol=1e-12)


def test_cosine_shape_contracts():
    with pytest.raises(ValueError):
        cosine_similarity(np.ones((3, 5)), np.ones((4, 5)))
    with pytest.raises(ValueError):
        cosine_similarity(np.ones((3, 5)), np.ones((3, 6)))


# ---------------------------------------------------------------------------
# MultiViewDataset construction
# ---------------------------------------------------------------------------

def test_dataset_validates_sample_counts():
    with pytest.raises(ValueError):
        MultiViewDataset(views=[np.ones((3, 10)), np.ones((2, 11))])


def test_dataset_validates_labels_length():
    with pytest.raises(ValueError):
        MultiViewDataset(views=[np.ones((3, 10))], labels=np.zeros(9, dtype=int))


@pytest.mark.parametrize("views,message", [
    ([], "at least one view"),
    ([np.ones((3, 10)), np.ones(10)], "view 1 must be a 2-d matrix"),
])
def test_dataset_needs_views_that_are_matrices(views, message):
    with pytest.raises(ValueError, match=message):
        MultiViewDataset(views=views)


# ---------------------------------------------------------------------------
# build_augmented
# ---------------------------------------------------------------------------

def test_augmented_single_view_is_passthrough():
    rng = np.random.default_rng(1)
    view = rng.standard_normal((5, 12))
    ds = MultiViewDataset(views=[view])
    aug = build_augmented(ds, 3)
    assert np.array_equal(aug.xa, view)


def test_augmented_identity_hook_repeats_views_bit_exactly():
    rng = np.random.default_rng(2)
    ds = MultiViewDataset(
        views=[rng.standard_normal((6, 12)), rng.standard_normal((4, 12))]
    )
    aug = build_augmented(ds, 3, identity_similarity=True)
    for p in range(2):
        for q in range(2):
            assert np.array_equal(aug.block(p, q), ds.views[p])


def loop_cosine_oracle(ap, aq):
    """Entry-by-entry recomputation of the similarity block."""
    n = ap.shape[1]
    s = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            ni = np.linalg.norm(ap[:, i])
            nj = np.linalg.norm(aq[:, j])
            cos = 0.0 if ni == 0 or nj == 0 else ap[:, i] @ aq[:, j] / (ni * nj)
            s[i, j] = cos / 2 + 0.5
    return s


def test_augmented_offdiagonal_blocks_match_recomputation():
    rng = np.random.default_rng(3)
    ds = MultiViewDataset(
        views=[rng.standard_normal((6, 12)), rng.standard_normal((4, 12))]
    )
    m = 3
    aug = build_augmented(ds, m)
    aligned = [pca_reduce(v, m) for v in ds.views]
    s01 = loop_cosine_oracle(aligned[0], aligned[1])
    assert_allclose(aug.block(0, 1), ds.views[0] @ s01, atol=1e-12)
    assert_allclose(aug.block(1, 0), ds.views[1] @ s01.T, atol=1e-12)


def test_augmented_shape_and_diagonal_blocks():
    rng = np.random.default_rng(4)
    views = [rng.standard_normal((d, 9)) for d in (5, 3, 4)]
    ds = MultiViewDataset(views=views)
    aug = build_augmented(ds, 2)
    assert aug.xa.shape == (12, 27)
    for l in range(3):
        assert np.array_equal(aug.block(l, l), views[l])


@pytest.mark.parametrize("v", [1, 2, 3])
def test_augmented_block_diagonal_keeps_only_the_raw_views(v):
    rng = np.random.default_rng(6)
    views = [rng.standard_normal((d, 9)) for d in (5, 3, 4)[:v]]
    aug = build_augmented(MultiViewDataset(views=views), 2)
    want = np.zeros_like(aug.xa)
    r0 = 0
    for l, view in enumerate(views):
        want[r0:r0 + view.shape[0], l * 9:(l + 1) * 9] = view
        r0 += view.shape[0]
    got = dataclasses.replace(aug, aligned=()).xa  # the v2 ablation's X
    assert np.array_equal(got, want)
    assert got.dtype == aug.xa.dtype
    assert not np.shares_memory(got, aug.xa)


def test_augmented_rejects_oversized_pca():
    ds = MultiViewDataset(views=[np.random.default_rng(5).standard_normal((4, 10))])
    with pytest.raises(ValueError, match="pca_components"):
        build_augmented(ds, 5)


# ---------------------------------------------------------------------------
# default_pca_components
# ---------------------------------------------------------------------------

def test_default_components_paper_rule():
    rng = np.random.default_rng(6)
    ds = MultiViewDataset(
        views=[rng.standard_normal((48, 210)), rng.standard_normal((60, 210))]
    )
    assert default_pca_components(7, ds) == 42


def test_default_components_clipped_by_samples():
    ds = MultiViewDataset(
        views=[np.random.default_rng(7).standard_normal((50, 20))]
    )
    assert default_pca_components(5, ds) == 19


def test_default_components_clipped_by_features():
    ds = MultiViewDataset(
        views=[np.random.default_rng(8).standard_normal((10, 100))]
    )
    assert default_pca_components(3, ds) == 10


# ---------------------------------------------------------------------------
# gen_synthetic
# ---------------------------------------------------------------------------

def numerical_rank(m, rel=1e-10):
    s = np.linalg.svd(m, compute_uv=False)
    return int(np.sum(s > rel * s[0]))


def test_synthetic_noiseless_clusters_in_disjoint_affine_subspaces():
    ds = gen_synthetic(clusters=2, per_cluster=15, views=2, latent_dim=6,
                       view_dims=[10, 8], noise_sigma=0.0, seed=0)
    sub_dim = 2  # latent_dim // 3
    for view in ds.views:
        directions = []
        for c in range(2):
            block = view[:, ds.labels == c]
            centered = block - block[:, :1]
            assert numerical_rank(centered) == sub_dim
            directions.append(centered)
        # disjoint: the center offset is not contained in the two
        # direction spans combined
        spans = np.hstack(directions)
        mean_gap = (view[:, ds.labels == 0].mean(axis=1)
                    - view[:, ds.labels == 1].mean(axis=1))
        assert numerical_rank(np.hstack([spans, mean_gap[:, None]])) \
            == numerical_rank(spans) + 1


def test_synthetic_determinism():
    kwargs = dict(clusters=3, per_cluster=5, views=2, latent_dim=4,
                  view_dims=[6, 7], noise_sigma=0.2, seed=42)
    a = gen_synthetic(**kwargs)
    b = gen_synthetic(**kwargs)
    for va, vb in zip(a.views, b.views):
        assert np.array_equal(va, vb)
    assert np.array_equal(a.labels, b.labels)


def test_synthetic_balanced_labels():
    ds = gen_synthetic(clusters=5, per_cluster=40, views=1, latent_dim=3,
                       view_dims=[8], noise_sigma=0.1, seed=1)
    assert_allclose(np.bincount(ds.labels), [40] * 5)


def test_synthetic_precondition_errors():
    with pytest.raises(ValueError):
        gen_synthetic(2, 5, views=2, latent_dim=3, view_dims=[4], noise_sigma=0, seed=0)
    with pytest.raises(ValueError):
        gen_synthetic(2, 5, views=1, latent_dim=9, view_dims=[4], noise_sigma=0, seed=0)
    with pytest.raises(ValueError, match="'views' must be >= 1, not 0"):
        gen_synthetic(2, 5, views=0, latent_dim=3, view_dims=[])
    with pytest.raises(ValueError, match="'noise_sigma' must be >= 0, not -1"):
        gen_synthetic(2, 5, views=1, latent_dim=3, view_dims=[4],
                      noise_sigma=-1)


def test_synthetic_defaults_and_numpy_integers():
    a = gen_synthetic(2, 5, views=1, latent_dim=3, view_dims=[4])
    b = gen_synthetic(np.int64(2), 5, views=np.int32(1), latent_dim=3,
                      view_dims=[np.int64(4)], noise_sigma=np.float64(0.0),
                      seed=np.int64(0))
    assert np.array_equal(a.views[0], b.views[0])


@pytest.mark.parametrize("field,value", [
    ("clusters", 2.0), ("per_cluster", True), ("seed", 1.5),
    ("view_dims", (4,)), ("view_dims", [4.0]), ("noise_sigma", False),
    ("noise_sigma", None),
])
def test_synthetic_wrong_type_names_the_field(field, value):
    kwargs = dict(clusters=2, per_cluster=5, views=1, latent_dim=3,
                  view_dims=[4])
    kwargs[field] = value
    with pytest.raises(ValueError, match=f"'{field}'"):
        gen_synthetic(**kwargs)


# ---------------------------------------------------------------------------
# load_dataset
# ---------------------------------------------------------------------------

def write_manifest(tmp_path, views, labels=None, declared=None):
    entries = []
    for i, v in enumerate(views):
        fname = f"v{i}.txt"
        np.savetxt(tmp_path / fname, v, fmt="%.17e")
        rows, cols = (declared[i] if declared else v.shape)
        entries.append({"name": f"v{i}", "path": fname, "rows": rows, "cols": cols})
    manifest = {"n": views[0].shape[1], "views": entries}
    if labels is not None:
        np.savetxt(tmp_path / "labels.txt", labels, fmt="%d")
        manifest["labels"] = "labels.txt"
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def test_load_dataset_shapes(tmp_path):
    rng = np.random.default_rng(9)
    views = [rng.standard_normal((10, 30)), rng.standard_normal((7, 30))]
    ds = load_dataset(write_manifest(tmp_path, views))
    assert ds.n_views == 2 and ds.n_samples == 30
    for got, want in zip(ds.views, views):
        assert np.array_equal(got, want)


def test_load_dataset_sample_mismatch(tmp_path):
    rng = np.random.default_rng(10)
    views = [rng.standard_normal((4, 30)), rng.standard_normal((3, 31))]
    entries = []
    for i, v in enumerate(views):
        fname = f"v{i}.txt"
        np.savetxt(tmp_path / fname, v)
        entries.append({"name": f"v{i}", "path": fname,
                        "rows": v.shape[0], "cols": v.shape[1]})
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"n": 30, "views": entries}))
    with pytest.raises(DatasetError, match="v1"):
        load_dataset(path)


def test_load_dataset_labels(tmp_path):
    rng = np.random.default_rng(11)
    views = [rng.standard_normal((5, 30))]
    labels = rng.integers(0, 3, size=30)
    ds = load_dataset(write_manifest(tmp_path, views, labels=labels))
    assert np.array_equal(ds.labels, labels)


def test_save_dataset_round_trips_an_unlabeled_dataset(tmp_path):
    rng = np.random.default_rng(12)
    views = [rng.standard_normal((4, 9)), rng.standard_normal((3, 9))]
    ds = load_dataset(save_dataset(MultiViewDataset(views=views), tmp_path))
    for got, want in zip(ds.views, views):
        assert np.array_equal(got, want)
    assert ds.labels is None


def test_load_dataset_missing_file(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "n": 5,
        "views": [{"name": "gone", "path": "gone.txt", "rows": 2, "cols": 5}],
    }))
    with pytest.raises(DatasetError, match="gone"):
        load_dataset(path)


def test_load_dataset_non_numeric(tmp_path):
    (tmp_path / "bad.txt").write_text("1 2\n3 oops\n")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "n": 2,
        "views": [{"name": "bad", "path": "bad.txt", "rows": 2, "cols": 2}],
    }))
    with pytest.raises(DatasetError, match="bad"):
        load_dataset(path)


def test_load_dataset_declared_shape_mismatch(tmp_path):
    rng = np.random.default_rng(12)
    views = [rng.standard_normal((4, 6))]
    path = write_manifest(tmp_path, views, declared=[(5, 6)])
    with pytest.raises(DatasetError, match="declared"):
        load_dataset(path)


def test_load_dataset_comma_separated(tmp_path):
    mat = np.arange(6.0).reshape(2, 3)
    (tmp_path / "v0.txt").write_text("0.0,1.0,2.0\n3.0,4.0,5.0\n")
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "n": 3,
        "views": [{"name": "v0", "path": "v0.txt", "rows": 2, "cols": 3}],
    }))
    ds = load_dataset(path)
    assert np.array_equal(ds.views[0], mat)


@pytest.mark.parametrize("header,sep", [
    ("# view 0: 3 features\n", ","),
    ("\n", ","),
    ("# features, samples\n", " "),
], ids=["csv-comment", "csv-blank", "whitespace-comma-comment"])
def test_load_dataset_picks_the_delimiter_past_comments_and_blanks(
        tmp_path, header, sep):
    # the delimiter is read from the first line holding data, so a comment
    # or blank line above it, even one with a comma, does not decide it
    mat = np.arange(18.0).reshape(3, 6)
    rows = "".join(sep.join(map(repr, row)) + "\n" for row in mat.tolist())
    (tmp_path / "v0.txt").write_text(header + rows)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({
        "n": 6,
        "views": [{"name": "v0", "path": "v0.txt", "rows": 3, "cols": 6}],
    }))
    assert np.array_equal(np.loadtxt(tmp_path / "v0.txt",
                                     delimiter=sep.strip() or None), mat)
    assert np.array_equal(load_dataset(path).views[0], mat)


def drop_key(key):
    def mutate(manifest):
        del manifest["views"][0][key]
    return mutate


def set_field(key, value, view=False):
    def mutate(manifest):
        (manifest["views"][0] if view else manifest)[key] = value
    return mutate


@pytest.mark.parametrize("mutate", [
    drop_key("path"),
    drop_key("rows"),
    drop_key("cols"),
    set_field("n", "ten"),
    set_field("rows", None, view=True),
    set_field("cols", [6], view=True),
    set_field("views", 5),
    set_field("views", ["v0.txt"]),
    # counts are JSON integers: int() would read the first four as the
    # declared 6 and 4, and True as 1
    set_field("n", 6.5),
    set_field("rows", 4.2, view=True),
    set_field("rows", 4.0, view=True),
    set_field("n", "6"),
    set_field("cols", True, view=True),
], ids=["no-path", "no-rows", "no-cols", "n-not-int", "rows-null",
        "cols-list", "views-not-list", "view-not-object", "n-fraction",
        "rows-fraction", "rows-float", "n-string", "cols-bool"])
def test_load_dataset_malformed_manifest_is_dataset_error(tmp_path, mutate):
    path = write_manifest(tmp_path, [np.ones((4, 6))])
    manifest = json.loads(path.read_text())
    mutate(manifest)
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError):
        load_dataset(path)


def test_load_dataset_view_name_defaults_to_path(tmp_path):
    path = write_manifest(tmp_path, [np.ones((4, 6))], declared=[(5, 6)])
    manifest = json.loads(path.read_text())
    del manifest["views"][0]["name"]
    path.write_text(json.dumps(manifest))
    with pytest.raises(DatasetError, match="view 'v0.txt'"):
        load_dataset(path)


# ---------------------------------------------------------------------------
# load_labels
# ---------------------------------------------------------------------------

def test_load_labels_reads_one_integer_per_line(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("2\n0\n1\n")
    labels = load_labels(path)
    assert labels.dtype == np.int64
    assert labels.tolist() == [2, 0, 1]


@pytest.mark.parametrize("text", ["", "\n\n", "# no labels here\n"])
def test_load_labels_refuses_empty_file_without_warning(tmp_path, text):
    path = tmp_path / "labels.txt"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DatasetError, match="no labels"):
            load_labels(path)
    assert not caught


def test_load_dataset_refuses_empty_labels_file(tmp_path):
    path = write_manifest(tmp_path, [np.ones((4, 6))])
    manifest = json.loads(path.read_text())
    (tmp_path / "labels.txt").write_text("")
    manifest["labels"] = "labels.txt"
    path.write_text(json.dumps(manifest))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(DatasetError, match="no labels"):
            load_dataset(path)
    assert not caught


@pytest.mark.parametrize("text", ["0 1\n1 0\n1 1\n", "0 1\n", "1\n2 3\n"],
                         ids=["n-by-2", "one-line", "ragged"])
def test_load_labels_refuses_more_than_one_value_on_a_line(tmp_path, text):
    path = tmp_path / "labels.txt"
    path.write_text(text)
    with pytest.raises(DatasetError, match="one integer per line") as info:
        load_labels(path)
    assert str(path) in str(info.value)


def test_load_labels_non_integer_and_missing(tmp_path):
    path = tmp_path / "labels.txt"
    path.write_text("0\n1.5\n")
    with pytest.raises(DatasetError, match="integer"):
        load_labels(path)
    with pytest.raises(DatasetError, match="cannot read"):
        load_labels(tmp_path / "gone.txt")
