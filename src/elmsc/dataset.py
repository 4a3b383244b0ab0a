"""Multi-view data handling: file I/O, cross-view similarity, augmented matrix.

A dataset is a list of view matrices (features x samples, all sharing the
sample axis). The augmented matrix stacks the raw views on its diagonal
blocks and similarity-weighted cross-view products off the diagonal.
"""

import json
import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._seeds import rng_from
from .numerics import pca_reduce

_LABEL_DTYPE = np.int64


class DatasetError(Exception):
    """A manifest or matrix file could not be loaded as declared."""


@dataclass
class MultiViewDataset:
    """v feature matrices over the same n samples, plus optional labels."""

    views: list
    labels: np.ndarray | None = None

    def __post_init__(self):
        if len(self.views) < 1:
            raise ValueError("a dataset needs at least one view")
        self.views = [np.asarray(v, dtype=np.float64) for v in self.views]
        n = self.views[0].shape[1]
        for i, v in enumerate(self.views):
            if v.ndim != 2 or v.shape[0] < 1:
                raise ValueError(f"view {i} must be a 2-d matrix with >=1 feature")
            if v.shape[1] != n:
                raise ValueError(
                    f"view {i} has {v.shape[1]} samples, expected {n}"
                )
            if not np.all(np.isfinite(v)):
                raise ValueError(f"view {i} contains NaN/Inf entries")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=_LABEL_DTYPE)
            if self.labels.shape != (n,):
                raise ValueError(
                    f"labels must have {n} entries, got {self.labels.shape}"
                )

    @property
    def n_views(self):
        return len(self.views)

    @property
    def n_samples(self):
        return self.views[0].shape[1]

    @property
    def view_dims(self):
        return tuple(v.shape[0] for v in self.views)


@dataclass(frozen=True)
class AugmentedMatrix:
    """Block matrix of shape d x (v*n): raw views on the diagonal blocks,
    similarity-weighted cross products elsewhere. Block column q starts at
    column q*n."""

    xa: np.ndarray
    block_rows: tuple  # row offset of each view block
    pca_dim: int

    @property
    def n_views(self):
        return len(self.block_rows)

    @property
    def n_samples(self):
        return self.xa.shape[1] // self.n_views

    @property
    def view_dims(self):
        bounds = (*self.block_rows, self.xa.shape[0])
        return tuple(bounds[i + 1] - bounds[i] for i in range(self.n_views))

    def block(self, p, q):
        """The (p, q) block, shape d_p x n."""
        r0 = self.block_rows[p]
        r1 = r0 + self.view_dims[p]
        n = self.n_samples
        return self.xa[r0:r1, q * n:(q + 1) * n]

    def block_diagonal(self):
        """A new d x (v*n) matrix holding the diagonal blocks (the raw
        views) and zeros elsewhere."""
        out = np.zeros(self.xa.shape, dtype=self.xa.dtype)
        diagonal = AugmentedMatrix(out, self.block_rows, self.pca_dim)
        for l in range(self.n_views):
            diagonal.block(l, l)[...] = self.block(l, l)
        return out


def _normalize_columns(x):
    norms = np.linalg.norm(x, axis=0)
    out = np.zeros_like(x)
    nz = norms > 0
    out[:, nz] = x[:, nz] / norms[nz]
    return out


def cosine_similarity(xp, xq):
    """Similarity block between two dimension-aligned views.

    Entry (i, j) maps the cosine of sample i of the first view against
    sample j of the second into [0, 1] via cos/2 + 1/2. Zero-norm samples
    contribute the neutral value 1/2.
    """
    xp = np.asarray(xp, dtype=np.float64)
    xq = np.asarray(xq, dtype=np.float64)
    if xp.shape[0] != xq.shape[0]:
        raise ValueError(
            f"views must share the feature dimension, got {xp.shape[0]} and {xq.shape[0]}"
        )
    if xp.shape[1] != xq.shape[1]:
        raise ValueError(
            f"views must share the sample count, got {xp.shape[1]} and {xq.shape[1]}"
        )
    s = 0.5 * (_normalize_columns(xp).T @ _normalize_columns(xq)) + 0.5
    np.clip(s, 0.0, 1.0, out=s)  # guard rounding excursions outside [0, 1]
    return s


def build_augmented(ds, pca_components, identity_similarity=False):
    """Assemble the augmented data matrix from a multi-view dataset.

    Views are PCA-aligned to `pca_components` dimensions to make cross-view
    cosine similarity well defined; each off-diagonal block (p, q) is
    view_p @ S(p, q), each diagonal block is the raw view. With
    `identity_similarity` every S(p, q) is forced to the identity (test hook:
    every block in block-row p then repeats view p exactly).
    """
    limit = min(min(v.shape[0], v.shape[1] - 1) for v in ds.views)
    if not 1 <= pca_components <= limit:
        raise ValueError(
            f"pca_components={pca_components} invalid for this dataset; "
            f"use a value in [1, {limit}]"
        )
    v, n = ds.n_views, ds.n_samples
    if not identity_similarity and v > 1:
        aligned = [pca_reduce(x, pca_components) for x in ds.views]
        sim = {}
        for p in range(v):
            for q in range(p + 1, v):
                s = cosine_similarity(aligned[p], aligned[q])
                sim[(p, q)] = s
                sim[(q, p)] = s.T
    else:
        sim = None

    dims = ds.view_dims
    row_off = tuple(int(x) for x in np.concatenate([[0], np.cumsum(dims)[:-1]]))
    xa = np.empty((sum(dims), v * n))
    for p in range(v):
        r0, r1 = row_off[p], row_off[p] + dims[p]
        for q in range(v):
            c0 = q * n
            if p == q or sim is None:
                xa[r0:r1, c0:c0 + n] = ds.views[p]
            else:
                xa[r0:r1, c0:c0 + n] = ds.views[p] @ sim[(p, q)]
    return AugmentedMatrix(xa=xa, block_rows=row_off, pca_dim=pca_components)


def default_pca_components(clusters, ds):
    """Component count for view alignment: 6 per cluster, clipped to validity."""
    if not 1 <= clusters <= ds.n_samples:
        raise ValueError(f"clusters={clusters} outside [1, {ds.n_samples}], "
                         "the sample count")
    return min(clusters * 6, ds.n_samples - 1, min(ds.view_dims))


def number(value, name, kind=numbers.Integral):
    """`value` if it is a `kind` but not a bool, else ValueError naming it."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"'{name}' must be {kind.__name__.lower()}, not {value!r}")
    return value


def finite_real(value, name):
    """`number`'s rule for a real `value` that must also be finite."""
    if not -np.inf < number(value, name, numbers.Real) < np.inf:
        raise ValueError(f"'{name}' must be finite, not {value!r}")
    return value


def gen_synthetic(clusters, per_cluster, views, latent_dim, view_dims,
                  noise_sigma=0.0, seed=0):
    """Generate a labeled multi-view dataset from a shared latent space.

    Cluster centers are drawn in the latent space; each cluster's points vary
    within a private low-dimensional subspace around its center (about a third
    of the latent dimensions), so without noise every cluster's samples occupy
    a distinct affine subspace in every view. Each view applies its own random
    linear map plus Gaussian noise of scale `noise_sigma`.

    Counts, seed and `view_dims` entries must be integers and `noise_sigma`
    a finite real, none of them a bool; ValueError names a field that is not.
    """
    if not isinstance(view_dims, list):
        raise ValueError(f"'view_dims' must be a list, got {view_dims!r}")
    for name, value in (("clusters", clusters), ("per_cluster", per_cluster),
                        ("views", views), ("latent_dim", latent_dim),
                        ("seed", seed), *(("view_dims", d) for d in view_dims)):
        number(value, name)
    if finite_real(noise_sigma, "noise_sigma") < 0:
        raise ValueError(f"noise_sigma must be nonnegative, got {noise_sigma}")
    if views != len(view_dims):
        raise ValueError(f"views={views} but {len(view_dims)} view_dims given")
    if clusters < 1 or per_cluster < 1 or views < 1 or latent_dim < 1:
        raise ValueError("clusters, per_cluster, views and latent_dim must be positive")
    if latent_dim > min(view_dims):
        raise ValueError(
            f"latent_dim={latent_dim} exceeds the smallest view dimension "
            f"{min(view_dims)}"
        )

    rng = rng_from(seed)
    sub_dim = max(1, latent_dim // 3)
    n = clusters * per_cluster
    latent = np.empty((latent_dim, n))
    labels = np.repeat(np.arange(clusters, dtype=_LABEL_DTYPE), per_cluster)
    for c in range(clusters):
        center = 4.0 * rng.standard_normal(latent_dim)
        basis = np.linalg.qr(rng.standard_normal((latent_dim, sub_dim)))[0]
        coefs = rng.standard_normal((sub_dim, per_cluster))
        latent[:, c * per_cluster:(c + 1) * per_cluster] = (
            center[:, None] + basis @ coefs
        )

    out = []
    for dim in view_dims:
        w = rng.standard_normal((dim, latent_dim)) / np.sqrt(latent_dim)
        x = w @ latent
        if noise_sigma > 0:
            x = x + noise_sigma * rng.standard_normal(x.shape)
        out.append(x)
    return MultiViewDataset(views=out, labels=labels)


def _load_matrix(path, view_name):
    try:
        with open(path) as fh:
            first = fh.readline()
        delim = "," if "," in first else None
        mat = np.loadtxt(path, delimiter=delim, ndmin=2)
    except OSError as exc:
        raise DatasetError(f"view '{view_name}': cannot read {path}: {exc}") from exc
    except ValueError as exc:
        raise DatasetError(
            f"view '{view_name}': non-numeric or ragged data in {path}: {exc}"
        ) from exc
    return mat


def _widest_line(path):
    """Most whitespace-separated values on one line, comments excluded."""
    with open(path, errors="replace") as fh:
        return max((len(line.split("#", 1)[0].split()) for line in fh),
                   default=0)


def load_labels(path):
    """Integer labels from a text file holding one integer per line."""
    try:
        with warnings.catch_warnings():
            # an empty file is refused below, not warned about
            warnings.simplefilter("ignore", UserWarning)
            labels = np.loadtxt(path, dtype=_LABEL_DTYPE, ndmin=2)
    except OSError as exc:
        raise DatasetError(f"cannot read label file {path}: {exc}") from exc
    except ValueError as exc:
        # a ragged file fails to parse before its width can be checked
        width = _widest_line(path)
        if width <= 1:
            raise DatasetError(
                f"label file {path} is not integer-valued: {exc}") from exc
    else:
        width = labels.shape[1]
    if width != 1:
        raise DatasetError(f"label file {path} must hold one integer per line, "
                           f"got {width} values on a line")
    if labels.size == 0:
        raise DatasetError(f"label file {path} holds no labels")
    return labels[:, 0]


def save_dataset(ds, out_dir):
    """Write a labeled dataset as load_dataset reads it (view files,
    labels.txt, manifest.json) and return the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, view in enumerate(ds.views):
        fname = f"view{i}.txt"
        # 17 significant digits so reloading reproduces float64 exactly
        np.savetxt(out / fname, view, fmt="%.17e")
        entries.append({
            "name": f"view{i}",
            "path": fname,
            "rows": view.shape[0],
            "cols": view.shape[1],
        })
    np.savetxt(out / "labels.txt", ds.labels, fmt="%d")
    manifest = {"n": ds.n_samples, "views": entries, "labels": "labels.txt"}
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return path


def load_dataset(manifest_path):
    """Load a dataset described by a JSON manifest.

    The manifest declares `n`, an ordered `views` list (name, path, rows,
    cols; the name is optional), and an optional `labels` path; matrix
    paths are resolved relative to the manifest. Matrix files are plain
    numeric text, one row per line, comma- or whitespace-separated; the
    labels file holds one nonnegative integer per line.
    """
    manifest_path = Path(manifest_path)
    try:
        spec = json.loads(manifest_path.read_text())
    except OSError as exc:
        raise DatasetError(f"cannot read manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DatasetError(f"manifest {manifest_path} is not valid JSON: {exc}") from exc

    if not isinstance(spec, dict) or "n" not in spec or not spec.get("views"):
        raise DatasetError(f"manifest {manifest_path} must declare 'n' and 'views'")
    base = manifest_path.parent
    try:
        n = number(spec["n"], "n")
        entries = [(str(e["path"]),
                    (number(e["rows"], "rows"), number(e["cols"], "cols")),
                    e.get("name", e["path"])) for e in spec["views"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetError(
            f"manifest {manifest_path}: each view needs 'path', 'rows' and "
            f"'cols', and 'n', 'rows' and 'cols' must be integers ({exc!r})"
        ) from exc
    views = []
    for path, declared, name in entries:
        mat = _load_matrix(base / path, name)
        if mat.shape != declared:
            raise DatasetError(
                f"view '{name}': file shape {mat.shape} does not match "
                f"declared rows x cols {declared}"
            )
        if mat.shape[1] != n:
            raise DatasetError(
                f"view '{name}': {mat.shape[1]} samples but manifest declares n={n}"
            )
        views.append(mat)

    labels = None
    if spec.get("labels"):
        path = base / str(spec["labels"])
        labels = load_labels(path)
        if labels.shape != (n,):
            raise DatasetError(
                f"labels file {path} has {labels.shape[0]} entries, expected {n}"
            )
        if (labels < 0).any():
            raise DatasetError(f"labels file {path} contains negative labels")
    try:
        return MultiViewDataset(views=views, labels=labels)
    except ValueError as exc:
        raise DatasetError(str(exc)) from exc
