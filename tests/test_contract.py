"""Properties that must hold on generated inputs.

Each property runs a bounded, derandomized search (no example database), so
the module is deterministic and takes a few seconds.
"""

import contextlib
import csv
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from elmsc import cli
from elmsc.metrics import LabelPair, all_metrics

CONTRACT = settings(max_examples=300, derandomize=True, database=None,
                    deadline=None)

LABEL = st.integers(0, 5)  # up to 6 label values


@st.composite
def label_pairs(draw):
    """(predicted, truth) of one length n in [1, 30]."""
    n = draw(st.integers(1, 30))
    predicted = draw(st.lists(LABEL, min_size=n, max_size=n))
    truth = draw(st.lists(LABEL, min_size=n, max_size=n))
    return np.array(predicted), np.array(truth)


@CONTRACT
@given(label_pairs(), st.permutations(range(6)), st.integers(-1000, 1000))
def test_metrics_bounded_renaming_invariant_and_one_on_agreement(
        labels, perm, offset):
    predicted, truth = labels
    scores = all_metrics(LabelPair(predicted, truth))
    for score in scores:
        assert math.isfinite(score) and score <= 1 + 1e-12, scores
    renamed = np.asarray(perm)[predicted] + offset
    assert np.allclose(all_metrics(LabelPair(renamed, truth)), scores,
                       rtol=0, atol=1e-12)
    agreed = all_metrics(LabelPair(truth, truth))
    assert min(agreed) >= 1 - 1e-12, agreed


@st.composite
def synthetic_specs(draw):
    """A small synthetic spec: n <= 12 samples in 1-3 views of 1-6 rows."""
    views = draw(st.integers(1, 3))
    return {"clusters": draw(st.integers(2, 4)),
            "per_cluster": draw(st.integers(1, 3)),
            "views": views,
            "latent_dim": draw(st.integers(1, 3)),
            "view_dims": draw(st.lists(st.integers(1, 6), min_size=views,
                                       max_size=views)),
            "noise_sigma": draw(st.sampled_from([0.0, 0.1])),
            "seed": draw(st.integers(0, 3))}


def assert_exit_contract(argv, out, artifact):
    """Run the CLI on argv and check its exit-class contract: exit 0 leaves
    an empty stderr and `artifact` in `out`; any other exit writes exactly
    one JSON error record and leaves no `out`. Returns the exit code."""
    stderr = io.StringIO()
    with contextlib.redirect_stderr(stderr):
        code = cli.main(argv)
    assert code in (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_DATA,
                    cli.EXIT_NUMERIC), code
    if code == cli.EXIT_OK:
        assert stderr.getvalue() == ""
        assert (out / artifact).exists()
    else:
        [line] = stderr.getvalue().splitlines()
        assert set(json.loads(line)) == {"error", "message"}
        assert not out.exists()
    return code


# the example's latent dim 3 exceeds its data's rank of 1, so every
# Procrustes input in its solve is rank-deficient
@settings(CONTRACT, max_examples=60)
@given(synthetic_specs(), st.integers(2, 4), st.integers(1, 6))
@example({"clusters": 2, "per_cluster": 3, "views": 2, "latent_dim": 1,
          "view_dims": [3, 3]}, 2, 3)
def test_cluster_reports_through_its_artifacts_or_one_error_record(
        spec, clusters, latent_dim):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert_exit_contract(
            ["cluster", "--synthetic", json.dumps(spec), "--clusters",
             str(clusters), "--latent-dim", str(latent_dim), "--trials", "1",
             "--out", str(out)], out, "report.json")


# k runs to 8, above d for some specs, so that some cells fail; the
# example has one cell that runs and one whose k = 8 exceeds d = 3
@settings(CONTRACT, max_examples=30)
@given(synthetic_specs(), st.integers(2, 4),
       st.lists(st.sampled_from(["0", "0.1", "1", "10"]), min_size=1,
                max_size=2, unique=True),
       st.lists(st.integers(1, 8).map(str), min_size=1, max_size=2,
                unique=True))
@example({"clusters": 2, "per_cluster": 3, "views": 1, "latent_dim": 1,
          "view_dims": [3]}, 2, ["1"], ["1", "8"])
def test_sweep_writes_a_directory_and_a_report_for_ok_cells_only(
        spec, clusters, lambda_grid, k_grid):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        code = assert_exit_contract(
            ["sweep", "--synthetic", json.dumps(spec), "--clusters",
             str(clusters), "--lambda-grid", *lambda_grid, "--k-grid",
             *k_grid, "--trials", "1", "--out", str(out)], out, "summary.csv")
        if code != cli.EXIT_OK:
            return
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(lambda_grid) * len(k_grid)
        ok = [Path(r["report"]) for r in rows if r["status"] == "ok"]
        assert all(report.exists() for report in ok)
        assert all(r["report"] == "" for r in rows if r["status"] == "failed")
        assert sorted(p.name for p in out.iterdir()) == sorted(
            [report.parent.name for report in ok] + ["summary.csv"])


# Any JSON value. Its integers stay in [-3, 3], so that a count drawn from
# here keeps every dataset at n <= 12 samples: a large count would allocate
# n x n arrays.
JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats()
    | st.text(max_size=3),
    lambda inner: (st.lists(inner, max_size=2)
                   | st.dictionaries(st.text(max_size=2), inner, max_size=2)),
    max_leaves=4)
ODD_JSON = st.sampled_from([math.nan, math.inf, -math.inf]) | JSON


@st.composite
def any_specs(draw):
    """A small well-formed spec (n <= 12) with up to two fields set to any
    JSON value, NaN and Infinity included, up to one field missing and up
    to one extra key."""
    dims = draw(st.lists(st.integers(1, 6), min_size=1, max_size=3))
    spec = {"clusters": draw(st.integers(2, 4)),
            "per_cluster": draw(st.integers(1, 3)),
            "views": len(dims),
            "latent_dim": draw(st.integers(1, min(dims))),
            "view_dims": dims,
            "noise_sigma": draw(st.floats(0, 1)),
            "seed": draw(st.integers())}
    names = st.sampled_from(sorted(spec))
    for name in draw(st.sets(names, max_size=2)):
        spec[name] = draw(ODD_JSON)
    keys = draw(st.sampled_from(["as drawn"] * 4 + ["one missing", "extra"]))
    if keys == "one missing":
        del spec[draw(names)]
    elif keys == "extra":
        spec[draw(st.text(max_size=3))] = draw(JSON)
    return spec


@settings(CONTRACT, max_examples=120)
@given(any_specs())
def test_any_synthetic_spec_keeps_the_exit_contract(spec):
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert_exit_contract(
            ["cluster", "--synthetic", json.dumps(spec), "--clusters", "2",
             "--latent-dim", "1", "--trials", "1", "--out", str(out)],
            out, "report.json")


MANIFEST_DEFECTS = (
    "n", "rows", "cols", "drop-key", "extra-key", "views-type", "top-type",
    "nan", "inf", "ragged", "empty-file", "blank-lines", "commas",
    "label-float", "label-negative", "label-length")


@st.composite
def manifests(draw):
    """(manifest, {file name: text}) for n <= 8 samples in one or two views
    of at most 4 rows, with up to two defects from MANIFEST_DEFECTS."""
    defects = draw(st.sets(st.sampled_from(MANIFEST_DEFECTS), max_size=2))
    wrong = st.integers(-3, 12) | ODD_JSON
    n = draw(st.integers(1, 8))
    files, views = {}, []
    for i in range(draw(st.integers(1, 2))):
        rows = draw(st.integers(1, 4))
        values = [draw(st.lists(st.floats(-10, 10), min_size=n, max_size=n))
                  for _ in range(rows)]
        if "nan" in defects or "inf" in defects:
            values[-1][-1] = math.nan if "nan" in defects else -math.inf
        lines = [(", " if "commas" in defects else " ").join(map(repr, row))
                 for row in values]
        if "ragged" in defects:
            lines[-1] += " 1.0"
        sep = "\n\n" if "blank-lines" in defects else "\n"
        text = "" if "empty-file" in defects else sep.join(lines) + "\n"
        files[f"view{i}.txt"] = text
        view = {"name": f"v{i}", "path": f"view{i}.txt", "rows": rows,
                "cols": n}
        for key in ("rows", "cols"):
            if key in defects:
                view[key] = draw(wrong)
        if "drop-key" in defects:
            del view[draw(st.sampled_from(sorted(view)))]
        if "extra-key" in defects:
            view[draw(st.text(max_size=3))] = draw(JSON)
        views.append(view)
    manifest = {"n": draw(wrong) if "n" in defects else n, "views": views}
    if draw(st.booleans()):
        labels = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        if "label-length" in defects:
            labels = labels[1:] if draw(st.booleans()) else labels + [0]
        lines = [str(x) for x in labels]
        if "label-negative" in defects and lines:
            lines[0] = "-1"
        if "label-float" in defects and lines:
            lines[-1] = f"{labels[-1]}.5"
        files["labels.txt"] = "\n".join(lines) + "\n"
        manifest["labels"] = "labels.txt"
    if "views-type" in defects:
        manifest["views"] = draw(JSON)
    if "top-type" in defects:
        manifest = draw(st.lists(JSON, max_size=2))
    return manifest, files


@settings(CONTRACT, max_examples=150)
@given(manifests())
def test_any_manifest_keeps_the_exit_contract(case):
    manifest, files = case
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in files.items():
            (tmp / name).write_text(text)
        (tmp / "manifest.json").write_text(json.dumps(manifest))
        out = tmp / "out"
        assert_exit_contract(
            ["cluster", "--manifest", str(tmp / "manifest.json"),
             "--clusters", "2", "--latent-dim", "1", "--trials", "1",
             "--out", str(out)], out, "report.json")


FLAG_SPEC = {"clusters": 2, "per_cluster": 4, "views": 2, "latent_dim": 2,
             "view_dims": [4, 3], "noise_sigma": 0.1, "seed": 0}  # n=8, d=7
HUGE = str(10**30)
ODD = (st.sampled_from(["nan", "inf", "-inf", "-1", "0", "1e308", HUGE,
                        "-" + HUGE])
       | st.integers(-3, 6).map(str) | st.floats().map(repr))
# each numeric flag's usual values on FLAG_SPEC
FLAGS = {"--clusters": st.integers(2, 4).map(str),
         "--seed": st.integers(0, 3).map(str),
         "--lambda": st.floats(0, 10).map(repr),
         "--latent-dim": st.integers(1, 7).map(str),
         "--lambda-grid": st.floats(0, 10).map(repr),
         "--k-grid": st.integers(1, 7).map(str)}


@st.composite
def flag_argvs(draw):
    """`cluster` or `sweep` argv on FLAG_SPEC with up to two numeric flags
    taking odd values (nan, inf, negative, huge), at most 2 trials, 2
    workers and 2 entries per grid."""
    command = draw(st.sampled_from(["cluster", "sweep"]))
    names = ["--clusters", "--seed",
             *(["--lambda", "--latent-dim"] if command == "cluster"
               else ["--lambda-grid", "--k-grid"])]
    odd = draw(st.sets(st.sampled_from(names), max_size=2))
    argv = [command, "--synthetic", json.dumps(FLAG_SPEC),
            f"--trials={draw(st.sampled_from('12'))}",
            f"--workers={draw(st.sampled_from('12'))}"]
    for name in names:
        values = ODD if name in odd else FLAGS[name]
        if name.endswith("-grid"):
            argv += [name, *draw(st.lists(values, min_size=1, max_size=2))]
        else:
            argv.append(f"{name}={draw(values)}")
    return argv
@settings(CONTRACT, max_examples=80)
@given(flag_argvs())
def test_any_numeric_flag_keeps_the_exit_contract(argv):
    artifact = "report.json" if argv[0] == "cluster" else "summary.csv"
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        assert_exit_contract([*argv, "--out", str(out)], out, artifact)
