import argparse
import contextlib
import csv
import dataclasses
import functools
import json
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from elmsc import cli
from elmsc import solver
from elmsc.dataset import (AugmentedMatrix, build_augmented,
                           default_pca_components, gen_synthetic,
                           load_dataset)

TINY_SPEC = {
    "clusters": 2,
    "per_cluster": 8,
    "views": 2,
    "latent_dim": 3,
    "view_dims": [8, 6],
    "noise_sigma": 0.0,
    "seed": 5,
}


def tiny_config(tmp_path, **overrides):
    kwargs = dict(
        out=str(tmp_path / "out"),
        clusters=2,
        synthetic=dict(TINY_SPEC),
        lam=1.0,
        latent_dim=3,
        trials=1,
        seed=0,
    )
    kwargs.update(overrides)
    return cli.RunConfig(**kwargs)


def strip_wall_clock(report):
    report = json.loads(json.dumps(report))
    for trial in report["trials"]:
        trial.pop("wall_clock_sec", None)
    return report


# ---------------------------------------------------------------------------
# cmd_cluster
# ---------------------------------------------------------------------------

def test_cluster_noiseless_single_trial_perfect(tmp_path):
    report = cli.cmd_cluster(tiny_config(tmp_path))
    assert len(report["trials"]) == 1
    assert report["trials"][0]["metrics"]["acc"] == 1.0
    assert report["aggregate"]["acc"]["mean"] == 1.0
    out = Path(tmp_path / "out")
    assert (out / "report.json").exists()
    assert (out / "labels_0.txt").exists()
    assert (out / "trace_0.csv").exists()


def test_cluster_trial_count_and_seed_derivation(tmp_path):
    report = cli.cmd_cluster(tiny_config(tmp_path, trials=10, seed=40))
    assert len(report["trials"]) == 10
    assert [t["seed"] for t in report["trials"]] == list(range(40, 50))


def test_cluster_missing_manifest_exit_code(tmp_path, capsys):
    code = cli.main([
        "cluster", "--manifest", str(tmp_path / "nope.json"),
        "--clusters", "2", "--out", str(tmp_path / "o"),
    ])
    assert code == cli.EXIT_DATA
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "DatasetError"


def test_cluster_usage_error_exit_code(tmp_path, capsys):
    out = str(tmp_path / "o")
    for argv, message in (
        (["cluster", "--clusters", "2"], "--out"),
        (["cluster", "--clusters", "2", "--out", out, "--trials", "abc"],
         "argument --trials: invalid int value: 'abc'"),
    ):
        assert cli.main(argv) == cli.EXIT_CONFIG
        err = only_error_record(capsys)
        assert err["error"] == "ArgumentError"
        assert message in err["message"]


def test_cluster_conflicting_sources_rejected(tmp_path):
    with pytest.raises(ValueError):
        tiny_config(tmp_path, manifest="x.json")


def test_cluster_byte_identical_reports(tmp_path):
    cfg_args = [
        "cluster", "--synthetic", json.dumps(TINY_SPEC),
        "--clusters", "2", "--lambda", "1.0", "--latent-dim", "3",
        "--trials", "2", "--seed", "3", "--out", str(tmp_path / "run"),
    ]
    assert cli.main(cfg_args) == 0
    first = json.loads((tmp_path / "run" / "report.json").read_text())
    assert cli.main(cfg_args) == 0
    second = json.loads((tmp_path / "run" / "report.json").read_text())
    a = json.dumps(strip_wall_clock(first), sort_keys=True)
    b = json.dumps(strip_wall_clock(second), sort_keys=True)
    assert a == b


def test_cluster_report_embeds_resolved_config(tmp_path):
    report = cli.cmd_cluster(tiny_config(tmp_path))
    conf = report["config"]
    for key in ("lambda", "latent_dim", "trials", "seed", "ablation",
                "pca_components"):
        assert key in conf


def test_cluster_random_params_draw_recorded(tmp_path):
    cfg = tiny_config(tmp_path, random_params=True, lam=0.5, latent_dim=2,
                      k_grid=(3,), trials=1)
    report = cli.cmd_cluster(cfg)
    # the run's own lambda and latent_dim are the draw
    assert report["config"]["lambda"] in cli.DEFAULT_LAMBDA_GRID
    assert report["config"]["latent_dim"] == 3
    assert report["config"]["random_params"] is True
    # the draw goes into the run's own config, not the caller's
    assert (cfg.lam, cfg.latent_dim) == (0.5, 2)


def test_cluster_without_labels_has_no_metrics_and_no_aggregate(tmp_path):
    spec = {**TINY_SPEC, "per_cluster": 6}  # 2 views, 12 samples
    manifest = cli.cmd_synth(spec, tmp_path / "data")
    entries = json.loads(manifest.read_text())
    del entries["labels"]
    manifest.write_text(json.dumps(entries))
    out = tmp_path / "o"
    assert cli.main(["cluster", "--manifest", str(manifest), "--clusters", "2",
                     "--latent-dim", "3", "--trials", "2",
                     "--out", str(out)]) == cli.EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert report["aggregate"] is None
    assert [t["metrics"] for t in report["trials"]] == [None, None]


def test_trial_record_and_config_keys(tmp_path):
    # the first seven record keys are the ones bench/run.py's check_run reads
    report = cli.cmd_cluster(tiny_config(tmp_path))
    assert set(report["trials"][0]) == {
        "converged", "iterations", "kkt", "metrics", "labels_file",
        "trace_file", "wall_clock_sec", "trial", "seed"}
    assert set(report["config"]) == {
        "ablation", "clusters", "lambda", "latent_dim", "manifest",
        "pca_components", "random_params", "seed", "seed_derivation",
        "synthetic", "trials", "workers"}


def test_random_params_drawn_once_per_run(monkeypatch, tmp_path):
    draws = []
    draw_params = cli._draw_params

    def counting(cfg):
        draws.append(cfg)
        return draw_params(cfg)

    monkeypatch.setattr(cli, "_draw_params", counting)
    cli.cmd_cluster(tiny_config(tmp_path / "c", random_params=True,
                                k_grid=(3,)))
    assert len(draws) == 1
    cli.cmd_sweep(tiny_config(tmp_path / "s", random_params=True,
                              k_grid=(3,)))
    assert len(draws) == 2


def test_cluster_workers_match_serial(tmp_path):
    serial = cli.cmd_cluster(tiny_config(tmp_path / "a", trials=2))
    parallel = cli.cmd_cluster(tiny_config(tmp_path / "b", trials=2, workers=2))
    for report in (serial, parallel):
        report["config"].pop("workers")  # the only legitimate difference
    assert json.dumps(strip_wall_clock(serial), sort_keys=True) == \
        json.dumps(strip_wall_clock(parallel), sort_keys=True)


def recording_pool(monkeypatch, cpus):
    """Replace the trial pool with one that runs its jobs in this process
    and records its size, on a host of `cpus` CPUs; returns the sizes."""
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            return map(fn, payloads)

    # cli imports concurrent.futures only for a pool, so patch it at home
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor",
                        RecordingPool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    return sizes


def test_worker_pool_is_no_larger_than_the_trial_count(monkeypatch, tmp_path):
    # a process pool starts all of its workers at the first submit, so a
    # pool sized by --workers alone would fork processes with no trial
    sizes = recording_pool(monkeypatch, cpus=64)
    cli.cmd_cluster(tiny_config(tmp_path / "a", trials=2, workers=64))
    cli.cmd_cluster(tiny_config(tmp_path / "b", trials=1, workers=64))
    assert sizes == [2]


def test_worker_pool_is_no_larger_than_the_cpu_count(monkeypatch, tmp_path):
    # each worker unpickles its own copy of the augmented matrix, so more
    # workers than CPUs cost memory and run no trial sooner; an unknown
    # CPU count runs the trials in this process
    for cpus, trials, expect in ((3, 8, [3]), (1, 8, []), (None, 8, [])):
        sizes = recording_pool(monkeypatch, cpus)
        cli.cmd_cluster(tiny_config(tmp_path / f"{cpus}", trials=trials,
                                    workers=64))
        assert sizes == expect, cpus


def test_solver_config_has_no_field_the_cli_leaves_unset(monkeypatch,
                                                          tmp_path):
    # every ElmscConfig field is a setting a run can choose; a value only
    # tests set belongs on the class as a constant
    passed = []
    config = solver.ElmscConfig

    def recording(**kwargs):
        passed.append(set(kwargs))
        return config(**kwargs)

    monkeypatch.setattr(solver, "ElmscConfig", recording)
    cli.cmd_cluster(tiny_config(tmp_path))
    assert passed == [{f.name for f in dataclasses.fields(config)}]


# ---------------------------------------------------------------------------
# cmd_sweep
# ---------------------------------------------------------------------------

def test_sweep_grid_size_and_summary(tmp_path):
    cfg = tiny_config(tmp_path, lambda_grid=(0.1, 1.0), k_grid=(2, 3))
    cells = cli.cmd_sweep(cfg)
    assert len(cells) == 4
    lines = (Path(cfg.out) / "summary.csv").read_text().strip().splitlines()
    assert len(lines) == 5  # header + 4 cells
    assert lines[0].startswith("lambda,latent_dim,status")


def test_sweep_best_cell_consistency(tmp_path):
    cfg = tiny_config(tmp_path, lambda_grid=(0.1, 1.0), k_grid=(3,))
    cells = cli.cmd_sweep(cfg)
    ok = [c for c in cells if c["status"] == "ok"]
    best = max(c["acc_mean"] for c in ok)
    # recompute from the per-cell reports: summaries are pure aggregations
    recomputed = []
    for c in ok:
        report = json.loads(Path(c["report"]).read_text())
        recomputed.append(report["aggregate"]["acc"]["mean"])
    assert best == max(recomputed)


def test_sweep_cell_failure_does_not_abort(tmp_path):
    # latent_dim 50 exceeds the stacked dimension -> that cell fails
    cfg = tiny_config(tmp_path, lambda_grid=(1.0,), k_grid=(3, 50))
    cells = cli.cmd_sweep(cfg)
    status = {c["latent_dim"]: c["status"] for c in cells}
    assert status[3] == "ok"
    assert status[50] == "failed"


@pytest.mark.parametrize("flag,grid", [
    ("--lambda-grid", ["1", "1"]),
    ("--lambda-grid", ["1.0000001", "1.0000002"]),  # both print as lam1
    ("--lambda-grid", ["1", "0.001", "1e-3"]),
    ("--k-grid", ["3", "3"]),
    ("--lambda-grid", ["nan", "1"]),
])
def test_sweep_cells_sharing_a_directory_refused_before_any_cell(
        monkeypatch, tmp_path, capsys, flag, grid):
    def no_trial(payload):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "_trial_job", no_trial)
    code = cli.main(["sweep", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--k-grid", "3", "--trials", "1",
                     flag, *grid, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = only_error_record(capsys)
    assert err["error"] == "ValueError"
    # a NaN entry is refused as a value, the others as a shared directory
    assert ("lambda_grid" if "nan" in grid else "cell_lam") in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flag,grid,field", [
    ("--lambda-grid", ["0.1", "-1"], "lambda_grid"),
    ("--k-grid", ["3", "0"], "k_grid"),
])
def test_sweep_grid_no_cell_can_run_is_refused_before_output(
        monkeypatch, tmp_path, capsys, flag, grid, field):
    def no_trial(payload):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(cli, "_trial_job", no_trial)
    code = cli.main(["sweep", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--trials", "1", flag, *grid,
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = only_error_record(capsys)
    assert err["error"] == "ValueError"
    assert field in err["message"]
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field,grid", [
    ("k_grid", (2.5,)), ("k_grid", (True,)), ("lambda_grid", (-1e-3,)),
])
def test_run_config_refuses_grid_values_no_cell_can_run(tmp_path, field, grid):
    with pytest.raises(ValueError, match=field):
        tiny_config(tmp_path, **{field: grid})


@pytest.mark.parametrize("field,value", [
    ("clusters", 2.0), ("trials", 2.5), ("trials", True), ("workers", 1.5),
    ("seed", 1.7), ("latent_dim", 2.0),
])
def test_run_config_counts_must_be_integers(tmp_path, field, value):
    with pytest.raises(ValueError, match=field):
        tiny_config(tmp_path, **{field: value})


def test_sweep_missing_manifest_is_data_error(tmp_path, capsys):
    code = cli.main([
        "sweep", "--manifest", str(tmp_path / "nope.json"), "--clusters", "2",
        "--lambda-grid", "0.1", "1", "--k-grid", "3", "--out",
        str(tmp_path / "o"),
    ])
    assert code == cli.EXIT_DATA
    assert only_error_record(capsys)["error"] == "DatasetError"
    assert not (tmp_path / "o" / "summary.csv").exists()


@pytest.mark.parametrize("command", ["cluster", "sweep"])
@pytest.mark.parametrize("defect", ["no-path", "no-rows", "no-cols",
                                    "n-not-int"])
def test_malformed_manifest_is_data_error(tmp_path, capsys, command, defect):
    path = cli.cmd_synth(TINY_SPEC, tmp_path / "data")
    manifest = json.loads(path.read_text())
    if defect == "n-not-int":
        manifest["n"] = "sixteen"
    else:
        del manifest["views"][1][defect[3:]]
    path.write_text(json.dumps(manifest))
    k = ["--k-grid", "3"] if command == "sweep" else ["--latent-dim", "3"]
    code = cli.main([command, "--manifest", str(path), "--clusters", "2",
                     *k, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DATA
    assert only_error_record(capsys)["error"] == "DatasetError"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("argv,flag", [
    (["sweep", "--lambda", "1"], "--lambda"),
    (["sweep", "--latent-dim", "3"], "--latent-dim"),
    (["sweep", "--random-params", "--latent-dim", "3"], "--latent-dim"),
    (["cluster", "--random-params", "--lambda", "1"], "--lambda"),
    (["cluster", "--random-params", "--latent-dim", "3"], "--latent-dim"),
])
def test_option_the_grids_override_is_refused_before_output(
        monkeypatch, tmp_path, capsys, argv, flag):
    # sweep cells and --random-params take lambda and latent dim from the
    # grids, so a value given for either would be silently dropped
    def no_trial(payload):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_trial_job", no_trial)
    code = cli.main([*argv, "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--trials", "1", "--out",
                     str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    err = only_error_record(capsys)
    assert err["error"] == "ValueError"
    assert err["message"].startswith(f"{flag} is not used")
    assert not (tmp_path / "o").exists()


def test_sweep_random_params_single_cell(tmp_path):
    cfg = tiny_config(tmp_path, random_params=True, k_grid=(3,))
    cells = cli.cmd_sweep(cfg)
    assert len(cells) == 1
    assert cells[0]["latent_dim"] == 3
    assert cells[0]["lambda"] in cli.DEFAULT_LAMBDA_GRID


def test_sweep_random_params_report_records_the_draw(tmp_path):
    cfg = tiny_config(tmp_path, random_params=True, k_grid=(3,))
    [cell] = cli.cmd_sweep(cfg)
    conf = json.loads(Path(cell["report"]).read_text())["config"]
    assert conf["random_params"] is True
    assert (conf["lambda"], conf["latent_dim"]) == (cell["lambda"],
                                                    cell["latent_dim"])


# ---------------------------------------------------------------------------
# cmd_synth
# ---------------------------------------------------------------------------

def test_synth_writes_expected_shapes(tmp_path):
    spec = {"clusters": 5, "per_cluster": 40, "views": 3, "latent_dim": 4,
            "view_dims": [8, 6, 7], "noise_sigma": 0.1, "seed": 2}
    manifest = cli.cmd_synth(spec, tmp_path / "data")
    loaded = json.loads(Path(manifest).read_text())
    assert loaded["n"] == 200
    assert len(loaded["views"]) == 3
    for entry in loaded["views"]:
        assert entry["cols"] == 200


def test_synth_deterministic_files(tmp_path):
    spec = dict(TINY_SPEC)
    cli.cmd_synth(spec, tmp_path / "a")
    cli.cmd_synth(spec, tmp_path / "b")
    for name in ("view0.txt", "view1.txt", "labels.txt", "manifest.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()


def test_synth_roundtrip_identical_dataset(tmp_path):
    from elmsc.dataset import gen_synthetic

    spec = dict(TINY_SPEC)
    manifest = cli.cmd_synth(spec, tmp_path / "data")
    loaded = load_dataset(manifest)
    direct = gen_synthetic(
        clusters=spec["clusters"], per_cluster=spec["per_cluster"],
        views=spec["views"], latent_dim=spec["latent_dim"],
        view_dims=spec["view_dims"], noise_sigma=spec["noise_sigma"],
        seed=spec["seed"],
    )
    for a, b in zip(loaded.views, direct.views):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.labels, direct.labels)


def only_error_record(capsys):
    lines = capsys.readouterr().err.strip().splitlines()
    assert len(lines) == 1
    return json.loads(lines[0])


def _broken_manifest(tmp_path, case):
    """A two-view, four-sample manifest with one defect; returns its path."""
    views = {"a.txt": "1 2 3 4\n5 6 7 8\n", "b.txt": "1 0 1 0\n0 1 0 1\n"}
    labels = "0\n0\n1\n1\n"
    spec = {"n": 4, "labels": "labels.txt",
            "views": [{"path": "a.txt", "rows": 2, "cols": 4},
                      {"path": "b.txt", "rows": 2, "cols": 4}]}
    if case in ("nan", "inf"):
        views["b.txt"] = f"1 0 {case} 0\n0 1 0 1\n"
    elif case == "negative-label":
        labels = "0\n-1\n1\n1\n"
    elif case == "one-cluster":
        labels = "0\n0\n0\n0\n"
    elif case == "no-n":
        del spec["n"]
    elif case == "empty-view":
        views["b.txt"] = ""
    for name, text in views.items():
        (tmp_path / name).write_text(text)
    (tmp_path / "labels.txt").write_text(labels)
    manifest = tmp_path / "manifest.json"
    manifest.write_text("{" if case == "not-json" else json.dumps(spec))
    return manifest


@pytest.mark.parametrize("case, code, message", [
    ("nan", cli.EXIT_DATA, "NaN/Inf"),
    ("inf", cli.EXIT_DATA, "NaN/Inf"),
    ("negative-label", cli.EXIT_DATA, "negative labels"),
    ("not-json", cli.EXIT_DATA, "not valid JSON"),
    ("no-n", cli.EXIT_DATA, "must declare 'n'"),
    ("empty-view", cli.EXIT_DATA, "holds no data"),
    ("one-cluster", cli.EXIT_DATA, ">= 2 clusters"),
    ("synthetic-not-an-object", cli.EXIT_CONFIG, "must be a JSON object"),
])
def test_bad_input_exits_in_its_class_before_any_output(tmp_path, capsys,
                                                        case, code, message):
    out = tmp_path / "out"
    if case == "synthetic-not-an-object":
        source = ["--synthetic", "[1]"]
    else:
        source = ["--manifest", str(_broken_manifest(tmp_path, case))]
    argv = ["cluster", *source, "--clusters", "2", "--latent-dim", "2",
            "--out", str(out)]
    assert cli.main(argv) == code
    assert message in only_error_record(capsys)["message"]
    assert not out.exists()


def test_synth_missing_field_is_config_error(tmp_path, capsys):
    code = cli.main(["synth", "--spec", json.dumps({"clusters": 2}),
                     "--out", str(tmp_path / "data")])
    assert code == cli.EXIT_CONFIG
    err = only_error_record(capsys)
    assert err["error"] == "ValueError"
    assert "'per_cluster'" in err["message"]
    assert not (tmp_path / "data").exists()


# (field, value): the values the manifest loader refuses as counts, plus a
# wrong container, a non-numeric or non-finite noise level and a misspelt
# field
BAD_SPEC_FIELDS = [
    ("view_dims", 5),
    ("clusters", 2.5),
    ("per_cluster", 4.0),
    ("per_cluster", "16"),
    ("seed", True),
    ("view_dims", [8.9, 6]),
    ("noise_sigma", "0.1"),
    ("noise_sigma", float("nan")),
    ("noise_sigma", float("inf")),
    ("noise_sgima", 0.1),
]


@pytest.mark.parametrize("command", ["synth", "cluster"])
def test_spec_field_of_wrong_type_is_config_error(tmp_path, capsys, command):
    for i, (name, value) in enumerate(BAD_SPEC_FIELDS):
        spec = json.dumps(dict(TINY_SPEC, **{name: value}))
        out = tmp_path / f"out{i}"
        if command == "synth":
            argv = ["synth", "--spec", spec, "--out", str(out)]
        else:
            argv = ["cluster", "--synthetic", spec, "--clusters", "2",
                    "--latent-dim", "3", "--out", str(out)]
        assert cli.main(argv) == cli.EXIT_CONFIG, (name, value)
        err = only_error_record(capsys)
        assert err["error"] == "ValueError"
        assert f"'{name}'" in err["message"], (name, value, err)
        assert not out.exists(), (name, value)


# ---------------------------------------------------------------------------
# cmd_eval
# ---------------------------------------------------------------------------

def test_eval_identical_files(tmp_path, capsys):
    # one sample has no pairs, which ari must not divide by
    for labels in ([0, 0, 1, 1, 2], [3]):
        path = tmp_path / "labels.txt"
        np.savetxt(path, labels, fmt="%d")
        code = cli.main(["eval", str(path), str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines() == ["ACC 100.00", "NMI 100.00", "ARI 100.00",
                                    "F1 100.00"]


def test_eval_length_mismatch(tmp_path, capsys):
    # label files of different lengths are a data error, as a manifest's
    # label count against its n is
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    np.savetxt(a, [0, 1], fmt="%d")
    np.savetxt(b, [0, 1, 1], fmt="%d")
    assert cli.main(["eval", str(a), str(b)]) == cli.EXIT_DATA
    record = only_error_record(capsys)
    assert record["error"] == "DatasetError"
    assert (f"label file {a} has 2 entries, truth file {b} has 3"
            in record["message"])


def test_eval_empty_label_file_is_data_error(tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    truth = tmp_path / "truth.txt"
    np.savetxt(truth, [0, 1], fmt="%d")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["eval", str(empty), str(truth)])
    assert code == cli.EXIT_DATA
    record = only_error_record(capsys)
    assert record["error"] == "DatasetError"
    assert "no labels" in record["message"]
    assert not caught


def test_eval_label_file_with_two_columns_is_data_error(tmp_path, capsys):
    wide = tmp_path / "wide.txt"
    np.savetxt(wide, [[0, 1], [1, 0]], fmt="%d")
    truth = tmp_path / "truth.txt"
    np.savetxt(truth, [0, 1], fmt="%d")
    assert cli.main(["eval", str(wide), str(truth)]) == cli.EXIT_DATA
    record = only_error_record(capsys)
    assert record["error"] == "DatasetError"
    assert "one integer per line" in record["message"]
    assert str(wide) in record["message"]


def test_eval_known_case_matches_metrics(tmp_path, capsys):
    from elmsc.metrics import LabelPair, all_metrics

    pred = tmp_path / "pred.txt"
    truth = tmp_path / "truth.txt"
    np.savetxt(pred, [0, 1, 0, 1], fmt="%d")
    np.savetxt(truth, [0, 0, 1, 1], fmt="%d")
    assert cli.main(["eval", str(pred), str(truth)]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = all_metrics(LabelPair(predicted=np.array([0, 1, 0, 1]),
                                     truth=np.array([0, 0, 1, 1])))
    for line, value in zip(lines, expected):
        assert line.split()[1] == f"{value * 100:.2f}"


# ---------------------------------------------------------------------------
# parser plumbing
# ---------------------------------------------------------------------------

def test_default_grids():
    assert len(cli.DEFAULT_LAMBDA_GRID) == 7
    assert cli.DEFAULT_LAMBDA_GRID == (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)
    assert cli.DEFAULT_K_GRID == (50, 100, 150, 200)


def test_numerical_failure_exit_code(monkeypatch, tmp_path, capsys):
    from elmsc.numerics import NumericalError

    def boom(cfg):
        raise NumericalError("iteration 3: synthetic failure")

    monkeypatch.setattr(cli, "cmd_cluster", boom)
    code = cli.main(["cluster", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_NUMERIC
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "NumericalError"


def test_input_too_large_for_memory_is_data_error(monkeypatch, tmp_path,
                                                   capsys):
    # numpy's allocation failure; building it allocates nothing
    def too_large(*args, **kwargs):
        raise np._core._exceptions._ArrayMemoryError((10**6, 10**6),
                                                     np.dtype("float64"))

    monkeypatch.setattr(cli.ds_mod, "build_augmented", too_large)
    out = tmp_path / "o"
    code = cli.main(["cluster", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--out", str(out)])
    assert code == cli.EXIT_DATA
    assert only_error_record(capsys)["error"] == "MemoryError"
    assert not out.exists()


def raise_in_trial(monkeypatch, exc, latent_dim=None):
    """Make solver.run raise exc inside a trial (at latent_dim only, if
    given), as a failure after the set-up has passed would."""
    run = solver.run

    def failing(xa, scfg):
        if latent_dim in (None, scfg.latent_dim):
            raise exc
        return run(xa, scfg)

    monkeypatch.setattr(solver, "run", failing)


def array_memory_error():
    # numpy's allocation failure; building it allocates nothing
    return np._core._exceptions._ArrayMemoryError((10**6, 10**6),
                                                 np.dtype("float64"))


@pytest.mark.parametrize("exc,code,name", [
    (array_memory_error(), cli.EXIT_DATA, "MemoryError"),
    (cli.NumericalError("iteration 1: synthetic failure"), cli.EXIT_NUMERIC,
     "NumericalError"),
])
def test_failure_inside_a_trial_writes_nothing(monkeypatch, tmp_path, capsys,
                                               exc, code, name):
    raise_in_trial(monkeypatch, exc)
    out = tmp_path / "o"
    assert cli.main(["cluster", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--latent-dim", "3", "--trials", "2",
                     "--out", str(out)]) == code
    assert only_error_record(capsys)["error"] == name
    assert not out.exists()


def test_sweep_cell_out_of_memory_fails_only_that_cell(monkeypatch, tmp_path,
                                                        capsys):
    raise_in_trial(monkeypatch, array_memory_error(), latent_dim=3)
    out = tmp_path / "s"
    assert cli.main(["sweep", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--lambda-grid", "1", "--k-grid", "2",
                     "3", "--trials", "1", "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["ok", "failed"]
    assert rows[1]["error"].startswith("MemoryError")
    assert rows[1]["report"] == ""
    assert sorted(p.name for p in out.iterdir()) == ["cell_lam1_k2",
                                                     "summary.csv"]


def tiny_plan(latent_dim):
    """The workspace plan's total of a TINY_SPEC run at latent_dim."""
    xa, _ = cli._prepare(tiny_config(Path("unused")))
    return solver.workspace_plan(
        xa, solver.ElmscConfig(lam=1.0, latent_dim=latent_dim))["total"]


def refusing_memory(monkeypatch, available):
    """Report `available` bytes free and record the latent_dim of every
    solve_matrix call, which must not come once the preflight refuses;
    returns the record."""
    formed = []
    solve_matrix = solver.solve_matrix
    monkeypatch.setattr(cli, "_available_memory", lambda: available)
    monkeypatch.setattr(solver, "solve_matrix",
                        lambda xa, scfg: formed.append(scfg.latent_dim) or
                        solve_matrix(xa, scfg))
    return formed


@pytest.mark.parametrize("workers", [1, 2])
def test_run_whose_plan_exceeds_available_memory_exits_2_before_forming(
        monkeypatch, tmp_path, capsys, workers):
    # each worker holds its own copy of the plan, so the check is per worker;
    # the available figure is a patch, so nothing large is allocated
    need = tiny_plan(3) * workers
    formed = refusing_memory(monkeypatch, need - 1)
    recording_pool(monkeypatch, cpus=2)
    out = tmp_path / "o"
    argv = ["cluster", "--synthetic", json.dumps(TINY_SPEC), "--clusters",
            "2", "--latent-dim", "3", "--trials", "2", "--workers",
            str(workers), "--out", str(out)]
    assert cli.main(argv) == cli.EXIT_DATA
    record = only_error_record(capsys)
    assert record["error"] == "MemoryError"
    assert f"needs {need} bytes" in record["message"]
    assert f"the {need - 1} bytes available" in record["message"]
    assert not out.exists() and not formed
    # a plan that fits exactly runs
    monkeypatch.setattr(cli, "_available_memory", lambda: need)
    assert cli.main(argv) == cli.EXIT_OK
    assert formed and set(formed) == {3}


def test_sweep_cell_whose_plan_exceeds_available_memory_fails_only_it(
        monkeypatch, tmp_path, capsys):
    # k = 3 stacks one more row of E2 than k = 2, so only its plan is over
    formed = refusing_memory(monkeypatch, tiny_plan(2))
    out = tmp_path / "s"
    assert cli.main(["sweep", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--lambda-grid", "1", "--k-grid", "3",
                     "2", "--trials", "1", "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["failed", "ok"]
    assert rows[0]["error"].startswith(f"MemoryError: the run needs "
                                       f"{tiny_plan(3)} bytes")
    assert sorted(p.name for p in out.iterdir()) == ["cell_lam1_k2",
                                                     "summary.csv"]
    assert formed and set(formed) == {2}


MEMINFO = "MemTotal:       16 kB\nMemAvailable:    8 kB\nSwapTotal: 0 kB\n"
CGROUP = "/sys/fs/cgroup/jobs/a/"


@pytest.mark.parametrize("files,available", [
    ({"/proc/meminfo": MEMINFO}, 8192),
    ({"/proc/meminfo": MEMINFO, "/proc/self/cgroup": "0::/jobs/a\n",
      CGROUP + "memory.max": "10000\n", CGROUP + "memory.current": "4000\n"},
     6000),
    ({"/proc/meminfo": MEMINFO, "/proc/self/cgroup": "0::/jobs/a\n",
      CGROUP + "memory.max": "max\n", CGROUP + "memory.current": "4000\n"},
     8192),
    ({"/proc/self/cgroup": "0::/jobs/a\n", CGROUP + "memory.max": "10000\n",
      CGROUP + "memory.current": "4000\n"}, 6000),
    # a cgroup v1 hierarchy has no memory.max: MemAvailable alone
    ({"/proc/meminfo": MEMINFO, "/proc/self/cgroup": "4:memory:/jobs/a\n",
      CGROUP + "memory.max": "10\n", CGROUP + "memory.current": "4\n"},
     8192),
    ({}, None),
], ids=["meminfo", "cgroup-cap", "cgroup-max", "cgroup-only", "cgroup-v1",
        "none"])
def test_available_memory_is_meminfo_capped_by_the_cgroup(monkeypatch, files,
                                                          available):
    monkeypatch.setattr(cli, "_read", lambda path: files.get(str(path)))
    assert cli._available_memory() == available


def test_unreadable_memory_skips_the_preflight(monkeypatch, tmp_path):
    monkeypatch.setattr(cli, "_read", lambda path: None)
    report = cli.cmd_cluster(tiny_config(tmp_path))
    assert report["plan"]["total"] == tiny_plan(3)


def run_artifacts(out):
    """A run directory's files as bytes, report.json without wall times."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    report = json.loads(files.pop("report.json"))
    return files, strip_wall_clock(report)


def test_trials_sharing_one_workspace_write_what_fresh_buffers_write(
        monkeypatch, tmp_path):
    states = []
    init_state = solver.init_state
    monkeypatch.setattr(solver, "init_state",
                        lambda xa, cfg: states.append(init_state(xa, cfg))
                        or states[-1])
    noisy = dict(TINY_SPEC, noise_sigma=0.1)
    cli.cmd_cluster(tiny_config(tmp_path / "a", trials=3, synthetic=noisy))
    shared, states[:] = states[:], []
    monkeypatch.setattr(solver, "reuse_buffers",
                        lambda xa, k: contextlib.nullcontext())
    cli.cmd_cluster(tiny_config(tmp_path / "b", trials=3, synthetic=noisy))
    files, report = run_artifacts(tmp_path / "a" / "out")
    assert len(files) == 6
    assert (files, report) == run_artifacts(tmp_path / "b" / "out")
    # every trial's Z, J, Y3, [E1; E2] and Y1 were the run's one set
    for name in ("z", "j", "y3", "y1"):
        assert all(getattr(s, name) is getattr(shared[0], name)
                   for s in shared), name
        assert len({id(getattr(s, name)) for s in states}) == 3, name
    assert all(s.e1.base is shared[0].e1.base for s in shared)
    assert not solver._REUSED


def raise_in_solve_matrix(monkeypatch, exc, latent_dim=None):
    """Make solver.solve_matrix raise exc (at latent_dim only, if given):
    it runs once per run, after the set-up and before any trial."""
    solve_matrix = solver.solve_matrix

    def failing(xa, scfg):
        if latent_dim in (None, scfg.latent_dim):
            raise exc
        return solve_matrix(xa, scfg)

    monkeypatch.setattr(solver, "solve_matrix", failing)


FAILURE_CLASSES = pytest.mark.parametrize("exc,code,name", [
    (array_memory_error(), cli.EXIT_DATA, "MemoryError"),
    (cli.NumericalError("synthetic failure"), cli.EXIT_NUMERIC,
     "NumericalError"),
])


@FAILURE_CLASSES
def test_failure_forming_the_solved_matrix_writes_nothing(
        monkeypatch, tmp_path, capsys, exc, code, name):
    raise_in_solve_matrix(monkeypatch, exc)
    out = tmp_path / "o"
    assert cli.main(["cluster", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--latent-dim", "3", "--trials", "2",
                     "--out", str(out)]) == code
    assert only_error_record(capsys)["error"] == name
    assert not out.exists()


@FAILURE_CLASSES
def test_sweep_cell_failing_to_form_its_solved_matrix_fails_only_it(
        monkeypatch, tmp_path, capsys, exc, code, name):
    raise_in_solve_matrix(monkeypatch, exc, latent_dim=2)
    out = tmp_path / "s"
    assert cli.main(["sweep", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--lambda-grid", "1", "--k-grid", "2",
                     "3", "--trials", "1", "--out", str(out)]) == cli.EXIT_OK
    assert capsys.readouterr().err == ""
    with open(out / "summary.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["failed", "ok"]
    assert rows[0]["error"].startswith(name)
    assert sorted(p.name for p in out.iterdir()) == ["cell_lam1_k3",
                                                     "summary.csv"]


def test_overflow_during_setup_is_numerical_exit(tmp_path, capsys):
    # finite entries near the float64 limit overflow the PCA mean; the
    # NonFiniteError is also a ValueError but must exit as numerical
    data = tmp_path / "data"
    assert cli.main(["synth", "--spec", json.dumps(TINY_SPEC),
                     "--out", str(data)]) == cli.EXIT_OK
    capsys.readouterr()
    for entry in json.loads((data / "manifest.json").read_text())["views"]:
        view = np.loadtxt(data / entry["path"], ndmin=2)
        np.savetxt(data / entry["path"],
                   np.where(view < 0, -1.7e308, 1.7e308))
    out = tmp_path / "o"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(["cluster", "--manifest", str(data / "manifest.json"),
                         "--clusters", "2", "--latent-dim", "3",
                         "--trials", "1", "--out", str(out)])
    assert code == cli.EXIT_NUMERIC
    assert only_error_record(capsys)["error"] == "NonFiniteError"
    assert not caught  # numpy's overflow warnings are silenced
    assert not out.exists()


def test_every_run_config_field_is_a_parser_dest():
    # RunConfig is filled from the dests of the same names, so a field
    # added on one side only must fail here
    parser = cli.build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))

    def dests(command):
        return {a.dest for a in subparsers.choices[command]._actions}

    names = {f.name for f in dataclasses.fields(cli.RunConfig)}
    assert names <= dests("sweep")
    assert names - {"lambda_grid", "k_grid"} <= dests("cluster")
    # an option that is not given sets no value, so RunConfig's default holds
    common = ["--clusters", "2", "--out", "x"]
    for command in ("cluster", "sweep"):
        args = vars(parser.parse_args([command, *common]))
        assert args == {"command": command, "clusters": 2, "out": "x"}


@pytest.mark.parametrize("name,value", [("latent_dim", 0), ("lam", -1.0),
                                        ("latent_dim", 40),  # 40 > d
                                        ("lam", np.nan), ("lam", np.inf)])
def test_bad_solver_config_rejected_before_first_trial(monkeypatch, tmp_path,
                                                       name, value):
    def no_trial(payload):
        raise AssertionError("a trial ran")

    # only a latent_dim above d needs the data to be refused
    loads = []
    load = cli._load_or_generate
    monkeypatch.setattr(cli, "_load_or_generate",
                        lambda cfg: loads.append(cfg) or load(cfg))
    monkeypatch.setattr(cli, "_trial_job", no_trial)
    with pytest.raises(ValueError, match=name):
        cli.cmd_cluster(tiny_config(tmp_path, **{name: value}))
    assert len(loads) == (1 if value == 40 else 0)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag,value,name", [("--lambda", "nan", "'lam'"),
                                             ("--latent-dim", "0", "'latent_dim'")])
def test_bad_solver_option_is_a_config_error_before_the_data_is_read(
        tmp_path, capsys, flag, value, name):
    # the manifest does not exist, so reading it first would exit 2
    out = tmp_path / "out"
    assert cli.main(["cluster", "--manifest", str(tmp_path / "none.json"),
                     "--clusters", "2", flag, value, "--out", str(out)]
                    ) == cli.EXIT_CONFIG
    assert name in only_error_record(capsys)["message"]
    assert not out.exists()


@pytest.mark.parametrize("name,value,message", [
    ("trials", 0, "'trials' must be >= 1"),
    ("workers", 0, "'workers' must be >= 1"),
    ("lambda_grid", (), "sweep grids must be nonempty"),
    ("k_grid", (), "sweep grids must be nonempty"),
])
def test_run_config_rejects_empty_counts_and_grids(tmp_path, name, value,
                                                   message):
    with pytest.raises(ValueError, match=message):
        tiny_config(tmp_path, **{name: value})


def test_labels_file_of_the_wrong_length_is_a_data_error(tmp_path, capsys):
    data = tmp_path / "data"
    assert cli.main(["synth", "--spec", json.dumps(TINY_SPEC),
                     "--out", str(data)]) == cli.EXIT_OK
    capsys.readouterr()
    np.savetxt(data / "labels.txt", [0, 1, 0], fmt="%d")
    out = tmp_path / "o"
    assert cli.main(["cluster", "--manifest", str(data / "manifest.json"),
                     "--clusters", "2", "--out", str(out)]) == cli.EXIT_DATA
    err = only_error_record(capsys)
    assert err["error"] == "DatasetError"
    assert "has 3 entries, expected 16" in err["message"]
    assert not out.exists()


def test_parser_rejects_unknown_ablation(capsys):
    assert cli.main(["cluster", "--clusters", "2", "--out", "x",
                     "--ablation", "bogus"]) == cli.EXIT_CONFIG


def test_bad_synthetic_json_is_config_error(tmp_path, capsys):
    code = cli.main(["cluster", "--synthetic", "{not json", "--clusters", "2",
                     "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG


def test_latent_dim_above_d_refused_before_output_and_trials(monkeypatch,
                                                            tmp_path, capsys):
    # a --random-params draw above d is refused the same way, unclamped,
    # and in a sweep it is that cell's failure, with no cell directory
    def no_trial(payload):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_trial_job", no_trial)
    code = cli.main(["cluster", "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", "2", "--latent-dim", "40", "--out",
                     str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "latent_dim=40" in only_error_record(capsys)["message"]
    assert not (tmp_path / "o").exists()
    with pytest.raises(ValueError, match="latent_dim=40"):
        cli.cmd_cluster(tiny_config(tmp_path, random_params=True, k_grid=(40,)))
    assert not (tmp_path / "out").exists()
    cells = cli.cmd_sweep(tiny_config(tmp_path, random_params=True,
                                      k_grid=(40,)))
    assert [c["status"] for c in cells] == ["failed"]
    assert "latent_dim=40" in cells[0]["error"]
    assert "report" not in cells[0]
    # the failed cell (cell_lam0.001_k40 for this draw) left no directory
    assert [p.name for p in (tmp_path / "out").iterdir()] == ["summary.csv"]


@pytest.mark.parametrize("command", ["cluster", "sweep"])
def test_clusters_above_sample_count_refused_before_output_and_trials(
        monkeypatch, tmp_path, capsys, command):
    # unchecked, the spectral step would refuse it only after a full solve
    def no_trial(payload):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(cli, "_trial_job", no_trial)
    n = TINY_SPEC["clusters"] * TINY_SPEC["per_cluster"]
    k = ["--k-grid", "3"] if command == "sweep" else ["--latent-dim", "3"]
    code = cli.main([command, "--synthetic", json.dumps(TINY_SPEC),
                     "--clusters", str(n + 1), *k, "--out",
                     str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert f"clusters={n + 1}" in only_error_record(capsys)["message"]
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# trial plumbing
# ---------------------------------------------------------------------------

def record_formations(monkeypatch):
    """The list that every later formation of an `AugmentedMatrix.xa`
    appends its matrix to."""
    formed = []
    form = AugmentedMatrix.xa.func

    def counting(self):
        formed.append(self)
        return form(self)

    counted = functools.cached_property(counting)
    counted.__set_name__(AugmentedMatrix, "xa")
    monkeypatch.setattr(AugmentedMatrix, "xa", counted)
    return formed


@pytest.mark.parametrize("ablation,builds", [("full", 1), ("v2", 1)])
def test_trial_builds_the_solved_matrix_at_most_once(monkeypatch, tmp_path,
                                                      ablation, builds):
    # solve_matrix forms the matrix before the first trial, and every
    # trial's run, and the KKT report it takes, use that matrix as it is
    cfg = tiny_config(tmp_path, trials=3, ablation=ablation)
    xa, labels = cli._prepare(cfg)
    formed = record_formations(monkeypatch)
    kkt_data = []
    kkt_residuals = solver.kkt_residuals

    def recording(state, xa_mat, *args, **kwargs):
        kkt_data.append(xa_mat)
        return kkt_residuals(state, xa_mat, *args, **kwargs)

    monkeypatch.setattr(solver, "kkt_residuals", recording)
    report = cli._run_trials(cfg, xa, labels)
    assert len(formed) == builds
    assert (formed[0] is xa) == (ablation == "full")
    assert len(kkt_data) == 3
    assert all(mat is formed[0].xa for mat in kkt_data)
    record = report["trials"][0]
    assert set(record["kkt"]) == {"recon", "selfrep", "aux", "e_gap", "j_gap"}
    assert list(record["metrics"]) == ["acc", "nmi", "ari", "f1"]


WIDE_SPEC = dict(clusters=3, per_cluster=20, views=2, latent_dim=4,
                 view_dims=[600, 480], noise_sigma=0.1, seed=1)


@pytest.mark.parametrize("ablation", ["full", "v2"])
def test_wide_solve_matrix_forms_no_d_by_vn_array(ablation):
    # d = 1080 > vn = 120 >= k = 4: the views are factored one at a time
    # and X itself is never formed. The peak reads about 607,600 bytes
    # under both ablations; forming X and factoring it whole took it to
    # about 2,208,000 (full) and 1,477,000 (v2)
    data = gen_synthetic(**WIDE_SPEC)
    scfg = solver.ElmscConfig(lam=1.0, latent_dim=4, ablation=ablation)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        xa = build_augmented(data, default_pca_components(3, data))
        solved = solver.solve_matrix(xa, scfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    d, vn = 1080, 120
    assert solved.xa.shape == (vn, vn)
    assert peak < 8 * d * vn


# one QR per view, under every ablation
@pytest.mark.parametrize("ablation,factors", [("full", 2), ("v2", 2)])
def test_wide_run_factors_x_once_and_hands_every_trial_r(
        monkeypatch, tmp_path, ablation, factors):
    # d = 1080 > vn = 120 >= k = 4: the run factors each view once, and no
    # trial factors it again or holds a d x vn array
    cfg = tiny_config(tmp_path, clusters=3, synthetic=dict(WIDE_SPEC),
                      latent_dim=4, trials=3, ablation=ablation)
    xa, labels = cli._prepare(cfg)
    d, vn = sum(xa.view_dims), xa.n_views * xa.n_samples
    factored = []
    qr = np.linalg.qr

    def counting(a, mode="reduced"):
        if mode == "r":  # the Procrustes step takes the reduced QR
            factored.append(a.shape)
        return qr(a, mode=mode)

    payloads = []
    trial_job = cli._trial_job

    def recording(payload):
        payloads.append(payload)
        return trial_job(payload)

    monkeypatch.setattr(np.linalg, "qr", counting)
    monkeypatch.setattr(cli, "_trial_job", recording)
    report = cli._run_trials(cfg, xa, labels)
    assert len(factored) == factors
    assert len(payloads) == 3
    matrix = payloads[0][0]
    assert all(p[0] is matrix for p in payloads)
    assert all(p[0].xa.shape == (vn, vn) for p in payloads)
    assert [t["metrics"]["acc"] for t in report["trials"]] == [1.0] * 3
    solved, scfg = payloads[0][:2]
    solver.run(solved, scfg)  # the first solve allocates one-off state
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        solver.run(solved, scfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    # about 533,000 bytes under both ablations (648,000 under v2 while each
    # solve copied its block-diagonal R); a full solve on X itself peaks at
    # about 1,170,000, and a v2 one that factored the d x vn block-diagonal
    # X whole at about 1,476,000
    assert peak < 8 * d * vn


@pytest.mark.parametrize("ablation", ["full", "v2"])
def test_wide_sweep_forms_each_solve_matrix_once(monkeypatch, tmp_path,
                                                 ablation):
    # the 2 x 3 sweep solves on the views' factors (k = 4, 8) and on X
    # (k = 130), or on their v2 forms, each formed once: v2's form is kept
    # on its matrix as the factors are, where each v2 cell once formed its
    # own, 6 in all
    cfg = tiny_config(tmp_path, clusters=3, synthetic=dict(WIDE_SPEC),
                      ablation=ablation, lambda_grid=(1.0, 10.0),
                      k_grid=(4, 8, 130))
    formed = record_formations(monkeypatch)
    cells = cli.cmd_sweep(cfg)
    assert [c["status"] for c in cells] == ["ok"] * 6
    assert [m.xa.shape for m in formed] == [(120, 120), (1080, 120)]
    assert all(bool(m.aligned) == (ablation == "full") for m in formed)


def artifact_bytes(out):
    """{file name: bytes} of a cluster output directory, report.json parsed
    and stripped of its wall clock times."""
    files = {p.name: p.read_bytes() for p in out.iterdir()}
    files["report.json"] = strip_wall_clock(json.loads(files["report.json"]))
    return files


@pytest.mark.parametrize("ablation,factors", [("full", 2), ("v2", 2)])
def test_wide_sweep_factors_x_once_and_hands_r_to_every_cell_it_fits(
        monkeypatch, tmp_path, ablation, factors):
    # d = 1080 > vn = 120: the first cell with k <= vn factors each view,
    # which the prepared matrix keeps, every later such cell solves on those
    # factors, and a cell with k = 130 > vn solves on X; each cell's
    # artifacts are those of a cluster run of its own
    cfg = tiny_config(tmp_path, clusters=3, synthetic=dict(WIDE_SPEC),
                      ablation=ablation, lambda_grid=(1.0, 10.0),
                      k_grid=(4, 8, 130))
    factored, shapes = [], []
    qr, trial_job = np.linalg.qr, cli._trial_job

    def counting(a, mode="reduced"):
        if mode == "r":  # the Procrustes step takes the reduced QR
            factored.append(a.shape)
        return qr(a, mode=mode)

    def recording(payload):
        shapes.append((payload[1].latent_dim, payload[0].xa.shape))
        return trial_job(payload)

    monkeypatch.setattr(np.linalg, "qr", counting)
    monkeypatch.setattr(cli, "_trial_job", recording)
    cells = cli.cmd_sweep(cfg)
    assert [c["status"] for c in cells] == ["ok"] * 6
    assert len(factored) == factors
    d, vn = 1080, 120
    assert shapes == [(k, (d, vn) if k == 130 else (vn, vn))
                      for _ in range(2) for k in (4, 8, 130)]
    monkeypatch.setattr(cli, "_trial_job", trial_job)
    for cell in cells:
        swept = Path(cell["report"]).parent
        alone = tmp_path / "alone" / swept.name
        cli.cmd_cluster(dataclasses.replace(
            cfg, out=str(alone), lam=cell["lambda"],
            latent_dim=cell["latent_dim"]))
        assert artifact_bytes(swept) == artifact_bytes(alone), swept.name
