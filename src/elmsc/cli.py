"""Command-line pipeline: cluster, sweep, synth, and eval subcommands.

`cluster` runs seeded end-to-end trials (augmented matrix, solver, spectral
clustering, metrics) and writes a JSON report plus per-trial traces and
labels. `sweep` repeats the trials over a lambda/latent-dim grid on one
prepared dataset. `synth` writes a synthetic dataset in the manifest format,
and `eval` scores two label files.

Exit codes: 0 success, 1 usage/config error, 2 data error (an input too
large for memory included), 3 numerical failure.
"""

import argparse
import concurrent.futures
import csv
import inspect
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from . import metrics as metrics_mod
from . import solver as solver_mod
from . import spectral as spectral_mod
from .dataset import DatasetError
from .numerics import NumericalError, finite_real, number, rng_from

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

DEFAULT_LAMBDA_GRID = (1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0, 1000.0)
DEFAULT_K_GRID = (50, 100, 150, 200)


@dataclass
class RunConfig:
    """Fully resolved configuration for one clustering run."""

    out: str
    clusters: int
    manifest: str = None
    synthetic: dict = None
    lam: float = 1.0
    latent_dim: int = 100
    trials: int = 10
    seed: int = 0
    ablation: str = "full"
    workers: int = 1
    random_params: bool = False
    lambda_grid: tuple = field(default=DEFAULT_LAMBDA_GRID)
    k_grid: tuple = field(default=DEFAULT_K_GRID)

    def __post_init__(self):
        if (self.manifest is None) == (self.synthetic is None):
            raise ValueError("exactly one of manifest/synthetic must be given")
        for name in ("clusters", "trials", "workers", "seed", "latent_dim"):
            number(getattr(self, name), name)
        if self.clusters < 2:
            raise ValueError(f"clusters must be >= 2, got {self.clusters}")
        if self.trials < 1:
            raise ValueError(f"trials must be positive, got {self.trials}")
        if self.workers < 1:
            raise ValueError(f"workers must be positive, got {self.workers}")
        if not self.lambda_grid or not self.k_grid:
            raise ValueError("sweep grids must be nonempty")
        self.lambda_grid = tuple(finite_real(lam, "lambda_grid")
                                 for lam in self.lambda_grid)
        self.k_grid = tuple(number(k, "k_grid") for k in self.k_grid)
        if min(self.lambda_grid) < 0:
            raise ValueError(f"'lambda_grid' must be nonnegative: {self.lambda_grid}")
        if min(self.k_grid) < 1:  # a k above d fails only its cell
            raise ValueError(f"'k_grid' entries must be >= 1: {self.k_grid}")


def _synthetic_dataset(spec):
    """Generate the dataset a synthetic spec (a parsed JSON object) describes.
    Its fields are gen_synthetic's arguments, which checks their values; a
    missing or unknown field is a ValueError that names it."""
    try:
        inspect.signature(ds_mod.gen_synthetic).bind(**spec)
    except TypeError as exc:
        raise ValueError(f"synthetic spec: {exc}") from exc
    return ds_mod.gen_synthetic(**spec)


def _load_or_generate(cfg):
    if cfg.manifest is not None:
        return ds_mod.load_dataset(cfg.manifest)
    return _synthetic_dataset(cfg.synthetic)


@np.errstate(all="ignore")  # overflow is caught by the NaN/Inf guards
def _trial_job(payload):
    """One end-to-end trial on a matrix `solver.solve_matrix` formed;
    top-level so worker processes can run it."""
    xa, scfg, clusters, trial, labels = payload
    start = time.perf_counter()
    out = solver_mod.run(xa, scfg)
    zhat = solver_mod.aggregate_z(out.z, xa.n_views, xa.n_samples)
    result = spectral_mod.cluster(zhat, clusters, seed=scfg.seed)
    metrics = None
    if labels is not None:
        pair = metrics_mod.LabelPair(predicted=result.labels, truth=labels)
        metrics = dict(zip(metrics_mod.METRIC_NAMES,
                           metrics_mod.all_metrics(pair)))
    elapsed = time.perf_counter() - start
    record = {
        "trial": trial,
        "seed": scfg.seed,
        "converged": out.converged,
        "iterations": len(out.trace),
        "kkt": asdict(out.kkt),
        "metrics": metrics,
        "labels_file": f"labels_{trial}.txt",
        "trace_file": f"trace_{trial}.csv",
        "wall_clock_sec": elapsed,
    }
    return record, result.labels, out.trace


def _draw_params(cfg):
    """(lambda, latent_dim) drawn uniformly from the grids: one draw per
    run, shared by all its trials."""
    rng = rng_from(cfg.seed, 101, 7)
    return (float(rng.choice(np.asarray(cfg.lambda_grid))),
            int(rng.choice(np.asarray(cfg.k_grid))))


def _prepare(cfg):
    """The part of a run that lambda and latent_dim do not change: load or
    generate the dataset, check its labels and cluster count, and return
    the augmented matrix and the labels (None when there are none)."""
    data = _load_or_generate(cfg)
    labels = data.labels
    if labels is not None and len(np.unique(labels)) < 2:
        raise DatasetError("ground-truth labels must contain >= 2 clusters")
    pca_components = ds_mod.default_pca_components(cfg.clusters, data)
    return ds_mod.build_augmented(data, pca_components), labels


def cmd_cluster(cfg):
    """Run `trials` independent pipelines, then write report + artifacts.

    Trial i uses seed = base seed + i for both the solver initialization and
    the k-means restarts. Returns the report dict.
    """
    if cfg.random_params:
        lam, latent_dim = _draw_params(cfg)
        cfg = replace(cfg, lam=lam, latent_dim=latent_dim)
    return _run_trials(cfg, *_prepare(cfg))


def _run_trials(cfg, xa, labels):
    """The trials of one run at cfg.lam and cfg.latent_dim; see cmd_cluster."""
    scfg = solver_mod.ElmscConfig(lam=cfg.lam, latent_dim=cfg.latent_dim,
                                  seed=cfg.seed, ablation=cfg.ablation)
    # before any trial, so that no worker pool starts for a k above d
    solver_mod.check_latent_dim(scfg.latent_dim, xa.xa.shape[0])
    # once per run, so payloads carry the vn x vn R, not X, when d > vn >= k
    xa = solver_mod.solve_matrix(xa, scfg)

    payloads = [
        (xa, replace(scfg, seed=scfg.seed + t), cfg.clusters, t, labels)
        for t in range(cfg.trials)
    ]
    # a pool starts all its workers at once, each with a copy of that matrix
    workers = min(cfg.workers, cfg.trials, os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            results = list(pool.map(_trial_job, payloads))
    else:
        results = [_trial_job(p) for p in payloads]

    # only now, so that a failed trial leaves no output directory
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    records = [record for record, _, _ in results]
    for record, pred, trace in results:
        np.savetxt(out_dir / record["labels_file"], pred, fmt="%d")
        trace.write_csv(out_dir / record["trace_file"])
    aggregate = None if labels is None else metrics_mod.aggregate_trials(
        [tuple(record["metrics"].values()) for record in records])

    # the output directory differs between otherwise identical runs, and
    # the grids matter only to the draw, which lambda and latent_dim hold
    config = {**asdict(cfg), "pca_components": xa.pca_dim,
              "seed_derivation": "trial seed = base seed + trial index"}
    for name in ("out", "lambda_grid", "k_grid"):
        del config[name]
    config["lambda"] = config.pop("lam")
    report = {"config": config, "trials": records, "aggregate": aggregate}
    (out_dir / "report.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n"
    )
    return report


def cmd_sweep(cfg):
    """Cartesian sweep over the lambda and latent-dim grids.

    The dataset is prepared once, and each cell runs the trials of a full
    cmd_cluster on it into its own subdirectory. A data error aborts the
    sweep; a failing cell writes no directory, its summary records the
    error, and the sweep goes on. With random_params a single uniformly
    drawn cell runs instead of the full grid. Returns the cell summaries.
    """
    if cfg.random_params:
        cells = [_draw_params(cfg)]
    else:
        cells = [(lam, k) for lam in cfg.lambda_grid for k in cfg.k_grid]
    names = [f"cell_lam{lam:g}_k{k}" for lam, k in cells]
    for name in names:
        if names.count(name) > 1:
            raise ValueError(f"two grid cells would share the directory {name}")
    xa, labels = _prepare(cfg)
    out_dir = Path(cfg.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    summaries = []
    for (lam, k), name in zip(cells, names):
        cell_dir = out_dir / name
        cell = {"lambda": lam, "latent_dim": k}
        cell_cfg = replace(cfg, out=str(cell_dir), lam=lam, latent_dim=k)
        try:
            report = _run_trials(cell_cfg, xa, labels)
        except (ValueError, NumericalError, OSError, MemoryError) as exc:
            cell.update(status="failed", error=f"{type(exc).__name__}: {exc}")
            summaries.append(cell)
            continue
        cell.update(status="ok", report=str(cell_dir / "report.json"))
        if report["aggregate"] is not None:
            for name, stats in report["aggregate"].items():
                cell[f"{name}_mean"] = stats["mean"]
                cell[f"{name}_std"] = stats["std"]
        summaries.append(cell)

    stats = [f"{name}_{stat}" for name in metrics_mod.METRIC_NAMES
             for stat in ("mean", "std")]
    columns = ["lambda", "latent_dim", "status", *stats, "report", "error"]
    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(summaries)
    return summaries


def cmd_synth(spec, out_dir):
    """Write a synthetic dataset (views, labels, manifest) to out_dir."""
    return ds_mod.save_dataset(_synthetic_dataset(spec), out_dir)


def cmd_eval(predicted_path, truth_path):
    """Score a predicted label file against a ground-truth one."""
    predicted = ds_mod.load_labels(predicted_path)
    truth = ds_mod.load_labels(truth_path)
    if len(predicted) != len(truth):
        raise DatasetError(
            f"label file {predicted_path} has {len(predicted)} entries, "
            f"truth file {truth_path} has {len(truth)}")
    pair = metrics_mod.LabelPair(predicted=predicted, truth=truth)
    values = metrics_mod.all_metrics(pair)
    for name, val in zip(metrics_mod.METRIC_NAMES, values):
        print(f"{name.upper()} {val * 100:.2f}")
    return values


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        _emit_error(argparse.ArgumentError(None, message))
        raise SystemExit(EXIT_CONFIG)


def _add_common(p):
    p.add_argument("--manifest", help="dataset manifest (JSON)")
    p.add_argument("--synthetic", help="inline synthetic dataset spec (JSON)")
    p.add_argument("--clusters", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float,
                   help=f"sparsity weight (default {RunConfig.lam})")
    p.add_argument("--latent-dim", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--ablation", choices=solver_mod.ABLATIONS)
    p.add_argument("--workers", type=int)
    p.add_argument("--random-params", action="store_true",
                   help="draw lambda and latent-dim uniformly from the grids")


def build_parser():
    parser = _Parser(prog="elmsc",
                     description="Multi-view subspace clustering pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    p_cluster = sub.add_parser("cluster", help="run end-to-end trials",
                               argument_default=argparse.SUPPRESS)
    _add_common(p_cluster)

    p_sweep = sub.add_parser("sweep", help="grid sweep over lambda and latent dim",
                             argument_default=argparse.SUPPRESS)
    _add_common(p_sweep)
    p_sweep.add_argument("--lambda-grid", type=float, nargs="+")
    p_sweep.add_argument("--k-grid", type=int, nargs="+")

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    p_synth.add_argument("--spec", required=True,
                         help="synthetic dataset spec (JSON)")
    p_synth.add_argument("--out", required=True)

    p_eval = sub.add_parser("eval", help="score predicted labels against truth")
    p_eval.add_argument("predicted")
    p_eval.add_argument("truth")
    return parser


def _parse_json_arg(text, what):
    try:
        value = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise ValueError(f"{what} must be a JSON object")
    return value


def _run_config_from_args(args):
    """RunConfig from the parsed arguments, each field from the dest of its
    name; a field whose option was not given keeps its RunConfig default.
    A lambda or latent dim given where the grids choose them (`sweep`,
    `--random-params`) is refused rather than dropped."""
    kwargs = {f.name: getattr(args, f.name) for f in fields(RunConfig)
              if hasattr(args, f.name)}
    chooser = "sweep" if args.command == "sweep" else "--random-params"
    for name, flag in (("lam", "--lambda"), ("latent_dim", "--latent-dim")):
        if name in kwargs and (chooser == "sweep" or "random_params" in kwargs):
            raise ValueError(f"{flag} is not used by {chooser}, which takes "
                             "lambda and latent dim from the grids")
    if "synthetic" in kwargs:
        kwargs["synthetic"] = _parse_json_arg(kwargs["synthetic"], "--synthetic")
    return RunConfig(**kwargs)


@np.errstate(all="ignore")  # overflow is caught by the NaN/Inf guards
def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "cluster":
            cmd_cluster(_run_config_from_args(args))
        elif args.command == "sweep":
            cmd_sweep(_run_config_from_args(args))
        elif args.command == "synth":
            path = cmd_synth(_parse_json_arg(args.spec, "--spec"), args.out)
            print(path)
        elif args.command == "eval":
            cmd_eval(args.predicted, args.truth)
        return EXIT_OK
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    except NumericalError as exc:
        # before ValueError: a NonFiniteError is both, and means overflow
        _emit_error(exc)
        return EXIT_NUMERIC
    except ValueError as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except (DatasetError, OSError, MemoryError) as exc:
        _emit_error(exc)
        return EXIT_DATA


def _emit_error(exc):
    record = {"error": type(exc).__name__, "message": str(exc)}
    sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
