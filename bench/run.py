"""End-to-end and per-layer benchmark of the `elmsc cluster` pipeline.

Usage, from the root of a checkout:

    python3 bench/run.py --workload dense-k8 --seed 1 --seconds 55 --trace 0

With `--trace 0` it keeps starting fresh `elmsc cluster` processes (one
BLAS thread, `--workers 1`, same seed), each followed by a fresh set-up
process (`setup_probe.py`) and a timing of a fixed numpy kernel in this
process, while the next round is expected to end within `--seconds`, with
at least two cluster processes. Process and trial wall times are reported
relative to the kernel's time beside them, which takes out the host's
speed drift; the raw seconds are printed on `#` lines. It checks every
trial and that the processes wrote byte-identical artifacts, and prints
the end-to-end metrics. With `--trace 1` it runs the
command once untraced and once under `traced_cluster.py`, checks that
labels, traces and report are byte-identical between the two, and prints
the per-layer metrics. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`; the lines
before it name every metric with its unit, the failed fraction, the
iterations of each trial and the machine the numbers come from.

Each workload's dataset is fixed (generator seed 0); `--seed` is passed on
as `elmsc cluster --seed`, so trial t runs with solver initialization and
k-means seed `seed + t`. Run artifacts (report, labels, traces, spans) stay
in `.bench_work/<workload>/` until the next run of that workload.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

# The reference kernel runs in this process with one BLAS thread, as the
# children do; the variables must be set before numpy loads.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0  # the whole run must end well within 180 s
# Fewest cluster processes in one untraced run, so that the determinism
# check always compares two, and fewest set-up processes; setup_s is the
# median of the set-up processes' wall times.
MIN_PROCS = 2
SETUP_MIN = 5
REFERENCE_REPS = 5

# Why each workload is here (sizes measured with one BLAS thread):
# - dense-k8: vn=600, d=108, k=8. The vn x vn Cholesky paths (update_z,
#   update_h) dominate the solve, k << vn, and recovery is exact (ACC 1.0),
#   so a low-rank Z/H rewrite shows its gain here under a hard quality check.
# - wide-manifest: vn=450, d=2304 > vn, read from text files through
#   --manifest. The d x vn paths (Procrustes SVD, l2,1 prox, residuals,
#   multipliers) dominate; a Z/H optimization should change nothing here.
WORKLOADS = {
    "dense-k8": {
        "data": {"clusters": 5, "per_cluster": 40, "views": 3,
                 "latent_dim": 8, "view_dims": [40, 32, 36],
                 "noise_sigma": 0.05, "seed": 0},
        "flags": ["--latent-dim", "8", "--lambda", "1"],
        "trials": 3, "manifest": False, "acc_floor": 1.0,
    },
    "wide-manifest": {
        "data": {"clusters": 10, "per_cluster": 15, "views": 3,
                 "latent_dim": 30, "view_dims": [1024, 512, 768],
                 "noise_sigma": 0.1, "seed": 0},
        "flags": ["--latent-dim", "30"],
        "trials": 3, "manifest": True, "acc_floor": 1.0,
    },
}

# Spans timed per trial, mapped to whether they have traced children (only
# then is a self time reported; for a leaf it equals the total).
TRIAL_SPANS = {
    "cli.trial": True, "solver.run": True, "solver.update_p": True,
    "solver.update_h": True, "solver.update_z": True, "solver.update_e": True,
    "solver.update_j": True, "solver.residuals": False,
    "solver.objective": False, "solver.update_multipliers": False,
    "solver.kkt_residuals": True, "numerics.spd_solve": False,
    "numerics.orthogonal_procrustes": False, "numerics.col_l21_prox": False,
    "numerics.soft_threshold": False, "spectral.cluster": True,
    "spectral.spectral_embed": True, "numerics.sym_eig": False,
    "spectral.kmeans": False, "metrics.all_metrics": False,
}
# Spans that run once per process, before or after the trials.
PROCESS_SPANS = {"cli.cmd_cluster": True, "dataset.build_augmented": False}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env():
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class Runner:
    """Spawns child processes, each killed if it would pass the deadline."""

    def __init__(self, work, deadline):
        self.env = child_env()
        self.work = work
        self.deadline = deadline
        self.log = open(work / "children.log", "w")

    def close(self):
        self.log.close()

    def timed(self, argv):
        """Run argv to completion; return (exit code, wall s, rusage)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("out of time before starting " + " ".join(argv[1:4]))
        self.log.write("$ " + " ".join(argv) + "\n")
        self.log.flush()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                stdout=self.log, stderr=self.log)
        timer = threading.Timer(remaining, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= self.deadline:
            raise BenchError(
                f"{' '.join(argv[1:4])} ran past the {DEADLINE_S:.0f} s deadline")
        return proc.returncode, wall, usage


def cluster_args(wl, inputs, seed, out):
    return [
        *inputs, "--clusters", str(wl["data"]["clusters"]), *wl["flags"],
        "--trials", str(wl["trials"]), "--seed", str(seed), "--workers", "1",
        "--out", str(out),
    ]


def canonical_report(path):
    """report.json without the wall-clock fields, as compared for determinism."""
    report = json.loads(path.read_text())
    for trial in report["trials"]:
        trial.pop("wall_clock_sec", None)
    return json.dumps(report, sort_keys=True)


def artifacts(out, trials):
    """Bytes that two runs of one seed must reproduce exactly."""
    files = [f"labels_{t}.txt" for t in range(trials)]
    files += [f"trace_{t}.csv" for t in range(trials)]
    return [canonical_report(out / "report.json")] + [
        (out / f).read_bytes() for f in files
    ]


def check_run(wl, out, code):
    """Check one `elmsc cluster` run; return (report or None, problems).

    A trial fails on a non-zero exit, a missing record, labels or trace
    file, a non-finite KKT gap, a non-converged solve, or acc below the
    workload's floor. Each failed trial adds one problem.
    """
    trials = wl["trials"]
    n = wl["data"]["clusters"] * wl["data"]["per_cluster"]
    if code != 0 or not (out / "report.json").is_file():
        return None, [f"{out.name}: exit code {code}, no report"] * trials
    report = json.loads((out / "report.json").read_text())
    by_trial = {rec["trial"]: rec for rec in report["trials"]}
    problems = []
    for t in range(trials):
        rec = by_trial.get(t)
        problem = None
        if rec is None:
            problem = "no record"
        elif not (out / rec["labels_file"]).is_file():
            problem = "no labels file"
        elif len((out / rec["labels_file"]).read_text().split()) != n:
            problem = "labels file does not hold one label per sample"
        elif not (out / rec["trace_file"]).is_file():
            problem = "no trace file"
        elif not all(math.isfinite(x) for x in rec["kkt"].values()):
            problem = f"non-finite KKT gap {rec['kkt']}"
        elif not rec["converged"]:
            problem = f"not converged after {rec['iterations']} iterations"
        elif rec["metrics"]["acc"] < wl["acc_floor"]:
            problem = f"acc {rec['metrics']['acc']} below {wl['acc_floor']}"
        if problem:
            problems.append(f"{out.name} trial {t}: {problem}")
    return report, problems


def prepare_inputs(runner, wl):
    """Cluster input flags for the workload; writes the manifest data if used."""
    spec = wl["data"]
    if not wl["manifest"]:
        return ["--synthetic", json.dumps(spec, sort_keys=True)]
    data_dir = runner.work / "data"
    code, _, _ = runner.timed([
        sys.executable, "-m", "elmsc.cli", "synth",
        "--spec", json.dumps(spec, sort_keys=True), "--out", str(data_dir),
    ])
    if code != 0:
        raise BenchError(f"elmsc synth exited with {code}")
    return ["--manifest", str(data_dir / "manifest.json")]


def measure_setup(runner, wl, inputs):
    """Wall time of one fresh set-up process."""
    code, wall, _ = runner.timed([
        sys.executable, str(BENCH / "setup_probe.py"),
        str(wl["data"]["clusters"]), *inputs,
    ])
    if code != 0:
        raise BenchError(f"setup_probe.py exited with {code}")
    return wall


def reference_inputs():
    rng = np.random.default_rng(0)
    square = rng.standard_normal((600, 600))
    wide = rng.standard_normal((2304, 450))
    return square, square @ square.T + 600 * np.eye(600), wide


def reference_seconds(inputs):
    """Wall time of a fixed numpy kernel in this process.

    The host's speed drifts by 10-30% over minutes, and every cluster
    process slows with it. This kernel does the kinds of work the solver
    spends its time in (a Cholesky factorization, a matrix product, an SVD
    and column norms of a d x vn matrix, at workload sizes) and is timed
    beside each cluster process, so that the end-to-end times can be given
    relative to it.
    """
    square, spd, wide = inputs
    start = time.perf_counter()
    for _ in range(REFERENCE_REPS):
        np.linalg.cholesky(spd)
        square @ square
        np.linalg.svd(wide.T @ wide)
        np.sqrt((wide * wide).sum(axis=0))
    return time.perf_counter() - start


def untraced(runner, wl, seed, seconds):
    """End-to-end metrics from fresh `elmsc cluster` processes.

    Returns (attempted trials, failed-trial problems, other problems,
    metrics as name -> (value, unit), iterations of each trial).
    """
    inputs = prepare_inputs(runner, wl)
    kernel = reference_inputs()
    reference_seconds(kernel)  # warm-up
    start = time.perf_counter()
    setup_walls = [measure_setup(runner, wl, inputs)]
    refs = [reference_seconds(kernel)]
    walls, rss, reports, failures, outs, done = [], [], [], [], [], []
    # a set-up process and the reference kernel after each cluster process,
    # so that they sample the host over the whole run and each cluster
    # process has a reference time on either side; the loop stops when the
    # next round is expected to end after `seconds`
    while (len(walls) < MIN_PROCS
           or time.perf_counter() - start + statistics.median(walls)
           + statistics.median(setup_walls) + statistics.median(refs)
           <= seconds):
        out = runner.work / f"run{len(walls)}"
        code, wall, usage = runner.timed(
            [sys.executable, "-m", "elmsc.cli", "cluster",
             *cluster_args(wl, inputs, seed, out)])
        walls.append(wall)
        rss.append(usage.ru_maxrss / 1024.0)  # ru_maxrss is in KiB on Linux
        report, bad = check_run(wl, out, code)
        failures += bad
        if report is not None:
            reports.append(report)
            outs.append(out)
            done.append(len(walls) - 1)
        setup_walls.append(measure_setup(runner, wl, inputs))
        refs.append(reference_seconds(kernel))
    while len(setup_walls) < SETUP_MIN:
        setup_walls.append(measure_setup(runner, wl, inputs))
    if not reports:
        raise BenchError("no elmsc cluster run wrote a report: " + failures[0])
    print("# setup walls (s): " + " ".join(f"{w:.4f}" for w in setup_walls))
    print("# cluster walls (s): " + " ".join(f"{w:.4f}" for w in walls))
    print("# reference kernel (s): " + " ".join(f"{r:.4f}" for r in refs))

    # every process ran the same seed, so every artifact must match the first
    mismatches = [] if failures else [
        f"{out.name}: artifacts differ from {outs[0].name}"
        for out in outs[1:]
        if artifacts(out, wl["trials"]) != artifacts(outs[0], wl["trials"])
    ]
    trial_walls = [rec["wall_clock_sec"] for r in reports for rec in r["trials"]]
    print("# trial walls (s): " + " ".join(f"{w:.4f}" for w in trial_walls))
    print(f"# medians: cluster_wall_s {statistics.median(walls):.4f}, "
          f"trial_s.p50 {statistics.median(trial_walls):.4f}, "
          f"reference kernel {statistics.median(refs):.4f} s")
    # cluster process i ran between reference timings i and i + 1
    beside = [(refs[i] + refs[i + 1]) / 2 for i in range(len(walls))]
    trial_rel = [rec["wall_clock_sec"] / beside[i]
                 for i, r in zip(done, reports) for rec in r["trials"]]
    aggregate = reports[0]["aggregate"]
    metrics = {
        "cluster_wall_rel": (
            statistics.median(w / b for w, b in zip(walls, beside)), "ratio"),
        "trial_rel.p50": (statistics.median(trial_rel), "ratio"),
        "peak_rss_mib": (statistics.median(rss), "MiB"),
        "acc": (aggregate["acc"]["mean"], "ratio"),
        "nmi": (aggregate["nmi"]["mean"], "ratio"),
        "setup_s": (statistics.median(setup_walls), "s"),
    }
    iterations = [rec["iterations"] for rec in reports[0]["trials"]]
    return wl["trials"] * len(walls), failures, mismatches, metrics, iterations


def traced(runner, wl, seed):
    """Per-layer metrics from one traced run, checked against an untraced one.

    Returns the same tuple as `untraced`.
    """
    inputs = prepare_inputs(runner, wl)
    plain, spans = runner.work / "untraced", runner.work / "traced"
    code_a, _, _ = runner.timed(
        [sys.executable, "-m", "elmsc.cli", "cluster",
         *cluster_args(wl, inputs, seed, plain)])
    spans.mkdir()
    summary_path = spans / "layers.json"
    code_b, _, _ = runner.timed(
        [sys.executable, str(BENCH / "traced_cluster.py"),
         str(spans / "spans.csv"), str(summary_path), "--",
         *cluster_args(wl, inputs, seed, spans)])
    plain_report, failures = check_run(wl, plain, code_a)
    report, bad = check_run(wl, spans, code_b)
    failures += bad
    if plain_report is None or report is None:
        raise BenchError("a run wrote no report: " + failures[0])
    trials = wl["trials"]
    mismatches = []
    if not failures and artifacts(plain, trials) != artifacts(spans, trials):
        mismatches.append("traced labels, traces or report differ from untraced")

    layers = json.loads(summary_path.read_text())
    iterations = [rec["iterations"] for rec in report["trials"]]
    total, self_s, calls = layers["total_s"], layers["self_s"], layers["calls"]
    # traced minus untraced trial time; host speed drift between the two
    # processes is of the same size, so the wrappers' own cost (spans times
    # the calibrated cost of one) is reported beside it
    plain_s = sum(rec["wall_clock_sec"] for rec in plain_report["trials"])
    overhead = sum(rec["wall_clock_sec"] for rec in report["trials"]) - plain_s
    span_overhead = layers["spans"] * layers["span_cost_s"]
    metrics = {}
    for spans_per, per in ((TRIAL_SPANS, trials), (PROCESS_SPANS, 1)):
        for name, has_children in spans_per.items():
            metrics[f"{name}.s"] = (total[name] / per, "s")
            if has_children:
                metrics[f"{name}.self_s"] = (self_s[name] / per, "s")
    # the workload reads a manifest or generates its data, never both
    metrics["dataset.input.s"] = (
        total["dataset.load_dataset"] + total["dataset.gen_synthetic"], "s")
    metrics.update({
        "numerics.spd_solve.calls": (calls["numerics.spd_solve"] / trials, "count"),
        "numerics.spd_solve.gflop": (layers["spd_solve_gflop"] / trials, "GFLOP"),
        "numerics.solve_sylvester.calls": (
            calls["numerics.solve_sylvester"] / trials, "count"),
        "solver.iters": (statistics.fmean(iterations), "count"),
        "solver.peak_vn2_buffers": (layers["vn2_peak"], "count"),
        "trace.overhead_s": (overhead / trials, "s"),
        "trace.overhead_frac": (overhead / plain_s, "ratio"),
        "trace.span_overhead_s": (span_overhead / trials, "s"),
        "trace.span_overhead_frac": (span_overhead / plain_s, "ratio"),
    })
    return 2 * trials, failures, mismatches, metrics, iterations


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    if not (SRC / "elmsc" / "cli.py").is_file():
        print(f"error: no elmsc sources under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, deadline)
    try:
        if args.trace:
            outcome = traced(runner, wl, args.seed)
        else:
            outcome = untraced(runner, wl, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    attempted, failures, mismatches, metrics, iterations = outcome

    print(f"# machine {json.dumps(machine(), sort_keys=True)}")
    for problem in failures + mismatches:
        print(f"# FAIL {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"failed_frac={len(failures) / attempted:.4f} "
          f"({len(failures)}/{attempted} trials) "
          f"iterations per trial: {' '.join(map(str, iterations))}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:40s} {value:14.6g} {unit}")
    result = {
        "correct": not failures and not mismatches,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
