"""Guards for the tooling that reaches into the package by attribute name."""

import ast
import gc
import importlib.util
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import elmsc
import elmsc.numerics as numerics
import elmsc.solver as solver
import elmsc.spectral as spectral
from elmsc import cli
from elmsc.dataset import build_augmented, gen_synthetic
from elmsc.solver import ElmscConfig

from conftest import fix_iterations

ROOT = Path(__file__).resolve().parents[1]
TRACED_CLUSTER = ROOT / "bench" / "traced_cluster.py"
SETUP_PROBE = ROOT / "bench" / "setup_probe.py"
BENCH_RUN = ROOT / "bench" / "run.py"
README = ROOT / "README.md"
PYPROJECT = ROOT / "pyproject.toml"

# calls per iteration that `run` makes to each traced solver-module layer;
# its J pass folds update_j with Y3's dual step, and no program path calls
# soft_threshold or solve_sylvester, which solver imports only for TRACED
PER_ITERATION = {
    "update_p": 1, "update_h": 1, "update_z": 1, "update_e": 1,
    "update_j": 0, "residuals": 1, "objective": 1, "update_multipliers": 1,
    "spd_solve": 0, "solve_sylvester": 0, "orthogonal_procrustes": 1,
    "col_l21_prox": 1, "soft_threshold": 0,
}


def load_bench_script(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_traced():
    return load_bench_script(TRACED_CLUSTER)


def test_traced_benchmark_attributes_resolve():
    # the traced benchmark wraps each (module, attribute) with getattr, so a
    # renamed or removed layer function would break `bench/run.py --trace 1`
    traced = load_traced()
    assert traced.TRACED
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _ in traced.TRACED
        if not callable(getattr(module, attr, None))
    ]
    assert not missing, missing


def count_calls(monkeypatch, module, attrs):
    """{attr: 0} for each attr, which every later call that reaches
    module.attr through the module attribute increments."""
    calls = dict.fromkeys(attrs, 0)

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in calls:
        monkeypatch.setattr(module, attr, counting(attr, getattr(module, attr)))
    return calls


def test_run_calls_every_traced_solver_layer_through_its_attribute(monkeypatch):
    # the traced benchmark sees a layer only when `run` calls it through the
    # module attribute; a layer inlined into `run` would silently read 0 s
    traced = load_traced()
    attrs = {attr for module, attr, _ in traced.TRACED if module is solver}
    assert attrs == set(PER_ITERATION) | {"run", "kkt_residuals"}
    calls = count_calls(monkeypatch, solver, PER_ITERATION)
    ds = gen_synthetic(clusters=2, per_cluster=6, views=2, latent_dim=3,
                       view_dims=[6, 5], noise_sigma=0.1, seed=0)
    fix_iterations(monkeypatch, 3)
    out = solver.run(build_augmented(ds, 3),
                     ElmscConfig(lam=1.0, latent_dim=3))
    assert len(out.trace) == 3
    assert calls == {attr: 3 * n for attr, n in PER_ITERATION.items()}


def test_cluster_calls_every_traced_spectral_layer_through_its_attribute(
        monkeypatch):
    # the traced benchmark's spectral spans see a layer only when `cluster`
    # calls it through the module attribute; an inlined k-means would make
    # spectral.kmeans.s read 0, as an inlined J step did to update_j
    traced = load_traced()
    attrs = {attr for module, attr, _ in traced.TRACED if module is spectral}
    assert attrs == {"cluster", "spectral_embed", "sym_eig", "kmeans"}
    calls = count_calls(monkeypatch, spectral, attrs - {"cluster"})
    rng = np.random.default_rng(0)
    result = spectral.cluster(np.abs(rng.standard_normal((12, 12))), 3, seed=1)
    assert len(result.labels) == 12
    assert calls == {"spectral_embed": 1, "sym_eig": 1, "kmeans": 1}


def traced_solve(monkeypatch, traced, per_cluster, latent_dim, max_iter):
    """One solve of max_iter iterations under the traced benchmark's
    wrappers and hooks, installed as `bench/run.py --trace 1` installs
    them; returns the tracer."""
    before = [(module, attr, getattr(module, attr))
              for module, attr, _ in traced.TRACED]
    tracer = traced.Tracer()
    tracer.install()
    try:
        ds = gen_synthetic(clusters=2, per_cluster=per_cluster, views=2,
                           latent_dim=3, view_dims=[6, 5], noise_sigma=0.1,
                           seed=0)
        fix_iterations(monkeypatch, max_iter)
        out = solver.run(build_augmented(ds, 3),
                         ElmscConfig(lam=1.0, latent_dim=latent_dim))
    finally:
        tracer.uninstall()
    assert len(out.trace) == max_iter
    assert all(getattr(module, attr) is fn for module, attr, fn in before)
    return tracer


def test_traced_benchmark_hooks_record_every_solver_layer(monkeypatch):
    # runs the traced benchmark's wrappers and hooks as `bench/run.py
    # --trace 1` does; a hook with a fixed signature (as spd_solve's is)
    # breaks when `run` passes it a new keyword. A CG cap of 0 makes every
    # H step fall back to the dense one, so that the hook runs
    traced = load_traced()
    names = {attr: name for module, attr, name in traced.TRACED
             if module is solver}
    monkeypatch.setattr(numerics, "CG_MAX_ITER", 0)
    tracer = traced_solve(monkeypatch, traced, per_cluster=6, latent_dim=3,
                          max_iter=2)
    calls = tracer.summary()["calls"]
    assert calls["solver.run"] == calls["solver.kkt_residuals"] == 1
    for attr, n in dict(PER_ITERATION, spd_solve=1).items():
        assert calls[names[attr]] == 2 * n, attr
    assert tracer.spd_gflop > 0


def test_traced_benchmark_hooks_on_the_cg_h_step(monkeypatch):
    # the H step solves by CG, which calls no spd_solve unless it gives
    # up, and the Z step's k x k solve does not either
    traced = load_traced()
    tracer = traced_solve(monkeypatch, traced, per_cluster=20, latent_dim=2,
                          max_iter=3)
    calls = tracer.summary()["calls"]
    assert calls["solver.update_h"] == 3
    assert calls["numerics.spd_solve"] == 0
    assert tracer.spd_gflop == 0


def test_every_exported_name_resolves():
    missing = [name for name in elmsc.__all__ if not hasattr(elmsc, name)]
    assert not missing, missing
    # the README's Library block, the loader and its errors, and the rest
    # of the metrics; every other name is imported from its own module
    assert sorted(elmsc.__all__) == [
        "DatasetError", "ElmscConfig", "LabelPair", "MultiViewDataset",
        "NumericalError", "acc", "aggregate_z", "all_metrics", "ari",
        "build_augmented", "cluster", "default_pca_components",
        "gen_synthetic", "load_dataset", "nmi", "pairwise_f1", "run",
    ]


def test_readme_library_example_runs_as_written(capsys):
    # the README's `## Library` block is the library's documented entry
    # point; a removed or renamed name it uses must fail here
    section = README.read_text().split("\n## Library\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(block, str(README), "exec"), {})
    acc, nmi = (float(x) for x in capsys.readouterr().out.split())
    assert 0.9 <= acc <= 1.0 and 0.9 <= nmi <= 1.0


def bench_workloads():
    """`WORKLOADS` from the benchmark script, read as a literal so that
    the script itself is not run."""
    tree = ast.parse(BENCH_RUN.read_text())
    [value] = [node.value for node in tree.body
               if isinstance(node, ast.Assign)
               and [t.id for t in node.targets
                    if isinstance(t, ast.Name)] == ["WORKLOADS"]]
    return ast.literal_eval(value)


def test_cli_reads_every_benchmark_dataset_spec():
    # the benchmark hands each workload's `data` to `elmsc cluster
    # --synthetic` or `elmsc synth --spec`; a stricter spec reader must
    # still accept it and generate the same dataset
    workloads = bench_workloads()
    assert workloads
    for name, workload in workloads.items():
        spec = workload["data"]
        via_cli = cli._synthetic_dataset(dict(spec))
        direct = gen_synthetic(**spec)
        assert len(via_cli.views) == len(direct.views), name
        for a, b in zip(via_cli.views, direct.views):
            assert np.array_equal(a, b), name
        assert np.array_equal(via_cli.labels, direct.labels), name


def test_setup_probe_builds_the_runs_augmented_matrix(tmp_path, capsys):
    # the benchmark's setup_s times this probe, which reaches into cli and
    # dataset by attribute name; a rename there must fail here
    probe = load_bench_script(SETUP_PROBE)
    spec = {"clusters": 2, "per_cluster": 6, "views": 2, "latent_dim": 2,
            "view_dims": [5, 4], "noise_sigma": 0.1, "seed": 0}
    manifest = str(cli.cmd_synth(spec, tmp_path / "data"))
    for source, value in (("synthetic", spec), ("manifest", manifest)):
        text = json.dumps(value) if source == "synthetic" else value
        assert probe.main(["2", f"--{source}", text]) == 0, source
        cfg = cli.RunConfig(out="-", clusters=2, **{source: value})
        xa, _ = cli._prepare(cfg)
        shape = capsys.readouterr().out.split()
        assert shape == [str(n) for n in xa.xa.shape], source


def workload_cluster_argv(tmp_path, name, workload):
    """The benchmark's `cluster` command for `workload`, one trial, its
    output under tmp_path / name / "out"; a manifest workload's data is
    written first with `synth`."""
    spec = json.dumps(workload["data"], sort_keys=True)
    inputs = ["--synthetic", spec]
    if workload["manifest"]:
        data = tmp_path / name / "data"
        assert cli.main(["synth", "--spec", spec, "--out", str(data)]) == 0
        inputs = ["--manifest", str(data / "manifest.json")]
    return ["cluster", *inputs, "--clusters",
            str(workload["data"]["clusters"]), *workload["flags"],
            "--trials", "1", "--seed", "1",
            "--out", str(tmp_path / name / "out")]


def test_every_benchmark_workload_holds_its_acc_floor(tmp_path):
    # the benchmark counts a trial that does not converge or falls below
    # its workload's acc_floor as failed; a schedule or clustering change
    # that breaks the floor must fail here before it reaches the benchmark
    for name, workload in bench_workloads().items():
        out = tmp_path / name / "out"
        code = cli.main(workload_cluster_argv(tmp_path, name, workload))
        assert code == cli.EXIT_OK, name
        [trial] = json.loads((out / "report.json").read_text())["trials"]
        assert trial["converged"], name
        assert trial["metrics"]["acc"] >= workload["acc_floor"], name


def run_child(child):
    """Run `child` in a fresh interpreter on the source tree, which must exit
    0; the finished process, its stdout and stderr captured."""
    src = str(ROOT / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-c", child], env=env, check=True,
                          capture_output=True, text=True)


def test_cli_cluster_loads_no_scipy_even_on_the_dense_h_step(tmp_path):
    # importing scipy.linalg costs about a quarter of a small cluster
    # process, and numpy is elmsc's only runtime dependency. The first run
    # takes the CG H step; a CG cap of 0 then makes every H step of the
    # second fall back to the dense one, spd_solve's eigendecomposition
    cg = {"clusters": 2, "per_cluster": 20, "views": 2, "latent_dim": 3,
          "view_dims": [6, 5], "noise_sigma": 0.1, "seed": 0}
    runs = [
        ["cluster", "--synthetic", json.dumps(spec), "--clusters", "2",
         "--latent-dim", k, "--trials", "1", "--out", str(tmp_path / k)]
        for spec, k in ((cg, "2"), (dict(cg, per_cluster=6), "3"))
    ]
    child = (
        "import sys\n"
        "from elmsc import cli, numerics\n"
        f"for argv in {runs!r}:\n"
        "    print(cli.main(argv), [m for m in sys.modules\n"
        "                           if m.split('.')[0] == 'scipy'])\n"
        "    numerics.CG_MAX_ITER = 0\n"
    )
    out = run_child(child).stdout.splitlines()
    assert out[-2:] == ["0 []", "0 []"], out


def test_no_package_module_imports_scipy():
    # a static guard over every import, those inside functions included:
    # the runtime tests here see only the paths their runs take
    found = []
    for path in sorted((ROOT / "src" / "elmsc").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert not found, found


def _defined_names(tree):
    """(name, node) of each function, class and assigned name a module
    defines at its top level, and of each method and property of its
    classes, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef)
                        and not f.name.startswith("__"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            yield from ((n.id, node) for t in targets for n in ast.walk(t)
                        if isinstance(n, ast.Name)
                        and not n.id.startswith("__"))


def _references(tree):
    """Every name `tree` loads, reads as an attribute or imports, and every
    string constant, which a `TRACED` entry or a monkeypatch may name."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            yield n.value


def test_every_top_level_package_name_is_referenced():
    # a function, class, method or constant that no code, test or bench
    # script names outside its own definition is dead, such as a check
    # whose callers have all moved to another; names are matched by name
    # alone, a method's without its class
    defined, used = [], Counter()
    for part in ("src/elmsc", "tests", "bench"):
        for path in sorted((ROOT / part).rglob("*.py")):
            tree = ast.parse(path.read_text(), str(path))
            used.update(_references(tree))
            if part == "src/elmsc":
                defined += [(f"{path.stem}.{name}", name.split(".")[-1], node)
                            for name, node in _defined_names(tree)]
    assert len(defined) > 100
    assert sum(name.count(".") == 2 for name, _, _ in defined) > 10  # methods
    unused = [qualified for qualified, name, node in defined
              if used[name] <= list(_references(node)).count(name)]
    assert not unused, unused


def test_every_name_a_package_module_imports_is_used_there():
    # an import left behind when its last use goes is dead; the exceptions
    # are the names the traced benchmark looks up on the module (solver's
    # solve_sylvester and soft_threshold), each of which goes once its
    # TRACED entry does
    traced = {(module.__name__, attr)
              for module, attr, _ in load_traced().TRACED}
    unused, exempt = [], []
    for path in sorted((ROOT / "src" / "elmsc").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for name in (alias.asname or alias.name.split(".")[0]
                             for alias in node.names):
                    if name in loaded:
                        continue
                    if (f"elmsc.{path.stem}", name) in traced:
                        exempt.append(f"{path.stem}.{name}")
                    else:
                        unused.append(f"{path.name}:{node.lineno} {name}")
    assert not unused, unused
    assert sorted(exempt) == ["solver.soft_threshold", "solver.solve_sylvester"]


def test_package_modules_build_on_numerics_alone():
    # numerics is the base and metrics stands apart; the data layer, the
    # solver and the spectral step import only numerics
    siblings = {}
    for path in sorted((ROOT / "src" / "elmsc").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        siblings[path.stem] = {
            (node.module or alias.name).split(".")[0]
            for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
            and node.level for alias in node.names}
    assert "_seeds" not in siblings
    assert siblings["numerics"] == siblings["metrics"] == set()
    for name in ("dataset", "solver", "spectral"):
        assert siblings[name] == {"numerics"}, (name, siblings[name])


def test_every_benchmark_workload_runs_without_scipy(tmp_path):
    # importing scipy.linalg adds about 22 MiB and 0.1 s to a cluster
    # process; no elmsc module imports it, so neither workload loads it
    for name, workload in bench_workloads().items():
        argv = workload_cluster_argv(tmp_path, name, workload)
        child = (
            "import sys\n"
            "from elmsc import cli\n"
            f"code = cli.main({argv!r})\n"
            "print(code, [m for m in sys.modules if m.split('.')[0] == 'scipy'])\n"
        )
        out = run_child(child).stdout.splitlines()
        assert out[-1] == "0 []", (name, out)


def test_report_plan_is_the_byte_formula_at_each_workloads_shape(tmp_path):
    # dense-k8 solves on X (d = 108 < vn = 600); wide-manifest on its
    # views' factors, so its solve matrix, Y1 and E1 have vn = 450 rows,
    # not d = 2304. Z, J and Y3 are float32, the rest float64
    shapes = {"dense-k8": (108, 600, 8, 5_913_600),
              "wide-manifest": (450, 450, 30, 7_398_000)}
    for name, workload in bench_workloads().items():
        assert cli.main(workload_cluster_argv(tmp_path, name, workload)) == 0
        report = json.loads((tmp_path / name / "out" / "report.json")
                            .read_text())
        rows, vn, k, total = shapes[name]
        plan = {"solve_matrix": 8 * rows * vn, "z_j_y3": 3 * 4 * vn * vn,
                "e1_e2": 8 * (rows + k) * vn, "y1": 8 * rows * vn}
        assert report["plan"] == dict(plan, total=total), name
        assert sum(plan.values()) == total, name


def small_cluster_argv(out, *flags):
    return ["--synthetic", json.dumps(
        {"clusters": 2, "per_cluster": 6, "views": 2, "latent_dim": 3,
         "view_dims": [6, 5], "noise_sigma": 0.1, "seed": 0}),
        "--clusters", "2", "--trials", "2", "--out", str(out), *flags]


def test_serial_cluster_does_not_import_concurrent_futures(tmp_path):
    # it loads logging, 2.5-3 ms of every process; only a pool needs it
    argv = ["cluster", *small_cluster_argv(tmp_path / "o", "--latent-dim", "3")]
    child = (
        "import sys\n"
        "from elmsc import cli\n"
        f"code = cli.main({argv!r})\n"
        "print(code, [m for m in ('concurrent.futures', 'logging')\n"
        "             if m in sys.modules])\n"
    )
    assert run_child(child).stdout.splitlines()[-1] == "0 []"


def test_cli_eval_does_not_load_scipy_optimize(tmp_path):
    # importing scipy.optimize adds about 21 MiB to every elmsc process;
    # ACC's matching is computed in `metrics` so that no path needs it
    labels = tmp_path / "labels.txt"
    np.savetxt(labels, [0, 0, 1, 1, 2], fmt="%d")
    child = (
        "import sys\n"
        "from elmsc import cli\n"
        f"code = cli.main(['eval', {str(labels)!r}, {str(labels)!r}])\n"
        "print(code, 'scipy.optimize' in sys.modules)\n"
    )
    out = run_child(child).stdout
    assert out.splitlines()[-1] == "0 False", out


def test_cli_cluster_above_the_data_rank_writes_nothing_to_stderr(tmp_path):
    # k = 3 above rank X = 1 makes every Procrustes input rank-deficient;
    # a successful run reports through its artifacts alone. Only a fresh
    # interpreter shows a stray log record: in-process, pytest's log capture
    # takes it before Python's last-resort handler can print it
    spec = {"clusters": 2, "per_cluster": 3, "views": 2, "latent_dim": 1,
            "view_dims": [3, 3]}
    argv = ["cluster", "--synthetic", json.dumps(spec), "--clusters", "2",
            "--latent-dim", "3", "--trials", "2", "--out", str(tmp_path / "o")]
    child = f"import sys\nfrom elmsc import cli\nsys.exit(cli.main({argv!r}))\n"
    assert run_child(child).stderr == ""
    assert (tmp_path / "o" / "report.json").exists()


def test_cluster_sweep_and_eval_do_not_import_numpy_ma(tmp_path):
    # np.unique without a return_* flag, and np.setdiff1d through it, import
    # numpy.ma (10-15 ms of a process); no command's path calls them
    labels = tmp_path / "labels.txt"
    np.savetxt(labels, [0, 0, 1, 1, 2], fmt="%d")
    runs = [
        ["cluster", *small_cluster_argv(tmp_path / "c", "--latent-dim", "3")],
        ["sweep", *small_cluster_argv(tmp_path / "s", "--lambda-grid", "0.1",
                                      "1", "--k-grid", "3")],
        ["eval", str(labels), str(labels)],
    ]
    child = (
        "import sys\n"
        "from elmsc import cli\n"
        f"for argv in {runs!r}:\n"
        "    print(argv[0], cli.main(argv), 'numpy.ma' in sys.modules)\n"
    )
    out = [line for line in run_child(child).stdout.splitlines()
           if line.split()[0] in ("cluster", "sweep", "eval")]
    assert out == ["cluster 0 False", "sweep 0 False", "eval 0 False"], out
    sweep = (tmp_path / "s" / "summary.csv").read_text().splitlines()
    assert len(sweep) == 3 and all(",ok," in row for row in sweep[1:]), sweep


def test_program_entry_freezes_the_heap_once_main_returns(tmp_path):
    # the interpreter's exit collections then skip the objects importing
    # numpy made; the child runs the module as `python -m elmsc.cli` does
    argv = ["elmsc", "cluster", *small_cluster_argv(tmp_path / "o",
                                                    "--latent-dim", "3")]
    child = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
        f"sys.argv = {argv!r}\n"
        "runpy.run_module('elmsc.cli', run_name='__main__', alter_sys=True)\n"
    )
    assert run_child(child).stdout.splitlines()[-1] == "frozen True"
    assert (tmp_path / "o" / "report.json").exists()


def test_main_called_in_process_leaves_the_heap_unfrozen(tmp_path):
    # tests, bench/traced_cluster.py and embedders call main in a process
    # that goes on; only the program entry freezes
    assert gc.get_freeze_count() == 0
    argv = ["cluster", *small_cluster_argv(tmp_path / "o", "--latent-dim", "3")]
    assert cli.main(argv) == cli.EXIT_OK
    assert gc.get_freeze_count() == 0


def test_console_script_and_module_run_share_the_program_entry():
    # `elmsc` and `python -m elmsc.cli` both end in sys.exit(entry())
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    scripts = tomllib.loads(PYPROJECT.read_text())["project"]["scripts"]
    module, _, name = scripts["elmsc"].partition(":")
    assert module == "elmsc.cli" and callable(getattr(cli, name, None))
    tree = ast.parse((ROOT / "src" / "elmsc" / "cli.py").read_text())
    [guard] = [node for node in tree.body if isinstance(node, ast.If)
               and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(guard.body) == f"sys.exit({name}())"
