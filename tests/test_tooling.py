"""Guards for the tooling that reaches into the package by attribute name."""

import importlib.util
from pathlib import Path

import elmsc.solver as solver
from elmsc.dataset import build_augmented, gen_synthetic
from elmsc.solver import ElmscConfig

TRACED_CLUSTER = Path(__file__).resolve().parents[1] / "bench" / "traced_cluster.py"

# calls per iteration that `run` makes to each traced solver-module layer
PER_ITERATION = {
    "update_p": 1, "update_h": 1, "update_z": 1, "update_e": 1,
    "update_j": 1, "residuals": 1, "objective": 1, "update_multipliers": 1,
    "spd_solve": 2, "solve_sylvester": 0, "orthogonal_procrustes": 1,
    "col_l21_prox": 1, "soft_threshold": 1,
}


def load_traced():
    spec = importlib.util.spec_from_file_location("traced_cluster", TRACED_CLUSTER)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    return traced


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


def test_run_calls_every_traced_solver_layer_through_its_attribute(monkeypatch):
    # the traced benchmark sees a layer only when `run` calls it through the
    # module attribute; a layer inlined into `run` would silently read 0 s
    traced = load_traced()
    attrs = {attr for module, attr, _ in traced.TRACED if module is solver}
    assert attrs == set(PER_ITERATION) | {"run", "kkt_residuals"}
    calls = dict.fromkeys(PER_ITERATION, 0)

    def counting(attr, fn):
        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)
        return wrapper

    for attr in PER_ITERATION:
        monkeypatch.setattr(solver, attr, counting(attr, getattr(solver, attr)))
    ds = gen_synthetic(clusters=2, per_cluster=6, views=2, latent_dim=3,
                       view_dims=[6, 5], noise_sigma=0.1, seed=0)
    out = solver.run(build_augmented(ds, 3),
                     ElmscConfig(lam=1.0, latent_dim=3, tol=1e-300, max_iter=3))
    assert len(out.trace) == 3
    assert calls == {attr: 3 * n for attr, n in PER_ITERATION.items()}


def traced_solve(traced, per_cluster, latent_dim, max_iter):
    """One solve under the traced benchmark's wrappers and hooks, installed
    as `bench/run.py --trace 1` installs them; returns the tracer."""
    before = [(module, attr, getattr(module, attr))
              for module, attr, _ in traced.TRACED]
    tracer = traced.Tracer()
    tracer.install()
    try:
        ds = gen_synthetic(clusters=2, per_cluster=per_cluster, views=2,
                           latent_dim=3, view_dims=[6, 5], noise_sigma=0.1,
                           seed=0)
        out = solver.run(build_augmented(ds, 3),
                         ElmscConfig(lam=1.0, latent_dim=latent_dim,
                                     tol=1e-300, max_iter=max_iter))
    finally:
        tracer.uninstall()
    assert len(out.trace) == max_iter
    assert all(getattr(module, attr) is fn for module, attr, fn in before)
    return tracer


def test_traced_benchmark_hooks_record_every_solver_layer():
    # runs the traced benchmark's wrappers and hooks as `bench/run.py
    # --trace 1` does; a hook with a fixed signature (as spd_solve's is)
    # breaks when `run` passes it a new keyword
    traced = load_traced()
    names = {attr: name for module, attr, name in traced.TRACED
             if module is solver}
    tracer = traced_solve(traced, per_cluster=6, latent_dim=3, max_iter=2)
    calls = tracer.summary()["calls"]
    assert calls["solver.run"] == 1
    for attr, n in PER_ITERATION.items():
        assert calls[names[attr]] == 2 * n, attr
    assert tracer.spd_gflop > 0


def test_traced_benchmark_hooks_on_the_cg_h_step():
    # vn = 80 > 36 k: the cost rule takes the CG H step, which calls no
    # spd_solve, so only the Z step's does
    traced = load_traced()
    tracer = traced_solve(traced, per_cluster=20, latent_dim=2, max_iter=3)
    calls = tracer.summary()["calls"]
    assert calls["solver.update_h"] == 3
    assert calls["numerics.spd_solve"] == 3
    assert tracer.spd_gflop > 0
