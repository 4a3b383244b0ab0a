"""Run `elmsc cluster` in this process with every layer function wrapped.

Usage: python3 traced_cluster.py SPANS_CSV SUMMARY_JSON -- <cluster arguments>

Each wrapper records a span (name, start, end, parent, trial) in memory;
the spans are written to SPANS_CSV when the run ends, and per-layer totals,
self times and call counts, summed over the run, go to SUMMARY_JSON.
Functions are wrapped at the name their caller looks up (solver imports its
kernels by name, so `elmsc.solver.spd_solve` is wrapped, not
`elmsc.numerics.spd_solve`). The wrappers only time and count, so labels
and traces stay byte-identical to an untraced run. Work inside a function
that is not itself wrapped, such as the residual recompute in
`update_multipliers`, is that function's self time.

After the run the wrappers are removed and two more numbers go to the
summary, so that neither inflates the spans: the tracemalloc peak of one
more solve of the first trial's input, and the cost of one span wrapper,
timed on a no-op.
"""

import csv
import json
import math
import sys
import time
import tracemalloc

import elmsc.cli
import elmsc.dataset
import elmsc.metrics
import elmsc.solver
import elmsc.spectral

# (module, attribute the caller looks up, span name)
TRACED = [
    (elmsc.cli, "cmd_cluster", "cli.cmd_cluster"),
    (elmsc.cli, "_trial_job", "cli.trial"),
    (elmsc.dataset, "load_dataset", "dataset.load_dataset"),
    (elmsc.dataset, "gen_synthetic", "dataset.gen_synthetic"),
    (elmsc.dataset, "build_augmented", "dataset.build_augmented"),
    (elmsc.solver, "run", "solver.run"),
    (elmsc.solver, "update_p", "solver.update_p"),
    (elmsc.solver, "update_h", "solver.update_h"),
    (elmsc.solver, "update_z", "solver.update_z"),
    (elmsc.solver, "update_e", "solver.update_e"),
    (elmsc.solver, "update_j", "solver.update_j"),
    (elmsc.solver, "residuals", "solver.residuals"),
    (elmsc.solver, "objective", "solver.objective"),
    (elmsc.solver, "update_multipliers", "solver.update_multipliers"),
    (elmsc.solver, "kkt_residuals", "solver.kkt_residuals"),
    (elmsc.solver, "spd_solve", "numerics.spd_solve"),
    (elmsc.solver, "solve_sylvester", "numerics.solve_sylvester"),
    (elmsc.solver, "orthogonal_procrustes", "numerics.orthogonal_procrustes"),
    (elmsc.solver, "col_l21_prox", "numerics.col_l21_prox"),
    (elmsc.solver, "soft_threshold", "numerics.soft_threshold"),
    (elmsc.spectral, "cluster", "spectral.cluster"),
    (elmsc.spectral, "spectral_embed", "spectral.spectral_embed"),
    (elmsc.spectral, "sym_eig", "numerics.sym_eig"),
    (elmsc.spectral, "kmeans", "spectral.kmeans"),
    (elmsc.metrics, "all_metrics", "metrics.all_metrics"),
]
SPAN_NAMES = [name for _, _, name in TRACED]


class Tracer:
    """In-memory span recorder plus the counters some wrappers update."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent span index or -1, trial]
        self.stack = []
        self.trial = -1  # index of the running trial, -1 outside trials
        self.trials_started = 0
        self.spd_gflop = 0.0
        self.first_solve = None  # (xa, cfg) of the first solver.run call
        self.originals = []  # (module, attribute, function) to restore

    def span(self, name, fn):
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [name, time.perf_counter(), None, parent, self.trial]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()

        return traced

    def install(self):
        hooks = {
            "_trial_job": self._trial_hook,
            "spd_solve": self._gflop_hook,
            "run": self._solve_hook,
        }
        for module, attr, name in TRACED:
            fn = getattr(module, attr)
            self.originals.append((module, attr, fn))
            traced = self.span(name, fn)
            hook = hooks.get(attr)
            setattr(module, attr, hook(traced) if hook else traced)

    def uninstall(self):
        for module, attr, fn in self.originals:
            setattr(module, attr, fn)

    def _trial_hook(self, traced):
        def trial_job(payload):
            # with --workers 1 the trials run in order 0, 1, ...
            self.trial = self.trials_started
            self.trials_started += 1
            try:
                return traced(payload)
            finally:
                self.trial = -1

        return trial_job

    def _gflop_hook(self, traced):
        def spd_solve(a, b):
            n = a.shape[0]
            m = b.shape[1] if b.ndim == 2 else 1
            self.spd_gflop += (n ** 3 / 3 + 2 * n * n * m) / 1e9
            return traced(a, b)

        return spd_solve

    def _solve_hook(self, traced):
        def run(xa, cfg):
            if self.first_solve is None:
                self.first_solve = (xa, cfg)
            return traced(xa, cfg)

        return run

    def write_spans(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "trial"])
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                w.writerow([i, name, repr(start), repr(end), parent, trial])

    def summary(self):
        """Totals and self times in seconds, and call counts, per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        total = dict.fromkeys(SPAN_NAMES, 0.0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        calls = dict.fromkeys(SPAN_NAMES, 0)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            total[name] += end - start
            self_s[name] += end - start - child
            calls[name] += 1
        return {
            "total_s": total,
            "self_s": self_s,
            "calls": calls,
            "spd_solve_gflop": self.spd_gflop,
            "spans": len(self.spans),
        }


def vn2_peak(xa, cfg):
    """tracemalloc peak of one solve, in vn x vn float64 buffers."""
    vn = xa.xa.shape[1]
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    try:
        elmsc.solver.run(xa, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8.0 * vn * vn)


def span_cost(calls=20000, repeats=5):
    """Seconds one span wrapper adds to a call: the least of a few timings."""
    def noop():
        pass

    tracer = Tracer()
    wrapped = tracer.span("calibrate", noop)
    best = math.inf
    for _ in range(repeats):
        tracer.spans.clear()
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        mid = time.perf_counter()
        for _ in range(calls):
            noop()
        end = time.perf_counter()
        best = min(best, ((mid - start) - (end - mid)) / calls)
    return best


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        sys.stderr.write(__doc__)
        return 2
    spans_path, summary_path, cluster_args = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    tracer.install()
    code = elmsc.cli.main(["cluster", *cluster_args])
    tracer.uninstall()
    tracer.write_spans(spans_path)
    summary = tracer.summary()
    if tracer.first_solve is not None:
        summary["vn2_peak"] = vn2_peak(*tracer.first_solve)
    summary["span_cost_s"] = span_cost()
    with open(summary_path, "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
