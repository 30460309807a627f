"""Spans and counters recorded around the public functions of twoscale.

`Tracer.install()` replaces module attributes and class methods of the
twoscale package with wrappers; `Tracer.uninstall()` puts the
originals back. Nothing inside `src/` is edited: every span is taken
at a call boundary that the package already routes through a module
attribute or a class attribute, so the wrappers see exactly the calls
the package makes.

Each wrapped call records one span (function, start, end, parent span,
experiment, replica) and adds its self time (duration minus the time
covered by its child spans) to its layer. Counters are taken at the
same boundaries. Spans of the first traced round are kept in memory
and written out by `write_spans` when the benchmark ends; later rounds
keep only the per-layer sums.
"""

from __future__ import annotations

import time
from array import array
from collections import defaultdict

import numpy as np

from twoscale import cli, harness, lqr, numerics, regmdp, solver, synthetic, tdc

# Span kinds that feed `solver.probe_share` and the per-experiment checks.
LOOP, PROBE, TRUTH = "loop", "probe", "truth"


def _size_values(args, kwargs):
    size = args[1] if len(args) > 1 else kwargs.get("size")
    return 1 if size is None else int(size)


def _one_value(args, kwargs):
    return 1


# (layer, function label, kind, values-per-call, owners, attribute).
# An owner is a module or a class; every owner of one row must hold the
# same original function, so one wrapper serves all of them.
TARGETS = (
    ("numerics.rng", "SeededRng.normal", None, _size_values,
     (numerics.SeededRng,), "normal"),
    ("numerics.rng", "SeededRng.uniform", None, _size_values,
     (numerics.SeededRng,), "uniform"),
    ("numerics.rng", "SeededRng.integers", None, _one_value,
     (numerics.SeededRng,), "integers"),
    ("numerics.linear_solve", "numerics.linear_solve", TRUTH, None,
     (numerics, tdc, regmdp), "linear_solve"),
    ("numerics.stability_test", "numerics.stability_test", TRUTH, None,
     (numerics, lqr), "stability_test"),
    ("solver.loop", "solver.run", LOOP, None, (harness,), "run"),
    ("solver.loop", "tdc.run_td0", LOOP, None, (tdc,), "run_td0"),
    ("solver.loop", "lqr.run_lqr", LOOP, None, (lqr,), "run_lqr"),
    ("synthetic.sample", "synthetic.sample", None, None,
     (synthetic._CoupledGaussianProblem,), "sample"),
    ("tdc.sample", "TdcProblem.sample", None, None, (tdc.TdcProblem,), "sample"),
    ("tdc.sample", "tdc.td0_sample", None, None, (tdc,), "td0_sample"),
    ("tdc.sample", "tdc.sample_transition", None, None, (tdc,),
     "sample_transition"),
    ("lqr.env_step", "lqr.env_step", None, None, (lqr,), "env_step"),
    ("regmdp.sample", "RegMdpProblem.sample", None, None,
     (regmdp.RegMdpProblem,), "sample"),
    ("solver.probe", "ResidualProbe.compute", PROBE, None,
     (solver.ResidualProbe,), "compute"),
    ("synthetic.exact", "synthetic.omega_star", TRUTH, None,
     (synthetic._CoupledGaussianProblem,), "omega_star"),
    ("synthetic.exact", "synthetic.mean_f", TRUTH, None,
     (synthetic._CoupledGaussianProblem,), "mean_f"),
    ("synthetic.exact", "synthetic.mean_g", TRUTH, None,
     (synthetic._CoupledGaussianProblem,), "mean_g"),
    ("synthetic.exact", "QuadraticProblem.h", TRUTH, None,
     (synthetic.QuadraticProblem,), "h"),
    ("synthetic.exact", "PlProblem.h", TRUTH, None, (synthetic.PlProblem,), "h"),
    ("synthetic.exact", "NonconvexProblem.h", TRUTH, None,
     (synthetic.NonconvexProblem,), "h"),
    ("tdc.exact", "tdc.exact_mspbe", TRUTH, None, (tdc,), "exact_mspbe"),
    ("tdc.exact", "tdc.exact_omega_star", TRUTH, None, (tdc,),
     "exact_omega_star"),
    ("lqr.exact", "lqr.cost_J", TRUTH, None, (lqr,), "cost_J"),
    ("lqr.exact", "lqr.omega_exact", TRUTH, None, (lqr,), "omega_exact"),
    ("lqr.exact", "lqr.lyapunov_solve", TRUTH, None, (lqr,), "lyapunov_solve"),
    ("lqr.exact", "lqr.dare_solve", TRUTH, None, (lqr,), "dare_solve"),
    ("regmdp.exact", "regmdp.mean_F", TRUTH, None, (regmdp,), "mean_F"),
    ("regmdp.exact", "regmdp.mean_G", TRUTH, None, (regmdp,), "mean_G"),
    ("regmdp.exact", "regmdp.exact_value", TRUTH, None, (regmdp,), "exact_value"),
    ("regmdp.exact", "regmdp.exact_J", TRUTH, None, (regmdp,), "exact_J"),
    ("regmdp.exact", "regmdp.soft_optimal", TRUTH, None, (regmdp,),
     "soft_optimal"),
    ("harness.setup", "cli.parse_config", None, None, (cli,), "parse_config"),
    ("harness.setup", "harness.default_schedule", None, None, (harness,),
     "default_schedule"),
    ("harness.setup", "synthetic.make_quadratic", None, None, (harness,),
     "make_quadratic"),
    ("harness.setup", "synthetic.make_pl", None, None, (harness,), "make_pl"),
    ("harness.setup", "synthetic.make_nonconvex", None, None, (harness,),
     "make_nonconvex"),
    ("harness.setup", "tdc.generate_instance", None, None, (tdc,),
     "generate_instance"),
    ("harness.setup", "TdcProblem.__init__", None, None, (tdc.TdcProblem,),
     "__init__"),
    ("harness.setup", "lqr.paper_lqr_3x2", None, None, (lqr,), "paper_lqr_3x2"),
    ("harness.setup", "regmdp.make_regmdp", None, None, (regmdp,),
     "make_regmdp"),
    ("harness.setup", "RegMdpProblem.__init__", None, None,
     (regmdp.RegMdpProblem,), "__init__"),
    ("harness.aggregate", "harness.aggregate", None, None, (harness,),
     "aggregate"),
    ("harness.rate_fit", "solver.estimate_rate", None, None, (harness,),
     "estimate_rate"),
    ("harness.render_csv", "harness.render_csv", None, None, (harness,),
     "render_csv"),
    ("harness.run_experiment", "harness.run_experiment", None, None, (cli,),
     "run_experiment"),
    ("harness.write_csv", "harness.write_csv", None, None, (cli,), "write_csv"),
)

SAMPLE_LAYERS = ("synthetic.sample", "tdc.sample", "lqr.env_step",
                 "regmdp.sample")
TRUTH_LAYERS = tuple(sorted({row[0] for row in TARGETS if row[2] == TRUTH}))


def _original(owner, attr):
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


class Tracer:
    """Records spans and per-layer sums while installed."""

    def __init__(self):
        self.labels = [row[1] for row in TARGETS] + ["cli.main"]
        self.layer_of = {row[1]: row[0] for row in TARGETS}
        self.layer_of["cli.main"] = "cli"
        self.experiments = []
        self._saved = []
        self.kept = None
        self.start_round(keep_spans=False)

    # --- round state ------------------------------------------------------

    def start_round(self, keep_spans: bool):
        """Clear the per-round sums; keep this round's spans if asked."""
        self.spans = array("d") if keep_spans else None
        self.n_spans = 0
        self.stack = []
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.values = 0
        self.exp_counts = defaultdict(int)
        self.loop_depth = 0
        self.truth_depth = 0
        self.probe_depth = 0
        self.loop_s = 0.0
        self.probe_truth_s = 0.0
        self.exp_id = -1
        self.replica = -1

    def end_round(self):
        if self.spans is not None and self.kept is None:
            self.kept = self.spans
        self.spans = None

    def set_experiment(self, label: str):
        if label not in self.experiments:
            self.experiments.append(label)
        self.exp_id = self.experiments.index(label)
        self.replica = -1

    # --- spans ------------------------------------------------------------

    def _enter(self):
        idx = self.n_spans
        self.n_spans = idx + 1
        frame = [idx, 0.0, self.stack[-1][0] if self.stack else -1]
        self.stack.append(frame)
        return frame

    def _leave(self, frame, label_id, layer, start, end):
        stack = self.stack
        stack.pop()
        dur = end - start
        self.self_s[layer] += dur - frame[1]
        if stack:
            stack[-1][1] += dur
        if self.spans is not None:
            # one flat row per span, in order of completion
            self.spans.extend((frame[0], label_id, start, end, frame[2],
                               self.exp_id, self.replica))
        return dur

    def call(self, label: str, fn, *args, **kwargs):
        """Run `fn` inside a span of the given label (runner-level spans)."""
        label_id = self.labels.index(label)
        frame = self._enter()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._leave(frame, label_id, self.layer_of[label], start,
                        time.perf_counter())

    def _wrap(self, fn, layer, label, kind, values):
        tracer = self
        label_id = self.labels.index(label)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = tracer._enter()
            if kind is LOOP:
                tracer.replica = int(kwargs["seed"][2])
                tracer.loop_depth += 1
            elif kind is not None:
                tracer.truth_depth += 1
                if kind is PROBE:
                    tracer.probe_depth += 1
                    tracer.exp_counts[tracer.exp_id, "probe_calls"] += 1
                elif label_id == LINEAR_SOLVE and tracer.probe_depth:
                    key = (tracer.exp_id, "probe_linear_solves")
                    tracer.exp_counts[key] += 1
            if values is not None:
                n = values(args, kwargs)
                tracer.values += n
                if tracer.loop_depth:
                    tracer.exp_counts[tracer.exp_id, "loop_rng_values"] += n
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = tracer._leave(frame, label_id, layer, start, clock())
                tracer.calls[label] += 1
                if kind is LOOP:
                    tracer.loop_depth -= 1
                    tracer.loop_s += dur
                elif kind is not None:
                    tracer.truth_depth -= 1
                    if kind is PROBE:
                        tracer.probe_depth -= 1
                    if tracer.truth_depth == 0 and tracer.loop_depth:
                        tracer.probe_truth_s += dur

        traced.__wrapped__ = fn
        return traced

    # --- install / uninstall ----------------------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, label, kind, values, owners, attr in TARGETS:
            fn = _original(owners[0], attr)
            for owner in owners[1:]:
                if _original(owner, attr) is not fn:
                    raise RuntimeError(f"{label}: owners hold different functions")
            wrapper = self._wrap(fn, layer, label, kind, values)
            for owner in owners:
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved = []

    # --- results ----------------------------------------------------------

    def layer_calls(self, layer: str) -> int:
        return sum(n for label, n in self.calls.items()
                   if self.layer_of[label] == layer)

    def write_spans(self, path):
        """Write the kept spans, indexed by order of entry, as an .npz.

        Columns: label (index into `labels`), start, end (perf_counter
        seconds), parent (span index, -1 at the top), experiment (index
        into `experiments`, -1 outside one) and replica (-1 outside a
        replica loop).
        """
        rows = np.frombuffer(self.kept or array("d"), dtype=np.float64)
        rows = rows.reshape(-1, 7)
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        np.savez_compressed(
            path,
            labels=np.array(self.labels),
            layers=np.array([self.layer_of[lb] for lb in self.labels]),
            experiments=np.array(self.experiments),
            label=rows[:, 1].astype(np.int32),
            start=rows[:, 2],
            end=rows[:, 3],
            parent=rows[:, 4].astype(np.int64),
            experiment=rows[:, 5].astype(np.int32),
            replica=rows[:, 6].astype(np.int32),
        )


LINEAR_SOLVE = [row[1] for row in TARGETS].index("numerics.linear_solve")
