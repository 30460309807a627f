"""Benchmark of `twoscale run`, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from the
checkout's `src/` and writes only under `.perfbench-out/`. It builds
the workload's instances (timed as `setup_s`), then repeats whole
rounds of the workload's `twoscale run` invocations, each through
`twoscale.cli.main`, until another round would end after S seconds.
With `--trace 0` it reports the end-to-end metrics; with `--trace 1`
it alternates untraced and traced rounds and reports the per-layer
metrics of the traced ones. Either way it checks the program's outputs
(see checks.py) and prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics.

An operation is one replica of one experiment: it fails when the CSV
header counts it as flagged, or when its invocation exits non-zero.
"""

import os
import sys
import time


def seconds_since_process_start() -> float:
    """Wall time since this process started, from /proc (10 ms ticks)."""
    with open("/proc/self/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - start


# One BLAS thread: the package works on tiny arrays in one process, and
# the benchmark must not depend on how many cores the machine has.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"


def import_package(root: Path = ROOT):
    """Import twoscale from the checkout's src/, and from nowhere else."""
    src = root / "src"
    if not (src / "twoscale" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no twoscale package under {src}")
    sys.path.insert(0, str(src))
    import twoscale
    if Path(twoscale.__file__).resolve().parent != (src / "twoscale").resolve():
        raise SystemExit(f"perfbench: twoscale imported from {twoscale.__file__}")
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return twoscale


def metric_units(root: Path = ROOT) -> dict:
    """name -> unit for ("end_to_end", "per_layer"), from BENCHMARK.json."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {kind: {m["name"]: m["unit"] for m in spec[kind]}
            for kind in ("end_to_end", "per_layer")}


class Round:
    """One pass over a workload's invocations, timed per invocation."""

    def __init__(self, walls, experiment_s, codes, csvs, errors):
        self.walls = walls                  # wall time of each invocation
        self.experiment_s = experiment_s    # its time inside run_experiment
        self.codes = codes
        self.csvs = csvs
        self.errors = errors
        self.layers = None
        self.counts = None


class Bench:
    """Runs rounds of one workload and checks their outputs."""

    def __init__(self, specs, instances, seed, outdir):
        from twoscale import cli
        self.cli = cli
        self.specs = specs
        self.instances = instances
        self.seed = seed
        self.outdir = Path(outdir)
        self.outdir.mkdir(parents=True, exist_ok=True)
        self.experiment_s = []
        self._run_experiment = cli.run_experiment

        def timed(config):
            start = time.perf_counter()
            try:
                return self._run_experiment(config)
            finally:
                self.experiment_s.append(time.perf_counter() - start)

        cli.run_experiment = timed

    def close(self):
        self.cli.run_experiment = self._run_experiment

    def invoke(self, spec, out, tracer=None):
        """One `twoscale run`; returns (exit code, its standard error).

        An exception escaping `cli.main` counts as exit code 1, as it
        would for the installed command, so that a crash is a failed
        operation rather than a lost run.
        """
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            try:
                if tracer is None:
                    code = self.cli.main(spec.argv(self.seed, str(out)))
                else:
                    tracer.set_experiment(spec.label)
                    code = tracer.call("cli.main", self.cli.main,
                                       spec.argv(self.seed, str(out)))
            except Exception:
                traceback.print_exc()
                code = 1
        return code, err.getvalue()

    def round(self, tracer=None) -> Round:
        paths = [self.outdir / f"{s.experiment}-{s.algo}.csv" for s in self.specs]
        for path in paths:
            path.unlink(missing_ok=True)
        walls, experiment_s, codes, errors = [], [], [], []
        for spec, path in zip(self.specs, paths):
            del self.experiment_s[:]
            start = time.perf_counter()
            code, err = self.invoke(spec, path, tracer)
            walls.append(time.perf_counter() - start)
            experiment_s.append(sum(self.experiment_s))
            codes.append(code)
            errors.append(err)
        csvs = [p.read_bytes() if c == 0 else None for p, c in zip(paths, codes)]
        return Round(walls, experiment_s, codes, csvs, errors)

    def failed(self, rnd: Round) -> int:
        from checks import parse_csv
        n = 0
        for spec, code, data in zip(self.specs, rnd.codes, rnd.csvs):
            n += spec.runs if code != 0 else parse_csv(data.decode()).flagged
        return n

    def check_outputs(self, rounds) -> list:
        """Checks of the first round's CSVs, of every later round's bytes
        against the first, and of a small rerun of every invocation."""
        import checks
        first = rounds[0]
        problems = []
        for rnd in rounds:
            for spec, code, err in zip(self.specs, rnd.codes, rnd.errors):
                if code != 0:
                    problems.append(f"exit: {spec.label} exited {code}: "
                                    f"{err.strip()}")
        for rnd in rounds[1:]:
            for spec, a, b in zip(self.specs, first.csvs, rnd.csvs):
                if a is not None and b is not None:
                    problems += checks.check_same(spec.label, a, b)
        groups = {}
        for spec, data in zip(self.specs, first.csvs):
            if data is not None:
                csv = checks.parse_csv(data.decode())
                groups.setdefault(spec.experiment, {})[spec.algo] = csv
        for exp, csvs in groups.items():
            built = self.instances[exp]
            if exp.startswith("synthetic"):
                problems += checks.check_synthetic(exp, built, csvs)
            elif exp == "tdc":
                problems += checks.check_tdc(built, csvs)
            elif exp == "lqr":
                problems += checks.check_lqr(built, csvs)
            else:
                problems += checks.check_regmdp(built, csvs)
        small = self.outdir / "small"
        small.mkdir(exist_ok=True)
        for spec in self.specs:
            small_spec = replace(spec, runs=2, iters=4 * spec.stride)
            outs = []
            for tag in ("a", "b"):
                path = small / f"{spec.experiment}-{spec.algo}-{tag}.csv"
                code, err = self.invoke(small_spec, path)
                if code != 0:
                    problems.append(f"exit: small {spec.label} exited {code}: "
                                    f"{err.strip()}")
                    break
                outs.append(path.read_bytes())
            else:
                problems += checks.check_same(f"small {spec.label}", *outs)
        return problems


def best_total(rounds, attr) -> float:
    """Sum over the invocations of each one's least time across rounds.

    The machine this was tuned on runs at speeds up to ~50% apart in
    phases of seconds to minutes. The best of several rounds per
    invocation discounts phases shorter than a run, which a median of
    rounds does not; phases longer than a run still show.
    """
    per_round = [getattr(r, attr) for r in rounds]
    return sum(min(times) for times in zip(*per_round))


def end_to_end(bench, rounds) -> dict:
    replica_iters = sum(s.runs * s.iters for s in bench.specs)
    return {
        "wall_s": best_total(rounds, "walls"),
        "rit_per_s": replica_iters / best_total(rounds, "experiment_s"),
    }


def layer_values(tracer, specs, rnd) -> dict:
    """The per-layer metrics of one traced round."""
    from tracing import SAMPLE_LAYERS, TRUTH_LAYERS
    calls, self_s = tracer.layer_calls, tracer.self_s
    exp_ids = {label: i for i, label in enumerate(tracer.experiments)}
    tdc_ids = [exp_ids[s.label] for s in specs
               if s.experiment == "tdc" and s.label in exp_ids]
    probes = sum(tracer.exp_counts[i, "probe_calls"] for i in tdc_ids)
    solves = sum(tracer.exp_counts[i, "probe_linear_solves"] for i in tdc_ids)
    return {
        "numerics.rng.calls": calls("numerics.rng"),
        "numerics.rng.values": tracer.values,
        "numerics.rng.self_s": self_s["numerics.rng"],
        "numerics.linear_solve.calls": calls("numerics.linear_solve"),
        "numerics.stability_test.calls": calls("numerics.stability_test"),
        "solver.loop.self_s": self_s["solver.loop"],
        "oracle.sample.self_s": sum(self_s[layer] for layer in SAMPLE_LAYERS),
        "synthetic.sample.calls": calls("synthetic.sample"),
        "tdc.sample.calls": calls("tdc.sample"),
        "lqr.env_step.calls": calls("lqr.env_step"),
        "regmdp.sample.calls": calls("regmdp.sample"),
        "solver.probe.calls": calls("solver.probe"),
        "solver.probe.self_s": self_s["solver.probe"],
        "solver.probe_share": tracer.probe_truth_s / tracer.loop_s,
        "ground_truth.self_s": sum(self_s[layer] for layer in TRUTH_LAYERS),
        "synthetic.exact.calls": calls("synthetic.exact"),
        "tdc.exact.calls": calls("tdc.exact"),
        "tdc.linear_solve_per_record": solves / probes if probes else 0.0,
        "lqr.exact.calls": calls("lqr.exact"),
        "lqr.lyapunov_solve.calls": tracer.calls["lqr.lyapunov_solve"],
        "lqr.dare_solve.calls": tracer.calls["lqr.dare_solve"],
        "regmdp.exact.calls": calls("regmdp.exact"),
        "harness.setup.self_s": self_s["harness.setup"],
        "harness.aggregate.self_s": self_s["harness.aggregate"],
        "harness.render_csv.self_s": self_s["harness.render_csv"],
        "harness.rate_fit.self_s": self_s["harness.rate_fit"],
        "harness.csv_bytes": sum(len(c) for c in rnd.csvs if c is not None),
    }


def measure(specs, instances, seed, seconds, trace, outdir, units) -> dict:
    """Run whole rounds for `seconds`, check the outputs, and return the
    result object without `setup_s`."""
    import checks
    from tracing import Tracer
    bench = Bench(specs, instances, seed, outdir)
    tracer = Tracer() if trace else None
    plain, traced = [], []
    cpus = sorted(os.sched_getaffinity(0))
    try:
        start = time.perf_counter()
        while True:
            # Rounds rotate over the CPUs this process may use. On the
            # machine this was tuned on each CPU has slow phases of its
            # own, and the best round of an invocation needs a fast
            # phase on only one of them.
            os.sched_setaffinity(0, {cpus[len(plain) % len(cpus)]})
            plain.append(bench.round())
            if tracer is not None:
                tracer.start_round(keep_spans=tracer.kept is None)
                tracer.install()
                try:
                    rnd = bench.round(tracer)
                finally:
                    tracer.uninstall()
                rnd.layers = layer_values(tracer, specs, rnd)
                rnd.counts = {(tracer.experiments[i], key): n
                              for (i, key), n in tracer.exp_counts.items()}
                tracer.end_round()
                traced.append(rnd)
            elapsed = time.perf_counter() - start
            if elapsed * (1 + 1 / len(plain)) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = plain + traced
        problems = bench.check_outputs(rounds)
        attempted = len(rounds) * sum(s.runs for s in specs)
        failed = sum(bench.failed(r) for r in rounds)
    finally:
        os.sched_setaffinity(0, cpus)
        bench.close()

    if tracer is None:
        metrics = dict(end_to_end(bench, plain), peak_rss_mb=peak_rss_mb)
    else:
        problems += checks.check_counts(specs, traced[0].counts)
        # times and their ratio come from the fastest traced round
        fastest = min(traced, key=lambda r: sum(r.walls))
        metrics = {}
        for name, unit in units["per_layer"].items():
            if name == "trace.overhead_s":
                metrics[name] = (best_total(traced, "walls")
                                 - best_total(plain, "walls"))
            elif unit in ("s", "ratio"):
                metrics[name] = fastest.layers[name]
            else:
                metrics[name] = traced[0].layers[name]
                if any(r.layers[name] != metrics[name] for r in traced[1:]):
                    problems.append(f"counts.repeat: {name} differs between "
                                    "traced rounds")
        tracer.write_spans(Path(outdir) / "spans.npz")
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "problems": problems}


def parse_args(argv):
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    import_package()
    args = parse_args(argv)
    from workloads import WORKLOADS, build_instances
    specs = WORKLOADS[args.workload]
    instances = build_instances(specs, args.seed)
    setup_s = seconds_since_process_start()

    units = metric_units()
    outdir = OUT / args.workload
    result = measure(specs, instances, args.seed, args.seconds, args.trace,
                     outdir, units)
    if not args.trace:
        result["metrics"]["setup_s"] = setup_s
    kind = "per_layer" if args.trace else "end_to_end"
    if set(result["metrics"]) != set(units[kind]):
        raise SystemExit(f"perfbench: metrics {sorted(result['metrics'])} do "
                         f"not match BENCHMARK.json {sorted(units[kind])}")
    problems = result.pop("problems")
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    result["metrics"] = {name: {"value": value, "unit": units[kind][name]}
                         for name, value in sorted(result["metrics"].items())}
    line = json.dumps(result)
    (outdir / f"result-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
