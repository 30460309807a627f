"""Experiment runner: configuration, replication, aggregation, CSV.

Six preset experiments compare the averaged solver against the classic
baseline (plus a single-variable TD(0) baseline on the policy
evaluation problem): three synthetic regimes, off-policy value
evaluation, linear-quadratic control, and entropy-regularized policy
optimization. Each experiment runs `runs` independent replicas on
derived random streams, averages the recorded metrics pointwise,
fits a tail log-log slope of the primary metric, and emits a CSV whose
bytes are a pure function of the configuration.

Flagged (diverged) replicas are excluded from the aggregates and
counted in the output header; they are an experimental finding, not an
error, unless every replica flags.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple, Optional, get_args, get_type_hints

import numpy as np

from . import lqr as lqr_mod
from . import regmdp as regmdp_mod
from . import tdc as tdc_mod
from .solver import (ResidualProbe, StepSchedule, custom_schedule,
                     estimate_rate, make_polynomial_schedule,
                     make_sqrt_schedule, run)
from .synthetic import make_nonconvex, make_pl, make_quadratic

__all__ = [
    "AggregateSeries",
    "ExperimentConfig",
    "ExperimentResult",
    "HarnessError",
    "KEY_TYPES",
    "PRESETS",
    "Preset",
    "UsageError",
    "aggregate",
    "default_schedule",
    "parse_config",
    "parse_schedule_spec",
    "read_csv",
    "render_csv",
    "run_experiment",
    "write_csv",
]

class UsageError(ValueError):
    """Bad command line or config file content."""


class HarnessError(RuntimeError):
    """Numerical failure: every replica of an experiment flagged."""


@dataclass
class ExperimentConfig:
    experiment: str
    algo: str = "fast"
    schedule: Optional[str] = None     # spec string; None = experiment default
    iters: int = 200000
    runs: int = 20
    seed: int = 1
    stride: int = 500
    out: Optional[str] = None
    states: Optional[int] = None
    actions: Optional[int] = None
    dim: Optional[int] = None
    gamma: Optional[float] = None
    tau: Optional[float] = None        # entropy weight (regmdp)
    sigma: Optional[float] = None      # noise scale (synthetic, lqr)

    def __post_init__(self):
        preset = PRESETS.get(self.experiment)
        if preset is None:
            raise UsageError(f"unknown experiment {self.experiment!r}")
        if self.algo not in preset.schedules:
            raise UsageError("algo must be one of " + ", ".join(
                preset.schedules) + f" with experiment {self.experiment}")
        for key in ("runs", "iters", "stride", "states", "actions", "dim"):
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise UsageError(f"{key} must be >= 1")
        if self.gamma is not None and not 0.0 <= self.gamma < 1.0:
            raise UsageError("gamma must lie in [0, 1)")
        if self.tau is not None and not 0.0 < self.tau < np.inf:
            raise UsageError("tau must be finite and > 0")
        if self.sigma is not None and not 0.0 <= self.sigma < np.inf:
            raise UsageError("sigma must be finite and >= 0")
        unread = [key for key in _INSTANCE_KEYS if getattr(self, key)
                  is not None and key not in preset.reads]
        if unread:
            raise UsageError(f"experiment {self.experiment} does not read "
                             + ", ".join(unread))

    def out_path(self) -> str:
        if self.out is not None:
            return self.out
        return os.path.join("results",
                            f"{self.experiment}-{self.algo}-{self.seed}.csv")


# each `run` key -> the type of its value (int, float or str: the type of
# its field, Optional or not), in field order
KEY_TYPES = {
    name: next(t for t in (int, float, str) if t in (hint, *get_args(hint)))
    for name, hint in get_type_hints(ExperimentConfig).items()}


def parse_config(args, config_file: Optional[str] = None) -> ExperimentConfig:
    """Build a config from key=value pairs, file values overridden by args.

    `args` is a mapping of already-parsed CLI values (None = absent).
    Unknown keys in the config file are rejected.
    """
    values = {}
    if config_file is not None:
        with open(config_file) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise UsageError(
                        f"{config_file}:{lineno}: expected key=value, got {line!r}")
                key, _, val = (part.strip() for part in line.partition("="))
                if key not in KEY_TYPES:
                    raise UsageError(f"{config_file}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = KEY_TYPES[key](val)
                except ValueError:
                    raise UsageError(f"malformed value {val!r} for key {key!r}")
    for key, val in args.items():
        if key not in KEY_TYPES:
            raise UsageError(f"unknown key {key!r}")
        if val is not None:
            values[key] = val
    if "experiment" not in values:
        raise UsageError("experiment is required")
    return ExperimentConfig(**values)


# --- schedules ----------------------------------------------------------------

def parse_schedule_spec(spec: str) -> StepSchedule:
    """Parse `poly:cl,ca,cb,tau`, `sqrt:a0,b0`, or `appendixD`."""
    if spec == "appendixD":
        return custom_schedule(
            lambda k: 4.0 / (5.0 * (k + 10.0)),
            lambda k: 5e-4,
            lambda k: 2e-3,
            params={"alpha": 5e-4, "beta": 2e-3, "c_lambda": 0.8, "tau": 9.0},
            tau=9.0,
        )
    kind, _, rest = spec.partition(":")
    try:
        vals = [float(tok) for tok in rest.split(",")] if rest else []
    except ValueError:
        raise UsageError(f"malformed schedule spec {spec!r}")
    if kind == "poly" and len(vals) == 4:
        return make_polynomial_schedule(*vals)
    if kind == "sqrt" and len(vals) == 2:
        return make_sqrt_schedule(*vals)
    raise UsageError(f"malformed schedule spec {spec!r}")


def _baseline(alpha, beta, params, tau=None) -> StepSchedule:
    """The baseline's schedule: lambda_k = 1 and alpha_k = c/(k+tau+1)^decay
    for alpha = (c, decay), likewise beta; tau None counts as 0. Each k
    goes through Python's scalar `**`, since numpy's array `**` is 1 ulp
    off in some entries."""
    def step(c, decay):
        return lambda k: c / (k + (tau or 0.0) + 1.0) ** decay
    return custom_schedule(lambda k: 1.0, step(*alpha), step(*beta),
                           params=params, tau=tau)


def default_schedule(experiment: str, algo: str) -> StepSchedule:
    """The tuned default of an (experiment, algorithm) arm, from PRESETS."""
    return PRESETS[experiment].schedules[algo]


# --- aggregation ---------------------------------------------------------------

@dataclass
class AggregateSeries:
    """Pointwise mean and standard error of each metric across runs."""

    ks: np.ndarray
    means: dict
    stderrs: dict
    n_runs: int
    n_flagged: int


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    series: AggregateSeries
    schedule: StepSchedule
    rate: Optional[dict]
    problem_header: dict = field(default_factory=dict)


def aggregate(traces) -> AggregateSeries:
    """Mean/stderr over unflagged traces; flagged are counted only."""
    kept = [t for t in traces if not t.flagged]
    n_flagged = len(traces) - len(kept)
    if not kept:
        raise HarnessError(
            f"all {len(traces)} replicas flagged non-finite; "
            "nothing to aggregate")
    ks = kept[0].ks
    for t in kept[1:]:
        if not np.array_equal(t.ks, ks):
            raise HarnessError("replicas recorded different iteration grids")
    names = list(kept[0].metrics)
    means, stderrs = {}, {}
    for name in names:
        M = np.stack([t.metrics[name] for t in kept])
        means[name] = M.mean(axis=0)
        if M.shape[0] > 1:
            stderrs[name] = M.std(axis=0, ddof=1) / np.sqrt(M.shape[0])
        else:
            stderrs[name] = np.zeros(M.shape[1])
    return AggregateSeries(ks=ks, means=means, stderrs=stderrs,
                           n_runs=len(traces), n_flagged=n_flagged)


def _fit_rate(config: ExperimentConfig, series: AggregateSeries):
    """Tail slope of the primary metric, beside the predicted exponent:
    the averaged solver (and TD(0)) carries the 1/k guarantee, the
    baseline its best-known k^(-2/3); in the nonconvex regime, on the
    running minimum, 1/sqrt(k) and k^(-2/5)."""
    metric = PRESETS[config.experiment].metric
    if metric not in series.means:
        return None
    values = series.means[metric]
    nonconvex = config.experiment == "synthetic-nc"
    if nonconvex:
        values = np.minimum.accumulate(values)
    window = 0.5
    try:
        fit = estimate_rate(series.ks, values, window)
    except ValueError:
        return None
    if config.algo == "standard":
        theory = -0.4 if nonconvex else -2.0 / 3.0
    else:
        theory = -0.5 if nonconvex else -1.0
    return {
        "metric": metric + ("_runmin" if nonconvex else ""),
        "slope": fit.slope,
        "intercept": fit.intercept,
        "r2": fit.r_squared,
        "window": window,
        "theory_exponent": theory,
    }


# --- experiment builders --------------------------------------------------------
#
# A builder returns (problem, header extras); the problem carries its
# ground truth, metrics and start point. Builders call the instance
# makers through module attributes at call time, so that wrappers
# installed on those attributes (perfbench/tracing.py) see every call.

def _build_synthetic(config: ExperimentConfig):
    d = config.dim if config.dim is not None else 5
    sigma = config.sigma if config.sigma is not None else 0.1
    if config.experiment == "synthetic-sc":
        problem, consts = make_quadratic(d, d, seed=config.seed,
                                         condition_number=10.0,
                                         sigma_noise=sigma)
    elif config.experiment == "synthetic-pl":
        problem, consts = make_pl(d, d, seed=config.seed,
                                  condition_number=10.0, sigma_noise=sigma)
    else:
        problem, consts = make_nonconvex(d, d, seed=config.seed,
                                         sigma_noise=sigma)
    header = dict(L=consts.L, mu_G=consts.mu_G, B=consts.B)
    if consts.mu_h is not None:
        header["mu_h"] = consts.mu_h
    return problem, header


def _build_tdc(config: ExperimentConfig):
    S = config.states if config.states is not None else 50
    A = config.actions if config.actions is not None else 50
    d = config.dim if config.dim is not None else 10
    gamma = config.gamma if config.gamma is not None else 0.5
    instance = tdc_mod.generate_instance(S, A, d, gamma, seed=config.seed)
    problem = (tdc_mod.Td0Problem(instance) if config.algo == "td0"
               else tdc_mod.TdcProblem(instance))
    return problem, dict(states=S, actions=A, dim=d, gamma=gamma)


def _build_lqr(config: ExperimentConfig):
    sigma = config.sigma if config.sigma is not None else 0.5
    system = lqr_mod.paper_lqr_3x2(psi_scale=0.25, sigma=sigma)
    return (lqr_mod.LqrProblem(system),
            dict(system="paper-lqr-3x2", psi_scale=0.25, sigma=sigma))


def _build_regmdp(config: ExperimentConfig):
    S = config.states if config.states is not None else 5
    A = config.actions if config.actions is not None else 5
    gamma = config.gamma if config.gamma is not None else 0.9
    tau_ent = config.tau if config.tau is not None else 0.1
    mdp = regmdp_mod.make_regmdp(S, A, gamma=gamma, tau_ent=tau_ent,
                                 seed=config.seed)
    problem = regmdp_mod.RegMdpProblem(mdp)
    return problem, dict(states=S, actions=A, gamma=gamma, tau_ent=tau_ent,
                         J_star=problem.J_star)


class Preset(NamedTuple):
    """One experiment: the instance keys its builder reads, the builder,
    the primary metric of the rate fit, and algo -> default schedule.
    The schedule keys are the algos the experiment runs."""

    reads: tuple
    build: Callable
    metric: str
    schedules: dict


# Defaults: the averaged solver at its prescribed order (1/k, or
# 1/sqrt(k) in the nonconvex regime), the baseline at its best-known
# order (k^(-2/3), or k^(-3/5) in the nonconvex regime); every
# policy-evaluation arm under the reference constant-step schedule.
_ONE_OVER_K = {
    "fast": make_polynomial_schedule(40.0, 16.0, 16.0, 160.0),
    "standard": _baseline((2.0, 2.0 / 3.0), (8.0, 2.0 / 3.0),
                          {"c_alpha": 2.0, "c_beta": 8.0, "decay": 2.0 / 3.0,
                           "tau": 160.0}, tau=160.0),
}

PRESETS = {
    "synthetic-sc": Preset(("dim", "sigma"), _build_synthetic, "z",
                           _ONE_OVER_K),
    "synthetic-pl": Preset(("dim", "sigma"), _build_synthetic, "x",
                           _ONE_OVER_K),
    "synthetic-nc": Preset(
        ("dim", "sigma"), _build_synthetic, "grad_norm_sq",
        {"fast": make_sqrt_schedule(0.05, 0.05),
         "standard": _baseline((0.05, 0.6), (0.05, 0.6),
                               {"alpha0": 0.05, "beta0": 0.05,
                                "decay": 0.6})}),
    "tdc": Preset(("states", "actions", "dim", "gamma"), _build_tdc, "z",
                  dict.fromkeys(("fast", "standard", "td0"),
                                parse_schedule_spec("appendixD"))),
    "lqr": Preset(
        ("sigma",), _build_lqr, "gap",
        {"fast": make_polynomial_schedule(40.0, 8.0, 10.0, 400.0),
         "standard": _baseline((8.0, 1.0), (2.0, 2.0 / 3.0),
                               {"c_alpha": 8.0, "c_beta": 2.0,
                                "beta_decay": 2.0 / 3.0, "tau": 800.0},
                               tau=800.0)}),
    "regmdp": Preset(("states", "actions", "gamma", "tau"), _build_regmdp,
                     "x", _ONE_OVER_K),
}
# keys that shape an experiment's instance, in field order
_INSTANCE_KEYS = tuple(key for key in KEY_TYPES
                       if any(key in p.reads for p in PRESETS.values()))


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run all replicas of the configured experiment and aggregate.

    The replicas run as one batch of `run`, replica i on the stream
    (seed, 1, i); problems are built from the seed itself, so two arms
    run with the same seed see the same instance. TD(0) is the
    `standard` update of a problem without an auxiliary variable.
    """
    schedule = (parse_schedule_spec(config.schedule)
                if config.schedule is not None
                else default_schedule(config.experiment, config.algo))
    problem, problem_header = PRESETS[config.experiment].build(config)
    algo = "standard" if config.algo == "td0" else config.algo
    traces = run(problem, algo, schedule, config.iters,
                 seed=(config.seed, 1, 0), probe=ResidualProbe(problem),
                 stride=config.stride, runs=config.runs)
    series = aggregate(traces)
    rate = _fit_rate(config, series)
    return ExperimentResult(config=config, series=series, schedule=schedule,
                            rate=rate, problem_header=problem_header)


# --- CSV ------------------------------------------------------------------------

def _format_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)


def render_csv(result: ExperimentResult) -> str:
    """Render the aggregate series with a config comment header."""
    config, series = result.config, result.series
    buf = io.StringIO()
    buf.write("# twoscale experiment output\n")
    for f in fields(config):
        if f.name != "out":
            val = _format_value(getattr(config, f.name))
            buf.write(f"# config {f.name}={val}\n")
    sched = result.schedule
    params = " ".join(f"{k}={_format_value(float(v))}"
                      for k, v in sorted(sched.params.items()))
    buf.write(f"# schedule kind={sched.kind} {params}".rstrip() + "\n")
    for k, v in sorted(result.problem_header.items()):
        buf.write(f"# problem {k}={_format_value(v)}\n")
    buf.write(f"# flagged_runs={series.n_flagged} of {series.n_runs}\n")
    if result.rate is not None:
        r = result.rate
        buf.write("# rate metric={metric} slope={slope!r} intercept={intercept!r}"
                  " r2={r2!r} window={window!r}"
                  " theory_exponent={theory_exponent!r}\n".format(**r))
    names = list(series.means)
    cols = ["k"]
    for name in names:
        cols += [f"{name}_mean", f"{name}_stderr"]
    buf.write(",".join(cols) + "\n")
    for i, k in enumerate(series.ks):
        row = [str(int(k))]
        for name in names:
            row.append(repr(float(series.means[name][i])))
            row.append(repr(float(series.stderrs[name][i])))
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def write_csv(result: ExperimentResult, path) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(render_csv(result))


def read_csv(path):
    """Parse an emitted file back into (ks, {column: array}, header lines)."""
    header, names, rows = [], None, []
    with open(path) as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                header.append(line)
            elif names is None:
                names = line.split(",")
            elif line:
                rows.append([float(tok) for tok in line.split(",")])
    if names is None:
        return np.array([]), {}, header
    M = np.array(rows) if rows else np.zeros((0, len(names)))
    ks = M[:, 0].astype(np.int64) if rows else np.array([], np.int64)
    cols = {name: M[:, j] for j, name in enumerate(names[1:], start=1)}
    return ks, cols, header
