"""Fast averaged two-time-scale stochastic approximation.

The solver targets coupled root-finding problems
    E[F(theta, omega*(theta), X)] = grad h(theta),
    E[G(theta, omega*(theta), X)] = 0,
driven by a joint stochastic oracle that returns one (F, G) sample pair
per draw. The fast iteration keeps running averages (f, g) of the
operator samples and moves the decision variables with those averages:

    theta_{k+1} = theta_k - alpha_k f_k
    omega_{k+1} = omega_k - beta_k g_k
    f_{k+1} = (1 - lambda_k) f_k + lambda_k F(theta_k, omega_k, X_k)
    g_{k+1} = (1 - lambda_k) g_k + lambda_k G(theta_k, omega_k, X_k)

The classic baseline (`standard`) applies the raw samples directly and
is recovered structurally by lambda_k = 1 (with a one-step lag in which
sample reaches the decision update, so it is implemented separately and
literally).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import SeededRng

__all__ = [
    "ConfigurationError",
    "ExactAccessors",
    "NonFiniteError",
    "RateFit",
    "ResidualProbe",
    "SolverState",
    "StepSchedule",
    "Trace",
    "TwoTimeScaleProblem",
    "averaging_update",
    "custom_schedule",
    "estimate_rate",
    "fast_step",
    "make_polynomial_schedule",
    "make_sqrt_schedule",
    "run",
    "standard_step",
]


class ConfigurationError(ValueError):
    """Invalid algorithm configuration (step sizes, iteration counts)."""


class NonFiniteError(RuntimeError):
    """A state or sample turned non-finite; carries the iteration index."""

    def __init__(self, iteration: int, what: str = "value"):
        super().__init__(f"non-finite {what} at iteration {iteration}")
        self.iteration = iteration


@dataclass
class ExactAccessors:
    """Optional ground-truth handles a problem may expose for metrics.

    mean_f / mean_g are the deterministic expectations of the sampled
    operators; when absent, probes fall back to Monte Carlo estimates.
    Without grad_h, probes take grad h(theta) = mean_f(theta,
    omega_star(theta)), reusing the omega_star that `y` evaluates.
    """

    grad_h: Optional[Callable[[np.ndarray], np.ndarray]] = None
    omega_star: Optional[Callable[[np.ndarray], np.ndarray]] = None
    theta_star: Optional[np.ndarray] = None
    h: Optional[Callable[[np.ndarray], float]] = None
    h_star: Optional[float] = None
    mean_f: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    mean_g: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


class TwoTimeScaleProblem:
    """Joint stochastic oracle over decision and auxiliary variables.

    Subclasses set `dim_theta`, `dim_omega`, optionally `exact`, and
    implement `sample`. One call to `sample` corresponds to one draw of
    the underlying randomness, used for BOTH returned operator values.
    """

    dim_theta: int
    dim_omega: int
    exact: Optional[ExactAccessors] = None

    def sample(self, theta: np.ndarray, omega: np.ndarray, rng: SeededRng):
        raise NotImplementedError


@dataclass
class SolverState:
    """The four iterates of the fast algorithm at step k."""

    k: int
    theta: np.ndarray
    omega: np.ndarray
    f: np.ndarray
    g: np.ndarray

    @classmethod
    def zeros(cls, problem: TwoTimeScaleProblem, theta0=None, omega0=None):
        d, r = problem.dim_theta, problem.dim_omega
        theta = np.zeros(d) if theta0 is None else np.asarray(theta0, float).copy()
        omega = np.zeros(r) if omega0 is None else np.asarray(omega0, float).copy()
        if theta.shape != (d,) or omega.shape != (r,):
            raise ValueError("initial state dimensions do not match problem")
        return cls(0, theta, omega, np.zeros(d), np.zeros(r))


@dataclass(frozen=True)
class StepSchedule:
    """Evaluates the three step sizes (lambda_k, alpha_k, beta_k).

    `kind` is one of "polynomial", "sqrt", "custom"; `params` echoes
    the defining constants into experiment headers. `tau` is the decay
    offset when the schedule has one (checker uses it to recover the
    schedule constants from iterate values).
    """

    kind: str
    lam_fn: Callable[[int], float]
    alpha_fn: Callable[[int], float]
    beta_fn: Callable[[int], float]
    params: dict = field(default_factory=dict)
    tau: Optional[float] = None

    def lam(self, k: int) -> float:
        return float(self.lam_fn(k))

    def alpha(self, k: int) -> float:
        return float(self.alpha_fn(k))

    def beta(self, k: int) -> float:
        return float(self.beta_fn(k))

    def tabulate(self, n: int):
        """Arrays of (lambda_k, alpha_k, beta_k) for k = 0 .. n-1."""
        ks = np.arange(n)
        if self.kind == "polynomial":
            p = self.params
            den = ks + p["tau"] + 1.0
            return p["c_lambda"] / den, p["c_alpha"] / den, p["c_beta"] / den
        if self.kind == "sqrt":
            p = self.params
            rt = np.sqrt(ks + 1.0)
            return 0.25 / rt, p["alpha0"] / rt, p["beta0"] / rt
        lam = np.array([float(self.lam_fn(int(k))) for k in ks])
        alp = np.array([float(self.alpha_fn(int(k))) for k in ks])
        bet = np.array([float(self.beta_fn(int(k))) for k in ks])
        return lam, alp, bet

    def describe(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})" if inner else self.kind


def make_polynomial_schedule(c_lambda: float, c_alpha: float, c_beta: float,
                             tau: float) -> StepSchedule:
    """lambda_k = c_lambda/(k+tau+1), likewise alpha and beta."""
    for name, v in (("c_lambda", c_lambda), ("c_alpha", c_alpha), ("c_beta", c_beta)):
        if not v > 0.0:
            raise ConfigurationError(f"{name} must be positive, got {v!r}")
    if not tau >= 1.0:
        raise ConfigurationError(f"tau must be >= 1, got {tau!r}")
    params = {"c_lambda": float(c_lambda), "c_alpha": float(c_alpha),
              "c_beta": float(c_beta), "tau": float(tau)}
    return StepSchedule(
        kind="polynomial",
        lam_fn=lambda k: c_lambda / (k + tau + 1.0),
        alpha_fn=lambda k: c_alpha / (k + tau + 1.0),
        beta_fn=lambda k: c_beta / (k + tau + 1.0),
        params=params,
        tau=float(tau),
    )


def make_sqrt_schedule(alpha0: float, beta0: float) -> StepSchedule:
    """1/sqrt(k+1) decay with the averaging coefficient fixed at 1/4."""
    if not 0.0 < alpha0 <= beta0:
        raise ConfigurationError(
            f"need 0 < alpha0 <= beta0, got alpha0={alpha0!r} beta0={beta0!r}")
    params = {"alpha0": float(alpha0), "beta0": float(beta0)}
    return StepSchedule(
        kind="sqrt",
        lam_fn=lambda k: 0.25 / math.sqrt(k + 1.0),
        alpha_fn=lambda k: alpha0 / math.sqrt(k + 1.0),
        beta_fn=lambda k: beta0 / math.sqrt(k + 1.0),
        params=params,
    )


def custom_schedule(lam_fn, alpha_fn, beta_fn, params=None, tau=None) -> StepSchedule:
    return StepSchedule(kind="custom", lam_fn=lam_fn, alpha_fn=alpha_fn,
                        beta_fn=beta_fn, params=dict(params or {}), tau=tau)


def averaging_update(v: np.ndarray, lam: float, sample: np.ndarray) -> np.ndarray:
    """(1 - lam) * v + lam * sample, elementwise; lam must lie in (0, 1]."""
    v = np.asarray(v, dtype=float)
    sample = np.asarray(sample, dtype=float)
    if v.shape != sample.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {sample.shape}")
    if not 0.0 < lam <= 1.0:
        raise ConfigurationError(f"averaging weight must be in (0, 1], got {lam!r}")
    return (1.0 - lam) * v + lam * sample


def _require_finite(k: int, what: str, *arrays):
    total = 0.0
    for a in arrays:
        total += float(np.sum(a))
    if not math.isfinite(total):
        raise NonFiniteError(k, what)


def fast_step(state: SolverState, problem: TwoTimeScaleProblem,
              schedule: StepSchedule, rng: SeededRng) -> SolverState:
    """One iteration of the averaged algorithm.

    Draws exactly one joint sample at the pre-update pair
    (theta_k, omega_k), then applies the decision and estimation
    updates.
    """
    k = state.k
    _require_finite(k, "state", state.theta, state.omega, state.f, state.g)
    F_s, G_s = problem.sample(state.theta, state.omega, rng)
    F_s = np.asarray(F_s, dtype=float)
    G_s = np.asarray(G_s, dtype=float)
    _require_finite(k, "sample", F_s, G_s)
    theta = state.theta - schedule.alpha(k) * state.f
    omega = state.omega - schedule.beta(k) * state.g
    f = averaging_update(state.f, schedule.lam(k), F_s)
    g = averaging_update(state.g, schedule.lam(k), G_s)
    return SolverState(k + 1, theta, omega, f, g)


def standard_step(state: SolverState, problem: TwoTimeScaleProblem,
                  schedule: StepSchedule, rng: SeededRng) -> SolverState:
    """One iteration of the classic two-time-scale baseline.

    theta and omega move along the raw sample drawn at the current
    pair; the (f, g) slots are left untouched.
    """
    k = state.k
    _require_finite(k, "state", state.theta, state.omega)
    F_s, G_s = problem.sample(state.theta, state.omega, rng)
    F_s = np.asarray(F_s, dtype=float)
    G_s = np.asarray(G_s, dtype=float)
    _require_finite(k, "sample", F_s, G_s)
    theta = state.theta - schedule.alpha(k) * F_s
    omega = state.omega - schedule.beta(k) * G_s
    return SolverState(k + 1, theta, omega, state.f, state.g)


@dataclass
class Trace:
    """Recorded (iteration, metrics) series from one run.

    `flagged` is set when the run aborted on a non-finite value;
    `abort_k` then holds the iteration where it was detected.
    """

    ks: np.ndarray
    metrics: dict
    flagged: bool = False
    abort_k: Optional[int] = None
    final_state: Optional[SolverState] = None


class ResidualProbe:
    """Computes tracking residuals and the combined descent value.

    delta_f = f - mean_F(theta, omega), delta_g likewise,
    y = ||omega - omega*(theta)||^2, z = ||theta - theta*||^2,
    x = h(theta) - h*, V = ||delta_f||^2 + ||delta_g||^2 + (z or x) + y.

    Mean operators come from the problem's deterministic mean oracle
    when available; otherwise from `mc_samples` Monte Carlo draws on
    the probe's own stream (never the run's).
    """

    _ORDER = ("z", "x", "y", "grad_norm_sq", "delta_f_sq", "delta_g_sq", "V")

    def __init__(self, problem: TwoTimeScaleProblem, mc_samples: int = 10000,
                 rng: Optional[SeededRng] = None, extra_metrics=None):
        self.problem = problem
        self.mc_samples = int(mc_samples)
        self.rng = rng
        self.extra_metrics = dict(extra_metrics or {})
        ex = problem.exact
        if ex is None:
            ex = ExactAccessors()
        self._ex = ex
        self._has_mean = ex.mean_f is not None and ex.mean_g is not None
        self._has_grad = ex.grad_h is not None or (
            ex.omega_star is not None and ex.mean_f is not None)

    def metric_names(self, include_residuals: bool = True):
        ex = self._ex
        names = []
        if ex.theta_star is not None:
            names.append("z")
        if ex.h is not None and ex.h_star is not None:
            names.append("x")
        if ex.omega_star is not None:
            names.append("y")
        if self._has_grad:
            names.append("grad_norm_sq")
        if include_residuals:
            names += ["delta_f_sq", "delta_g_sq"]
            if ("y" in names) and ("z" in names or "x" in names):
                names.append("V")
        names += list(self.extra_metrics)
        return names

    def _mean_ops(self, theta, omega):
        if self._has_mean:
            return self._ex.mean_f(theta, omega), self._ex.mean_g(theta, omega)
        if self.rng is None:
            raise ConfigurationError(
                "problem has no mean oracle; probe needs its own rng")
        F_acc = np.zeros(self.problem.dim_theta)
        G_acc = np.zeros(self.problem.dim_omega)
        for _ in range(self.mc_samples):
            F_s, G_s = self.problem.sample(theta, omega, self.rng)
            F_acc += F_s
            G_acc += G_s
        return F_acc / self.mc_samples, G_acc / self.mc_samples

    def compute(self, theta, omega, f=None, g=None) -> dict:
        ex = self._ex
        out = {}
        if ex.theta_star is not None:
            d = theta - ex.theta_star
            out["z"] = float(d @ d)
        if ex.h is not None and ex.h_star is not None:
            out["x"] = float(ex.h(theta) - ex.h_star)
        if ex.omega_star is not None:
            omega_star = ex.omega_star(theta)
            d = omega - omega_star
            out["y"] = float(d @ d)
        if self._has_grad:
            grad = (ex.grad_h(theta) if ex.grad_h is not None
                    else ex.mean_f(theta, omega_star))
            out["grad_norm_sq"] = float(grad @ grad)
        if f is not None and g is not None:
            F_bar, G_bar = self._mean_ops(theta, omega)
            df = f - F_bar
            dg = g - G_bar
            out["delta_f_sq"] = float(df @ df)
            out["delta_g_sq"] = float(dg @ dg)
            if "y" in out and ("z" in out or "x" in out):
                out["V"] = (out["delta_f_sq"] + out["delta_g_sq"]
                            + out.get("z", out.get("x")) + out["y"])
        for name, fn in self.extra_metrics.items():
            out[name] = float(fn(theta, omega))
        return out


def run(problem: TwoTimeScaleProblem, algo: str, schedule: StepSchedule,
        n_iters: int, seed, probe: Optional[ResidualProbe] = None,
        stride: int = 1, init_state: Optional[SolverState] = None) -> Trace:
    """Run one replica and record probe metrics every `stride` iterations.

    `seed` may be an int, a tuple of ints, or a SeededRng. The trace is
    a pure function of (problem, algo, schedule, n_iters, seed, stride,
    init_state). A non-finite sample or metric truncates the trace at
    the failure point and flags it.
    """
    if algo not in ("fast", "standard"):
        raise ConfigurationError(f"unknown algorithm {algo!r}")
    if n_iters < 1:
        raise ConfigurationError("n_iters must be >= 1")
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    rng = seed if isinstance(seed, SeededRng) else SeededRng(seed)
    fast = algo == "fast"

    state = init_state if init_state is not None else SolverState.zeros(problem)
    theta = state.theta.copy()
    omega = state.omega.copy()
    f = state.f.copy()
    g = state.g.copy()

    lam_t, alp_t, bet_t = schedule.tabulate(n_iters)
    if fast and (np.any(lam_t <= 0.0) or np.any(lam_t > 1.0)):
        bad = int(np.argmax((lam_t <= 0.0) | (lam_t > 1.0)))
        raise ConfigurationError(
            f"averaging weight {lam_t[bad]!r} at k={bad} outside (0, 1]")

    names = probe.metric_names(include_residuals=fast) if probe else []
    ks = []
    cols = {name: [] for name in names}
    flagged = False
    abort_k = None

    def record(k: int) -> bool:
        if probe is None:
            ks.append(k)
            return True
        vals = probe.compute(theta, omega, f if fast else None,
                             g if fast else None)
        total = 0.0
        for name in names:
            total += vals[name]
        if not math.isfinite(total):
            return False
        ks.append(k)
        for name in names:
            cols[name].append(vals[name])
        return True

    sample = problem.sample
    k = 0
    # divergence is a reported outcome, not an error: overflow inside
    # the update arithmetic must not warn, only flag
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_iters:
            if k % stride == 0 and not record(k):
                flagged, abort_k = True, k
                break
            F_s, G_s = sample(theta, omega, rng)
            if not math.isfinite(float(np.sum(F_s)) + float(np.sum(G_s))):
                flagged, abort_k = True, k
                break
            if fast:
                l = lam_t[k]
                theta = theta - alp_t[k] * f
                omega = omega - bet_t[k] * g
                f = (1.0 - l) * f + l * F_s
                g = (1.0 - l) * g + l * G_s
            else:
                theta = theta - alp_t[k] * F_s
                omega = omega - bet_t[k] * G_s
            k += 1
        if not flagged and not record(n_iters):
            flagged, abort_k = True, n_iters

    trace = Trace(
        ks=np.asarray(ks, dtype=np.int64),
        metrics={name: np.asarray(col) for name, col in cols.items()},
        flagged=flagged,
        abort_k=abort_k,
    )
    if not flagged:
        trace.final_state = SolverState(n_iters, theta, omega, f, g)
    return trace


@dataclass(frozen=True)
class RateFit:
    slope: float
    intercept: float
    r_squared: float
    window: float
    n_points: int


def estimate_rate(ks, values, window: float = 0.5) -> RateFit:
    """Least-squares slope of log(value) against log(k) on the tail.

    `window` is the fraction of the recorded series (counted from the
    end, after dropping k = 0) used for the fit. Raises on nonpositive
    metric values inside the window, naming the first offending k, and
    when fewer than two points remain after dropping k = 0.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if ks.shape != values.shape or ks.ndim != 1:
        raise ValueError("ks and values must be matching vectors")
    if not 0.0 < window <= 1.0:
        raise ValueError(f"window must be in (0, 1], got {window!r}")
    keep = ks >= 1.0
    ks, values = ks[keep], values[keep]
    n = ks.size
    if n < 2:
        raise ValueError(f"rate fit needs 2 points with k >= 1, got {n}")
    m = max(2, int(math.ceil(window * n)))
    ks, values = ks[n - m:], values[n - m:]
    bad = values <= 0.0
    if np.any(bad):
        first = int(ks[np.argmax(bad)])
        raise ValueError(f"nonpositive metric value at k={first}")
    lx = np.log(ks)
    ly = np.log(values)
    A = np.stack([lx, np.ones_like(lx)], axis=1)
    coef, *_ = np.linalg.lstsq(A, ly, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    resid = ly - A @ coef
    ss_res = float(resid @ resid)
    ss_tot = float(((ly - ly.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(slope, intercept, r2, window, int(ks.size))
