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

which `run` applies as two joint updates of the stacked columns
[theta; omega] and [f; g].

The classic baseline (`standard`) applies the raw samples directly and
is recovered structurally by lambda_k = 1 (with a one-step lag in which
sample reaches the decision update, so it is implemented separately and
literally). Both run in the one loop of `run`; an oracle driven by a
Markov chain (the actor-critic of `lqr`) carries the chain's state
between samples as its `env`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .numerics import SeededRng

__all__ = [
    "ConfigurationError",
    "RateFit",
    "ResidualProbe",
    "SolverState",
    "StepSchedule",
    "Trace",
    "TwoTimeScaleProblem",
    "custom_schedule",
    "estimate_rate",
    "make_polynomial_schedule",
    "make_sqrt_schedule",
    "run",
]


class ConfigurationError(ValueError):
    """Invalid algorithm configuration (step sizes, iteration counts)."""


class TwoTimeScaleProblem:
    """Joint stochastic oracle over decision and auxiliary variables.

    Subclasses set `dim_theta`, `dim_omega` and implement
    `sample(theta, omega, env, rng) -> (F, G, env)`. One call
    corresponds to one draw of the underlying randomness, used for BOTH
    returned operator values. `env` is the Markov state an oracle
    carries from one sample to the next; `init_env(rng)` draws the
    first one. I.i.d. oracles ignore it and return None.

    `run` advances a batch of replicas together, as the columns X[i] =
    [theta; omega] of a stack X, and asks for their samples through
    `draw` and `apply`. By default `draw` returns None and `apply` calls
    `sample` row by row. An oracle may instead split a sample into a
    per-replica `draw`, which takes the randomness of several samples
    in one block, and an `apply` vectorized across replicas.

    `run` and `ResidualProbe` read what a problem knows of itself from
    these attributes, each None where it does not: the start `theta0`
    (None: zeros), `theta_star`, `h(theta)` and `h_star`,
    `omega_star(theta)`, `grad_h(theta)`, the means `mean_f(theta,
    omega)` and `mean_g(theta, omega)` of the sampled operators, and
    `extra_metrics(theta, omega)`, a dict of further metrics.
    """

    dim_theta: int
    dim_omega: int
    theta0 = theta_star = h = h_star = omega_star = grad_h = None
    mean_f = mean_g = extra_metrics = None

    def init_env(self, rng: SeededRng):
        return None

    def sample(self, theta: np.ndarray, omega: np.ndarray, env,
               rng: SeededRng):
        raise NotImplementedError

    def draw(self, rng: SeededRng, count: int):
        """The randomness of one replica's next `count` samples, one row
        per sample, taken from `rng` in the order `count` calls of
        `sample` would take it; None when `apply` draws for itself."""
        return None

    def apply(self, X: np.ndarray, envs: list, noise: Optional[np.ndarray],
              rngs: list, S: np.ndarray):
        """Fills S (shape of X) with the batch's samples [F; G], bitwise
        those of `sample`: row i at X[i] and envs[i], from noise[i] (a
        row of the replica's `draw` block) or, when `draw` gives None,
        from rngs[i]. Replaces envs[i] with the replica's next env."""
        d = self.dim_theta
        theta, omega, F, G = X[:, :d, 0], X[:, d:, 0], S[:, :d, 0], S[:, d:, 0]
        for i, rng in enumerate(rngs):
            F[i], G[i], envs[i] = self.sample(theta[i], omega[i], envs[i], rng)


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
        """Zero averages at theta0 (by default the problem's) and omega0."""
        d, r = problem.dim_theta, problem.dim_omega
        theta0 = problem.theta0 if theta0 is None else theta0
        theta = np.zeros(d) if theta0 is None else np.asarray(theta0, float).copy()
        omega = np.zeros(r) if omega0 is None else np.asarray(omega0, float).copy()
        return cls(0, theta, omega, np.zeros(d), np.zeros(r))


@dataclass(frozen=True)
class StepSchedule:
    """Evaluates the three step sizes (lambda_k, alpha_k, beta_k).

    `kind` is one of "polynomial", "sqrt", "custom"; `params` echoes
    the defining constants into experiment headers. `tau` is the decay
    offset when the schedule has one (checker uses it to recover the
    schedule constants from iterate values). Polynomial and sqrt
    schedules are tabulated from `params` in closed form; a custom one
    calls its three functions once per k.
    """

    kind: str
    lam_fn: Optional[Callable[[int], float]] = None
    alpha_fn: Optional[Callable[[int], float]] = None
    beta_fn: Optional[Callable[[int], float]] = None
    params: dict = field(default_factory=dict)
    tau: Optional[float] = None

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
        return tuple(np.array([float(fn(k)) for k in range(n)])
                     for fn in (self.lam_fn, self.alpha_fn, self.beta_fn))

    def describe(self) -> str:
        inner = ",".join(f"{k}={v:g}" for k, v in sorted(self.params.items()))
        return f"{self.kind}({inner})" if inner else self.kind


def make_polynomial_schedule(c_lambda: float, c_alpha: float, c_beta: float,
                             tau: float) -> StepSchedule:
    """lambda_k = c_lambda/(k+tau+1), likewise alpha and beta."""
    for name, v in (("c_lambda", c_lambda), ("c_alpha", c_alpha), ("c_beta", c_beta)):
        if not 0.0 < v < math.inf:
            raise ConfigurationError(f"{name} must be finite and positive, got {v!r}")
    if not 1.0 <= tau < math.inf:
        raise ConfigurationError(f"tau must be finite and >= 1, got {tau!r}")
    params = {"c_lambda": float(c_lambda), "c_alpha": float(c_alpha),
              "c_beta": float(c_beta), "tau": float(tau)}
    return StepSchedule(kind="polynomial", params=params, tau=float(tau))


def make_sqrt_schedule(alpha0: float, beta0: float) -> StepSchedule:
    """1/sqrt(k+1) decay with the averaging coefficient fixed at 1/4."""
    if not 0.0 < alpha0 <= beta0 < math.inf:
        raise ConfigurationError(f"need 0 < alpha0 <= beta0 < inf, "
                                 f"got alpha0={alpha0!r} beta0={beta0!r}")
    params = {"alpha0": float(alpha0), "beta0": float(beta0)}
    return StepSchedule(kind="sqrt", params=params)


def custom_schedule(lam_fn, alpha_fn, beta_fn, params=None, tau=None) -> StepSchedule:
    return StepSchedule(kind="custom", lam_fn=lam_fn, alpha_fn=alpha_fn,
                        beta_fn=beta_fn, params=dict(params or {}), tau=tau)


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

    Each metric needs the problem's ground truth for it: without both
    mean operators, the residuals (and V) are not recorded; without
    `grad_h`, grad h(theta) = mean_f(theta, omega_star(theta)), reusing
    the omega_star that `y` evaluates. The problem's `extra_metrics`
    are recorded after these. `compute` alone names the metrics: a
    run's columns are the keys of its first row.
    """

    def __init__(self, problem: TwoTimeScaleProblem):
        # read once here, so that a record looks up no more than it uses
        p = problem
        self._theta_star, self._omega_star = p.theta_star, p.omega_star
        self._h = p.h if p.h_star is not None else None
        self._h_star, self._grad_h = p.h_star, p.grad_h
        self._mean_f, self._mean_g = p.mean_f, p.mean_g
        self._extra = p.extra_metrics
        self._has_residuals = p.mean_f is not None and p.mean_g is not None
        self._has_grad = p.grad_h is not None or (
            p.omega_star is not None and p.mean_f is not None)

    def compute(self, theta, omega, f=None, g=None) -> dict:
        out = {}
        if self._theta_star is not None:
            d = theta - self._theta_star
            out["z"] = float(d @ d)
        if self._h is not None:
            out["x"] = float(self._h(theta) - self._h_star)
        if self._omega_star is not None:
            omega_star = self._omega_star(theta)
            d = omega - omega_star
            out["y"] = float(d @ d)
        if self._has_grad:
            grad = (self._grad_h(theta) if self._grad_h is not None
                    else self._mean_f(theta, omega_star))
            out["grad_norm_sq"] = float(grad @ grad)
        if f is not None and g is not None and self._has_residuals:
            df = f - self._mean_f(theta, omega)
            dg = g - self._mean_g(theta, omega)
            out["delta_f_sq"] = float(df @ df)
            out["delta_g_sq"] = float(dg @ dg)
            if "y" in out and ("z" in out or "x" in out):
                out["V"] = (out["delta_f_sq"] + out["delta_g_sq"]
                            + out.get("z", out.get("x")) + out["y"])
        if self._extra is not None:
            for name, v in self._extra(theta, omega).items():
                out[name] = float(v)
        return out


# Samples per block of `TwoTimeScaleProblem.draw`.
DRAW_BLOCK = 256


def run(problem: TwoTimeScaleProblem, algo: str, schedule: StepSchedule,
        n_iters: int, seed, probe: Optional[ResidualProbe] = None,
        stride: int = 1, init_state: Optional[SolverState] = None,
        runs: Optional[int] = None):
    """Run replicas and record probe metrics every `stride` iterations.

    `seed` may be an int, a tuple of ints, or a SeededRng; the oracle's
    first `env` is drawn from that stream before anything else. Without
    `runs`, one replica runs on `seed` and one Trace comes back. With
    `runs=R`, R replicas advance together as the stacked columns
    X = [theta; omega] and Y = [f; g], replica j on the stream of `seed`
    with its last entry advanced by j, and a list of R traces comes
    back. Every trace is a pure function of (problem, algo, schedule,
    n_iters, its stream, stride, init_state): batching does not change
    it. A non-finite sample entry or metric truncates that replica's
    trace at the failure point and flags it; the other replicas run on.
    """
    if algo not in ("fast", "standard"):
        raise ConfigurationError(f"unknown algorithm {algo!r}")
    if n_iters < 1:
        raise ConfigurationError("n_iters must be >= 1")
    if stride < 1:
        raise ConfigurationError("stride must be >= 1")
    if runs is None:
        rngs = [seed if isinstance(seed, SeededRng) else SeededRng(seed)]
    elif runs < 1 or isinstance(seed, SeededRng):
        raise ConfigurationError("runs needs runs >= 1 and an int or tuple seed")
    else:
        seed = tuple(np.atleast_1d(seed).tolist())
        rngs = [SeededRng(seed[:-1] + (seed[-1] + j,)) for j in range(runs)]
    n_runs = len(rngs)
    fast = algo == "fast"
    d, r = problem.dim_theta, problem.dim_omega

    # X = [theta; omega], Y = [f; g], and the samples S = [F; G]
    state = init_state if init_state is not None else SolverState.zeros(problem)
    shapes = [np.shape(v) for v in (state.theta, state.omega, state.f, state.g)]
    if shapes != [(d,), (r,), (d,), (r,)]:
        raise ValueError("initial state dimensions do not match problem")
    X, Y = (np.tile(np.concatenate(pair, dtype=float)[:, None], (n_runs, 1, 1))
            for pair in ((state.theta, state.omega), (state.f, state.g)))
    S = np.empty_like(X)

    lam_t, alp_t, bet_t = schedule.tabulate(n_iters)
    if fast and (np.any(lam_t <= 0.0) or np.any(lam_t > 1.0)):
        bad = int(np.argmax((lam_t <= 0.0) | (lam_t > 1.0)))
        raise ConfigurationError(
            f"averaging weight {lam_t[bad]!r} at k={bad} outside (0, 1]")

    names = []      # the probe's metrics: the keys of its first row, at k = 0
    ks = [[] for _ in range(n_runs)]
    rows = [[] for _ in range(n_runs)]
    abort_k = [None] * n_runs
    live = list(range(n_runs))      # the replica in each row

    envs = [problem.init_env(rng) for rng in rngs]
    noise = None

    def drop(keep: np.ndarray, k: int) -> bool:
        """Flag the replicas of the rows not kept, at k, and remove those
        rows; False when no row is left."""
        nonlocal X, Y, S, envs, rngs, noise, live
        for i in np.flatnonzero(~keep):
            abort_k[live[i]] = k
        live, envs, rngs = ([x for x, ok in zip(xs, keep) if ok]
                            for xs in (live, envs, rngs))
        X, Y, S = X[keep], Y[keep], S[keep]
        if noise is not None:
            noise = noise[:, keep]
        return bool(live)

    def record(k: int) -> bool:
        """Record each row, dropping those with a non-finite metric."""
        keep = np.ones(len(live), dtype=bool)
        for i, rep in enumerate(live):
            if probe is not None:
                x, y = X[i, :, 0], Y[i, :, 0]
                vals = probe.compute(x[:d], x[d:], y[:d] if fast else None,
                                     y[d:] if fast else None)
                if not names:
                    names.extend(vals)
                row = [vals[name] for name in names]
                if not all(map(math.isfinite, row)):
                    keep[i] = False
                    continue
                rows[rep].append(row)
            ks[rep].append(k)
        return keep.all() or drop(keep, k)

    # divergence is a reported outcome, not an error: overflow inside
    # the update arithmetic must not warn, only flag
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_iters):
            if k % stride == 0 and not record(k):
                break
            j = k % DRAW_BLOCK
            if j == 0:
                # each replica's next block, clipped to the iterations
                # left; the block's lambda_k and columns [alpha_k; beta_k]
                count = min(DRAW_BLOCK, n_iters - k)
                blocks = [problem.draw(rng, count) for rng in rngs]
                noise = None if blocks[0] is None else np.stack(blocks, axis=1)
                lam = lam_t[k:k + count].tolist()
                steps = np.repeat(
                    np.stack((alp_t[k:k + count], bet_t[k:k + count]), axis=1),
                    (d, r), axis=1)[:, None, :, None]
            problem.apply(X, envs, None if noise is None else noise[j], rngs, S)
            if not np.isfinite(S).all():
                if not drop(np.isfinite(S).all(axis=(1, 2)), k):
                    break
            if fast:
                X -= steps[j] * Y
                Y *= 1.0 - lam[j]
                S *= lam[j]
                Y += S
            else:
                X -= steps[j] * S
        else:
            record(n_iters)

    traces = [Trace(ks=np.asarray(ks[rep], dtype=np.int64),
                    metrics=dict(zip(names, np.reshape(
                        rows[rep], (len(rows[rep]), len(names))).T)),
                    flagged=abort_k[rep] is not None, abort_k=abort_k[rep])
              for rep in range(n_runs)]
    for i, rep in enumerate(live):
        x, y = X[i, :, 0], Y[i, :, 0]
        traces[rep].final_state = SolverState(
            n_iters, x[:d].copy(), x[d:].copy(), y[:d].copy(), y[d:].copy())
    return traces if runs is not None else traces[0]


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
