"""Single-loop actor-critic policy optimization for linear-quadratic control.

The actor maintains a feedback gain K and descends the preconditioned
cost gradient 2(R + B'P_K B)K - 2 B'P_K A. The critic estimates the
average cost J(K) and the curvature matrix

    Omega_K = [[Q + A'P_K A,  A'P_K B ],
               [B'P_K A,      R + B'P_K B]],

whose blocks supply the actor direction, from a single online
trajectory. (J(K), svec(Omega_K)) jointly solve a linear equation in
expectation over stationary transitions:

    E[M_{x,u,x',u'}] [J; svec(Omega)] = E[c_{x,u}],
    M = [[1, 0], [phi(x,u), phi(x,u)(phi(x,u) - phi(x',u'))']],

and the critic's stochastic update uses the temporal-difference
residual of exactly this equation,

    v'Omega_hat v - w'Omega_hat w + J_hat - c,   v = [x;u], w = [x';u'],

weighted by the feature outer product v v'. (A one-sample update
without the next-pair term and with opposite sign is not a root of the
equation above and diverges numerically; see the module tests.)

Exact solvers (direct Lyapunov and Riccati solves, stationary
covariances) provide ground truth for costs, gradients, and the critic
target, used by probes and tests only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

from .numerics import SeededRng, stability_test
from .solver import StepSchedule, Trace

__all__ = [
    "ActorCriticState",
    "Controller",
    "LqrSystem",
    "UnstableSystemError",
    "alg2_step",
    "cost_J",
    "dare_solve",
    "env_step",
    "goperator_residual",
    "initial_actor_critic_state",
    "lyapunov_solve",
    "make_controller",
    "natural_gradient_exact",
    "omega_exact",
    "paper_lqr_3x2",
    "phi_feature",
    "run_lqr",
    "sigma_K",
    "standard_actor_critic_step",
    "svec",
    "SYSTEM_PRESETS",
]


class UnstableSystemError(RuntimeError):
    """A solve or run met a non-stabilizing gain."""


def _check_spd(name, M):
    M = np.asarray(M, float)
    if np.abs(M - M.T).max() > 1e-10:
        raise ValueError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        raise ValueError(f"{name} must be positive definite")
    return 0.5 * (M + M.T)


def _psd_factor(M):
    """Deterministic factor L with L L' = M for symmetric PSD M."""
    M = np.asarray(M, float)
    if np.abs(M).max() == 0.0:
        return np.zeros_like(M)
    try:
        return np.linalg.cholesky(M)
    except np.linalg.LinAlgError:
        w, V = np.linalg.eigh(0.5 * (M + M.T))
        if w.min() < -1e-10:
            raise ValueError("noise covariance must be positive semidefinite")
        return V * np.sqrt(np.clip(w, 0.0, None))


@dataclass
class LqrSystem:
    """Time-invariant linear dynamics with quadratic stage cost.

    x' = A x + B u + w, w ~ N(0, Psi); exploration noise of scale
    `sigma` enters through the control, so the effective state-noise
    covariance is Psi_sigma = Psi + sigma^2 B B'.
    """

    A: np.ndarray
    B: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    Psi: np.ndarray
    sigma: float = 0.1

    def __post_init__(self):
        self.A = np.asarray(self.A, float)
        self.B = np.asarray(self.B, float)
        self.Q = _check_spd("Q", self.Q)
        self.R = _check_spd("R", self.R)
        self.Psi = np.asarray(self.Psi, float)
        if self.sigma < 0.0:
            raise ValueError("sigma must be nonnegative")
        self._psi_factor = _psd_factor(self.Psi)

    @property
    def d1(self) -> int:
        return self.A.shape[0]

    @property
    def d2(self) -> int:
        return self.B.shape[1]

    @property
    def Psi_sigma(self) -> np.ndarray:
        return self.Psi + self.sigma**2 * (self.B @ self.B.T)

    @cached_property
    def J_star(self) -> float:
        """Optimal average cost J(K_star), solved once, on first use."""
        return cost_J(self, dare_solve(self)[1])


def paper_lqr_3x2(psi_scale: float = 0.01, sigma: float = 0.1) -> LqrSystem:
    """The benchmark 3-state / 2-control system used in the experiments."""
    A = np.array([[0.5, 0.01, 0.0],
                  [0.01, 0.5, 0.01],
                  [0.0, 0.01, 0.5]])
    B = np.array([[1.0, 0.1],
                  [0.0, 0.1],
                  [0.0, 0.1]])
    return LqrSystem(A=A, B=B, Q=np.eye(3), R=np.eye(2),
                     Psi=psi_scale * np.eye(3), sigma=sigma)


SYSTEM_PRESETS = {"paper-lqr-3x2": paper_lqr_3x2}


@dataclass
class Controller:
    """A feedback gain with its stability flag for the given system."""

    K: np.ndarray
    stabilizing: bool


def make_controller(system: LqrSystem, K) -> Controller:
    K = np.asarray(K, float)
    return Controller(K=K, stabilizing=stability_test(system.A - system.B @ K))


# --- symmetric vectorization -------------------------------------------------

_SQRT2 = math.sqrt(2.0)


@lru_cache(maxsize=None)
def _svec_indices(n: int):
    cols, rows = np.tril_indices(n)
    return rows, cols, np.where(rows == cols, 1.0, _SQRT2)


def svec(M) -> np.ndarray:
    """Vectorize a symmetric matrix, off-diagonals weighted by sqrt(2).

    Scan order is (0,0), (0,1), (1,1), (0,2), (1,2), (2,2), ... so
    that <svec(M), svec(N)> = trace(M N) for symmetric M, N.
    """
    M = np.asarray(M, float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("svec expects a square matrix")
    if np.abs(M - M.T).max() > 1e-10:
        raise ValueError("svec expects a symmetric matrix (tol 1e-10)")
    rows, cols, w = _svec_indices(M.shape[0])
    return M[rows, cols] * w


def phi_feature(x, u) -> np.ndarray:
    """svec of the outer product of the stacked state-control vector."""
    v = np.concatenate([np.atleast_1d(np.asarray(x, float)),
                        np.atleast_1d(np.asarray(u, float))])
    rows, cols, w = _svec_indices(v.size)
    return v[rows] * v[cols] * w


# --- exact solvers ------------------------------------------------------------

def lyapunov_solve(M, W):
    """Solution P of P = W + M'PM for a discrete-stable M, symmetric W,
    from the linear system (I - M' kron M') vec P = vec W."""
    M = np.asarray(M, float)
    if not stability_test(M):
        raise UnstableSystemError("matrix fails the stability test")
    n = M.shape[0]
    P = np.linalg.solve(np.eye(n * n) - np.kron(M.T, M.T),
                        np.ravel(W)).reshape(n, n)
    return 0.5 * (P + P.T)


def _cost_and_omega(system: LqrSystem, K):
    """(J(K), Omega_K) from one P_K, Omega_K = [A B]'P_K[A B] + diag(Q, R).

    Raises UnstableSystemError unless A - BK passes the stability test.
    """
    P = lyapunov_solve(system.A - system.B @ K, system.Q + K.T @ system.R @ K)
    d1, AB = system.d1, np.hstack([system.A, system.B])
    Om = AB.T @ P @ AB
    Om[:d1, :d1] += system.Q
    Om[d1:, d1:] += system.R
    return (float(np.trace(P @ system.Psi_sigma)
                  + system.sigma**2 * np.trace(system.R)), Om)


def cost_J(system: LqrSystem, K) -> float:
    """Average cost trace(P_K Psi_sigma) + sigma^2 trace(R)."""
    return _cost_and_omega(system, np.asarray(K, float))[0]


def natural_gradient_exact(system: LqrSystem, K) -> np.ndarray:
    """2 (R + B'P_K B) K - 2 B'P_K A, from the blocks of Omega_K."""
    K = np.asarray(K, float)
    d1, Om = system.d1, _cost_and_omega(system, K)[1]
    return 2.0 * (Om[d1:, d1:] @ K - Om[d1:, :d1])


def sigma_K(system: LqrSystem, K) -> np.ndarray:
    """Stationary state covariance under u = -Kx plus exploration."""
    K = np.asarray(K, float)
    M = system.A - system.B @ K
    return lyapunov_solve(M.T, system.Psi_sigma)


def omega_exact(system: LqrSystem, K) -> np.ndarray:
    """The curvature matrix Omega_K assembled from P_K."""
    return _cost_and_omega(system, np.asarray(K, float))[1]


def dare_solve(system: LqrSystem):
    """Riccati solution and the optimal gain (P_star, K_star)."""
    A, B, R = system.A, system.B, system.R
    P = scipy.linalg.solve_discrete_are(A, B, system.Q, R)
    return P, np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)


# --- simulation and the online algorithm --------------------------------------

def env_step(system: LqrSystem, x, K, rng: SeededRng):
    """One environment interaction: control, stage cost, next state.

    u = -Kx + sigma * normal, x' = Ax + Bu + Psi-noise. Control noise
    is drawn before state noise.
    """
    x = np.asarray(x, float)
    u = -(K @ x) + system.sigma * rng.normal(system.d2)
    cost = float(x @ (system.Q @ x) + u @ (system.R @ u))
    x_next = system.A @ x + system.B @ u + system._psi_factor @ rng.normal(system.d1)
    return u, cost, x_next


@dataclass
class ActorCriticState:
    """Actor gain, critic estimates, operator averages, and the pending
    transition consumed by the next update."""

    k: int
    K: np.ndarray
    J_hat: float
    Omega_hat: np.ndarray
    f: np.ndarray
    gJ: float
    gOmega: np.ndarray
    x: np.ndarray                      # current state x_{k+1}
    pending: tuple                     # (x_k, u_k, c_k)


def initial_actor_critic_state(system: LqrSystem, rng: SeededRng,
                               K0=None) -> ActorCriticState:
    """Zero critic and averages; x0 ~ N(0, I); one priming interaction."""
    d1, d2 = system.d1, system.d2
    K0 = np.zeros((d2, d1)) if K0 is None else np.asarray(K0, float).copy()
    x0 = rng.normal(d1)
    u0, c0, x1 = env_step(system, x0, K0, rng)
    n = d1 + d2
    return ActorCriticState(
        k=0, K=K0, J_hat=0.0, Omega_hat=np.zeros((n, n)),
        f=np.zeros((d2, d1)), gJ=0.0, gOmega=np.zeros((n, n)),
        x=x1, pending=(x0, u0, c0),
    )


def _critic_samples(system, state, u_new):
    """Operator samples at the pre-update variables.

    Returns (f_s, gJ_s, gOmega_s) where gOmega_s is the feature outer
    product weighted by the temporal-difference residual of the joint
    cost/curvature equation; the next pair is (x_{k+1}, u_{k+1}).
    """
    d1 = system.d1
    x_k, u_k, c_k = state.pending
    v = np.concatenate([x_k, u_k])
    w = np.concatenate([state.x, u_new])
    Om = state.Omega_hat
    td = float(v @ (Om @ v) - w @ (Om @ w) + state.J_hat - c_k)
    f_s = Om[d1:, d1:] @ state.K - Om[d1:, :d1]
    gJ_s = state.J_hat - c_k
    gOmega_s = np.outer(v, v) * td
    return f_s, gJ_s, gOmega_s


def alg2_step(state: ActorCriticState, system: LqrSystem,
              schedule: StepSchedule, rng: SeededRng) -> ActorCriticState:
    """One iteration of the averaged single-loop actor-critic.

    Takes exactly one environment interaction (with the pre-update
    gain), then applies the decision updates with the old averages and
    refreshes the averages with operator samples evaluated at the
    pre-update variables and the pending transition.
    """
    k = state.k
    u_new, c_new, x_new = env_step(system, state.x, state.K, rng)
    f_s, gJ_s, gOmega_s = _critic_samples(system, state, u_new)
    lam = schedule.lam(k)
    alpha = schedule.alpha(k)
    beta = schedule.beta(k)
    if not 0.0 < lam <= 1.0:
        raise ValueError(f"averaging weight {lam!r} outside (0, 1]")
    K = state.K - alpha * state.f
    J_hat = state.J_hat - beta * state.gJ
    Omega_hat = state.Omega_hat - beta * state.gOmega
    f = (1.0 - lam) * state.f + lam * f_s
    gJ = (1.0 - lam) * state.gJ + lam * gJ_s
    gOmega = (1.0 - lam) * state.gOmega + lam * gOmega_s
    new = ActorCriticState(k + 1, K, J_hat, Omega_hat, f, gJ, gOmega,
                           x=x_new, pending=(state.x, u_new, c_new))
    total = float(K.sum() + J_hat + Omega_hat.sum() + f.sum() + gJ
                  + gOmega.sum())
    if not math.isfinite(total):
        raise UnstableSystemError(f"non-finite actor-critic state at k={k}")
    return new


def standard_actor_critic_step(state: ActorCriticState, system: LqrSystem,
                               schedule: StepSchedule,
                               rng: SeededRng) -> ActorCriticState:
    """Classic baseline: decision variables move along the raw operator
    samples; the (f, gJ, gOmega) slots stay untouched."""
    k = state.k
    u_new, c_new, x_new = env_step(system, state.x, state.K, rng)
    f_s, gJ_s, gOmega_s = _critic_samples(system, state, u_new)
    alpha = schedule.alpha(k)
    beta = schedule.beta(k)
    K = state.K - alpha * f_s
    J_hat = state.J_hat - beta * gJ_s
    Omega_hat = state.Omega_hat - beta * gOmega_s
    new = ActorCriticState(k + 1, K, J_hat, Omega_hat, state.f, state.gJ,
                           state.gOmega, x=x_new,
                           pending=(state.x, u_new, c_new))
    if not math.isfinite(float(K.sum() + J_hat + Omega_hat.sum())):
        raise UnstableSystemError(f"non-finite actor-critic state at k={k}")
    return new


def run_lqr(system: LqrSystem, algo: str, schedule: StepSchedule,
            n_iters: int, seed, stride: int = 1, K0=None) -> Trace:
    """Run one actor-critic replica and probe it every `stride` steps.

    Probed metrics: `gap` = J(K_k) - J(K_star), `y` = squared critic
    error against (J(K_k), svec(Omega_{K_k})), and `stabilizing`
    (always 1.0 on recorded rows). A non-stabilizing gain or non-finite
    state flags and truncates the trace; no projection is applied.
    """
    if algo not in ("fast", "standard"):
        raise ValueError(f"unknown algorithm {algo!r}")
    if n_iters < 1 or stride < 1:
        raise ValueError("n_iters and stride must be >= 1")
    rng = seed if isinstance(seed, SeededRng) else SeededRng(seed)
    J_star = system.J_star
    state = initial_actor_critic_state(system, rng, K0=K0)
    step = alg2_step if algo == "fast" else standard_actor_critic_step

    names = ("gap", "y", "stabilizing")
    ks, cols = [], {n: [] for n in names}
    flagged, abort_k = False, None

    def record(k):
        try:
            J_K, Om = _cost_and_omega(system, state.K)
        except UnstableSystemError:
            return False
        crit = np.concatenate([[state.J_hat - J_K],
                               svec(state.Omega_hat) - svec(Om)])
        vals = (J_K - J_star, float(crit @ crit), 1.0)
        if not np.all(np.isfinite(vals)):
            return False
        ks.append(k)
        for n, v in zip(names, vals):
            cols[n].append(v)
        return True

    k = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while k < n_iters:
            if k % stride == 0 and not record(k):
                flagged, abort_k = True, k
                break
            try:
                state = step(state, system, schedule, rng)
            except UnstableSystemError:
                flagged, abort_k = True, k
                break
            k += 1
        if not flagged and not record(n_iters):
            flagged, abort_k = True, n_iters
    return Trace(ks=np.asarray(ks, np.int64),
                 metrics={n: np.asarray(c) for n, c in cols.items()},
                 flagged=flagged, abort_k=abort_k)


def goperator_residual(system: LqrSystem, K, n_samples: int,
                       rng: SeededRng) -> float:
    """Monte Carlo residual of the joint cost/curvature equation.

    Draws i.i.d. stationary transitions (x ~ N(0, Sigma_K)), averages
    M_{x,u,x',u'} [J(K); svec(Omega_K)] - c_{x,u}, and returns the
    euclidean norm of the average. Shrinks as O(1/sqrt(n_samples)) when
    (J(K), Omega_K) solve the equation.
    """
    K = np.asarray(K, float)
    d1, d2 = system.d1, system.d2
    Sig = sigma_K(system, K)
    L_sig = _psd_factor(Sig)
    J_K = cost_J(system, K)
    s_omega = svec(omega_exact(system, K))
    m = s_omega.size

    n = int(n_samples)
    X = (L_sig @ rng.normal(d1 * n).reshape(n, d1).T).T
    U = -(X @ K.T) + system.sigma * rng.normal(d2 * n).reshape(n, d2)
    W = rng.normal(d1 * n).reshape(n, d1) @ system._psi_factor.T
    Xp = X @ system.A.T + U @ system.B.T + W
    Up = -(Xp @ K.T) + system.sigma * rng.normal(d2 * n).reshape(n, d2)

    V = np.concatenate([X, U], axis=1)
    Vp = np.concatenate([Xp, Up], axis=1)
    rows, cols, wts = _svec_indices(d1 + d2)
    Phi = V[:, rows] * V[:, cols] * wts
    Phip = Vp[:, rows] * Vp[:, cols] * wts
    costs = np.einsum("ni,ij,nj->n", X, system.Q, X) \
        + np.einsum("ni,ij,nj->n", U, system.R, U)

    top = J_K - costs.mean()
    bottom = (Phi.mean(axis=0) * J_K
              + (Phi * ((Phi - Phip) @ s_omega)[:, None]).mean(axis=0)
              - (Phi * costs[:, None]).mean(axis=0))
    resid = np.concatenate([[top], bottom])
    assert resid.size == 1 + m
    return float(np.sqrt(resid @ resid))
