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
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
import scipy.linalg

from .numerics import SeededRng, stability_test
from .solver import (ResidualProbe, SolverState, StepSchedule, Trace,
                     TwoTimeScaleProblem, run)

__all__ = [
    "LqrProblem",
    "LqrSystem",
    "UnstableSystemError",
    "cost_J",
    "dare_solve",
    "env_step",
    "gap_probe",
    "goperator_residual",
    "lyapunov_solve",
    "natural_gradient_exact",
    "omega_exact",
    "paper_lqr_3x2",
    "phi_feature",
    "run_lqr",
    "sigma_K",
    "svec",
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

# shared by every call, so never written to
_identity = lru_cache(maxsize=None)(np.eye)


def lyapunov_solve(M, W):
    """Solution P of P = W + M'PM for a discrete-stable M, symmetric W,
    from the linear system (I - M' kron M') vec P = vec W, the Kronecker
    product broadcast (the products of `np.kron`, without its overhead)."""
    M = np.asarray(M, float)
    if not stability_test(M):
        raise UnstableSystemError("matrix fails the stability test")
    n = M.shape[0]
    Mt = M.T
    kron = (Mt[:, None, :, None] * Mt[None, :, None, :]).reshape(n * n, n * n)
    P = np.linalg.solve(_identity(n * n) - kron, np.ravel(W)).reshape(n, n)
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


class LqrProblem(TwoTimeScaleProblem):
    """The single-loop actor-critic as a two-time-scale problem.

    theta = K.ravel() and omega = [J_hat, Omega_hat.ravel()], flattened
    so that the solver's elementwise updates are exactly the matrix
    updates. The oracle is Markov: its env is (x_{k+1}, (x_k, u_k, c_k)),
    the current state and the pending transition. One sample takes one
    environment interaction with the current gain and returns
    F = Omega_uu K - Omega_ux and G = [J_hat - c_k, td * (v v').ravel()],
    with v = [x_k; u_k] and td the temporal-difference residual of the
    joint equation between v and the next pair w = [x_{k+1}; u_{k+1}].
    """

    exact = None

    def __init__(self, system: LqrSystem, K0=None):
        self.system = system
        d1, d2 = system.d1, system.d2
        self.K0 = np.zeros((d2, d1)) if K0 is None else np.asarray(K0, float)
        self.theta0 = self.K0.ravel()
        self.dim_theta = d1 * d2
        self.dim_omega = 1 + (d1 + d2) ** 2
        self._d1, self._n = d1, d1 + d2

    def init_env(self, rng: SeededRng):
        """x0 ~ N(0, I), then one priming interaction with the gain K0."""
        x0 = rng.normal(self.system.d1)
        u0, c0, x1 = env_step(self.system, x0, self.K0, rng)
        return x1, (x0, u0, c0)

    def sample(self, theta, omega, env, rng: SeededRng):
        d1, n = self._d1, self._n
        K = theta.reshape(self.K0.shape)
        J_hat, Om = omega[0], omega[1:].reshape(n, n)
        x, (x_k, u_k, c_k) = env
        u_new, c_new, x_new = env_step(self.system, x, K, rng)
        v = np.concatenate([x_k, u_k])
        w = np.concatenate([x, u_new])
        td = float(v @ (Om @ v) - w @ (Om @ w) + J_hat - c_k)
        F = Om[d1:, d1:] @ K - Om[d1:, :d1]
        G = np.concatenate([[J_hat - c_k], (np.outer(v, v) * td).ravel()])
        return F.ravel(), G, (x_new, (x, u_new, c_new))


def gap_probe(problem: LqrProblem) -> ResidualProbe:
    """Probe recording `gap` = J(K) - J(K_star), `y` = squared critic
    error against (J(K), svec(Omega_K)), and `stabilizing`, all from one
    P_K per row. A non-stabilizing gain reads NaN, which flags the run;
    so `stabilizing` is 1.0 on every recorded row."""
    system = problem.system
    shape, n = (system.d2, system.d1), system.d1 + system.d2

    def ground_truth(theta, omega):
        try:
            J_K, Om = _cost_and_omega(system, theta.reshape(shape))
        except UnstableSystemError:
            return {"gap": math.nan, "y": math.nan, "stabilizing": 0.0}
        crit = np.concatenate([[omega[0] - J_K],
                               svec(omega[1:].reshape(n, n)) - svec(Om)])
        return {"gap": J_K - system.J_star, "y": float(crit @ crit),
                "stabilizing": 1.0}

    return ResidualProbe(problem, extra=ground_truth)


def run_lqr(system: LqrSystem, algo: str, schedule: StepSchedule,
            n_iters: int, seed, stride: int = 1, K0=None) -> Trace:
    """Run one actor-critic replica from gain K0 (default zero) and
    record `gap_probe` metrics every `stride` steps. No projection is
    applied: a non-stabilizing gain flags and truncates the trace."""
    problem = LqrProblem(system, K0)
    return run(problem, algo, schedule, n_iters, seed=seed,
               probe=gap_probe(problem), stride=stride,
               init_state=SolverState.zeros(problem, theta0=problem.theta0))


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
