"""Entropy-regularized tabular policy optimization.

Softmax policies over a finite MDP with action rewards in [0, 1] and
an entropy bonus of weight tau_ent. The decision variable is the logit
table; the auxiliary variable is the regularized value function, tied
to the policy through the regularized Bellman equation. Sampled
operators draw one geometric-horizon rollout per call to realize the
discounted state visitation, so one oracle call costs ~1/(1-gamma)
environment steps.

The framework minimizes, so the objective is the negated expected
return h(theta) = -J(theta); reported optimality gaps are positive:
x = J_star - J(theta).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .numerics import ConvergenceError, SeededRng, inverse_cdf, linear_solve
from .solver import ExactAccessors, TwoTimeScaleProblem

__all__ = [
    "RegMdp",
    "RegMdpProblem",
    "exact_J",
    "exact_value",
    "make_regmdp",
    "mean_F",
    "mean_G",
    "sample_F",
    "sample_G",
    "sample_visitation",
    "soft_optimal",
    "softmax_policy",
    "visitation_exact",
]


@dataclass
class RegMdp:
    """Finite MDP with action rewards in [0, 1], entropy weight, and a
    full-support initial distribution."""

    P: np.ndarray      # [S, A, S]
    r: np.ndarray      # [S, A]
    gamma: float
    tau_ent: float
    rho0: np.ndarray   # [S]

    def __post_init__(self):
        self.P = np.asarray(self.P, float)
        self.r = np.asarray(self.r, float)
        self.rho0 = np.asarray(self.rho0, float)
        S, A, S2 = self.P.shape
        if S != S2 or self.r.shape != (S, A):
            raise ValueError("inconsistent P / r shapes")
        if np.any(self.P < 0) or np.max(np.abs(self.P.sum(axis=2) - 1.0)) > 1e-12:
            raise ValueError("P rows must be probability vectors")
        if np.any(self.r < 0.0) or np.any(self.r > 1.0):
            raise ValueError("rewards must lie in [0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if not 0.0 < self.tau_ent < np.inf:
            raise ValueError("tau_ent must be finite and positive")
        if np.any(self.rho0 <= 0.0) or abs(self.rho0.sum() - 1.0) > 1e-9:
            raise ValueError("rho0 must be a full-support distribution")

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    @property
    def n_actions(self) -> int:
        return self.P.shape[1]


def make_regmdp(n_states: int = 5, n_actions: int = 5, gamma: float = 0.9,
                tau_ent: float = 0.1, seed=0) -> RegMdp:
    """Random instance: uniform-entry kernel rows normalized, rewards
    uniform in [0, 1], uniform initial distribution."""
    rng = SeededRng(seed)
    S, A = n_states, n_actions
    P = rng.uniform(S * A * S).reshape(S, A, S)
    P /= P.sum(axis=2, keepdims=True)
    r = rng.uniform(S * A).reshape(S, A)
    return RegMdp(P=P, r=r, gamma=gamma, tau_ent=tau_ent,
                  rho0=np.full(S, 1.0 / S))


def softmax_policy(theta) -> np.ndarray:
    """Rowwise softmax of the logit table, max-subtracted for safety."""
    theta = np.asarray(theta, float)
    z = theta - theta.max(axis=1, keepdims=True)
    ex = np.exp(z)
    return ex / ex.sum(axis=1, keepdims=True)


def _entropy_adjusted_reward(regmdp: RegMdp, policy: np.ndarray) -> np.ndarray:
    log_pi = np.log(policy)
    return np.einsum("sa,sa->s", policy, regmdp.r - regmdp.tau_ent * log_pi)


def _policy_kernel(regmdp: RegMdp, policy: np.ndarray) -> np.ndarray:
    return np.einsum("sap,sa->sp", regmdp.P, policy)


def exact_value(regmdp: RegMdp, policy) -> np.ndarray:
    """Regularized value function: (I - gamma P_pi) V = r_pi + entropy."""
    policy = np.asarray(policy, float)
    P_pi = _policy_kernel(regmdp, policy)
    r_tilde = _entropy_adjusted_reward(regmdp, policy)
    return linear_solve(np.eye(regmdp.n_states) - regmdp.gamma * P_pi, r_tilde)


def exact_J(regmdp: RegMdp, theta) -> float:
    """Expected regularized return from the initial distribution."""
    V = exact_value(regmdp, softmax_policy(theta))
    return float(regmdp.rho0 @ V)


def visitation_exact(regmdp: RegMdp, policy) -> np.ndarray:
    """Discounted state visitation (normalized), by linear solve."""
    policy = np.asarray(policy, float)
    P_pi = _policy_kernel(regmdp, policy)
    return linear_solve(np.eye(regmdp.n_states) - regmdp.gamma * P_pi.T,
                        (1.0 - regmdp.gamma) * regmdp.rho0)


def _rollout(gamma, cum_rho0, cum_pi, cum_P, rng: SeededRng):
    """Geometric-horizon rollout from rho0; returns (s, a, s').

    Per chain step: one stop-uniform, then action and successor draws.
    The stop state supplies the sampled transition.
    """
    s = inverse_cdf(cum_rho0, float(rng.uniform()))
    while float(rng.uniform()) >= 1.0 - gamma:
        a = inverse_cdf(cum_pi[s], float(rng.uniform()))
        s = inverse_cdf(cum_P[s, a], float(rng.uniform()))
    a = inverse_cdf(cum_pi[s], float(rng.uniform()))
    sp = inverse_cdf(cum_P[s, a], float(rng.uniform()))
    return s, a, sp


def sample_visitation(regmdp: RegMdp, theta, rng: SeededRng):
    """One (s, a, s') with s from the discounted visitation of the
    softmax policy, a from the policy, s' from the kernel."""
    policy = softmax_policy(theta)
    return _rollout(regmdp.gamma, np.cumsum(regmdp.rho0),
                    np.cumsum(policy, axis=1), np.cumsum(regmdp.P, axis=2),
                    rng)


def _f_from_transition(regmdp, policy, log_pi, omega, transition):
    s, a, sp = transition
    tau = regmdp.tau_ent
    delta = (regmdp.r[s, a] - tau * log_pi[s, a]
             + regmdp.gamma * omega[sp] - omega[s])
    scale = -delta / (1.0 - regmdp.gamma)
    F = np.zeros_like(policy)
    F[s, :] = -scale * policy[s, :]
    F[s, a] += scale
    return F


def sample_F(regmdp: RegMdp, theta, omega, transition) -> np.ndarray:
    """Sampled negated policy-gradient term, as an [S, A] table.

    delta = r(s,a) - tau log pi(a|s) + gamma omega(s') - omega(s);
    returns -(1/(1-gamma)) delta * dlog pi(a|s)/dtheta, which is the
    gradient sample of the minimized objective -J.
    """
    policy = softmax_policy(theta)
    return _f_from_transition(regmdp, policy, np.log(policy),
                              np.asarray(omega, float), transition)


def _g_from_transition(regmdp, log_pi, omega, transition):
    s, a, sp = transition
    G = np.zeros(regmdp.n_states)
    G[s] = (omega[s] - regmdp.r[s, a] + regmdp.tau_ent * log_pi[s, a]
            - regmdp.gamma * omega[sp])
    return G


def sample_G(regmdp: RegMdp, theta, omega, transition) -> np.ndarray:
    """Negated regularized Bellman residual localized at s (times e_s)."""
    log_pi = np.log(softmax_policy(theta))
    return _g_from_transition(regmdp, log_pi, omega, transition)


def mean_F(regmdp: RegMdp, theta, omega) -> np.ndarray:
    """Exact expectation of sample_F under the visitation measure."""
    policy = softmax_policy(theta)
    log_pi = np.log(policy)
    omega = np.asarray(omega, float)
    d = visitation_exact(regmdp, policy)
    tau = regmdp.tau_ent
    e_delta = (regmdp.r - tau * log_pi
               + regmdp.gamma * np.einsum("sap,p->sa", regmdp.P, omega)
               - omega[:, None])
    coef = d[:, None] * policy * e_delta
    F = coef - coef.sum(axis=1, keepdims=True) * policy
    return -F / (1.0 - regmdp.gamma)


def mean_G(regmdp: RegMdp, theta, omega) -> np.ndarray:
    """Exact expectation of sample_G: D_d [(I - gamma P_pi) omega - r_pi]."""
    policy = softmax_policy(theta)
    omega = np.asarray(omega, float)
    d = visitation_exact(regmdp, policy)
    P_pi = _policy_kernel(regmdp, policy)
    r_tilde = _entropy_adjusted_reward(regmdp, policy)
    return d * (omega - regmdp.gamma * (P_pi @ omega) - r_tilde)


def soft_optimal(regmdp: RegMdp, tol: float = 1e-12, max_iters: int = 1000000):
    """Soft value iteration: (V_star, pi_star, J_star).

    V(s) <- tau * log sum_a exp((r(s,a) + gamma sum P V) / tau),
    iterated to sup-norm tolerance; pi_star is the softmax of the soft
    action values over tau. Raises ConvergenceError after `max_iters`
    sweeps.
    """
    tau = regmdp.tau_ent
    V = np.zeros(regmdp.n_states)
    for _ in range(max_iters):
        Q = regmdp.r + regmdp.gamma * np.einsum("sap,p->sa", regmdp.P, V)
        V_next = tau * logsumexp(Q / tau, axis=1)
        if np.abs(V_next - V).max() <= tol:
            V = V_next
            break
        V = V_next
    else:
        raise ConvergenceError(
            f"soft value iteration did not converge in {max_iters} iterations")
    Q = regmdp.r + regmdp.gamma * np.einsum("sap,p->sa", regmdp.P, V)
    pi_star = softmax_policy(Q / tau)
    return V, pi_star, float(regmdp.rho0 @ V)


class RegMdpProblem(TwoTimeScaleProblem):
    """Adapter: theta is the flattened logit table, omega the value
    vector. One oracle call = one geometric rollout."""

    def __init__(self, regmdp: RegMdp):
        self.regmdp = regmdp
        S, A = regmdp.n_states, regmdp.n_actions
        self._shape = (S, A)
        self.dim_theta = S * A
        self.dim_omega = S
        self._cum_rho0 = np.cumsum(regmdp.rho0)
        self._cum_P = np.cumsum(regmdp.P, axis=2)
        self.J_star = J_star = soft_optimal(regmdp)[2]
        self.exact = ExactAccessors(
            omega_star=lambda th: exact_value(regmdp, softmax_policy(th.reshape(S, A))),
            theta_star=None,
            h=lambda th: -exact_J(regmdp, th.reshape(S, A)),
            h_star=-J_star,
            mean_f=lambda th, om: mean_F(regmdp, th.reshape(S, A), om).ravel(),
            mean_g=lambda th, om: mean_G(regmdp, th.reshape(S, A), om),
        )

    def sample(self, theta_flat, omega, env, rng: SeededRng):
        regmdp = self.regmdp
        theta = theta_flat.reshape(self._shape)
        policy = softmax_policy(theta)
        log_pi = np.log(policy)
        transition = _rollout(regmdp.gamma, self._cum_rho0,
                              np.cumsum(policy, axis=1), self._cum_P, rng)
        F = _f_from_transition(regmdp, policy, log_pi, omega, transition)
        return (F.ravel(), _g_from_transition(regmdp, log_pi, omega, transition),
                None)
