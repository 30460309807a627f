"""Off-policy policy evaluation with linear features.

Random tabular MDP instances with a reverse-engineered reward so the
target value function is exactly representable, stochastic oracles for
gradient-corrected temporal difference learning (two coupled
d-dimensional variables), a single-variable TD(0) baseline, and exact
ground-truth solvers for the fixed point, the auxiliary solution, and
the projected Bellman error.

Sampling is i.i.d.: each transition draws the state from the exact
stationary distribution of the behavior policy, the action from the
behavior policy, and the successor from the transition kernel. Target
policy expectations are recovered with per-sample importance ratios.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numerics import (SeededRng, SingularMatrixError, inverse_cdf,
                       linear_solve)
from .solver import (ResidualProbe, StepSchedule, Trace, TwoTimeScaleProblem,
                     run)

__all__ = [
    "LinearFeatures",
    "TabularMdp",
    "Td0Problem",
    "TdcInstance",
    "TdcProblem",
    "bellman_reward",
    "dump_instance",
    "exact_mspbe",
    "exact_omega_star",
    "generate_instance",
    "load_instance",
    "run_td0",
    "sample_transition",
    "sample_transitions",
    "stationary_distribution",
    "td0_sample",
    "tdc_sample",
]


@dataclass
class TabularMdp:
    """Finite MDP with per-state reward and discounting."""

    P: np.ndarray        # [S, A, S] transition probabilities
    r_state: np.ndarray  # [S] reward attached to the departing state
    gamma: float

    def __post_init__(self):
        self.P = np.asarray(self.P, float)
        self.r_state = np.asarray(self.r_state, float)
        S, A, S2 = self.P.shape
        if S != S2:
            raise ValueError("P must have shape [S, A, S]")
        if np.any(self.P < 0.0):
            raise ValueError("negative transition probability")
        if np.max(np.abs(self.P.sum(axis=2) - 1.0)) > 1e-12:
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")

    @property
    def n_states(self) -> int:
        return self.P.shape[0]

    @property
    def n_actions(self) -> int:
        return self.P.shape[1]


@dataclass
class LinearFeatures:
    """Row-per-state feature matrix, d <= S."""

    Phi: np.ndarray  # [S, d]

    def __post_init__(self):
        self.Phi = np.asarray(self.Phi, float)
        if not np.all(np.isfinite(self.Phi)):
            raise ValueError("features must be finite")
        S, d = self.Phi.shape
        if d > S:
            raise ValueError("feature dimension exceeds state count")


def stationary_distribution(P_state: np.ndarray) -> np.ndarray:
    """Stationary distribution of a row-stochastic state chain.

    Solves the fixed-point system directly (last equation replaced by
    the normalization constraint); chains without a unique solution
    fall back to the power method from the uniform distribution.
    """
    S = P_state.shape[0]
    A = np.eye(S) - P_state.T
    A[-1, :] = 1.0
    rhs = np.zeros(S)
    rhs[-1] = 1.0
    try:
        mu = linear_solve(A, rhs)
    except SingularMatrixError:
        mu = np.full(S, 1.0 / S) @ np.linalg.matrix_power(P_state, 1 << 20)
        if np.abs(mu @ P_state - mu).max() > 1e-9:
            raise ValueError("power method found no stationary distribution")
    if mu.min() < -1e-10:
        raise ValueError("chain has no nonnegative stationary solution")
    mu = np.clip(mu, 0.0, None)
    return mu / mu.sum()


def bellman_reward(P_pi: np.ndarray, gamma: float, V: np.ndarray) -> np.ndarray:
    """Per-state reward making V the fixed point: R = (I - gamma P_pi) V."""
    return V - gamma * (P_pi @ V)


class TdcInstance:
    """A policy-evaluation instance with exact ground truth.

    Holds the MDP, features, the target/behavior policy pair, the
    representable fixed point theta_star, and the behavior stationary
    distribution mu_b. Derived expectation matrices (all under mu_b
    with importance weighting on target-dependent terms) are cached:

        cov      = Phi' D Phi
        a_mat    = Phi' D (I - gamma P_pi) Phi
        b_vec    = Phi' D R
        next_cov = (P_pi Phi)' D Phi

    Mean operators then read
        mean_F(theta, omega) = -2 (b_vec - a_mat theta)
                               + 2 gamma next_cov omega
        mean_G(theta, omega) = cov omega - (b_vec - a_mat theta).
    """

    def __init__(self, mdp: TabularMdp, features: LinearFeatures,
                 pi_target: np.ndarray, pi_behavior: np.ndarray,
                 theta_star: np.ndarray, seed=None):
        self.mdp = mdp
        self.features = features
        self.pi_target = np.asarray(pi_target, float)
        self.pi_behavior = np.asarray(pi_behavior, float)
        self.theta_star = np.asarray(theta_star, float)
        self.seed = seed
        S, A = mdp.n_states, mdp.n_actions
        for name, pi in (("target", self.pi_target), ("behavior", self.pi_behavior)):
            if pi.shape != (S, A) or np.any(pi < 0.0):
                raise ValueError(f"bad {name} policy")
            if np.max(np.abs(pi.sum(axis=1) - 1.0)) > 1e-9:
                raise ValueError(f"{name} policy rows must sum to 1")
        if np.any(self.pi_behavior <= 0.0):
            raise ValueError("behavior policy must have full support")

        Phi = features.Phi
        self.P_pi = np.einsum("sap,sa->sp", mdp.P, self.pi_target)
        self.P_b = np.einsum("sap,sa->sp", mdp.P, self.pi_behavior)
        self.mu_b = stationary_distribution(self.P_b)
        self.mu_pi = stationary_distribution(self.P_pi)
        self.rho = self.pi_target / self.pi_behavior

        self._cum_mu = np.cumsum(self.mu_b)
        self._cum_pib = np.cumsum(self.pi_behavior, axis=1)
        self._cum_P = np.cumsum(mdp.P, axis=2)

        D = self.mu_b[:, None] * Phi
        self.cov = Phi.T @ D
        self.next_cov = (self.P_pi @ Phi).T @ D
        self.a_mat = self.cov - mdp.gamma * self.next_cov.T
        self.b_vec = D.T @ mdp.r_state

        # target-weighted counterparts, used only for reporting
        Dp = self.mu_pi[:, None] * Phi
        self._cov_pi = Phi.T @ Dp
        self._a_pi = self._cov_pi - mdp.gamma * ((self.P_pi @ Phi).T @ Dp).T
        self._b_pi = Dp.T @ mdp.r_state

    # Inverses of the two covariances, built on first use: an instance
    # with rank-deficient features can still be sampled from.
    _cov_inv = cached_property(lambda self: _covariance_inverse(self.cov))
    _cov_pi_inv = cached_property(
        lambda self: _covariance_inverse(self._cov_pi))

    def mean_f(self, theta, omega):
        resid = self.b_vec - self.a_mat @ theta
        return -2.0 * resid + 2.0 * self.mdp.gamma * (self.next_cov @ omega)

    def mean_g(self, theta, omega):
        return self.cov @ omega - (self.b_vec - self.a_mat @ theta)

    def bellman_residual(self) -> float:
        V = self.features.Phi @ self.theta_star
        r = self.mdp.r_state - bellman_reward(self.P_pi, self.mdp.gamma, V)
        return float(np.max(np.abs(r)))


def generate_instance(n_states: int, n_actions: int, d: int, gamma: float,
                      seed) -> TdcInstance:
    """Random instance with a representable value function.

    Draw order is fixed: transition kernel (uniform entries, rows
    normalized), target-policy logits (standard normal, softmax rows),
    features (standard normal), theta_star (standard normal). The
    behavior policy is uniform. The per-state reward is reverse
    engineered so Phi theta_star solves the target Bellman equation.
    """
    for key, n in (("states", n_states), ("actions", n_actions), ("dim", d)):
        if n < 1:
            raise ValueError(f"{key} must be >= 1")
    if d > n_states:
        raise ValueError("need d <= n_states")
    rng = SeededRng(seed)
    S, A = n_states, n_actions
    P = rng.uniform(S * A * S).reshape(S, A, S)
    P /= P.sum(axis=2, keepdims=True)
    pi_behavior = np.full((S, A), 1.0 / A)
    logits = rng.normal(S * A).reshape(S, A)
    ex = np.exp(logits - logits.max(axis=1, keepdims=True))
    pi_target = ex / ex.sum(axis=1, keepdims=True)
    Phi = rng.normal(S * d).reshape(S, d)
    theta_star = rng.normal(d)

    P_pi = np.einsum("sap,sa->sp", P, pi_target)
    R = bellman_reward(P_pi, gamma, Phi @ theta_star)
    mdp = TabularMdp(P=P, r_state=R, gamma=gamma)
    return TdcInstance(mdp, LinearFeatures(Phi), pi_target, pi_behavior,
                       theta_star, seed=seed)


def sample_transition(instance: TdcInstance, rng: SeededRng):
    """One i.i.d. transition (s, a, s'): s ~ mu_b, a ~ pi_b, s' ~ P."""
    s = inverse_cdf(instance._cum_mu, float(rng.uniform()))
    a = inverse_cdf(instance._cum_pib[s], float(rng.uniform()))
    sp = inverse_cdf(instance._cum_P[s, a], float(rng.uniform()))
    return s, a, sp


def sample_transitions(instance: TdcInstance, n: int, rng: SeededRng):
    """Vectorized batch of i.i.d. transitions (uses 3 uniform blocks);
    a uniform on a cumulative edge maps as in `inverse_cdf`."""
    u1 = rng.uniform(n)
    u2 = rng.uniform(n)
    u3 = rng.uniform(n)
    s = np.minimum(np.searchsorted(instance._cum_mu, u1, side="right"),
                   instance._cum_mu.size - 1)
    a = np.minimum((instance._cum_pib[s] <= u2[:, None]).sum(axis=1),
                   instance._cum_pib.shape[1] - 1)
    sp = np.minimum((instance._cum_P[s, a] <= u3[:, None]).sum(axis=1),
                    instance._cum_P.shape[2] - 1)
    return s, a, sp


def tdc_sample(instance: TdcInstance, theta, omega, transition):
    """Sampled operator pair for the gradient-corrected update.

    With rho = pi(a|s)/pi_b(a|s) and the temporal difference
    delta = r(s) + gamma phi(s')'theta - phi(s)'theta:

        F = -2 rho delta phi(s) + 2 gamma rho phi(s') (phi(s)'omega)
        G = phi(s) (phi(s)'omega) - rho delta phi(s)
    """
    s, a, sp = transition
    Phi = instance.features.Phi
    phi_s = Phi[s]
    phi_sp = Phi[sp]
    rho = instance.rho[s, a]
    gamma = instance.mdp.gamma
    delta = instance.mdp.r_state[s] + gamma * (phi_sp @ theta) - phi_s @ theta
    proj = phi_s @ omega
    F = (-2.0 * rho * delta) * phi_s + (2.0 * gamma * rho * proj) * phi_sp
    G = proj * phi_s - (rho * delta) * phi_s
    return F, G


def td0_sample(instance: TdcInstance, theta, transition):
    """Importance-weighted semi-gradient: -rho delta phi(s)."""
    s, a, sp = transition
    Phi = instance.features.Phi
    phi_s = Phi[s]
    rho = instance.rho[s, a]
    gamma = instance.mdp.gamma
    delta = instance.mdp.r_state[s] + gamma * (Phi[sp] @ theta) - phi_s @ theta
    return (-rho * delta) * phi_s


def _covariance_inverse(cov):
    try:
        return linear_solve(cov, np.eye(len(cov)))
    except SingularMatrixError as err:
        raise SingularMatrixError("singular feature covariance, regenerate "
                                  f"features: {err}") from err


def exact_omega_star(instance: TdcInstance, theta) -> np.ndarray:
    """Auxiliary solution: cov omega = b_vec - a_mat theta."""
    return instance._cov_inv @ (instance.b_vec - instance.a_mat @ theta)


def exact_mspbe(instance: TdcInstance, theta, weighting: str = "behavior") -> float:
    """Squared weighted norm of the projected Bellman residual.

    `weighting` picks the diagonal weighting distribution: "behavior"
    (the distribution the sampler actually visits, used as the
    objective the oracles descend) or "target" (the evaluated policy's
    stationary distribution, reported for reference).
    """
    if weighting == "behavior":
        inv, a_mat, b_vec = instance._cov_inv, instance.a_mat, instance.b_vec
    elif weighting == "target":
        inv, a_mat, b_vec = instance._cov_pi_inv, instance._a_pi, instance._b_pi
    else:
        raise ValueError(f"unknown weighting {weighting!r}")
    resid = b_vec - a_mat @ theta
    return float(resid @ (inv @ resid))


class _MspbeProblem(TwoTimeScaleProblem):
    """Ground truth of TdcProblem and Td0Problem: h is the projected
    Bellman error under the behavior weighting, and the extra metric
    `mspbe_pi` that under the target policy's stationary weighting."""

    h_star = 0.0

    def __init__(self, instance: TdcInstance):
        self.instance = instance
        self.dim_theta = instance.features.Phi.shape[1]
        self.theta_star = instance.theta_star.copy()

    def h(self, theta):
        return exact_mspbe(self.instance, theta)

    def extra_metrics(self, theta, omega):
        return {"mspbe_pi": exact_mspbe(self.instance, theta,
                                        weighting="target")}


class TdcProblem(_MspbeProblem):
    """Adapter exposing a TdcInstance through the solver interface."""

    def __init__(self, instance: TdcInstance):
        super().__init__(instance)
        self.dim_omega = self.dim_theta
        self.mean_f, self.mean_g = instance.mean_f, instance.mean_g

    def omega_star(self, theta):
        return exact_omega_star(self.instance, theta)

    def sample(self, theta, omega, env, rng: SeededRng):
        F, G = tdc_sample(self.instance, theta, omega,
                          sample_transition(self.instance, rng))
        return F, G, None


class Td0Problem(_MspbeProblem):
    """Importance-weighted TD(0): one variable, no auxiliary (dim_omega
    = 0). Under `standard`, theta moves along the raw td0_sample."""

    dim_omega = 0

    def sample(self, theta, omega, env, rng: SeededRng):
        # the empty omega doubles as the empty auxiliary operator
        return td0_sample(self.instance, theta,
                          sample_transition(self.instance, rng)), omega, None


def run_td0(instance: TdcInstance, schedule: StepSchedule, n_iters: int,
            seed, stride: int = 1) -> Trace:
    """Single-variable TD(0) baseline run, recording z and the
    projected Bellman errors at every stride."""
    problem = Td0Problem(instance)
    return run(problem, "standard", schedule, n_iters, seed=seed,
               probe=ResidualProbe(problem), stride=stride)


# --- flat text serialization ------------------------------------------------

def _write_block(lines, M):
    M = np.atleast_2d(np.asarray(M, float))
    for row in M:
        lines.append(" ".join(repr(float(v)) for v in row))


def dump_instance(instance: TdcInstance, path) -> None:
    """Write the instance in a flat text format.

    Header `tdc S A d gamma seed`, then row-major blocks for the
    transition kernel (S*A rows of S), features (S rows of d), target
    and behavior policies (S rows of A each), theta_star (1 row), and
    the per-state reward (1 row). Floats use repr for exact round trip.
    The seed is -1 for None, an int, or a tuple's comma-joined ints
    (`1,2`; a 1-tuple keeps a trailing comma, `1,`).
    """
    mdp = instance.mdp
    S, A = mdp.n_states, mdp.n_actions
    d = instance.features.Phi.shape[1]
    seed = -1 if instance.seed is None else instance.seed
    if np.ndim(seed):
        seed = ",".join(str(int(s)) for s in seed) + "," * (len(seed) == 1)
    lines = [f"tdc {S} {A} {d} {repr(float(mdp.gamma))} {seed}"]
    _write_block(lines, mdp.P.reshape(S * A, S))
    _write_block(lines, instance.features.Phi)
    _write_block(lines, instance.pi_target)
    _write_block(lines, instance.pi_behavior)
    _write_block(lines, instance.theta_star)
    _write_block(lines, mdp.r_state)
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def load_instance(path) -> TdcInstance:
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln.strip()]
    head = lines[0].split()
    if head[0] != "tdc":
        raise ValueError("not a tdc instance file")
    S, A, d = int(head[1]), int(head[2]), int(head[3])
    gamma = float(head[4])
    seed = [int(s) for s in head[5].split(",") if s]
    seed = tuple(seed) if "," in head[5] else seed[0]
    vals = [np.array([float(tok) for tok in ln.split()]) for ln in lines[1:]]
    rows = iter(vals)
    take = lambda n: np.stack([next(rows) for _ in range(n)])
    P = take(S * A).reshape(S, A, S)
    Phi = take(S)
    pi_target = take(S)
    pi_behavior = take(S)
    theta_star = next(rows)
    r_state = next(rows)
    mdp = TabularMdp(P=P, r_state=r_state, gamma=gamma)
    return TdcInstance(mdp, LinearFeatures(Phi), pi_target, pi_behavior,
                       theta_star, seed=None if seed == -1 else seed)
