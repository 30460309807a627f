import numpy as np
import pytest
from scipy import stats

from twoscale.numerics import ConvergenceError, SeededRng
from twoscale.regmdp import (RegMdp, RegMdpProblem, exact_J, exact_value,
                             make_regmdp, mean_F, mean_G, sample_F, sample_G,
                             sample_visitation, soft_optimal, softmax_policy,
                             visitation_exact)
from twoscale.solver import ResidualProbe, make_polynomial_schedule, run


def enum_means(m, theta, omega):
    """Triple-loop enumeration of the sampled operators, weighted by
    d(s) pi(a|s) P(s'|s,a); independent of the vectorized means."""
    pol = softmax_policy(theta)
    d = visitation_exact(m, pol)
    F = np.zeros_like(theta)
    G = np.zeros(m.n_states)
    for s in range(m.n_states):
        for a in range(m.n_actions):
            for sp in range(m.n_states):
                w = d[s] * pol[s, a] * m.P[s, a, sp]
                F += w * sample_F(m, theta, omega, (s, a, sp))
                G += w * sample_G(m, theta, omega, (s, a, sp))
    return F, G


def single_state_mdp(gamma, r_val=1.0, tau=0.3):
    P = np.ones((1, 1, 1))
    return RegMdp(P=P, r=np.array([[r_val]]), gamma=gamma, tau_ent=tau,
                  rho0=np.array([1.0]))


# --- softmax -------------------------------------------------------------------

def test_softmax_uniform_at_zero():
    pol = softmax_policy(np.zeros((3, 4)))
    assert np.allclose(pol, 0.25)


def test_softmax_shift_invariance_property():
    rng = SeededRng(1)
    for _ in range(1000):
        theta = rng.normal(8).reshape(2, 4) * 5.0
        shift = rng.normal(2).reshape(2, 1) * 10.0
        p1 = softmax_policy(theta)
        p2 = softmax_policy(theta + shift)
        assert np.abs(p1 - p2).max() <= 1e-12


def test_softmax_hand_value():
    pol = softmax_policy(np.array([[0.0, np.log(3.0)]]))
    assert np.allclose(pol, [[0.25, 0.75]], atol=1e-14)


# --- exact operators -------------------------------------------------------------

def test_exact_value_myopic_at_gamma_zero():
    m = make_regmdp(4, 3, gamma=0.9, tau_ent=0.2, seed=2)
    m0 = RegMdp(P=m.P, r=m.r, gamma=0.0, tau_ent=0.2, rho0=m.rho0)
    pol = softmax_policy(SeededRng(3).normal(12).reshape(4, 3))
    V = exact_value(m0, pol)
    r_tilde = np.einsum("sa,sa->s", pol, m0.r - 0.2 * np.log(pol))
    assert np.allclose(V, r_tilde, atol=1e-14)


def test_exact_value_single_state():
    m = single_state_mdp(gamma=0.8, r_val=1.0)
    V = exact_value(m, np.ones((1, 1)))
    assert V[0] == pytest.approx(1.0 / (1.0 - 0.8), rel=1e-12)


def test_exact_value_bellman_residual():
    m = make_regmdp(5, 4, seed=4)
    pol = softmax_policy(SeededRng(5).normal(20).reshape(5, 4))
    V = exact_value(m, pol)
    P_pi = np.einsum("sap,sa->sp", m.P, pol)
    r_tilde = np.einsum("sa,sa->s", pol, m.r - m.tau_ent * np.log(pol))
    assert np.abs(V - r_tilde - m.gamma * P_pi @ V).max() <= 1e-10


def test_exact_J_state_relabeling_invariance():
    # identical rows: every state behaves the same, J invariant under
    # permuting the state labels
    S, A = 3, 2
    row = SeededRng(6).uniform(A * S).reshape(A, S)
    row /= row.sum(axis=1, keepdims=True)
    P = np.broadcast_to(row, (S, A, S)).copy()
    r_row = SeededRng(7).uniform(A)
    r = np.broadcast_to(r_row, (S, A)).copy()
    m = RegMdp(P=P, r=r, gamma=0.9, tau_ent=0.1, rho0=np.full(S, 1 / 3))
    theta_row = SeededRng(8).normal(A)
    theta = np.broadcast_to(theta_row, (S, A)).copy()
    perm = [2, 0, 1]
    m_perm = RegMdp(P=P[perm][:, :, perm], r=r[perm], gamma=0.9, tau_ent=0.1,
                    rho0=np.full(S, 1 / 3))
    assert exact_J(m, theta) == pytest.approx(exact_J(m_perm, theta[perm]),
                                              rel=1e-12)


def test_exact_J_gamma_zero_uniform_formula():
    m = make_regmdp(4, 3, seed=9)
    m0 = RegMdp(P=m.P, r=m.r, gamma=0.0, tau_ent=0.5, rho0=m.rho0)
    theta = np.zeros((4, 3))
    expected = np.mean(np.mean(m.r, axis=1) + 0.5 * np.log(3.0))
    assert exact_J(m0, theta) == pytest.approx(expected, rel=1e-12)


def test_exact_J_matches_rollout_oracle():
    m = make_regmdp(3, 2, gamma=0.9, tau_ent=0.1, seed=10)
    theta = SeededRng(11).normal(6).reshape(3, 2)
    pol = softmax_policy(theta)
    log_pol = np.log(pol)
    cum_pi = np.cumsum(pol, axis=1)
    cum_P = np.cumsum(m.P, axis=2)
    cum_rho = np.cumsum(m.rho0)
    rng = SeededRng(12)

    def rollout():
        # geometric-horizon return: sum of undiscounted rewards along a
        # trajectory killed with probability 1-gamma, times 1/(1-gamma)
        # ... realized instead as the plain discounted sum for clarity
        s = np.searchsorted(cum_rho, float(rng.uniform()), side="right")
        s = min(int(s), 2)
        total, disc = 0.0, 1.0
        while True:
            a = min(int(np.searchsorted(cum_pi[s], float(rng.uniform()),
                                        side="right")), 1)
            total += disc * (m.r[s, a] - 0.1 * log_pol[s, a])
            if float(rng.uniform()) < 1.0 - m.gamma:
                return total
            disc *= 1.0    # geometric stopping realizes the discount
            s = min(int(np.searchsorted(cum_P[s, a], float(rng.uniform()),
                                        side="right")), 2)

    n = 100000
    vals = np.array([rollout() for _ in range(n)])
    J = exact_J(m, theta)
    assert abs(vals.mean() - J) <= 3.0 * vals.std() / np.sqrt(n)


# --- samplers ---------------------------------------------------------------------

def test_visitation_sampler_near_initial_at_small_gamma():
    m = make_regmdp(4, 2, gamma=0.01, tau_ent=0.1, seed=13)
    theta = SeededRng(14).normal(8).reshape(4, 2)
    rng = SeededRng(15)
    n = 40000
    counts = np.zeros(4)
    for _ in range(n):
        s, _, _ = sample_visitation(m, theta, rng)
        counts[s] += 1
    sd = np.sqrt(n * m.rho0 * (1 - m.rho0))
    assert np.all(np.abs(counts - n * m.rho0) <= 4.0 * sd)


def test_visitation_sampler_matches_linear_solve():
    m = make_regmdp(3, 2, gamma=0.9, tau_ent=0.1, seed=16)
    theta = SeededRng(17).normal(6).reshape(3, 2)
    d = visitation_exact(m, softmax_policy(theta))
    rng = SeededRng(18)
    n = 50000
    counts = np.zeros(3)
    for _ in range(n):
        s, _, _ = sample_visitation(m, theta, rng)
        counts[s] += 1
    sd = np.sqrt(n * d * (1 - d))
    assert np.all(np.abs(counts - n * d) <= 3.5 * sd)


def test_visitation_sampler_chi_squared():
    m = make_regmdp(5, 3, gamma=0.8, tau_ent=0.1, seed=19)
    theta = SeededRng(20).normal(15).reshape(5, 3)
    d = visitation_exact(m, softmax_policy(theta))
    rng = SeededRng(21)
    n = 50000
    counts = np.zeros(5)
    for _ in range(n):
        s, _, _ = sample_visitation(m, theta, rng)
        counts[s] += 1
    chi2 = float((((counts - n * d) ** 2) / (n * d)).sum())
    assert chi2 < stats.chi2.ppf(0.999, df=4)


def test_visitation_sampler_single_state():
    m = single_state_mdp(gamma=0.9)
    for _ in range(20):
        s, a, sp = sample_visitation(m, np.zeros((1, 1)), SeededRng(22))
        assert (s, a, sp) == (0, 0, 0)


# --- operator samples ---------------------------------------------------------------

def test_mean_operators_match_enumeration():
    m = make_regmdp(3, 2, gamma=0.8, tau_ent=0.1, seed=23)
    rng = SeededRng(24)
    for _ in range(5):
        theta = rng.normal(6).reshape(3, 2)
        omega = rng.normal(3)
        Fe, Ge = enum_means(m, theta, omega)
        assert np.abs(Fe - mean_F(m, theta, omega)).max() <= 1e-12
        assert np.abs(Ge - mean_G(m, theta, omega)).max() <= 1e-12


def test_sample_F_zero_at_soft_optimum():
    m = make_regmdp(3, 2, gamma=0.8, tau_ent=0.2, seed=25)
    V_star, pi_star, _ = soft_optimal(m)
    theta_star = np.log(pi_star)
    Fe, _ = enum_means(m, theta_star, V_star)
    assert np.abs(Fe).max() <= 1e-8


def test_sample_F_zero_with_single_action():
    m = single_state_mdp(gamma=0.5)
    F = sample_F(m, np.zeros((1, 1)), np.array([2.0]), (0, 0, 0))
    assert np.abs(F).max() == 0.0


def test_enumeration_gradient_matches_finite_differences():
    m = make_regmdp(2, 3, gamma=0.7, tau_ent=0.15, seed=26)
    theta = SeededRng(27).normal(6).reshape(2, 3)
    V = exact_value(m, softmax_policy(theta))
    Fe, _ = enum_means(m, theta, V)
    h = 1e-5
    fd = np.zeros_like(theta)
    for i in range(2):
        for j in range(3):
            tp = theta.copy()
            tp[i, j] += h
            tm = theta.copy()
            tm[i, j] -= h
            fd[i, j] = (-exact_J(m, tp) + exact_J(m, tm)) / (2 * h)
    assert np.abs(Fe - fd).max() <= 1e-4 * max(1.0, np.abs(fd).max())


def test_sample_G_root_at_exact_value():
    m = make_regmdp(3, 2, gamma=0.8, tau_ent=0.1, seed=28)
    rng = SeededRng(29)
    for _ in range(5):
        theta = rng.normal(6).reshape(3, 2)
        _, Ge = enum_means(m, theta, exact_value(m, softmax_policy(theta)))
        assert np.abs(Ge).max() <= 1e-10


def test_sample_G_single_state_gamma_zero():
    m = single_state_mdp(gamma=0.0, r_val=0.6, tau=0.3)
    theta = np.zeros((1, 1))
    omega = np.array([1.5])
    G = sample_G(m, theta, omega, (0, 0, 0))
    r_tilde = 0.6 - 0.3 * np.log(1.0)
    assert G[0] == pytest.approx(1.5 - r_tilde, rel=1e-12)


def test_mean_G_jacobian_strongly_monotone():
    rng = SeededRng(30)
    for trial in range(5):
        m = make_regmdp(3, 2, gamma=0.9, tau_ent=0.1, seed=100 + trial)
        theta = rng.normal(6).reshape(3, 2)
        pol = softmax_policy(theta)
        d = visitation_exact(m, pol)
        P_pi = np.einsum("sap,sa->sp", m.P, pol)
        Jac = np.diag(d) @ (np.eye(3) - m.gamma * P_pi)
        Sym = 0.5 * (Jac + Jac.T)
        # characteristic-polynomial oracle at n = 3
        coeffs = np.poly(Sym)
        roots = np.roots(coeffs)
        assert np.real(roots).min() > 0.0


# --- soft optimum -----------------------------------------------------------------

def test_soft_optimal_uniform_when_rewards_identical():
    P = SeededRng(31).uniform(3 * 2 * 3).reshape(3, 2, 3)
    P /= P.sum(axis=2, keepdims=True)
    m = RegMdp(P=P, r=np.full((3, 2), 0.5), gamma=0.9, tau_ent=0.1,
               rho0=np.full(3, 1 / 3))
    # equalize successor distributions so actions are fully symmetric
    P[:, 1, :] = P[:, 0, :]
    m = RegMdp(P=P, r=np.full((3, 2), 0.5), gamma=0.9, tau_ent=0.1,
               rho0=np.full(3, 1 / 3))
    _, pi_star, _ = soft_optimal(m)
    assert np.abs(pi_star - 0.5).max() <= 1e-10


def test_soft_optimal_large_entropy_weight():
    m = make_regmdp(2, 2, gamma=0.8, tau_ent=100.0, seed=32)
    _, pi_star, _ = soft_optimal(m)
    assert np.abs(pi_star - 0.5).max() < 0.01


def test_soft_optimal_raises_a_typed_error_out_of_iterations():
    m = make_regmdp(4, 3, gamma=0.9, tau_ent=0.1, seed=33)
    with pytest.raises(ConvergenceError, match="in 1 iterations"):
        soft_optimal(m, max_iters=1)
    assert issubclass(ConvergenceError, RuntimeError)


def test_soft_optimal_dominates_random_policies():
    m = make_regmdp(4, 3, gamma=0.9, tau_ent=0.1, seed=33)
    _, _, J_star = soft_optimal(m)
    rng = SeededRng(34)
    for _ in range(100):
        theta = rng.normal(12).reshape(4, 3) * 2.0
        assert J_star >= exact_J(m, theta) - 1e-10


def test_gradient_ascent_step_does_not_decrease_J():
    m = make_regmdp(4, 3, gamma=0.9, tau_ent=0.1, seed=35)
    rng = SeededRng(36)
    for _ in range(10):
        theta = rng.normal(12).reshape(4, 3)
        Fe = mean_F(m, theta, exact_value(m, softmax_policy(theta)))
        theta2 = theta - 1e-4 * Fe   # descend h = -J, so J ascends
        assert exact_J(m, theta2) >= exact_J(m, theta) - 1e-12


# --- solver integration ------------------------------------------------------------

def test_problem_adapter_run_and_gap_nonnegative():
    m = make_regmdp(5, 5, gamma=0.9, tau_ent=0.1, seed=0)
    problem = RegMdpProblem(m)
    probe = ResidualProbe(problem)
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    trace = run(problem, "fast", sched, 8000, seed=(0, 1, 0), probe=probe,
                stride=400)
    assert not trace.flagged
    assert np.all(trace.metrics["x"] >= -1e-10)
    assert trace.metrics["x"][-1] < 0.1 * trace.metrics["x"][0]


def test_sampled_mean_G_root_monte_carlo():
    m = make_regmdp(3, 2, gamma=0.8, tau_ent=0.1, seed=41)
    rng = SeededRng(42)
    theta = rng.normal(6).reshape(3, 2)
    V = exact_value(m, softmax_policy(theta))
    stream = SeededRng(43)
    n = 20000
    acc = np.zeros(3)
    for _ in range(n):
        tr = sample_visitation(m, theta, stream)
        acc += sample_G(m, theta, V, tr)
    # residual magnitude per sample is O(1); 4-sigma band on the mean
    assert np.abs(acc / n).max() < 4.0 / np.sqrt(n)


def test_adapter_sample_matches_public_ops():
    m = make_regmdp(4, 3, gamma=0.85, tau_ent=0.1, seed=37)
    problem = RegMdpProblem(m)
    theta = SeededRng(38).normal(12)
    omega = SeededRng(39).normal(4)
    F1, G1, _ = problem.sample(theta, omega, None, SeededRng(40))
    transition = sample_visitation(m, theta.reshape(4, 3), SeededRng(40))
    F2 = sample_F(m, theta.reshape(4, 3), omega, transition)
    G2 = sample_G(m, theta.reshape(4, 3), omega, transition)
    assert np.array_equal(F1, F2.ravel())
    assert np.array_equal(G1, G2)
