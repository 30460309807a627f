import math

import numpy as np
import pytest
import scipy.linalg

import twoscale.lqr as lqr_mod

from twoscale.lqr import (LqrProblem, LqrSystem, UnstableSystemError,
                          cost_J, dare_solve, env_step,
                          goperator_residual, lyapunov_solve,
                          natural_gradient_exact, omega_exact, paper_lqr_3x2,
                          phi_feature, run_lqr, sigma_K, svec)
from twoscale.numerics import SeededRng, stability_test
from twoscale.solver import (ResidualProbe, SolverState, custom_schedule,
                             make_polynomial_schedule, run)

# Average cost of the zero gain on the benchmark system with identity
# state noise and no exploration; frozen from the Lyapunov fixed point.
FROZEN_J_ZERO_GAIN = 4.001660545551677


def scalar_system(a=0.5, b=1.0, q=1.0, r=1.0, psi=1.0, sigma=0.0):
    return LqrSystem(A=np.array([[a]]), B=np.array([[b]]),
                     Q=np.array([[q]]), R=np.array([[r]]),
                     Psi=np.array([[psi]]), sigma=sigma)


# --- svec / features -----------------------------------------------------------

def test_svec_two_by_two():
    M = np.array([[1.0, 2.0], [2.0, 5.0]])
    assert np.allclose(svec(M), [1.0, 2.0 * math.sqrt(2.0), 5.0])


def test_svec_identity_3x3():
    assert np.array_equal(svec(np.eye(3)), [1.0, 0.0, 1.0, 0.0, 0.0, 1.0])


def test_svec_isometry_property():
    rng = SeededRng(1)
    for _ in range(1000):
        X = rng.normal(16).reshape(4, 4)
        Y = rng.normal(16).reshape(4, 4)
        M = X + X.T
        N = Y + Y.T
        lhs = float(svec(M) @ svec(N))
        rhs = float(np.trace(M @ N))
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


def test_svec_rejects_asymmetric():
    with pytest.raises(ValueError):
        svec(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_phi_feature_cases():
    assert np.array_equal(phi_feature(np.zeros(2), np.zeros(1)), np.zeros(6))
    got = phi_feature([2.0], [3.0])
    assert np.allclose(got, [4.0, 6.0 * math.sqrt(2.0), 9.0])


def test_phi_feature_quadratic_form_identity():
    rng = SeededRng(2)
    for _ in range(200):
        x = rng.normal(3)
        u = rng.normal(2)
        X = rng.normal(25).reshape(5, 5)
        S = X + X.T
        v = np.concatenate([x, u])
        lhs = float(phi_feature(x, u) @ svec(S))
        rhs = float(v @ S @ v)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))


# --- environment ---------------------------------------------------------------

def test_env_step_origin_fixed_point():
    system = LqrSystem(A=0.5 * np.eye(2), B=np.eye(2), Q=np.eye(2),
                       R=np.eye(2), Psi=np.zeros((2, 2)), sigma=0.0)
    u, cost, x_next = env_step(system, np.zeros(2), np.zeros((2, 2)),
                               SeededRng(0))
    assert np.abs(u).max() == 0.0
    assert cost == 0.0
    assert np.abs(x_next).max() == 0.0


def test_env_step_deterministic_control():
    system = paper_lqr_3x2(psi_scale=0.01, sigma=0.0)
    rng = SeededRng(3)
    x = rng.normal(3)
    K = rng.normal(6).reshape(2, 3)
    u, _, _ = env_step(system, x, K, SeededRng(4))
    assert np.array_equal(u, -(K @ x))


def test_env_step_noise_covariance():
    system = paper_lqr_3x2(psi_scale=0.01, sigma=0.1)
    K = np.zeros((2, 3))
    rng = SeededRng(5)
    x = np.ones(3)
    n = 100000
    resid = np.empty((n, 3))
    drift = (system.A - system.B @ K) @ x
    for i in range(n):
        _, _, x_next = env_step(system, x, K, rng)
        resid[i] = x_next - drift
    emp = resid.T @ resid / n
    target = system.Psi_sigma
    # 3-sigma bands for second-moment estimates
    band = 3.0 * np.abs(target).max() / math.sqrt(n) * 4.0
    assert np.abs(emp - target).max() < band + 3e-4


# --- exact solvers --------------------------------------------------------------

def test_lyapunov_trivial_cases():
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    assert np.allclose(lyapunov_solve(np.zeros((2, 2)), W), W)
    P = lyapunov_solve(np.array([[0.5]]), np.array([[1.0]]))
    assert P[0, 0] == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_lyapunov_benchmark_system_residual():
    system = paper_lqr_3x2()
    P = lyapunov_solve(system.A, system.Q)
    resid = P - system.Q - system.A.T @ P @ system.A
    assert np.sqrt((resid ** 2).sum()) <= 1e-10


def test_lyapunov_matches_scipy_on_random_stable_matrices():
    rng = SeededRng(30)
    for n in range(1, 5):
        checked = 0
        while checked < 5:
            M = rng.normal(n * n).reshape(n, n)
            if not stability_test(M):
                continue
            L = rng.normal(n * n).reshape(n, n)
            W = L @ L.T
            P = lyapunov_solve(M, W)
            ref = scipy.linalg.solve_discrete_lyapunov(M.T, W)
            assert np.abs(P - ref).max() <= 1e-10 * np.abs(ref).max()
            checked += 1


def test_lyapunov_rejects_unstable():
    with pytest.raises(UnstableSystemError):
        lyapunov_solve(np.eye(2) * 1.1, np.eye(2))


def test_cost_zero_when_noiseless():
    system = LqrSystem(A=0.5 * np.eye(2), B=np.eye(2), Q=np.eye(2),
                       R=np.eye(2), Psi=np.zeros((2, 2)), sigma=0.0)
    assert cost_J(system, np.zeros((2, 2))) == 0.0


def test_cost_frozen_regression_value():
    system = LqrSystem(A=paper_lqr_3x2().A, B=paper_lqr_3x2().B,
                       Q=np.eye(3), R=np.eye(2), Psi=np.eye(3), sigma=0.0)
    assert cost_J(system, np.zeros((2, 3))) == pytest.approx(
        FROZEN_J_ZERO_GAIN, abs=1e-9)


def test_optimal_gain_minimizes_cost():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    _, K_star = dare_solve(system)
    J_star = cost_J(system, K_star)
    rng = SeededRng(6)
    count = 0
    while count < 50:
        K = K_star + 0.1 * rng.normal(6).reshape(2, 3)
        if not stability_test(system.A - system.B @ K):
            continue
        assert cost_J(system, K) >= J_star - 1e-12
        count += 1


def test_natural_gradient_zero_at_optimum():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    _, K_star = dare_solve(system)
    assert np.abs(natural_gradient_exact(system, K_star)).max() <= 1e-8


def test_natural_gradient_scalar_closed_form():
    system = scalar_system()
    for k in (0.1, 0.3, 0.7):
        # hand derivation: P_K = (q + r k^2) / (1 - (a - b k)^2)
        m = 0.5 - k
        P = (1.0 + k * k) / (1.0 - m * m)
        expected = 2.0 * ((1.0 + P) * k - 0.5 * P)
        got = natural_gradient_exact(system, np.array([[k]]))[0, 0]
        assert got == pytest.approx(expected, rel=1e-10)


def test_gradient_identity_against_finite_differences():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    _, K_star = dare_solve(system)
    rng = SeededRng(7)
    h = 1e-5
    checked = 0
    while checked < 10:
        K = K_star + 0.05 * rng.normal(6).reshape(2, 3)
        if not stability_test(system.A - system.B @ K):
            continue
        # true gradient: 2 E_K Sigma_K with E_K = (R + B'PB)K - B'PA
        grad = natural_gradient_exact(system, K) @ sigma_K(system, K)
        fd = np.zeros_like(K)
        for i in range(2):
            for j in range(3):
                Kp = K.copy()
                Kp[i, j] += h
                Km = K.copy()
                Km[i, j] -= h
                fd[i, j] = (cost_J(system, Kp) - cost_J(system, Km)) / (2 * h)
        assert np.abs(grad - fd).max() <= 1e-4 * max(1.0, np.abs(fd).max())
        checked += 1


def test_sigma_trivial_cases():
    system = LqrSystem(A=np.zeros((2, 2)), B=np.zeros((2, 1)), Q=np.eye(2),
                       R=np.eye(1), Psi=np.eye(2), sigma=0.0)
    assert np.allclose(sigma_K(system, np.zeros((1, 2))), np.eye(2))
    s1 = scalar_system(a=0.6, psi=0.8)
    got = sigma_K(s1, np.array([[0.0]]))[0, 0]
    assert got == pytest.approx(0.8 / (1.0 - 0.36), rel=1e-10)


def test_sigma_matches_simulation():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    K = np.zeros((2, 3))
    Sig = sigma_K(system, K)
    rng = SeededRng(8)
    x = np.zeros(3)
    n = 200000
    acc = np.zeros((3, 3))
    for i in range(n):
        _, _, x = env_step(system, x, K, rng)
        if i >= 1000:
            acc += np.outer(x, x)
    emp = acc / (n - 1000)
    assert np.abs(emp - Sig).max() < 0.05 * np.abs(Sig).max() + 0.01


def test_omega_blocks():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    rng = SeededRng(9)
    _, K_star = dare_solve(system)
    K = K_star + 0.05 * rng.normal(6).reshape(2, 3)
    Om = omega_exact(system, K)
    assert np.abs(Om - Om.T).max() <= 1e-10
    natural = natural_gradient_exact(system, K)
    assert np.allclose(2.0 * (Om[3:, 3:] @ K - Om[3:, :3]), natural,
                       atol=1e-10)


def test_dare_no_dynamics():
    system = LqrSystem(A=np.zeros((2, 2)), B=np.array([[1.0], [0.0]]),
                       Q=np.eye(2), R=np.eye(1), Psi=np.eye(2), sigma=0.0)
    P, K = dare_solve(system)
    assert np.allclose(P, np.eye(2))
    assert np.abs(K).max() <= 1e-12


def test_dare_scalar_root():
    P, K = dare_solve(scalar_system())
    p = P[0, 0]
    # the scalar fixed point solves p^2 - p/4 - 1 = 0
    assert abs(p * p - 0.25 * p - 1.0) <= 1e-10
    assert K[0, 0] == pytest.approx(0.5 * p / (1.0 + p), rel=1e-10)
    # closed form: the positive root
    assert p == pytest.approx((0.25 + math.sqrt(4.0625)) / 2.0, rel=1e-12)


def test_dare_satisfies_riccati_equation():
    rng = SeededRng(31)
    systems = [paper_lqr_3x2(psi_scale=0.25, sigma=0.5), scalar_system()]
    for _ in range(5):
        A = rng.normal(9).reshape(3, 3)
        B = rng.normal(6).reshape(3, 2)
        systems.append(LqrSystem(A=A, B=B, Q=np.eye(3), R=np.eye(2),
                                 Psi=np.eye(3)))
    for system in systems:
        A, B, Q = system.A, system.B, system.Q
        P, K = dare_solve(system)
        resid = Q + A.T @ P @ A - A.T @ P @ B @ K - P
        assert np.abs(resid).max() <= 1e-10 * np.abs(P).max()
        assert stability_test(A - B @ K)


def test_optimal_controller_is_stabilizing():
    system = paper_lqr_3x2()
    _, K_star = dare_solve(system)
    assert stability_test(system.A - system.B @ K_star)


# --- online algorithm ------------------------------------------------------------
#
# One `run` step of LqrProblem against straight-line transcriptions of
# the actor-critic. Variables are flattened: theta = K.ravel(), omega =
# [J_hat, Omega_hat.ravel()], and likewise the averages f and (gJ, gOmega).

def flat_state(K, J_hat, Omega_hat, f, gJ, gOmega):
    return SolverState(0, np.ravel(K), np.concatenate([[J_hat],
                                                       np.ravel(Omega_hat)]),
                       np.ravel(f), np.concatenate([[gJ], np.ravel(gOmega)]))


def primed(system, rng):
    """Transcription of LqrProblem.init_env with the zero gain: x0 ~ N(0,
    I), then one interaction; returns (x1, (x0, u0, c0))."""
    x0 = rng.normal(system.d1)
    u0 = system.sigma * rng.normal(system.d2)
    c0 = x0 @ system.Q @ x0 + u0 @ system.R @ u0
    x1 = system.A @ x0 + system.B @ u0 \
        + np.linalg.cholesky(system.Psi) @ rng.normal(system.d1)
    return x1, (x0, u0, c0)


def test_alg2_step_zero_averages_keep_decision_variables():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    problem = LqrProblem(system)
    sched = make_polynomial_schedule(40.0, 8.0, 10.0, 400.0)
    nxt = run(problem, "fast", sched, 1, seed=11).final_state
    assert np.array_equal(nxt.theta, np.zeros(6))
    assert np.array_equal(nxt.omega, np.zeros(26))
    assert np.abs(nxt.f).max() == 0.0   # Omega_hat = 0 gives F = 0
    assert nxt.g[0] != 0.0              # J_hat - c_0


def test_alg2_step_lambda_one_full_replacement():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    K = SeededRng(12).normal(6).reshape(2, 3)
    Omega_hat = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
    state = flat_state(K, 0.0, Omega_hat, np.zeros(6), 0.0, np.zeros(25))
    sched = custom_schedule(lambda k: 1.0, lambda k: 0.0, lambda k: 0.0)
    nxt = run(LqrProblem(system), "fast", sched, 1, seed=13,
              init_state=state).final_state
    expected = Omega_hat[3:, 3:] @ K - Omega_hat[3:, :3]
    assert np.array_equal(nxt.f, expected.ravel())


def test_alg2_step_matches_straight_line_transcription():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    problem = LqrProblem(system)
    K, J_hat, Omega_hat = np.zeros((2, 3)), 0.7, np.eye(5) * 0.3
    f, gJ, gOmega = np.full((2, 3), 0.1), -0.2, np.eye(5) * 0.05
    state = flat_state(K, J_hat, Omega_hat, f, gJ, gOmega)
    sched = make_polynomial_schedule(40.0, 8.0, 10.0, 400.0)
    nxt = run(problem, "fast", sched, 1, seed=11,
              init_state=state).final_state

    # independent transcription, on the same stream after the priming
    rng = SeededRng(11)
    x, (x_k, u_k, c_k) = primed(system, rng)
    u_new = -(K @ x) + system.sigma * rng.normal(2)
    c_new = x @ system.Q @ x + u_new @ system.R @ u_new
    x_new = system.A @ x + system.B @ u_new \
        + np.linalg.cholesky(system.Psi) @ rng.normal(3)
    lam, alpha, beta = 40.0 / 401.0, 8.0 / 401.0, 10.0 / 401.0
    v = np.concatenate([x_k, u_k])
    w = np.concatenate([x, u_new])
    td = float(v @ (Omega_hat @ v) - w @ (Omega_hat @ w) + J_hat - c_k)
    K1 = K - alpha * f
    J1 = J_hat - beta * gJ
    Om1 = Omega_hat - beta * gOmega
    f1 = (1 - lam) * f + lam * (Omega_hat[3:, 3:] @ K - Omega_hat[3:, :3])
    gJ1 = (1 - lam) * gJ + lam * (J_hat - c_k)
    gOm1 = (1 - lam) * gOmega + lam * (np.outer(v, v) * td)

    assert np.array_equal(nxt.theta, K1.ravel())
    assert nxt.omega[0] == J1
    assert np.array_equal(nxt.omega[1:], Om1.ravel())
    assert np.array_equal(nxt.f, f1.ravel())
    assert nxt.g[0] == gJ1
    assert np.array_equal(nxt.g[1:], gOm1.ravel())
    # the oracle hands the next step the new state and pending transition
    rng = SeededRng(11)
    env = problem.init_env(rng)
    _, _, (x_next, pending) = problem.sample(state.theta, state.omega, env,
                                             rng)
    assert np.array_equal(x_next, x_new)
    assert np.array_equal(pending[0], x)
    assert np.array_equal(pending[1], u_new)
    assert pending[2] == c_new


def test_omega_hat_stays_symmetric():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    problem = LqrProblem(system)
    sched = make_polynomial_schedule(40.0, 8.0, 10.0, 400.0)
    for n in range(1, 201, 19):
        state = run(problem, "fast", sched, n, seed=14).final_state
        Omega_hat = state.omega[1:].reshape(5, 5)
        gOmega = state.g[1:].reshape(5, 5)
        assert np.array_equal(Omega_hat, Omega_hat.T)
        assert np.array_equal(gOmega, gOmega.T)


def test_run_lqr_deterministic_and_converging():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    sched = make_polynomial_schedule(40.0, 8.0, 10.0, 400.0)
    t1 = run_lqr(system, "fast", sched, 20000, seed=(1, 0), stride=2000)
    t2 = run_lqr(system, "fast", sched, 20000, seed=(1, 0), stride=2000)
    assert not t1.flagged
    assert np.array_equal(t1.metrics["gap"], t2.metrics["gap"])
    assert t1.metrics["gap"][-1] < 0.2 * t1.metrics["gap"][0]
    assert np.all(t1.metrics["stabilizing"] == 1.0)


def test_system_solves_optimal_cost_once(monkeypatch):
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    calls = []
    monkeypatch.setattr(lqr_mod, "dare_solve",
                        lambda s: calls.append(s) or dare_solve(s))
    sched = make_polynomial_schedule(40.0, 8.0, 10.0, 400.0)
    for i in range(2):
        run_lqr(system, "fast", sched, 20, seed=(2, i), stride=10)
    assert calls == [system]
    assert system.J_star == cost_J(system, dare_solve(system)[1])


def test_run_lqr_metrics_match_exact_solvers():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    sched = make_polynomial_schedule(40.0, 8.0, 10.0, 400.0)
    n_iters, stride = 400, 100
    trace = run_lqr(system, "fast", sched, n_iters, seed=(2, 0),
                    stride=stride)
    A, B, Q, R = system.A, system.B, system.Q, system.R

    def truth(K):
        # P_K from scipy, then J(K) and Omega_K by their textbook formulas
        P = scipy.linalg.solve_discrete_lyapunov((A - B @ K).T,
                                                 Q + K.T @ R @ K)
        J = np.trace(P @ system.Psi_sigma) + system.sigma**2 * np.trace(R)
        return J, np.block([[Q + A.T @ P @ A, A.T @ P @ B],
                            [B.T @ P @ A, R + B.T @ P @ B]])

    P_star = scipy.linalg.solve_discrete_are(A, B, Q, R)
    J_star = truth(np.linalg.solve(R + B.T @ P_star @ B,
                                   B.T @ P_star @ A))[0]
    # replay the replica up to each recorded k (the same stream gives the
    # same iterates) and evaluate the ground truth apart
    problem = LqrProblem(system)
    J, y = [], []
    for k in range(0, n_iters + 1, stride):
        state = (SolverState.zeros(problem) if k == 0 else
                 run(problem, "fast", sched, k, seed=(2, 0)).final_state)
        J_K, Om = truth(state.theta.reshape(2, 3))
        crit = np.concatenate([[state.omega[0] - J_K],
                               svec(state.omega[1:].reshape(5, 5)) - svec(Om)])
        J.append(J_K)
        y.append(float(crit @ crit))
    assert np.array_equal(trace.ks, np.arange(0, n_iters + 1, stride))
    # gap = J(K) - J*, so its error is relative to J, not to the gap
    assert np.allclose(trace.metrics["gap"] + J_star, J, rtol=1e-12, atol=0)
    assert np.allclose(trace.metrics["y"], y, rtol=1e-12, atol=0.0)


def test_run_lqr_flags_unstable_start():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    sched = make_polynomial_schedule(40.0, 8.0, 10.0, 400.0)
    K0 = np.full((2, 3), -5.0)   # destabilizing gain
    trace = run_lqr(system, "fast", sched, 100, seed=1, stride=10, K0=K0)
    assert trace.flagged
    assert trace.abort_k == 0
    assert trace.ks.size == 0


def test_run_starts_at_the_gain_of_the_problem():
    # without init_state, run starts theta at K0, where run_lqr starts
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    K0 = 0.5 * dare_solve(system)[1]
    sched = make_polynomial_schedule(40.0, 8.0, 10.0, 400.0)
    for algo in ("fast", "standard"):
        want = run_lqr(system, algo, sched, 5, seed=3, K0=K0).final_state
        got = run(LqrProblem(system, K0), algo, sched, 5, seed=3).final_state
        for part in ("theta", "omega", "f", "g"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
        assert np.abs(got.theta - K0.ravel()).max() < 0.1


def test_standard_step_literal_form():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    K = SeededRng(15).normal(6).reshape(2, 3) * 0.1
    J_hat, Omega_hat = 0.5, np.eye(5) * 0.2
    state = flat_state(K, J_hat, Omega_hat, np.zeros(6), 0.0, np.zeros(25))
    sched = custom_schedule(lambda k: 1.0, lambda k: 0.01, lambda k: 0.02)
    nxt = run(LqrProblem(system), "standard", sched, 1, seed=16,
              init_state=state).final_state
    rng = SeededRng(16)
    x, (x_k, u_k, c_k) = primed(system, rng)
    u_new = -(K @ x) + system.sigma * rng.normal(2)
    v = np.concatenate([x_k, u_k])
    w = np.concatenate([x, u_new])
    td = float(v @ (Omega_hat @ v) - w @ (Omega_hat @ w) + J_hat - c_k)
    assert np.array_equal(
        nxt.theta, (K - 0.01 * (Omega_hat[3:, 3:] @ K
                                - Omega_hat[3:, :3])).ravel())
    assert nxt.omega[0] == J_hat - 0.02 * (J_hat - c_k)
    assert np.array_equal(
        nxt.omega[1:], (Omega_hat - 0.02 * (np.outer(v, v) * td)).ravel())


def test_gap_probe_reads_nonfinite_for_unstable_gain():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    probe = ResidualProbe(LqrProblem(system))
    vals = probe.compute(np.full(6, -5.0), np.zeros(26))
    assert list(vals) == ["gap", "y", "stabilizing"]
    assert math.isnan(vals["gap"]) and math.isnan(vals["y"])
    _, K_star = dare_solve(system)
    vals = probe.compute(K_star.ravel(), np.zeros(26))
    assert vals["gap"] == pytest.approx(0.0, abs=1e-12)
    assert vals["stabilizing"] == 1.0


def test_goperator_residual_shrinks_as_sqrt_n():
    system = paper_lqr_3x2(psi_scale=0.25, sigma=0.5)
    _, K_star = dare_solve(system)
    K = 0.5 * K_star
    resid = [goperator_residual(system, K, n, SeededRng((20, n)))
             for n in (1000, 10000, 100000)]
    for big, small in zip(resid, resid[1:]):
        ratio = big / small
        assert math.sqrt(10.0) / 2.0 < ratio < 2.0 * math.sqrt(10.0)
