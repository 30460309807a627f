import numpy as np
import pytest

from twoscale.numerics import SeededRng, SingularMatrixError, linear_solve
from twoscale.tdc import (LinearFeatures, TabularMdp, TdcInstance, TdcProblem,
                          bellman_reward, dump_instance, exact_mspbe,
                          exact_omega_star, generate_instance, load_instance,
                          Td0Problem, run_td0, sample_transition,
                          sample_transitions, td0_sample, tdc_sample)
from twoscale.harness import parse_schedule_spec


def enum_mean(inst, theta, omega):
    """Exhaustive (s, a, s') enumeration of the sampled operator pair,
    weighted by mu_b(s) pi_b(a|s) P(s'|s,a). Independent of the cached
    expectation matrices."""
    S, A = inst.mdp.n_states, inst.mdp.n_actions
    F = np.zeros_like(theta)
    G = np.zeros_like(omega)
    for s in range(S):
        for a in range(A):
            w_sa = inst.mu_b[s] * inst.pi_behavior[s, a]
            for sp in range(S):
                w = w_sa * inst.mdp.P[s, a, sp]
                Fs, Gs = tdc_sample(inst, theta, omega, (s, a, sp))
                F += w * Fs
                G += w * Gs
    return F, G


def enum_mean_td0(inst, theta):
    S, A = inst.mdp.n_states, inst.mdp.n_actions
    out = np.zeros_like(theta)
    for s in range(S):
        for a in range(A):
            for sp in range(S):
                w = inst.mu_b[s] * inst.pi_behavior[s, a] * inst.mdp.P[s, a, sp]
                out += w * td0_sample(inst, theta, (s, a, sp))
    return out


def test_benchmark_scale_instance_builds():
    inst = generate_instance(50, 50, 10, 0.5, seed=7)
    assert inst.bellman_residual() <= 1e-10
    assert abs(inst.mu_b.sum() - 1.0) < 1e-12
    assert np.all(inst.mu_b >= 0.0)


def test_zero_value_function_gives_zero_reward():
    inst = generate_instance(4, 3, 2, 0.5, seed=1)
    R = bellman_reward(inst.P_pi, inst.mdp.gamma, np.zeros(4))
    assert np.abs(R).max() == 0.0


def test_stationary_matches_power_iteration():
    inst = generate_instance(2, 2, 1, 0.5, seed=3)
    # independent oracle: drive the chain for 2^20 ~ 1e6 steps
    P_pow = np.linalg.matrix_power(inst.P_b, 1 << 20)
    mu = np.full(2, 0.5) @ P_pow
    assert np.abs(mu - inst.mu_b).max() <= 1e-10


def test_sample_transition_deterministic_chain():
    S, A = 3, 2
    P = np.zeros((S, A, S))
    for s in range(S):
        P[s, :, s] = 1.0   # every action stays put
    mdp = TabularMdp(P=P, r_state=np.zeros(S), gamma=0.5)
    phi = LinearFeatures(np.eye(S))
    uni = np.full((S, A), 0.5)
    inst = TdcInstance(mdp, phi, uni, uni, np.zeros(S))
    rng = SeededRng(5)
    for _ in range(200):
        s, a, sp = sample_transition(inst, rng)
        assert sp == s


def test_state_frequency_matches_stationary():
    inst = generate_instance(5, 5, 3, 0.5, seed=9)
    n = 100000
    s, a, sp = sample_transitions(inst, n, SeededRng(10))
    counts = np.bincount(s, minlength=5)
    sd = np.sqrt(n * inst.mu_b * (1 - inst.mu_b))
    assert np.all(np.abs(counts - n * inst.mu_b) <= 3.0 * sd)


class ReplayRng:
    """Hands out the given uniforms in order, one per value asked for."""

    def __init__(self, us):
        self.us = list(us)

    def uniform(self, size=None):
        if size is None:
            return self.us.pop(0)
        return np.array([self.us.pop(0) for _ in range(size)])


def test_samplers_agree_on_a_cumulative_edge():
    # each uniform sits exactly on a cumulative edge, which belongs to
    # the next index (searchsorted side="right")
    inst = generate_instance(6, 6, 3, 0.5, seed=9)
    us = (inst._cum_mu[1], inst._cum_pib[2][3], inst._cum_P[2, 4][1])
    assert sample_transition(inst, ReplayRng(us)) == (2, 4, 2)
    s, a, sp = sample_transitions(inst, 1, ReplayRng(us))
    assert (s.tolist(), a.tolist(), sp.tolist()) == ([2], [4], [2])


def test_full_support_coverage():
    inst = generate_instance(5, 5, 3, 0.5, seed=11)
    s, a, sp = sample_transitions(inst, 1000000, SeededRng(12))
    pairs = set(zip(s.tolist(), a.tolist()))
    assert len(pairs) == 25


def test_mean_operators_match_enumeration():
    inst = generate_instance(3, 3, 2, 0.7, seed=13)
    rng = SeededRng(14)
    for _ in range(5):
        theta = rng.normal(2)
        omega = rng.normal(2)
        F, G = enum_mean(inst, theta, omega)
        assert np.abs(F - inst.mean_f(theta, omega)).max() <= 1e-12
        assert np.abs(G - inst.mean_g(theta, omega)).max() <= 1e-12


def test_mean_F_zero_at_fixed_point_with_zero_omega():
    inst = generate_instance(3, 3, 2, 0.6, seed=15)
    F, _ = enum_mean(inst, inst.theta_star, np.zeros(2))
    assert np.abs(F).max() <= 1e-10


def test_tdc_sample_zero_cases():
    inst = generate_instance(4, 2, 2, 0.5, seed=16)
    theta = inst.theta_star
    # find a transition with delta == 0 is hard; instead force delta=0
    # by construction: phi(s') = phi(s) and r = 0 via a custom instance
    P = np.zeros((2, 2, 2))
    P[:, :, 0] = 1.0
    mdp = TabularMdp(P=P, r_state=np.zeros(2), gamma=0.5)
    phi = LinearFeatures(np.array([[1.0, 0.0], [1.0, 0.0]]))
    uni = np.full((2, 2), 0.5)
    inst0 = TdcInstance(mdp, phi, uni, uni, np.zeros(2))
    theta = np.array([0.0, 3.0])   # value 0 everywhere on these features
    F, G = tdc_sample(inst0, theta, np.zeros(2), (1, 0, 0))
    assert np.abs(F).max() == 0.0


def test_rank_deficient_features_sample_but_have_no_omega_star():
    P = np.zeros((2, 2, 2))
    P[:, :, 0] = 1.0
    mdp = TabularMdp(P=P, r_state=np.zeros(2), gamma=0.5)
    phi = LinearFeatures(np.array([[1.0, 0.0], [1.0, 0.0]]))
    uni = np.full((2, 2), 0.5)
    inst = TdcInstance(mdp, phi, uni, uni, np.zeros(2))
    rng = SeededRng(24)
    for _ in range(10):
        tdc_sample(inst, np.ones(2), np.ones(2), sample_transition(inst, rng))
    with pytest.raises(SingularMatrixError,
                       match="regenerate features") as info:
        exact_omega_star(inst, np.zeros(2))
    assert isinstance(info.value.__cause__, SingularMatrixError)
    with pytest.raises(SingularMatrixError, match="regenerate features"):
        exact_mspbe(inst, np.zeros(2), weighting="target")


def test_ground_truth_matches_per_call_solves():
    inst = generate_instance(12, 4, 5, 0.8, seed=25)
    rng = SeededRng(26)
    for _ in range(20):
        theta = 3.0 * rng.normal(5)
        rhs = inst.b_vec - inst.a_mat @ theta
        ref = linear_solve(inst.cov, rhs)
        ws = exact_omega_star(inst, theta)
        assert np.abs(ws - ref).max() <= 1e-12 * np.abs(ref).max()
        assert exact_mspbe(inst, theta) == pytest.approx(float(rhs @ ref),
                                                         rel=1e-12)
        rhs_pi = inst._b_pi - inst._a_pi @ theta
        ref_pi = float(rhs_pi @ linear_solve(inst._cov_pi, rhs_pi))
        assert exact_mspbe(inst, theta, weighting="target") == pytest.approx(
            ref_pi, rel=1e-12)


def test_on_policy_ratio_is_one():
    inst = generate_instance(4, 3, 2, 0.5, seed=17)
    uni = np.full((4, 3), 1.0 / 3.0)
    inst2 = TdcInstance(inst.mdp, inst.features, uni, uni, inst.theta_star)
    assert np.abs(inst2.rho - 1.0).max() <= 1e-12


def test_omega_star_at_fixed_point_is_zero():
    inst = generate_instance(4, 4, 3, 0.5, seed=18)
    # enumeration oracle: the right-hand side of the auxiliary system
    # is the enumerated mean of rho*delta*phi, zero at theta_star
    _, G0 = enum_mean(inst, inst.theta_star, np.zeros(3))
    assert np.abs(G0).max() <= 1e-10
    ws = exact_omega_star(inst, inst.theta_star)
    assert np.abs(ws).max() <= 1e-8


def test_omega_star_diagonal_with_identity_features():
    S = 3
    inst = generate_instance(S, 2, S, 0.5, seed=19)
    phi = LinearFeatures(np.eye(S))
    inst2 = TdcInstance(inst.mdp, phi, inst.pi_target, inst.pi_behavior,
                        np.zeros(S))
    rng = SeededRng(20)
    theta = rng.normal(S)
    ws = exact_omega_star(inst2, theta)
    # with orthogonal features the system is diagonal: solve per state
    rhs = inst2.b_vec - inst2.a_mat @ theta
    assert np.allclose(inst2.mu_b * ws, rhs, atol=1e-12)


def test_mean_G_vanishes_at_omega_star_monte_carlo():
    inst = generate_instance(4, 4, 3, 0.5, seed=21)
    rng = SeededRng(22)
    theta = rng.normal(3)
    ws = exact_omega_star(inst, theta)
    n = 100000
    s, a, sp = sample_transitions(inst, n, SeededRng(23))
    acc = np.zeros(3)
    for i in range(n):
        _, G = tdc_sample(inst, theta, ws, (int(s[i]), int(a[i]), int(sp[i])))
        acc += G
    assert np.abs(acc / n).max() < 5e-2   # 3-sigma scale band


def test_mspbe_zero_at_fixed_point_positive_elsewhere():
    inst = generate_instance(5, 5, 3, 0.5, seed=24)
    assert exact_mspbe(inst, inst.theta_star) <= 1e-10
    e1 = np.zeros(3)
    e1[0] = 1.0
    assert exact_mspbe(inst, inst.theta_star + e1) > 1e-6


def test_mspbe_matches_normal_equation_oracle():
    inst = generate_instance(4, 3, 2, 0.6, seed=25)
    rng = SeededRng(26)
    theta = rng.normal(2)
    # independent oracle in state space: project the Bellman residual
    # by solving the normal equations, then take the weighted norm
    Phi = inst.features.Phi
    D = np.diag(inst.mu_b)
    v = inst.mdp.r_state + inst.mdp.gamma * inst.P_pi @ (Phi @ theta) \
        - Phi @ theta
    w = linear_solve(Phi.T @ D @ Phi, Phi.T @ D @ v)
    proj = Phi @ w
    oracle = float(proj @ D @ proj)
    assert exact_mspbe(inst, theta) == pytest.approx(oracle, rel=1e-10)


def test_td0_sample_cases():
    inst = generate_instance(3, 3, 2, 0.5, seed=27)
    mean = enum_mean_td0(inst, inst.theta_star)
    assert np.abs(mean).max() <= 1e-10


def test_invariant_g_root_over_random_points():
    inst = generate_instance(5, 5, 3, 0.5, seed=28)
    rng = SeededRng(29)
    for _ in range(20):
        theta = rng.normal(3)
        ws = exact_omega_star(inst, theta)
        _, G = enum_mean(inst, theta, ws)
        assert np.abs(G).max() <= 1e-10


def test_invariant_gradient_matches_mspbe_finite_differences():
    inst = generate_instance(5, 5, 3, 0.5, seed=30)
    rng = SeededRng(31)
    h = 1e-5
    for _ in range(10):
        theta = rng.normal(3)
        F, _ = enum_mean(inst, theta, exact_omega_star(inst, theta))
        fd = np.zeros(3)
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd[i] = (exact_mspbe(inst, theta + e)
                     - exact_mspbe(inst, theta - e)) / (2 * h)
        assert np.abs(F - fd).max() <= 1e-4 * max(1.0, np.abs(fd).max())


def test_feature_covariance_positive_definite():
    inst = generate_instance(5, 5, 3, 0.5, seed=32)
    np.linalg.cholesky(inst.cov)   # raises if not SPD


def test_instance_determinism_via_dump_bytes(tmp_path):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    dump_instance(generate_instance(6, 4, 3, 0.5, seed=33), p1)
    dump_instance(generate_instance(6, 4, 3, 0.5, seed=33), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_dump_load_round_trip(tmp_path):
    inst = generate_instance(5, 3, 2, 0.7, seed=34)
    path = tmp_path / "inst.txt"
    dump_instance(inst, path)
    back = load_instance(path)
    assert np.array_equal(back.mdp.P, inst.mdp.P)
    assert np.array_equal(back.features.Phi, inst.features.Phi)
    assert np.array_equal(back.pi_target, inst.pi_target)
    assert np.array_equal(back.theta_star, inst.theta_star)
    assert np.array_equal(back.mdp.r_state, inst.mdp.r_state)
    path2 = tmp_path / "inst2.txt"
    dump_instance(back, path2)
    # seed field differs (not serialized as provenance), rest identical
    assert path.read_text().splitlines()[1:] == \
        path2.read_text().splitlines()[1:]


@pytest.mark.parametrize("seed,token", [(34, "34"), ((1, 2), "1,2"),
                                        ((7,), "7,"), (None, "-1")])
def test_dump_load_round_trips_the_seed(tmp_path, seed, token):
    inst = generate_instance(4, 3, 2, 0.5, seed=34)
    inst = TdcInstance(inst.mdp, inst.features, inst.pi_target,
                       inst.pi_behavior, inst.theta_star, seed=seed)
    path = tmp_path / "inst.txt"
    dump_instance(inst, path)
    assert path.read_text().splitlines()[0].split()[5] == token
    back = load_instance(path)
    assert back.seed == seed and type(back.seed) is type(seed)
    assert np.array_equal(back.mdp.P, inst.mdp.P)


def test_behavior_policy_full_support_required():
    inst = generate_instance(3, 2, 2, 0.5, seed=35)
    bad = inst.pi_behavior.copy()
    bad[0] = [1.0, 0.0]
    with pytest.raises(ValueError):
        TdcInstance(inst.mdp, inst.features, inst.pi_target, bad,
                    inst.theta_star)


def test_run_td0_shrinks_error():
    inst = generate_instance(10, 5, 3, 0.5, seed=36)
    sched = parse_schedule_spec("appendixD")
    tr = run_td0(inst, sched, 20000, seed=(36, 0), stride=1000)
    assert not tr.flagged
    assert tr.metrics["z"][-1] < 0.05 * tr.metrics["z"][0]


def test_problem_adapter_dimensions_and_metrics():
    inst = generate_instance(6, 4, 3, 0.5, seed=37)
    problem = TdcProblem(inst)
    assert problem.dim_theta == problem.dim_omega == 3
    F, G, env = problem.sample(np.zeros(3), np.zeros(3), None, SeededRng(1))
    assert F.shape == (3,) and G.shape == (3,) and env is None
    assert problem.h(inst.theta_star) <= 1e-10


def test_td0_problem_runs_the_td0_update_under_standard():
    inst = generate_instance(10, 5, 3, 0.5, seed=38)
    sched = parse_schedule_spec("appendixD")
    problem = Td0Problem(inst)
    assert problem.dim_omega == 0
    n_iters, stride = 300, 100
    tr = run_td0(inst, sched, n_iters, seed=(38, 0), stride=stride)
    # straight-line TD(0): theta -= alpha_k * td0_sample, one transition
    # per step, z and both projected Bellman errors at every stride
    rng = SeededRng((38, 0))
    theta = np.zeros(3)
    z, x, x_pi = [], [], []
    for k in range(n_iters + 1):
        if k % stride == 0:
            d = theta - inst.theta_star
            z.append(float(d @ d))
            x.append(exact_mspbe(inst, theta))
            x_pi.append(exact_mspbe(inst, theta, weighting="target"))
        if k < n_iters:
            theta = theta - 5e-4 * td0_sample(inst, theta,
                                              sample_transition(inst, rng))
    assert list(tr.metrics) == ["z", "x", "mspbe_pi"]
    assert np.array_equal(tr.ks, np.arange(0, n_iters + 1, stride))
    assert np.array_equal(tr.metrics["z"], z)
    assert np.array_equal(tr.metrics["x"], x)
    assert np.array_equal(tr.metrics["mspbe_pi"], x_pi)
