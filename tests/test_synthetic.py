import numpy as np
import pytest

from twoscale.numerics import SeededRng
from twoscale.solver import ResidualProbe, custom_schedule, run
from twoscale.synthetic import make_nonconvex, make_pl, make_quadratic


def char_poly_min_eig_3x3(M):
    """Smallest eigenvalue via characteristic-polynomial roots (cubic)."""
    a, b, c = M[0], M[1], M[2]
    trace = M[0, 0] + M[1, 1] + M[2, 2]
    minors = (M[1, 1] * M[2, 2] - M[1, 2] * M[2, 1]
              + M[0, 0] * M[2, 2] - M[0, 2] * M[2, 0]
              + M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0])
    det = (a[0] * (b[1] * c[2] - b[2] * c[1])
           - a[1] * (b[0] * c[2] - b[2] * c[0])
           + a[2] * (b[0] * c[1] - b[1] * c[0]))
    roots = np.roots([1.0, -trace, minors, -det])
    return float(np.real(roots).min())


def test_isotropic_case():
    problem, consts = make_quadratic(4, 4, seed=1, condition_number=1.0,
                                     sigma_noise=0.0)
    assert np.allclose(problem.Q_h, np.eye(4), atol=1e-12)
    assert consts.mu_h == pytest.approx(1.0, abs=1e-10)


def test_gradient_zero_at_minimizer():
    problem, _ = make_quadratic(5, 5, seed=2, sigma_noise=0.0)
    assert np.abs(problem.grad_h(problem.theta_bar)).max() == 0.0


def test_mu_h_matches_characteristic_cubic():
    problem, consts = make_quadratic(3, 3, seed=4, condition_number=7.0,
                                     sigma_noise=0.1)
    assert consts.mu_h == pytest.approx(char_poly_min_eig_3x3(problem.Q_h),
                                        rel=1e-8)


def test_sample_at_joint_root_is_zero():
    problem, _ = make_quadratic(5, 5, seed=3, sigma_noise=0.0)
    theta = problem.theta_bar
    omega = problem.omega_star(theta)
    F, G, _ = problem.sample(theta, omega, None, SeededRng(0))
    assert np.abs(F).max() == 0.0
    assert np.abs(G).max() == 0.0


def test_sample_at_auxiliary_root_is_gradient():
    problem, _ = make_quadratic(5, 5, seed=3, sigma_noise=0.0)
    rng = SeededRng(5)
    for _ in range(10):
        theta = rng.normal(5)
        F, _, _ = problem.sample(theta, problem.omega_star(theta), None,
                                 SeededRng(0))
        assert np.allclose(F, problem.grad_h(theta), atol=1e-12)


def test_sample_mean_monte_carlo():
    problem, _ = make_quadratic(4, 3, seed=6, sigma_noise=0.1)
    rng = SeededRng(77)
    theta = rng.normal(4)
    omega = rng.normal(3)
    n = 100000
    F_acc = np.zeros(4)
    G_acc = np.zeros(3)
    for _ in range(n):
        F, G, _ = problem.sample(theta, omega, None, rng)
        F_acc += F
        G_acc += G
    band = 3.0 * 0.1 / np.sqrt(n)
    assert np.abs(F_acc / n - problem.mean_f(theta, omega)).max() < band
    assert np.abs(G_acc / n - problem.mean_g(theta, omega)).max() < band


def test_exact_accessor_basics():
    qp, _ = make_quadratic(5, 5, seed=0)
    assert np.array_equal(qp.theta_star, qp.theta_bar)
    pl, _ = make_pl(5, 5, seed=0)
    assert pl.h_star == 0.0
    assert pl.theta_star is None
    nc, _ = make_nonconvex(4, 4, seed=0)
    assert np.allclose(nc.grad_h(np.full(4, np.pi / 2)), np.ones(4))
    assert np.all((0.0 < nc.theta0) & (nc.theta0 < np.pi))


def test_nonconvex_run_starts_at_theta0():
    # not at the stationary point 0: zero steps leave theta at theta0
    problem, _ = make_nonconvex(4, 4, seed=0)
    sched = custom_schedule(lambda k: 0.5, lambda k: 0.0, lambda k: 0.0)
    trace = run(problem, "fast", sched, 1, seed=0,
                probe=ResidualProbe(problem))
    assert np.array_equal(trace.final_state.theta, problem.theta0)
    g = np.sin(problem.theta0)
    assert trace.metrics["grad_norm_sq"][0] == float(g @ g) > 0.1


@pytest.mark.parametrize("maker", [make_quadratic, make_pl, make_nonconvex])
def test_gradient_matches_finite_differences(maker):
    problem, _ = maker(5, 5, seed=8, sigma_noise=0.0)
    rng = SeededRng(9)
    h = 1e-5
    for _ in range(100):
        theta = rng.normal(5)
        grad = problem.grad_h(theta)
        fd = np.zeros(5)
        for i in range(5):
            e = np.zeros(5)
            e[i] = h
            fd[i] = (problem.h(theta + e) - problem.h(theta - e)) / (2 * h)
        denom = max(1.0, np.abs(grad).max())
        assert np.abs(fd - grad).max() <= 1e-6 * denom


@pytest.mark.parametrize("maker", [make_quadratic, make_pl, make_nonconvex])
def test_auxiliary_operator_strongly_monotone(maker):
    problem, consts = maker(5, 5, seed=10, sigma_noise=0.0)
    rng = SeededRng(11)
    for _ in range(1000):
        theta = rng.normal(5)
        omega = rng.normal(5)
        dw = omega - problem.omega_star(theta)
        lhs = float(problem.mean_g(theta, omega) @ dw)
        assert lhs >= consts.mu_G * float(dw @ dw) - 1e-10


def test_mean_operator_lipschitz_bound():
    problem, consts = make_quadratic(5, 5, seed=12, sigma_noise=0.0)
    rng = SeededRng(13)
    for _ in range(500):
        t1, t2 = rng.normal(5), rng.normal(5)
        w1, w2 = rng.normal(5), rng.normal(5)
        dF = np.linalg.norm(problem.mean_f(t1, w1) - problem.mean_f(t2, w2))
        dG = np.linalg.norm(problem.mean_g(t1, w1) - problem.mean_g(t2, w2))
        bound = consts.L * (np.linalg.norm(t1 - t2) + np.linalg.norm(w1 - w2))
        assert dF <= bound + 1e-10
        assert dG <= bound + 1e-10


def test_pl_inequality():
    problem, consts = make_pl(5, 5, seed=14, rank=3, sigma_noise=0.0)
    rng = SeededRng(15)
    for _ in range(1000):
        theta = rng.normal(5) * 3.0
        grad = problem.grad_h(theta)
        lhs = 0.5 * float(grad @ grad)
        rhs = consts.mu_h * problem.h(theta)
        assert lhs >= rhs - 1e-10


def test_sample_mean_converges_at_sqrt_rate():
    problem, _ = make_quadratic(4, 4, seed=16, sigma_noise=0.5)
    rng = SeededRng(17)
    theta = rng.normal(4)
    grad = problem.grad_h(theta)
    omega = problem.omega_star(theta)
    errs = []
    for n in (1000, 10000, 100000):
        acc = np.zeros(4)
        stream = SeededRng((17, n))
        for _ in range(n):
            F, _, _ = problem.sample(theta, omega, None, stream)
            acc += F
        errs.append(np.linalg.norm(acc / n - grad))
    # each tenfold sample increase should shrink the error ~ sqrt(10)
    for e_small, e_big in zip(errs, errs[1:]):
        ratio = e_small / e_big
        assert np.sqrt(10.0) / 3.0 < ratio < 3.0 * np.sqrt(10.0)


def test_instance_determinism():
    p1, c1 = make_quadratic(5, 5, seed=21)
    p2, c2 = make_quadratic(5, 5, seed=21)
    for attr in ("Q_h", "theta_bar", "W", "b", "C", "D"):
        assert np.array_equal(getattr(p1, attr), getattr(p2, attr))
    assert c1 == c2
    p3, _ = make_quadratic(5, 5, seed=22)
    assert not np.array_equal(p1.Q_h, p3.Q_h)
