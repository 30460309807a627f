import math

import numpy as np
import pytest

from twoscale.numerics import SeededRng
from twoscale.solver import (ConfigurationError, NonFiniteError,
                             ResidualProbe, SolverState, TwoTimeScaleProblem,
                             averaging_update, custom_schedule, estimate_rate,
                             fast_step, make_polynomial_schedule,
                             make_sqrt_schedule, run, standard_step)
from twoscale.synthetic import make_quadratic


def quad(seed=3, sigma=0.1):
    problem, _ = make_quadratic(5, 5, seed=seed, condition_number=10.0,
                                sigma_noise=sigma)
    return problem


class CountingProblem(TwoTimeScaleProblem):
    def __init__(self, inner):
        self.inner = inner
        self.dim_theta = inner.dim_theta
        self.dim_omega = inner.dim_omega
        self.exact = inner.exact
        self.calls = 0

    def sample(self, theta, omega, rng):
        self.calls += 1
        return self.inner.sample(theta, omega, rng)


# --- averaging_update --------------------------------------------------------

def test_averaging_full_replacement():
    v = np.array([2.0, -7.0, 0.25])
    s = np.array([1.0, 1.0, 1.0])
    assert np.array_equal(averaging_update(v, 1.0, s), s)


def test_averaging_rejects_zero_weight():
    with pytest.raises(ConfigurationError):
        averaging_update(np.zeros(2), 0.0, np.ones(2))
    with pytest.raises(ConfigurationError):
        averaging_update(np.zeros(2), 1.5, np.ones(2))


def test_averaging_hand_example():
    # independent scalar loop as the oracle
    v = np.array([1.0, 1.0])
    s = np.array([3.0, -1.0])
    lam = 0.25
    expected = np.array([(1 - lam) * v[i] + lam * s[i] for i in range(2)])
    got = averaging_update(v, lam, s)
    assert np.array_equal(got, expected)
    assert np.allclose(got, [1.5, 0.5])


def test_averaging_dim_mismatch():
    with pytest.raises(ValueError):
        averaging_update(np.zeros(2), 0.5, np.zeros(3))


# --- schedules ----------------------------------------------------------------

def test_polynomial_schedule_values():
    s = make_polynomial_schedule(0.8, 5e-4, 2e-3, 9.0)
    assert s.lam(0) == pytest.approx(0.08, abs=1e-15)
    assert s.lam(40) == pytest.approx(0.016, abs=1e-15)
    s2 = make_polynomial_schedule(1.0, 1.0, 1.0, 1.0)
    assert s2.alpha(0) == 0.5


def test_polynomial_schedule_product_identity():
    s = make_polynomial_schedule(2.5, 0.7, 1.1, 12.0)
    lam, alp, bet = s.tabulate(100)
    den = np.arange(100) + 13.0
    for arr, c in ((lam, 2.5), (alp, 0.7), (bet, 1.1)):
        assert np.allclose(arr * den, c, rtol=1e-14)


def test_polynomial_schedule_validation():
    with pytest.raises(ConfigurationError):
        make_polynomial_schedule(0.0, 1.0, 1.0, 2.0)
    with pytest.raises(ConfigurationError):
        make_polynomial_schedule(1.0, 1.0, 1.0, 0.5)


def test_sqrt_schedule_values():
    s = make_sqrt_schedule(0.01, 0.02)
    assert s.lam(0) == 0.25
    assert s.lam(3) == 0.125
    assert s.alpha(99) == pytest.approx(0.001, abs=1e-18)


def test_sqrt_schedule_ordering_enforced():
    with pytest.raises(ConfigurationError):
        make_sqrt_schedule(0.1, 0.05)


def test_custom_tabulate_matches_pointwise():
    s = custom_schedule(lambda k: 1.0 / (k + 4), lambda k: 5e-4,
                        lambda k: 2e-3)
    lam, alp, bet = s.tabulate(10)
    assert lam[3] == 1.0 / 7
    assert np.all(alp == 5e-4)
    assert np.all(bet == 2e-3)


# --- single steps --------------------------------------------------------------

def test_fast_step_zero_estimates_keep_decision_variables():
    problem = quad()
    s0 = SolverState.zeros(problem, theta0=np.ones(5), omega0=np.ones(5))
    s1 = fast_step(s0, problem, make_polynomial_schedule(1.0, 1.0, 1.0, 3.0),
                   SeededRng(0))
    assert np.array_equal(s1.theta, s0.theta)
    assert np.array_equal(s1.omega, s0.omega)
    assert s1.k == 1


def test_fast_step_lambda_one_equals_raw_sample():
    problem = quad()
    sched = custom_schedule(lambda k: 1.0, lambda k: 0.01, lambda k: 0.01)
    state = SolverState.zeros(problem)
    rng = SeededRng(4)
    rng_copy = SeededRng(4)
    for _ in range(5):
        F_s, G_s = problem.sample(state.theta, state.omega, rng_copy)
        state = fast_step(state, problem, sched, rng)
        assert np.array_equal(state.f, F_s)
        assert np.array_equal(state.g, G_s)


def test_fast_step_matches_straight_line_reimplementation():
    # independent transcription of the four updates, zero noise, seed 7
    problem = quad(seed=7, sigma=0.0)
    sched = make_polynomial_schedule(2.0, 0.5, 1.0, 7.0)
    rng = SeededRng(7)
    state = SolverState(0, np.arange(5.0), -np.arange(5.0), np.full(5, 0.3),
                        np.full(5, -0.2))
    nxt = fast_step(state, problem, sched, SeededRng(7))

    lam, alpha, beta = 2.0 / 8.0, 0.5 / 8.0, 1.0 / 8.0
    F_s, G_s = problem.sample(state.theta, state.omega, rng)
    theta = state.theta - alpha * state.f
    omega = state.omega - beta * state.g
    f = (1.0 - lam) * state.f + lam * F_s
    g = (1.0 - lam) * state.g + lam * G_s
    assert np.array_equal(nxt.theta, theta)
    assert np.array_equal(nxt.omega, omega)
    assert np.array_equal(nxt.f, f)
    assert np.array_equal(nxt.g, g)


def test_standard_step_fixed_point():
    problem = quad(sigma=0.0)
    theta = problem.theta_bar.copy()
    omega = problem.omega_star(theta)
    s0 = SolverState(0, theta, omega, np.zeros(5), np.zeros(5))
    s1 = standard_step(s0, problem, make_polynomial_schedule(1, 1, 1, 3),
                       SeededRng(0))
    assert np.allclose(s1.theta, theta)
    assert np.allclose(s1.omega, omega)


def test_standard_step_zero_steps():
    problem = quad()
    sched = custom_schedule(lambda k: 1.0, lambda k: 0.0, lambda k: 0.0)
    s0 = SolverState.zeros(problem, theta0=np.ones(5))
    s1 = standard_step(s0, problem, sched, SeededRng(1))
    assert np.array_equal(s1.theta, s0.theta)
    assert np.array_equal(s1.omega, s0.omega)


def test_standard_step_matches_reimplementation():
    problem = quad(seed=7)
    sched = make_polynomial_schedule(2.0, 0.5, 1.0, 7.0)
    s0 = SolverState(0, np.ones(5), np.zeros(5), np.zeros(5), np.zeros(5))
    s1 = standard_step(s0, problem, sched, SeededRng(7))
    F_s, G_s = problem.sample(s0.theta, s0.omega, SeededRng(7))
    assert np.array_equal(s1.theta, s0.theta - (0.5 / 8.0) * F_s)
    assert np.array_equal(s1.omega, s0.omega - (1.0 / 8.0) * G_s)


def test_fast_step_rejects_nonfinite_state():
    problem = quad()
    bad = SolverState(3, np.full(5, np.inf), np.zeros(5), np.zeros(5),
                      np.zeros(5))
    with pytest.raises(NonFiniteError) as err:
        fast_step(bad, problem, make_polynomial_schedule(1, 1, 1, 3),
                  SeededRng(0))
    assert err.value.iteration == 3


# --- run -----------------------------------------------------------------------

def test_run_is_deterministic():
    problem = quad()
    probe = ResidualProbe(problem)
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    t1 = run(problem, "fast", sched, 500, seed=(1, 2), probe=probe, stride=50)
    t2 = run(problem, "fast", sched, 500, seed=(1, 2), probe=probe, stride=50)
    assert np.array_equal(t1.ks, t2.ks)
    for name in t1.metrics:
        assert np.array_equal(t1.metrics[name], t2.metrics[name])
    assert np.array_equal(t1.final_state.theta, t2.final_state.theta)


def test_run_record_grid():
    problem = quad()
    probe = ResidualProbe(problem)
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    t = run(problem, "fast", sched, 1, seed=0, probe=probe, stride=1)
    assert list(t.ks) == [0, 1]
    t = run(problem, "fast", sched, 10, seed=0, probe=probe, stride=4)
    assert list(t.ks) == [0, 4, 8, 10]


def test_run_one_oracle_call_per_iteration():
    problem = CountingProblem(quad())
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    run(problem, "fast", sched, 137, seed=5, probe=None, stride=10)
    assert problem.calls == 137
    problem.calls = 0
    run(problem, "standard", sched, 41, seed=5, probe=None, stride=10)
    assert problem.calls == 41


def test_run_matches_repeated_fast_steps():
    problem = quad()
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    trace = run(problem, "fast", sched, 7, seed=(9,), probe=None)
    state = SolverState.zeros(problem)
    rng = SeededRng((9,))
    for _ in range(7):
        state = fast_step(state, problem, sched, rng)
    assert np.array_equal(trace.final_state.theta, state.theta)
    assert np.array_equal(trace.final_state.omega, state.omega)
    assert np.array_equal(trace.final_state.f, state.f)
    assert np.array_equal(trace.final_state.g, state.g)


def test_run_lambda_one_tracks_samples():
    problem = quad()
    sched = custom_schedule(lambda k: 1.0, lambda k: 1e-3, lambda k: 1e-3)
    trace = run(problem, "fast", sched, 50, seed=8, probe=None)
    # replay: the final f must be the last sample exactly
    rng = SeededRng(8)
    state = SolverState.zeros(problem)
    last = None
    for k in range(50):
        F_s, G_s = problem.sample(state.theta, state.omega, rng)
        state = SolverState(k + 1, state.theta - 1e-3 * state.f,
                            state.omega - 1e-3 * state.g, F_s, G_s)
        last = (F_s, G_s)
    assert np.array_equal(trace.final_state.f, last[0])
    assert np.array_equal(trace.final_state.g, last[1])


def test_run_rejects_large_lambda():
    problem = quad()
    sched = custom_schedule(lambda k: 2.0, lambda k: 1e-3, lambda k: 1e-3)
    with pytest.raises(ConfigurationError):
        run(problem, "fast", sched, 10, seed=0)


class ExplodingProblem(TwoTimeScaleProblem):
    dim_theta = 2
    dim_omega = 2

    def __init__(self, blow_at):
        self.blow_at = blow_at
        self.calls = 0
        self.exact = None

    def sample(self, theta, omega, rng):
        self.calls += 1
        if self.calls > self.blow_at:
            return np.full(2, np.inf), np.zeros(2)
        return np.zeros(2), np.zeros(2)


def test_run_flags_nonfinite_sample():
    problem = ExplodingProblem(blow_at=12)
    sched = make_polynomial_schedule(1.0, 1.0, 1.0, 3.0)
    trace = run(problem, "fast", sched, 100, seed=0, probe=None, stride=5)
    assert trace.flagged
    assert trace.abort_k == 12
    assert trace.ks.max() <= 12
    assert trace.final_state is None


def test_probe_does_not_touch_run_stream():
    problem = quad()
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    bare = run(problem, "fast", sched, 200, seed=3, probe=None, stride=20)
    probed = run(problem, "fast", sched, 200, seed=3,
                 probe=ResidualProbe(problem), stride=20)
    assert np.array_equal(bare.final_state.theta, probed.final_state.theta)


def test_probe_gradient_from_mean_operator_shares_omega_star():
    inner = quad()
    calls = []

    class NoGrad(TwoTimeScaleProblem):
        dim_theta = 5
        dim_omega = 5

        def __init__(self):
            from twoscale.solver import ExactAccessors

            def omega_star(theta):
                calls.append(1)
                return inner.omega_star(theta)
            self.exact = ExactAccessors(omega_star=omega_star,
                                        mean_f=inner.mean_f,
                                        mean_g=inner.mean_g)

    probe = ResidualProbe(NoGrad())
    assert "grad_norm_sq" in probe.metric_names()
    theta = np.linspace(-1.0, 1.0, 5)
    vals = probe.compute(theta, np.zeros(5))
    assert len(calls) == 1
    grad = inner.mean_f(theta, inner.omega_star(theta))
    assert vals["grad_norm_sq"] == float(grad @ grad)
    # the identity the default rests on: mean F at omega* is grad h
    assert np.allclose(grad, inner.grad_h(theta), rtol=1e-12, atol=1e-12)


def test_probe_monte_carlo_fallback():
    inner = quad(sigma=0.2)

    class NoMean(TwoTimeScaleProblem):
        dim_theta = 5
        dim_omega = 5

        def __init__(self):
            from twoscale.solver import ExactAccessors
            self.exact = ExactAccessors(omega_star=inner.omega_star)

        def sample(self, theta, omega, rng):
            return inner.sample(theta, omega, rng)

    problem = NoMean()
    probe = ResidualProbe(problem, mc_samples=4000, rng=SeededRng((5, 5)))
    theta = np.ones(5)
    omega = np.zeros(5)
    f = inner.mean_f(theta, omega)
    vals = probe.compute(theta, omega, f=f, g=inner.mean_g(theta, omega))
    # mc mean of sampled F around its true mean: O(sigma/sqrt(n)) error
    assert vals["delta_f_sq"] < (5 * 0.2 / math.sqrt(4000)) ** 2 * 25


# --- estimate_rate ---------------------------------------------------------------

def test_estimate_rate_exact_power_laws():
    ks = np.arange(1, 2001)
    fit = estimate_rate(ks, 5.0 / ks, window=0.5)
    assert abs(fit.slope + 1.0) < 1e-9
    fit = estimate_rate(ks, 3.0 / np.sqrt(ks), window=0.5)
    assert abs(fit.slope + 0.5) < 1e-9
    assert fit.r_squared > 1.0 - 1e-12


def test_estimate_rate_needs_two_points_after_k0():
    with pytest.raises(ValueError, match="2 points"):
        estimate_rate(np.array([0, 100]), np.array([2.0, 1.0]), window=0.5)
    fit = estimate_rate(np.array([0, 10, 100]), np.array([3.0, 1.0, 0.1]))
    assert fit.slope == pytest.approx(-1.0, rel=1e-12)


def test_estimate_rate_rejects_nonpositive():
    ks = np.arange(1, 101)
    vals = 1.0 / ks
    vals[80] = 0.0
    with pytest.raises(ValueError, match="k=81"):
        estimate_rate(ks, vals, window=0.5)
