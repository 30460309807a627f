import numpy as np
import pytest

from twoscale.numerics import SeededRng
from twoscale.solver import (DRAW_BLOCK, ConfigurationError, ResidualProbe,
                             SolverState, TwoTimeScaleProblem, custom_schedule,
                             estimate_rate, make_polynomial_schedule,
                             make_sqrt_schedule, run)
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

    def sample(self, theta, omega, env, rng):
        self.calls += 1
        return self.inner.sample(theta, omega, env, rng)


class ConstantProblem(TwoTimeScaleProblem):
    """Oracle drawing nothing and returning the same (F, G) every time."""

    exact = None

    def __init__(self, F, G):
        self.F, self.G = np.asarray(F, float), np.asarray(G, float)
        self.dim_theta, self.dim_omega = self.F.size, self.G.size

    def sample(self, theta, omega, env, rng):
        return self.F, self.G, None


def one_fast_step(problem, lam, f, g):
    """Final state of one `run` step with weight lam and zero steps."""
    sched = custom_schedule(lambda k: lam, lambda k: 0.0, lambda k: 0.0)
    state = SolverState(0, np.zeros(problem.dim_theta),
                        np.zeros(problem.dim_omega), f, g)
    return run(problem, "fast", sched, 1, seed=0, init_state=state).final_state


# --- the averaging update inside run -------------------------------------------

def test_averaging_full_replacement():
    v = np.array([2.0, -7.0, 0.25])
    s = np.array([1.0, 1.0, 1.0])
    out = one_fast_step(ConstantProblem(s, s), 1.0, v, v)
    assert np.array_equal(out.f, s)
    assert np.array_equal(out.g, s)


def test_averaging_rejects_zero_weight():
    problem = ConstantProblem(np.ones(2), np.ones(2))
    with pytest.raises(ConfigurationError):
        one_fast_step(problem, 0.0, np.zeros(2), np.zeros(2))
    with pytest.raises(ConfigurationError):
        one_fast_step(problem, 1.5, np.zeros(2), np.zeros(2))


def test_averaging_hand_example():
    # independent scalar loop as the oracle
    v = np.array([1.0, 1.0])
    s = np.array([3.0, -1.0])
    lam = 0.25
    expected = np.array([(1 - lam) * v[i] + lam * s[i] for i in range(2)])
    got = one_fast_step(ConstantProblem(s, s), lam, v, v).f
    assert np.array_equal(got, expected)
    assert np.allclose(got, [1.5, 0.5])


def test_averaging_dim_mismatch():
    # a sample whose shape differs from the running average's
    with pytest.raises(ValueError):
        one_fast_step(ConstantProblem(np.zeros(3), np.zeros(3)), 0.5,
                      np.zeros(2), np.zeros(3))


@pytest.mark.parametrize("state", [
    # theta and omega split at the wrong place
    SolverState(0, np.zeros(4), np.zeros(6), np.zeros(5), np.zeros(5)),
    # g one entry short
    SolverState(0, np.zeros(5), np.zeros(5), np.zeros(5), np.zeros(4)),
    # a zeros state built from a start one entry long
    SolverState.zeros(ConstantProblem(np.zeros(5), np.zeros(5)),
                      theta0=np.zeros(6))])
def test_run_checks_the_initial_state_dimensions(state):
    problem = ConstantProblem(np.zeros(5), np.zeros(5))
    sched = make_polynomial_schedule(1.0, 1.0, 1.0, 3.0)
    with pytest.raises(ValueError, match="dimensions"):
        run(problem, "fast", sched, 3, seed=0, init_state=state)


# --- schedules ----------------------------------------------------------------

def test_polynomial_schedule_values():
    lam, alp, bet = make_polynomial_schedule(0.8, 5e-4, 2e-3, 9.0).tabulate(41)
    assert lam[0] == pytest.approx(0.08, abs=1e-15)
    assert lam[40] == pytest.approx(0.016, abs=1e-15)
    assert bet[0] == pytest.approx(2e-4, abs=1e-18)
    _, alp2, _ = make_polynomial_schedule(1.0, 1.0, 1.0, 1.0).tabulate(1)
    assert alp2[0] == 0.5


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
    lam, alp, bet = make_sqrt_schedule(0.01, 0.02).tabulate(100)
    assert lam[0] == 0.25
    assert lam[3] == 0.125
    assert alp[99] == pytest.approx(0.001, abs=1e-18)
    assert bet[99] == pytest.approx(0.002, abs=1e-18)


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


# --- single steps of run --------------------------------------------------------

def test_fast_step_zero_estimates_keep_decision_variables():
    problem = quad()
    s0 = SolverState.zeros(problem, theta0=np.ones(5), omega0=np.ones(5))
    s1 = run(problem, "fast", make_polynomial_schedule(1.0, 1.0, 1.0, 3.0),
             1, seed=0, init_state=s0).final_state
    assert np.array_equal(s1.theta, s0.theta)
    assert np.array_equal(s1.omega, s0.omega)
    assert s1.k == 1


def test_fast_step_lambda_one_equals_raw_sample():
    problem = quad()
    sched = custom_schedule(lambda k: 1.0, lambda k: 0.01, lambda k: 0.01)
    state = SolverState.zeros(problem)
    rng_copy = SeededRng(4)
    for n in range(1, 6):
        # the n-th sample is drawn at the state after n - 1 steps
        F_s, G_s, _ = problem.sample(state.theta, state.omega, None, rng_copy)
        state = run(problem, "fast", sched, n, seed=4).final_state
        assert np.array_equal(state.f, F_s)
        assert np.array_equal(state.g, G_s)


def test_fast_step_matches_straight_line_reimplementation():
    # independent transcription of the four updates, zero noise, seed 7
    problem = quad(seed=7, sigma=0.0)
    sched = make_polynomial_schedule(2.0, 0.5, 1.0, 7.0)
    rng = SeededRng(7)
    state = SolverState(0, np.arange(5.0), -np.arange(5.0), np.full(5, 0.3),
                        np.full(5, -0.2))
    nxt = run(problem, "fast", sched, 1, seed=7, init_state=state).final_state

    lam, alpha, beta = 2.0 / 8.0, 0.5 / 8.0, 1.0 / 8.0
    F_s, G_s, _ = problem.sample(state.theta, state.omega, None, rng)
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
    s1 = run(problem, "standard", make_polynomial_schedule(1, 1, 1, 3), 1,
             seed=0, init_state=s0).final_state
    assert np.allclose(s1.theta, theta)
    assert np.allclose(s1.omega, omega)


def test_standard_step_zero_steps():
    problem = quad()
    sched = custom_schedule(lambda k: 1.0, lambda k: 0.0, lambda k: 0.0)
    s0 = SolverState.zeros(problem, theta0=np.ones(5))
    s1 = run(problem, "standard", sched, 1, seed=1, init_state=s0).final_state
    assert np.array_equal(s1.theta, s0.theta)
    assert np.array_equal(s1.omega, s0.omega)


def test_standard_step_matches_reimplementation():
    problem = quad(seed=7)
    sched = make_polynomial_schedule(2.0, 0.5, 1.0, 7.0)
    s0 = SolverState(0, np.ones(5), np.zeros(5), np.zeros(5), np.zeros(5))
    s1 = run(problem, "standard", sched, 1, seed=7, init_state=s0).final_state
    F_s, G_s, _ = problem.sample(s0.theta, s0.omega, None, SeededRng(7))
    assert np.array_equal(s1.theta, s0.theta - (0.5 / 8.0) * F_s)
    assert np.array_equal(s1.omega, s0.omega - (1.0 / 8.0) * G_s)
    # the (f, g) slots are left untouched
    assert np.array_equal(s1.f, s0.f) and np.array_equal(s1.g, s0.g)


def test_fast_step_rejects_nonfinite_state():
    problem = quad()
    bad = SolverState(0, np.full(5, np.inf), np.zeros(5), np.zeros(5),
                      np.zeros(5))
    trace = run(problem, "fast", make_polynomial_schedule(1, 1, 1, 3), 10,
                seed=0, init_state=bad)
    assert trace.flagged
    assert trace.abort_k == 0
    assert trace.final_state is None


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
    rng = SeededRng((9,))
    theta, omega, f, g = np.zeros(5), np.zeros(5), np.zeros(5), np.zeros(5)
    for k in range(7):
        lam, alpha, beta = 40.0 / (k + 161.0), 16.0 / (k + 161.0), \
            16.0 / (k + 161.0)
        F_s, G_s, _ = problem.sample(theta, omega, None, rng)
        theta, omega = theta - alpha * f, omega - beta * g
        f = (1.0 - lam) * f + lam * F_s
        g = (1.0 - lam) * g + lam * G_s
    assert np.array_equal(trace.final_state.theta, theta)
    assert np.array_equal(trace.final_state.omega, omega)
    assert np.array_equal(trace.final_state.f, f)
    assert np.array_equal(trace.final_state.g, g)


def test_run_lambda_one_tracks_samples():
    problem = quad()
    sched = custom_schedule(lambda k: 1.0, lambda k: 1e-3, lambda k: 1e-3)
    trace = run(problem, "fast", sched, 50, seed=8, probe=None)
    # replay: the final f must be the last sample exactly
    rng = SeededRng(8)
    state = SolverState.zeros(problem)
    last = None
    for k in range(50):
        F_s, G_s, _ = problem.sample(state.theta, state.omega, None, rng)
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

    def sample(self, theta, omega, env, rng):
        self.calls += 1
        if self.calls > self.blow_at:
            return np.full(2, np.inf), np.zeros(2), None
        return np.zeros(2), np.zeros(2), None


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
    theta = np.linspace(-1.0, 1.0, 5)
    vals = probe.compute(theta, np.zeros(5))
    assert "grad_norm_sq" in vals
    assert len(calls) == 1
    grad = inner.mean_f(theta, inner.omega_star(theta))
    assert vals["grad_norm_sq"] == float(grad @ grad)
    # the identity the default rests on: mean F at omega* is grad h
    assert np.allclose(grad, inner.grad_h(theta), rtol=1e-12, atol=1e-12)


def test_record_tests_each_metric_value_for_finiteness():
    # two finite values whose sum overflows must not flag the run
    problem = ConstantProblem(np.zeros(2), np.zeros(2))
    probe = ResidualProbe(problem,
                          extra=lambda th, om: {"a": 1e308, "b": 1e308})
    sched = make_polynomial_schedule(1.0, 1.0, 1.0, 3.0)
    trace = run(problem, "fast", sched, 10, seed=0, probe=probe, stride=5)
    assert not trace.flagged
    assert list(trace.ks) == [0, 5, 10]
    assert np.all(trace.metrics["a"] == 1e308)
    # one non-finite value among finite ones does flag it, at k = 0
    probe = ResidualProbe(problem,
                          extra=lambda th, om: {"a": 1.0, "b": np.nan})
    trace = run(problem, "fast", sched, 10, seed=0, probe=probe, stride=5)
    assert trace.flagged and trace.abort_k == 0 and trace.ks.size == 0


def test_residual_columns_only_when_the_probe_can_compute_them():
    problem = ConstantProblem(np.zeros(2), np.zeros(2))
    probe = ResidualProbe(problem, extra=lambda th, om: {"m": 1.0})
    sched = make_polynomial_schedule(1.0, 1.0, 1.0, 3.0)
    assert list(run(problem, "fast", sched, 3, seed=0,
                    probe=probe).metrics) == ["m"]
    assert probe.compute(np.zeros(2), np.zeros(2), f=np.zeros(2),
                         g=np.zeros(2)) == {"m": 1.0}
    assert "delta_f_sq" in ResidualProbe(quad()).compute(
        np.zeros(5), np.zeros(5), f=np.zeros(5), g=np.zeros(5))


class CountingChain(TwoTimeScaleProblem):
    """Markov oracle whose env counts the samples drawn so far."""

    dim_theta = 1
    dim_omega = 1
    exact = None

    def __init__(self):
        self.first = None

    def init_env(self, rng):
        self.first = float(rng.uniform())
        return 0

    def sample(self, theta, omega, env, rng):
        return np.array([float(env)]), np.zeros(1), env + 1


def test_run_draws_first_env_from_replica_stream_and_threads_it():
    problem = CountingChain()
    sched = custom_schedule(lambda k: 1.0, lambda k: 1.0, lambda k: 1.0)
    trace = run(problem, "standard", sched, 4, seed=(3, 1))
    assert problem.first == float(SeededRng((3, 1)).uniform())
    # theta moves by -(0 + 1 + 2 + 3): the env advanced once per sample
    assert trace.final_state.theta[0] == -6.0


def test_sample_entries_are_tested_one_by_one():
    # every entry finite, their sum past the largest double: no flag
    problem = ConstantProblem([1e308, 1e308], [1e308, 0.0])
    sched = make_polynomial_schedule(1.0, 1e-300, 1e-300, 3.0)
    trace = run(problem, "fast", sched, 10, seed=0, stride=5)
    assert not trace.flagged and list(trace.ks) == [0, 5, 10]
    assert np.all(np.isfinite(trace.final_state.f))
    trace = run(ConstantProblem([1.0, np.inf], [0.0, 0.0]), "fast", sched,
                10, seed=0, stride=5)
    assert trace.flagged and trace.abort_k == 0


# --- batches of replicas ----------------------------------------------------------

def straight_line_fast(problem, sched, n, rng):
    """Serial fast loop drawing one normal vector per iteration."""
    lam, alp, bet = sched.tabulate(n)
    d = problem.dim_theta
    theta, omega = np.zeros(d), np.zeros(problem.dim_omega)
    f, g = np.zeros(d), np.zeros(problem.dim_omega)
    for k in range(n):
        z = rng.normal(d + problem.dim_omega)
        F_s = problem.mean_f(theta, omega) + problem.sigma_noise * z[:d]
        G_s = problem.mean_g(theta, omega) + problem.sigma_noise * z[d:]
        theta, omega = theta - alp[k] * f, omega - bet[k] * g
        f = (1.0 - lam[k]) * f + lam[k] * F_s
        g = (1.0 - lam[k]) * g + lam[k] * G_s
    return theta, omega, f, g


@pytest.mark.parametrize("n_iters,stride", [
    (1, 1), (DRAW_BLOCK, 1), (DRAW_BLOCK + 3, 1), (2 * DRAW_BLOCK + 1, 7)])
@pytest.mark.parametrize("dims", [(5, 5), (3, 2)])
def test_block_draws_match_serial_draws(n_iters, stride, dims):
    # d + r odd (3, 2) cannot share Box-Muller pairs across samples
    problem, _ = make_quadratic(*dims, seed=2, sigma_noise=0.3)
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    traces = run(problem, "fast", sched, n_iters, seed=(4, 1, 0),
                 probe=ResidualProbe(problem), stride=stride, runs=3)
    for j, trace in enumerate(traces):
        rng = SeededRng((4, 1, j))
        want = straight_line_fast(problem, sched, n_iters, rng)
        got = trace.final_state
        for a, b in zip((got.theta, got.omega, got.f, got.g), want):
            assert np.array_equal(a, b)
        assert trace.ks[-1] == n_iters and len(trace.ks) == \
            -(-n_iters // stride) + 1


class CountingRng(SeededRng):
    def __init__(self, seed):
        super().__init__(seed)
        self.values = 0

    def normal(self, size):
        self.values += size
        return super().normal(size)


def test_draw_blocks_are_clipped_to_the_iterations_left():
    problem = quad()
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    n_iters = DRAW_BLOCK + 3
    rng = CountingRng(6)
    run(problem, "fast", sched, n_iters, seed=rng)
    assert rng.values == n_iters * 10
    # the stream stands where n_iters serial draws leave it
    serial = SeededRng(6)
    for _ in range(n_iters):
        serial.normal(10)
    assert rng.uniform() == serial.uniform()


class Flaky(TwoTimeScaleProblem):
    """F = [u] for one uniform u per sample, infinite when u > 0.999."""

    dim_theta = 1
    dim_omega = 1
    exact = None

    def sample(self, theta, omega, env, rng):
        u = float(rng.uniform())
        return np.array([np.inf if u > 0.999 else u]), np.zeros(1), None


class BlockFlaky(Flaky):
    """Flaky with its uniforms drawn in blocks and applied as a batch."""

    def draw(self, rng, count):
        return rng.uniform(count).reshape(count, 1)

    def apply(self, X, envs, noise, rngs, S):
        S[:, :1, 0] = np.where(noise > 0.999, np.inf, noise)
        S[:, 1:] = 0.0


@pytest.mark.parametrize("problem", [Flaky(), BlockFlaky()])
def test_flagged_replica_keeps_its_alone_trace_in_a_mixed_batch(problem):
    # theta drifts down by about 0.005 a step; the probe's metric goes
    # non-finite below -2.8, which some replicas reach before the end
    probe = ResidualProbe(problem, extra=lambda th, om: {
        "m": np.nan if th[0] < -2.8 else th[0]})
    sched = custom_schedule(lambda k: 0.5, lambda k: 0.01, lambda k: 0.01)
    n_iters = 2 * DRAW_BLOCK + 50
    batch = run(problem, "fast", sched, n_iters, seed=(1, 0), probe=probe,
                stride=3, runs=12)
    alone = [run(problem, "fast", sched, n_iters, seed=(1, j), probe=probe,
                 stride=3) for j in range(12)]
    causes = set()
    for a, b in zip(alone, batch):
        assert (a.flagged, a.abort_k) == (b.flagged, b.abort_k)
        assert np.array_equal(a.ks, b.ks)
        assert np.array_equal(a.metrics["m"], b.metrics["m"])
        if a.flagged:
            causes.add(a.abort_k % 3 == 0 and a.ks.size <= a.abort_k // 3)
        else:
            assert np.array_equal(a.final_state.theta, b.final_state.theta)
            assert np.array_equal(a.final_state.f, b.final_state.f)
    # some replicas flag, some at a sample and some at a record, some not
    assert 0 < sum(t.flagged for t in batch) < 12
    assert causes == {True, False}


def test_runs_needs_a_count_and_a_seed_to_advance():
    problem = quad()
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    with pytest.raises(ConfigurationError):
        run(problem, "fast", sched, 5, seed=1, runs=0)
    with pytest.raises(ConfigurationError):
        run(problem, "fast", sched, 5, seed=SeededRng(1), runs=2)
    # an int seed advances itself
    traces = run(problem, "fast", sched, 5, seed=8, runs=2)
    assert np.array_equal(traces[1].final_state.theta,
                          run(problem, "fast", sched, 5,
                              seed=9).final_state.theta)


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
