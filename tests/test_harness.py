import hashlib
import math
import os
import subprocess
import sys
import tempfile
from functools import lru_cache
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twoscale import cli, harness
from twoscale.harness import (KEY_TYPES, PRESETS, AggregateSeries,
                              ExperimentConfig, HarnessError, UsageError,
                              aggregate, default_schedule, parse_config,
                              parse_schedule_spec, read_csv, render_csv,
                              run_experiment, write_csv)
from twoscale.numerics import ConvergenceError
from twoscale.solver import (DRAW_BLOCK, ConfigurationError, ResidualProbe,
                             Trace, make_polynomial_schedule, run)


def small_config(**overrides):
    base = dict(experiment="synthetic-sc", algo="fast", iters=2000, runs=3,
                seed=5, stride=200)
    base.update(overrides)
    return ExperimentConfig(**base)


# --- config parsing --------------------------------------------------------------

def test_parse_config_defaults_and_out_path():
    cfg = parse_config({"experiment": "tdc"})
    assert cfg.algo == "fast"
    assert cfg.iters == 200000 and cfg.runs == 20
    assert cfg.out_path().endswith("results/tdc-fast-1.csv")


def test_parse_config_file_and_cli_precedence(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("experiment=synthetic-sc\niters=1234\nruns=4\n")
    cfg = parse_config({"runs": 9}, config_file=str(f))
    assert cfg.experiment == "synthetic-sc"
    assert cfg.iters == 1234      # from file
    assert cfg.runs == 9          # CLI override


def test_parse_config_rejects_unknown_key(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("experiment=tdc\nbogus=1\n")
    with pytest.raises(UsageError, match="bogus"):
        parse_config({}, config_file=str(f))


def test_parse_config_rejects_malformed_value(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("experiment=tdc\niters=abc\n")
    with pytest.raises(UsageError, match="abc"):
        parse_config({}, config_file=str(f))


def test_td0_only_valid_with_tdc():
    with pytest.raises(UsageError):
        ExperimentConfig(experiment="lqr", algo="td0")


def test_config_accepts_exactly_the_algos_of_its_preset():
    algos = {a for p in PRESETS.values() for a in p.schedules} | {"bogus"}
    for experiment, preset in PRESETS.items():
        for algo in sorted(algos):
            if algo in preset.schedules:
                assert ExperimentConfig(experiment=experiment,
                                        algo=algo).algo == algo
            else:
                with pytest.raises(UsageError, match="algo must be one of"):
                    ExperimentConfig(experiment=experiment, algo=algo)


# Values of every `run` key but experiment and algo, each valid on its own.
_KEY_VALUES = {
    "schedule": st.sampled_from(("appendixD", "poly:40,16,16,160",
                                 "sqrt:0.05,0.05")),
    "iters": st.integers(1, 10**6),
    "runs": st.integers(1, 100),
    "seed": st.integers(0, 10**6),
    "stride": st.integers(1, 10**4),
    "out": st.from_regex(r"[a-z0-9_][a-z0-9_./-]{0,15}", fullmatch=True),
    "states": st.integers(1, 100),
    "actions": st.integers(1, 100),
    "dim": st.integers(1, 100),
    "gamma": st.floats(0.0, 1.0, exclude_max=True),
    "tau": st.floats(0.0, 1e6, exclude_min=True),
    "sigma": st.floats(0.0, 1e6),
}


@st.composite
def _valid_keys(draw):
    """A random valid set of `run` keys: an experiment, maybe an algo of
    its preset, and any of the other keys it reads."""
    experiment = draw(st.sampled_from(sorted(PRESETS)))
    preset = PRESETS[experiment]
    keys = {"experiment": experiment}
    if draw(st.booleans()):
        keys["algo"] = draw(st.sampled_from(sorted(preset.schedules)))
    for key, values in _KEY_VALUES.items():
        readable = key in preset.reads or key not in harness._INSTANCE_KEYS
        if readable and draw(st.booleans()):
            keys[key] = draw(values)
    return keys


def _config_of_cli(argv):
    """The config `twoscale <argv>` would run, captured at run_experiment."""
    seen = []

    class Captured(Exception):
        pass

    def capture(config):
        seen.append(config)
        raise Captured

    with mock.patch.object(cli, "run_experiment", capture):
        with pytest.raises(Captured):
            cli.main(argv)
    return seen[0]


def test_every_run_key_has_generated_values():
    assert set(KEY_TYPES) == {"experiment", "algo", *_KEY_VALUES}


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(keys=_valid_keys())
def test_cli_flags_and_config_file_give_the_same_config(tmp_path, keys):
    def text(value):
        return repr(value) if isinstance(value, float) else str(value)

    flags = [f"--{key}={text(value)}" for key, value in keys.items()
             if key != "experiment"]
    from_flags = _config_of_cli(["run", keys["experiment"], *flags])
    path = tmp_path / "cfg.txt"
    path.write_text("".join(f"{key}={text(value)}\n"
                            for key, value in keys.items()))
    from_file = _config_of_cli(["run", keys["experiment"],
                                "--config", str(path)])
    assert from_flags == from_file == ExperimentConfig(**keys)


def test_schedule_spec_reference_constants():
    lam, alp, bet = parse_schedule_spec("appendixD").tabulate(100000)
    assert alp[0] == 5e-4 and alp[99999] == 5e-4
    assert bet[12] == 2e-3
    assert lam[0] == pytest.approx(0.08, abs=1e-15)
    assert lam[40] == pytest.approx(0.016, abs=1e-15)


# Each arm's default schedule as its docstring states it, with the
# `kind`, `params` and `tau` that go into the CSV header: polynomial
# c/(k+tau+1); sqrt 1/4 and c/sqrt(k+1); the baseline lambda_k = 1,
# c/(k+tau+1)^decay; appendixD 4/(5(k+10)), 5e-4, 2e-3.
_ONE_OVER_K = {
    "fast": ("polynomial", {"c_lambda": 40.0, "c_alpha": 16.0,
                            "c_beta": 16.0, "tau": 160.0}, 160.0,
             lambda k: (40.0 / (k + 161.0), 16.0 / (k + 161.0),
                        16.0 / (k + 161.0))),
    "standard": ("custom", {"c_alpha": 2.0, "c_beta": 8.0,
                            "decay": 2.0 / 3.0, "tau": 160.0}, 160.0,
                 lambda k: (1.0, 2.0 / (k + 161.0) ** (2.0 / 3.0),
                            8.0 / (k + 161.0) ** (2.0 / 3.0))),
}
_APPENDIX_D = ("custom", {"alpha": 5e-4, "beta": 2e-3, "c_lambda": 0.8,
                          "tau": 9.0}, 9.0,
               lambda k: (4.0 / (5.0 * (k + 10.0)), 5e-4, 2e-3))
DEFAULT_SCHEDULES = {
    ("synthetic-sc", "fast"): _ONE_OVER_K["fast"],
    ("synthetic-sc", "standard"): _ONE_OVER_K["standard"],
    ("synthetic-pl", "fast"): _ONE_OVER_K["fast"],
    ("synthetic-pl", "standard"): _ONE_OVER_K["standard"],
    ("synthetic-nc", "fast"): (
        "sqrt", {"alpha0": 0.05, "beta0": 0.05}, None,
        lambda k: (0.25 / math.sqrt(k + 1.0), 0.05 / math.sqrt(k + 1.0),
                   0.05 / math.sqrt(k + 1.0))),
    ("synthetic-nc", "standard"): (
        "custom", {"alpha0": 0.05, "beta0": 0.05, "decay": 0.6}, None,
        lambda k: (1.0, 0.05 / (k + 1.0) ** 0.6, 0.05 / (k + 1.0) ** 0.6)),
    ("tdc", "fast"): _APPENDIX_D,
    ("tdc", "standard"): _APPENDIX_D,
    ("tdc", "td0"): _APPENDIX_D,
    ("lqr", "fast"): (
        "polynomial", {"c_lambda": 40.0, "c_alpha": 8.0, "c_beta": 10.0,
                       "tau": 400.0}, 400.0,
        lambda k: (40.0 / (k + 401.0), 8.0 / (k + 401.0),
                   10.0 / (k + 401.0))),
    ("lqr", "standard"): (
        "custom", {"c_alpha": 8.0, "c_beta": 2.0, "beta_decay": 2.0 / 3.0,
                   "tau": 800.0}, 800.0,
        lambda k: (1.0, 8.0 / (k + 801.0),
                   2.0 / (k + 801.0) ** (2.0 / 3.0))),
    ("regmdp", "fast"): _ONE_OVER_K["fast"],
    ("regmdp", "standard"): _ONE_OVER_K["standard"],
}


def test_default_schedules_cover_every_arm():
    arms = {(e, a) for e, preset in PRESETS.items() for a in preset.schedules}
    assert arms == set(DEFAULT_SCHEDULES)


@pytest.mark.parametrize("experiment,algo", sorted(DEFAULT_SCHEDULES))
def test_default_schedule_is_its_closed_form_bitwise(experiment, algo):
    kind, params, tau, steps = DEFAULT_SCHEDULES[experiment, algo]
    schedule = default_schedule(experiment, algo)
    assert (schedule.kind, schedule.params, schedule.tau) == (kind, params,
                                                              tau)
    n = 200_000
    expected = np.array([steps(k) for k in range(n)]).T
    for got, want in zip(schedule.tabulate(n), expected):
        assert np.array_equal(got, want)


def test_schedule_spec_poly_and_sqrt():
    s = parse_schedule_spec("poly:0.8,0.0005,0.002,9")
    assert s.kind == "polynomial"
    assert s.params["c_lambda"] == 0.8 and s.params["tau"] == 9.0
    s2 = parse_schedule_spec("sqrt:0.01,0.02")
    assert s2.kind == "sqrt"
    with pytest.raises(UsageError):
        parse_schedule_spec("poly:1,2")
    with pytest.raises(UsageError):
        parse_schedule_spec("mystery:1")


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(("poly", "sqrt")),
       consts=st.lists(_POSITIVE, min_size=4, max_size=4),
       tau=st.floats(min_value=1.0, allow_infinity=False))
def test_schedule_spec_tabulates_to_its_closed_form_bitwise(kind, consts, tau):
    if kind == "poly":
        c_lambda, c_alpha, c_beta = consts[:3]
        params = {"c_lambda": c_lambda, "c_alpha": c_alpha, "c_beta": c_beta,
                  "tau": tau}

        def closed_form(k):
            den = k + tau + 1.0
            return c_lambda / den, c_alpha / den, c_beta / den
    else:
        alpha0, beta0 = sorted(consts[:2])
        params = {"alpha0": alpha0, "beta0": beta0}

        def closed_form(k):
            rt = math.sqrt(k + 1.0)
            return 0.25 / rt, alpha0 / rt, beta0 / rt
    schedule = parse_schedule_spec(
        f"{kind}:" + ",".join(repr(v) for v in params.values()))
    assert schedule.params == params
    expected = np.array([closed_form(k) for k in range(300)]).T
    for got, want in zip(schedule.tabulate(300), expected):
        assert got.tobytes() == want.tobytes()


_BAD_CONSTANT = st.sampled_from(
    ("inf", "-inf", "nan", "0", "-0.0", "1e", "abc", "")) | st.floats(
        max_value=0.0, allow_infinity=False).map(repr)


@settings(max_examples=100, deadline=None)
@given(kind=st.sampled_from(("poly", "sqrt")),
       consts=st.lists(st.floats(1.0, 1e6), min_size=4, max_size=4),
       bad=_BAD_CONSTANT, data=st.data())
def test_schedule_spec_with_a_bad_constant_is_rejected(kind, consts, bad,
                                                        data):
    # valid constants (tau >= 1, alpha0 <= beta0), then one made bad
    vals = [repr(v) for v in (consts if kind == "poly" else sorted(consts[:2]))]
    vals[data.draw(st.integers(0, len(vals) - 1))] = bad
    with pytest.raises((UsageError, ConfigurationError)):
        parse_schedule_spec(f"{kind}:" + ",".join(vals))
    with pytest.raises(UsageError):     # one constant too many
        parse_schedule_spec(f"{kind}:" + ",".join(vals + ["1"]))


# --- aggregation -------------------------------------------------------------------

def _toy_trace(values, flagged=False):
    ks = np.arange(len(values)) * 10
    return Trace(ks=ks, metrics={"m": np.asarray(values, float)},
                 flagged=flagged, abort_k=None)


def test_aggregate_mean_and_stderr():
    traces = [_toy_trace([1.0, 2.0]), _toy_trace([3.0, 4.0])]
    agg = aggregate(traces)
    assert np.allclose(agg.means["m"], [2.0, 3.0])
    expected = np.std([1.0, 3.0], ddof=1) / np.sqrt(2)
    assert np.allclose(agg.stderrs["m"], [expected, expected])


def test_aggregate_excludes_and_counts_flagged():
    traces = [_toy_trace([1.0, 2.0]), _toy_trace([9.0], flagged=True)]
    agg = aggregate(traces)
    assert agg.n_flagged == 1
    assert np.allclose(agg.means["m"], [1.0, 2.0])


def test_aggregate_all_flagged_raises():
    with pytest.raises(HarnessError):
        aggregate([_toy_trace([1.0], flagged=True)])


def test_aggregate_permutation_invariance():
    traces = [_toy_trace([float(i), float(2 * i)]) for i in range(1, 6)]
    a1 = aggregate(traces)
    a2 = aggregate(traces[::-1])
    assert np.array_equal(a1.means["m"], a2.means["m"])
    assert np.array_equal(a1.stderrs["m"], a2.stderrs["m"])


# --- experiments -------------------------------------------------------------------

def test_single_run_reduces_to_trace():
    cfg = small_config(runs=1)
    result = run_experiment(cfg)
    assert result.series.n_runs == 1
    assert np.all(result.series.stderrs["z"] == 0.0)


def test_run_experiment_deterministic_bytes():
    cfg = small_config()
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert render_csv(r1) == render_csv(r2)


def test_doubling_runs_shrinks_stderr():
    r8 = run_experiment(small_config(runs=8, iters=4000))
    r16 = run_experiment(small_config(runs=16, iters=4000))
    s8 = r8.series.stderrs["z"][1:]
    s16 = r16.series.stderrs["z"][1:]
    ratio = np.median(s8 / s16)
    assert np.sqrt(2.0) * 0.7 < ratio < np.sqrt(2.0) * 1.3


def test_rate_report_contents():
    result = run_experiment(small_config(iters=20000, runs=4, stride=500))
    rate = result.rate
    assert rate["metric"] == "z"
    assert rate["theory_exponent"] == -1.0
    assert rate["window"] == 0.5
    assert np.isfinite(rate["slope"]) and np.isfinite(rate["r2"])


def test_no_rate_line_from_a_single_point_after_k0():
    result = run_experiment(small_config(iters=100, stride=1000, runs=1))
    assert list(result.series.ks) == [0, 100]
    assert result.rate is None
    assert "# rate" not in render_csv(result)


def test_csv_round_trip(tmp_path):
    result = run_experiment(small_config())
    path = tmp_path / "out.csv"
    write_csv(result, path)
    ks, cols, header = read_csv(path)
    assert np.array_equal(ks, result.series.ks)
    for name, mean in result.series.means.items():
        assert np.array_equal(cols[f"{name}_mean"], mean)
        assert np.array_equal(cols[f"{name}_stderr"],
                              result.series.stderrs[name])
    assert any("flagged_runs=0" in line for line in header)


_METRIC_NAME = st.from_regex(r"[a-z][a-z0-9_]{0,11}", fullmatch=True)


@settings(max_examples=60, deadline=None)
@given(ks=st.lists(st.integers(0, 10**12), min_size=1, max_size=25,
                   unique=True).map(sorted),
       names=st.lists(_METRIC_NAME, min_size=1, max_size=4, unique=True),
       data=st.data())
def test_csv_round_trip_is_bitwise_for_any_series(ks, names, data):
    # finite floats from subnormal to huge, of either sign
    column = st.lists(st.floats(allow_nan=False, allow_infinity=False),
                      min_size=len(ks), max_size=len(ks)).map(np.array)
    means = {name: data.draw(column) for name in names}
    stderrs = {name: data.draw(column) for name in names}
    series = AggregateSeries(ks=np.array(ks, np.int64), means=means,
                             stderrs=stderrs, n_runs=2, n_flagged=0)
    from twoscale.harness import ExperimentResult
    result = ExperimentResult(
        config=small_config(), series=series,
        schedule=make_polynomial_schedule(1, 1, 1, 1), rate=None)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        write_csv(result, path)
        got_ks, cols, _ = read_csv(path)
    assert got_ks.dtype == np.int64 and got_ks.tolist() == ks
    for name in names:
        assert cols[f"{name}_mean"].tobytes() == means[name].tobytes()
        assert cols[f"{name}_stderr"].tobytes() == stderrs[name].tobytes()


def test_empty_series_header_only(tmp_path):
    cfg = small_config()
    series = AggregateSeries(ks=np.array([], np.int64), means={}, stderrs={},
                             n_runs=0, n_flagged=0)
    from twoscale.harness import ExperimentResult
    from twoscale.solver import make_polynomial_schedule
    result = ExperimentResult(config=cfg, series=series,
                              schedule=make_polynomial_schedule(1, 1, 1, 1),
                              rate=None)
    path = tmp_path / "empty.csv"
    write_csv(result, path)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[-1].startswith("k,") or lines[-1].startswith("k")
    ks, cols, header = read_csv(path)
    assert ks.size == 0


def test_all_replicas_flagged_is_numerical_failure():
    # absurdly large constant steps blow up the quadratic immediately
    cfg = small_config(iters=2000, runs=2, schedule="poly:200,800,800,800",
                       stride=50)
    with pytest.raises(HarnessError):
        run_experiment(cfg)


def test_arm_shares_instance_across_algos():
    r_fast = run_experiment(small_config(runs=2))
    r_std = run_experiment(small_config(runs=2, algo="standard"))
    # same seed => same instance => identical initial error
    assert r_fast.series.means["z"][0] == r_std.series.means["z"][0]


# SHA-256 of render_csv for every (experiment, algo) arm at iters=600,
# runs=2, seed=7, stride=50, recorded from the code before the update
# rules were folded into `solver.run`: the one loop reproduces the
# hand-written ones byte for byte.
GOLDEN_CSV_SHA256 = {
    ("synthetic-sc", "fast"): "236d2460a8c27cec83d3a6241fc1d74825fee1246abc91e85d5438adeda09a21",
    ("synthetic-sc", "standard"): "184fb3bb2c89bded705270cd0b86c8ef523b3afe78b815aa7c4f0621b53c472b",
    ("synthetic-pl", "fast"): "b30ac8ce336b242dac00157db7193ea0a3075c124519272f116ed5b752d3cbf7",
    ("synthetic-pl", "standard"): "3806d5fb76bc59f0b0316672c077f56769d553e75bba3aeabfe1a76de0d358fb",
    ("synthetic-nc", "fast"): "594de340a331fe22267a40f4ad538892ce3c72f766f51712d605eeaac26afc35",
    ("synthetic-nc", "standard"): "e6ae0bf62b2bf8fbdd9426e195e622b9f8dd4bc37478eb07c83e4809b4dc52c7",
    ("tdc", "fast"): "8e7387c37d538ebff3e341740e6c8e5b078b36b98a75ecb334d543a54136675e",
    ("tdc", "standard"): "849ed47149906a9032f281be11654f94f0c33e0a5a39065f8100e3919fdc2dc3",
    ("tdc", "td0"): "a8ed341fa86b19d511e603e1e44d875af9781c7a284153141e6389f9a5de6e9f",
    ("lqr", "fast"): "0c2144edab46cfd14b26bd5c7bcef562af8e06a595b60c5b5f574441d9aa4351",
    ("lqr", "standard"): "5efe96f283a28b5540c7f10c2442437ec135e30b68fddfec09c091f04175b277",
    ("regmdp", "fast"): "77e2e645eaa945e3007ee5a6e8532f6b11b1e17e7e37117c7138f35a96622e74",
    ("regmdp", "standard"): "395f04bd792eb9f39b9e984323b5ea31ccb68bf66df91035f24261ab27e3b468",
}


def test_csv_bytes_match_golden_digests():
    got = {}
    for experiment, algo in GOLDEN_CSV_SHA256:
        cfg = ExperimentConfig(experiment=experiment, algo=algo, iters=600,
                               runs=2, seed=7, stride=50)
        text = render_csv(run_experiment(cfg))
        got[experiment, algo] = hashlib.sha256(text.encode()).hexdigest()
    assert got == GOLDEN_CSV_SHA256


def _same_trace(a, b):
    assert np.array_equal(a.ks, b.ks)
    assert a.metrics.keys() == b.metrics.keys()
    for name in a.metrics:
        assert np.array_equal(a.metrics[name], b.metrics[name]), name
    assert (a.flagged, a.abort_k) == (b.flagged, b.abort_k)
    for part in ("theta", "omega", "f", "g"):
        assert np.array_equal(getattr(a.final_state, part),
                              getattr(b.final_state, part))


@pytest.mark.parametrize("experiment,algo", sorted(GOLDEN_CSV_SHA256))
def test_replica_trace_does_not_depend_on_its_batch(experiment, algo):
    # 300 iterations cross the first draw block's end at 256
    cfg = ExperimentConfig(experiment=experiment, algo=algo, iters=300,
                           runs=1, seed=5, stride=7)
    problem, _ = harness.PRESETS[experiment].build(cfg)
    probe = ResidualProbe(problem)
    schedule = default_schedule(experiment, algo)
    solver_algo = "standard" if algo == "td0" else algo

    def batch(first, runs):
        return run(problem, solver_algo, schedule, cfg.iters,
                   seed=(cfg.seed, 1, first), probe=probe, stride=cfg.stride,
                   runs=runs)

    alone = run(problem, solver_algo, schedule, cfg.iters,
                seed=(cfg.seed, 1, 2), probe=probe, stride=cfg.stride)
    _same_trace(alone, batch(0, 4)[2])      # in a batch of 4, row 2
    _same_trace(alone, batch(1, 4)[1])      # another batch, row 1
    _same_trace(alone, batch(2, 1)[0])      # a batch of one


@lru_cache(maxsize=None)
def _arm(experiment):
    """(problem, probe) of an experiment at seed 5."""
    cfg = ExperimentConfig(experiment=experiment, algo="fast", iters=1,
                           runs=1, seed=5, stride=1)
    problem, _ = harness.PRESETS[experiment].build(cfg)
    return problem, ResidualProbe(problem)


@settings(max_examples=30, deadline=None)
@given(experiment=st.sampled_from(("synthetic-sc", "tdc")),
       algo=st.sampled_from(("fast", "standard")),
       runs=st.sampled_from((1, 3)),
       n_iters=st.integers(1, 2 * DRAW_BLOCK + 40),
       stride=st.integers(2, 60))
def test_strided_trace_is_the_stride_one_trace_subsampled(
        experiment, algo, runs, n_iters, stride):
    # synthetic-sc draws its noise in blocks of DRAW_BLOCK, tdc row by row
    problem, probe = _arm(experiment)
    schedule = default_schedule(experiment, algo)

    def traces(s):
        return run(problem, algo, schedule, n_iters, seed=(5, 1, 0),
                   probe=probe, stride=s, runs=runs)

    for a, b in zip(traces(stride), traces(1)):
        assert not b.flagged
        on_grid = (b.ks % stride == 0) | (b.ks == n_iters)
        _same_trace(a, Trace(ks=b.ks[on_grid],
                             metrics={name: col[on_grid]
                                      for name, col in b.metrics.items()},
                             final_state=b.final_state))


# --- CLI ----------------------------------------------------------------------------

def _cli(*args):
    return subprocess.run([sys.executable, "-m", "twoscale", *args],
                          capture_output=True, text=True)


def test_cli_run_twice_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ("run", "synthetic-sc", "--iters", "1500", "--runs", "2",
            "--seed", "3", "--stride", "300")
    r1 = _cli(*args, "--out", str(out1))
    r2 = _cli(*args, "--out", str(out2))
    assert r1.returncode == 0, r1.stderr
    assert r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_usage_error_exit_code():
    r = _cli("run", "not-an-experiment")
    assert r.returncode == 1
    r = _cli("run", "tdc", "--schedule", "garbage:1")
    assert r.returncode == 1
    r = _cli("run", "lqr", "--algo", "td0")
    assert r.returncode == 1


@pytest.mark.parametrize("experiment,flag,value", [
    ("synthetic-sc", "--sigma", "-1"),
    ("lqr", "--sigma", "nan"),
    ("tdc", "--gamma", "1"),
    ("tdc", "--states", "0"),
    ("tdc", "--actions", "0"),
    ("synthetic-sc", "--dim", "0"),
    ("regmdp", "--tau", "0"),
    ("regmdp", "--tau", "inf"),
])
def test_cli_rejects_values_outside_their_domain(tmp_path, experiment, flag,
                                                 value):
    out = tmp_path / "x.csv"
    r = _cli("run", experiment, flag, value, "--iters", "10", "--runs", "1",
             "--out", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {flag[2:]} must")
    assert not out.exists()


@pytest.mark.parametrize("schedule", ["poly:40,16,16,inf", "sqrt:0.05,inf"])
def test_cli_rejects_a_schedule_constant_that_is_not_finite(tmp_path,
                                                            schedule):
    out = tmp_path / "x.csv"
    r = _cli("run", "synthetic-sc", "--algo", "standard", "--schedule",
             schedule, "--iters", "10", "--runs", "1", "--out", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and "inf" in r.stderr
    assert not out.exists()


@pytest.mark.parametrize("flags,key", [
    (("--states", "5", "--actions", "0", "--dim", "3"), "actions"),
    (("--states", "0", "--dim", "0"), "states"),
    (("--dim", "0"), "dim"),
])
def test_cli_dump_instance_rejects_sizes_below_one(tmp_path, flags, key):
    out = tmp_path / "inst.txt"
    r = _cli("dump-instance", *flags, "--out", str(out))
    assert r.returncode == 1
    assert r.stderr == f"error: {key} must be >= 1\n"
    assert not out.exists()


@pytest.mark.parametrize("experiment,flags,unread", [
    ("synthetic-sc", ("--tau", "5", "--gamma", "0.3", "--states", "7"),
     "states, gamma, tau"),
    ("synthetic-nc", ("--states", "7"), "states"),
    ("tdc", ("--sigma", "0.1"), "sigma"),
    ("lqr", ("--dim", "3"), "dim"),
    ("lqr", ("--gamma", "0.3"), "gamma"),
    ("regmdp", ("--dim", "2"), "dim"),
])
def test_cli_rejects_keys_the_experiment_does_not_read(tmp_path, experiment,
                                                       flags, unread):
    out = tmp_path / "x.csv"
    r = _cli("run", experiment, *flags, "--iters", "100", "--runs", "1",
             "--out", str(out))
    assert r.returncode == 1
    assert r.stderr == f"error: experiment {experiment} does not read {unread}\n"
    assert not out.exists()


def test_config_file_key_the_experiment_does_not_read(tmp_path):
    f = tmp_path / "cfg.txt"
    f.write_text("experiment=lqr\nstates=4\n")
    with pytest.raises(UsageError, match="does not read states"):
        parse_config({}, config_file=str(f))
    # every key an experiment reads is accepted
    ExperimentConfig(experiment="regmdp", states=3, actions=2, gamma=0.5,
                     tau=0.2)
    ExperimentConfig(experiment="tdc", states=3, actions=2, dim=2, gamma=0.5)


def test_cli_numerical_failure_exit_code(tmp_path):
    r = _cli("run", "synthetic-sc", "--iters", "2000", "--runs", "2",
             "--schedule", "poly:200,800,800,800", "--stride", "50",
             "--out", str(tmp_path / "x.csv"))
    assert r.returncode == 2


def test_cli_ground_truth_out_of_iterations_is_a_numerical_failure(capsys):
    def run_out(config):
        raise ConvergenceError("soft value iteration did not converge")

    with mock.patch.object(cli, "run_experiment", run_out):
        assert cli.main(["run", "regmdp", "--iters", "10"]) == 2
    assert capsys.readouterr().err == (
        "numerical failure: soft value iteration did not converge\n")


def test_cli_unwritable_out_is_a_usage_error(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    r = _cli("run", "synthetic-sc", "--iters", "10", "--runs", "1",
             "--out", str(blocker / "x.csv"))
    assert r.returncode == 1
    assert r.stderr.startswith("error: ") and r.stderr.count("\n") == 1


def test_usage_texts_name_every_run_key():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line")[1].split("```")[1]
    for text in (cli.__doc__, block):
        usage = text[text.index("twoscale run"):
                     text.index("twoscale check-schedule")]
        for key in KEY_TYPES:
            flag = "<experiment>" if key == "experiment" else f"[--{key} "
            assert flag in usage, key


def test_cli_check_schedule_prints_the_first_violating_k():
    r = _cli("check-schedule", "--schedule", "appendixD", "--regime", "sc",
             "--horizon", "2000")
    assert r.returncode == 0
    lines = {line.split()[0]: line.split() for line in r.stdout.splitlines()}
    assert lines["condition"][-2:] == ["worst_k", "first_k"]
    assert lines["beta<=lambda"][-2:] == ["2000", "391"]
    assert lines["alpha<=lambda/mu_h"][-2:] == ["2000", "1591"]
    assert lines["alpha<=beta"][-1] == "-"


def test_cli_check_schedule_and_dump_instance(tmp_path):
    r = _cli("check-schedule", "--schedule", "appendixD", "--regime", "sc",
             "--horizon", "1000", "--L", "2", "--mu-g", "1", "--mu-h", "1")
    assert r.returncode == 0
    assert "condition" in r.stdout and "c_alpha>=8/mu_h" in r.stdout
    out = tmp_path / "inst.txt"
    r = _cli("dump-instance", "--states", "4", "--actions", "3", "--dim", "2",
             "--gamma", "0.5", "--seed", "9", "--out", str(out))
    assert r.returncode == 0
    head = out.read_text().splitlines()[0].split()
    assert head[:4] == ["tdc", "4", "3", "2"]
