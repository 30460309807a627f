import hashlib
import subprocess
import sys
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoscale import harness
from twoscale.harness import (AggregateSeries, ExperimentConfig, HarnessError,
                              UsageError, aggregate, default_schedule,
                              parse_config, parse_schedule_spec, read_csv,
                              render_csv, run_experiment, write_csv)
from twoscale.solver import DRAW_BLOCK, Trace, run


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


def test_schedule_spec_reference_constants():
    lam, alp, bet = parse_schedule_spec("appendixD").tabulate(100000)
    assert alp[0] == 5e-4 and alp[99999] == 5e-4
    assert bet[12] == 2e-3
    assert lam[0] == pytest.approx(0.08, abs=1e-15)
    assert lam[40] == pytest.approx(0.016, abs=1e-15)


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
    problem, probe, init, _ = harness._BUILDERS[experiment][1](cfg)
    schedule = default_schedule(experiment, algo)
    solver_algo = "standard" if algo == "td0" else algo

    def batch(first, runs):
        return run(problem, solver_algo, schedule, cfg.iters,
                   seed=(cfg.seed, 1, first), probe=probe, stride=cfg.stride,
                   init_state=init, runs=runs)

    alone = run(problem, solver_algo, schedule, cfg.iters,
                seed=(cfg.seed, 1, 2), probe=probe, stride=cfg.stride,
                init_state=init)
    _same_trace(alone, batch(0, 4)[2])      # in a batch of 4, row 2
    _same_trace(alone, batch(1, 4)[1])      # another batch, row 1
    _same_trace(alone, batch(2, 1)[0])      # a batch of one


@lru_cache(maxsize=None)
def _arm(experiment):
    """(problem, probe, initial state) of an experiment at seed 5."""
    cfg = ExperimentConfig(experiment=experiment, algo="fast", iters=1,
                           runs=1, seed=5, stride=1)
    return harness._BUILDERS[experiment][1](cfg)[:3]


@settings(max_examples=30, deadline=None)
@given(experiment=st.sampled_from(("synthetic-sc", "tdc")),
       algo=st.sampled_from(("fast", "standard")),
       runs=st.sampled_from((1, 3)),
       n_iters=st.integers(1, 2 * DRAW_BLOCK + 40),
       stride=st.integers(2, 60))
def test_strided_trace_is_the_stride_one_trace_subsampled(
        experiment, algo, runs, n_iters, stride):
    # synthetic-sc draws its noise in blocks of DRAW_BLOCK, tdc row by row
    problem, probe, init = _arm(experiment)
    schedule = default_schedule(experiment, algo)

    def traces(s):
        return run(problem, algo, schedule, n_iters, seed=(5, 1, 0),
                   probe=probe, stride=s, init_state=init, runs=runs)

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
])
def test_cli_rejects_values_outside_their_domain(tmp_path, experiment, flag,
                                                 value):
    out = tmp_path / "x.csv"
    r = _cli("run", experiment, flag, value, "--iters", "10", "--runs", "1",
             "--out", str(out))
    assert r.returncode == 1
    assert r.stderr.startswith(f"error: {flag[2:]} must")
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
