"""Tests of the benchmark's own checks, and a smoke run of every workload.

    python3 -m pytest perfbench

Each correctness check gets a negative case showing that it rejects a
wrong input. The smoke runs use every workload at a tiny size, where
only the convergence checks may fail.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import Csv  # noqa: E402

SEED = 3
UNITS = run.metric_units()


def tiny(specs):
    return tuple(replace(s, runs=2, iters=2 * s.stride) for s in specs)


def make_csv(ks, problem=None, **cols):
    return Csv(config={}, problem=dict(problem or {}), flagged=0,
               runs=2, ks=np.asarray(ks, dtype=np.int64),
               cols={f"{k}_mean": np.asarray(v, dtype=float)
                     for k, v in cols.items()})


def names(problems):
    return {p.split(":")[0] for p in problems}


@pytest.fixture(scope="module")
def instances():
    specs = [s for group in workloads.WORKLOADS.values() for s in group]
    return workloads.build_instances(specs, SEED)


# --- smoke runs ---------------------------------------------------------------

@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_run_at_tiny_size(name, trace, instances, tmp_path):
    specs = tiny(workloads.WORKLOADS[name])
    result = run.measure(specs, instances, SEED, 0.0, trace, tmp_path, UNITS)
    rounds = 2 if trace else 1
    assert result["attempted"] == rounds * sum(s.runs for s in specs)
    assert result["failed"] == 0
    assert names(result["problems"]) <= checks.CONVERGENCE, result["problems"]
    metrics = result["metrics"]
    if trace:
        assert set(metrics) == set(UNITS["per_layer"])
        assert metrics["solver.loop.self_s"] > 0
        spans = np.load(tmp_path / "spans.npz")
        assert spans["label"].size > 0
        assert np.all(spans["parent"] < np.arange(spans["parent"].size))
    else:
        assert set(metrics) | {"setup_s"} == set(UNITS["end_to_end"])
        assert all(v > 0 for v in metrics.values())


def test_traced_counts_repeat_and_match_configuration(instances, tmp_path):
    specs = tiny(workloads.WORKLOADS["rl-packs"])
    a = run.measure(specs, instances, SEED, 0.0, 1, tmp_path / "a", UNITS)
    b = run.measure(specs, instances, SEED, 0.0, 1, tmp_path / "b", UNITS)
    counts = {n for n, u in UNITS["per_layer"].items() if u not in ("s", "ratio")}
    assert {n: a["metrics"][n] for n in counts} == \
        {n: b["metrics"][n] for n in counts}
    assert a["metrics"]["tdc.linear_solve_per_record"] == 4.0
    assert a["metrics"]["lqr.dare_solve.calls"] == 2 * 2


def test_tracer_restores_the_package():
    before = [(o, a, tracing._original(o, a))
              for *_, owners, a in tracing.TARGETS for o in owners]
    tracer = tracing.Tracer()
    tracer.install()
    assert tracing._original(*before[0][:2]) is not before[0][2]
    tracer.uninstall()
    assert all(tracing._original(o, a) is fn for o, a, fn in before)


def test_empty_checkout_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rl-packs",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# --- CSV parsing and determinism ----------------------------------------------

def test_parse_csv_reads_a_real_csv(tmp_path):
    from twoscale import cli
    out = tmp_path / "x.csv"
    spec = workloads.Spec("synthetic-sc", "fast", runs=2, iters=20, stride=10)
    assert cli.main(spec.argv(SEED, str(out))) == 0
    csv = checks.parse_csv(out.read_text())
    assert (csv.flagged, csv.runs) == (0, 2)
    assert list(csv.ks) == [0, 10, 20]
    assert csv.config["iters"] == "20"
    with pytest.raises(ValueError):
        checks.parse_csv("k,z_mean\n0,1.0\n")


def test_check_same_rejects_differing_bytes():
    assert checks.check_same("a", b"k\n0\n", b"k\n0\n") == []
    assert names(checks.check_same("a", b"k\n0\n", b"k\n1\n")) == {"determinism"}


# --- synthetic ----------------------------------------------------------------

def synthetic_csvs(problem, exp, fast_end=1e-4, std_end=1e-3):
    metric = checks.PRIMARY[exp]
    first = checks.synthetic_initial_value(exp, problem)
    ks = [0, 100, 200, 300]
    return {algo: make_csv(ks, **{metric: [first, first / 2, end, end]})
            for algo, end in (("fast", first * fast_end),
                              ("standard", first * std_end))}


@pytest.mark.parametrize("exp", ["synthetic-sc", "synthetic-pl", "synthetic-nc"])
def test_synthetic_check_accepts_a_converging_pair(exp, instances):
    assert checks.check_synthetic(exp, instances[exp],
                                  synthetic_csvs(instances[exp], exp)) == []


def test_synthetic_check_rejects_wrong_inputs(instances):
    exp, problem = "synthetic-sc", instances["synthetic-sc"]
    slow = synthetic_csvs(problem, exp, fast_end=1e-3, std_end=1e-4)
    assert names(checks.check_synthetic(exp, problem, slow)) == \
        {"synthetic.fast_below_standard"}
    stuck = synthetic_csvs(problem, exp, fast_end=0.5, std_end=0.9)
    assert "synthetic.falls" in names(checks.check_synthetic(exp, problem, stuck))
    moved = synthetic_csvs(problem, exp)
    moved["fast"].cols["z_mean"][0] *= 1 + 1e-6
    assert "synthetic.initial_value" in names(
        checks.check_synthetic(exp, problem, moved))
    negative = synthetic_csvs(problem, exp)
    negative["standard"].cols["z_mean"][2] = -1e-9
    assert "synthetic.nonnegative" in names(
        checks.check_synthetic(exp, problem, negative))


# --- tdc ----------------------------------------------------------------------

def tdc_csvs(problem, end=0.1):
    z0 = float(problem.instance.theta_star @ problem.instance.theta_star)
    header = {"states": "50", "actions": "50", "dim": "10", "gamma": "0.5"}
    return {algo: make_csv([0, 5, 10], header, z=[z0, z0 / 2, z0 * end],
                           x=[1.0, 0.5, 0.1], mspbe_pi=[1.0, 0.5, 0.1])
            for algo in ("fast", "standard", "td0")}


def test_tdc_check_accepts_the_instance(instances):
    assert checks.check_tdc(instances["tdc"], tdc_csvs(instances["tdc"])) == []


def test_tdc_check_rejects_a_moved_theta_star():
    from twoscale import tdc
    problem = tdc.TdcProblem(tdc.generate_instance(seed=SEED,
                                                   **workloads.TDC_SHAPE))
    csvs = tdc_csvs(problem)
    problem.instance.theta_star = problem.instance.theta_star + 1e-6
    assert names(checks.check_tdc(problem, csvs)) == {"tdc.theta_star"}


def test_tdc_check_rejects_wrong_rows(instances):
    problem = instances["tdc"]
    stuck = tdc_csvs(problem, end=1.5)
    assert names(checks.check_tdc(problem, stuck)) == {"tdc.z_falls"}
    negative = tdc_csvs(problem)
    negative["td0"].cols["mspbe_pi_mean"][1] = -1e-12
    assert names(checks.check_tdc(problem, negative)) == {"tdc.nonnegative"}
    wrong_shape = tdc_csvs(problem)
    wrong_shape["fast"].problem["gamma"] = "0.9"
    assert names(checks.check_tdc(problem, wrong_shape)) == {"tdc.header"}


# --- lqr ----------------------------------------------------------------------

def lqr_csvs(built, end=0.05):
    _, _, J_star, J0 = checks.lqr_reference(built[0])
    gap0 = J0 - J_star
    header = {"psi_scale": "0.25", "sigma": "0.5"}
    return {algo: make_csv([0, 5, 10], header, gap=[gap0, 0.1, 0.1 * end],
                           stabilizing=[1.0, 1.0, 1.0])
            for algo in ("fast", "standard")}


def test_lqr_check_accepts_the_program_solution(instances):
    assert checks.check_lqr(instances["lqr"], lqr_csvs(instances["lqr"])) == []


def test_lqr_check_rejects_j_star_off_by_1e_6(instances):
    system, P, K, J = instances["lqr"]
    bad = (system, P, K, J + 1e-6)
    assert names(checks.check_lqr(bad, lqr_csvs(instances["lqr"]))) == \
        {"lqr.dare"}
    bad = (system, P, K + 1e-6, J)
    assert names(checks.check_lqr(bad, lqr_csvs(instances["lqr"]))) == \
        {"lqr.dare"}


def test_lqr_check_rejects_wrong_rows(instances):
    built = instances["lqr"]
    negative = lqr_csvs(built)
    negative["fast"].cols["gap_mean"][2] = -1e-6
    assert names(checks.check_lqr(built, negative)) == {"lqr.gap_nonnegative"}
    unstable = lqr_csvs(built)
    unstable["standard"].cols["stabilizing_mean"][1] = 0.5
    assert names(checks.check_lqr(built, unstable)) == {"lqr.stabilizing"}
    stuck = lqr_csvs(built, end=0.2)
    assert names(checks.check_lqr(built, stuck)) == {"lqr.gap_reduction"}
    moved = lqr_csvs(built)
    moved["fast"].cols["gap_mean"][0] += 1e-6
    assert names(checks.check_lqr(built, moved)) == {"lqr.initial_gap"}


# --- regmdp -------------------------------------------------------------------

def regmdp_csvs(problem, end=0.1, J_star=None):
    ref, J_uniform = checks.regmdp_reference(problem.regmdp)
    header = {"J_star": repr(ref if J_star is None else J_star)}
    x0 = ref - J_uniform
    return {algo: make_csv([0, 125, 250], header, x=[x0, x0 / 2, x0 * end])
            for algo in ("fast", "standard")}


def test_regmdp_check_accepts_the_program_j_star(instances):
    problem = instances["regmdp"]
    csvs = regmdp_csvs(problem, J_star=problem.J_star)
    assert checks.check_regmdp(problem, csvs) == []


def test_regmdp_check_rejects_wrong_inputs(instances):
    problem = instances["regmdp"]
    off = regmdp_csvs(problem, J_star=problem.J_star + 1e-6)
    assert names(checks.check_regmdp(problem, off)) == {"regmdp.J_star"}
    stuck = regmdp_csvs(problem, end=1.0)
    assert names(checks.check_regmdp(problem, stuck)) == {"regmdp.x_falls"}
    negative = regmdp_csvs(problem)
    negative["fast"].cols["x_mean"][1] = -1e-6
    assert names(checks.check_regmdp(problem, negative)) == \
        {"regmdp.x_nonnegative"}


# --- traced counts ------------------------------------------------------------

def test_check_counts_rejects_a_count_off_by_one():
    specs = workloads.WORKLOADS["rl-packs"]
    good = {}
    for s in specs:
        if checks.uses_residual_probe(s):
            good[s.label, "probe_calls"] = s.runs * s.records
        good[s.label, "loop_rng_values"] = checks.expected_loop_rng_values(s)
    assert checks.check_counts(specs, good) == []
    probe = dict(good)
    probe["tdc/fast", "probe_calls"] += 1
    assert names(checks.check_counts(specs, probe)) == {"counts.probe_calls"}
    values = dict(good)
    values["lqr/standard", "loop_rng_values"] -= 1
    assert names(checks.check_counts(specs, values)) == {"counts.rng_values"}


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == \
        {"wall_s", "rit_per_s", "setup_s", "peak_rss_mb"}
