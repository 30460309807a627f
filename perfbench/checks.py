"""Correctness checks of the benchmark's outputs.

Every check compares the program's output with a value computed here
from the raw instance data, with numpy and scipy, or with a property
the output must have. Nothing is compared with a stored copy of an
earlier output. Each check returns a list of problems, one string per
violation, each starting with the check's name; an empty list passes.

The convergence checks (`CONVERGENCE`) hold at the workloads' sizes
but not at the tiny sizes of the benchmark's own smoke tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import logsumexp

from workloads import LQR_SYSTEM, SYNTHETIC_DIM, TDC_SHAPE

# Relative tolerance of a value recomputed here against the program's.
RTOL = 1e-9
# Every synthetic arm's primary metric must fall at least this much.
SYNTHETIC_DROP = 0.05
# The final lqr gap must be at most this share of the first gap after k=0.
LQR_GAP_DROP = 0.1

CONVERGENCE = frozenset({
    "synthetic.falls", "synthetic.fast_below_standard", "tdc.z_falls",
    "lqr.gap_reduction", "regmdp.x_falls",
})

PRIMARY = {"synthetic-sc": "z", "synthetic-pl": "x",
           "synthetic-nc": "grad_norm_sq"}


@dataclass
class Csv:
    """A `twoscale run` CSV, parsed without the package's reader."""

    config: dict
    problem: dict
    flagged: int
    runs: int
    ks: np.ndarray
    cols: dict


def parse_csv(text: str) -> Csv:
    config, problem, flagged, runs = {}, {}, None, None
    names, rows = None, []
    for line in text.splitlines():
        if line.startswith("# config "):
            key, _, val = line[len("# config "):].partition("=")
            config[key] = val
        elif line.startswith("# problem "):
            key, _, val = line[len("# problem "):].partition("=")
            problem[key] = val
        elif line.startswith("# flagged_runs="):
            f, _, r = line[len("# flagged_runs="):].partition(" of ")
            flagged, runs = int(f), int(r)
        elif line.startswith("#") or not line:
            continue
        elif names is None:
            names = line.split(",")
        else:
            rows.append([float(tok) for tok in line.split(",")])
    if names is None or flagged is None or names[0] != "k":
        raise ValueError("not a twoscale run CSV")
    M = np.array(rows, dtype=float).reshape(len(rows), len(names))
    cols = {name: M[:, j] for j, name in enumerate(names[1:], start=1)}
    return Csv(config, problem, flagged, runs, M[:, 0].astype(np.int64), cols)


def _close(a, b, scale=None) -> bool:
    scale = max(abs(b), 1.0) if scale is None else scale
    return abs(a - b) <= RTOL * scale


def _nonnegative(name, csv, algo):
    out = []
    for col, vals in csv.cols.items():
        if col.endswith("_mean"):
            bad = np.flatnonzero(vals < 0.0)
            if bad.size:
                out.append(f"{name}: {algo} {col} = {vals[bad[0]]!r} < 0 "
                           f"at k={csv.ks[bad[0]]}")
    return out


def _tail_mean(vals):
    """Mean of the last half of the recorded rows."""
    return float(np.mean(vals[len(vals) // 2:]))


# --- synthetic --------------------------------------------------------------

def synthetic_initial_value(exp, problem) -> float:
    """The primary metric at k = 0, from the instance's raw matrices."""
    if exp == "synthetic-sc":        # theta_0 = 0, z = |theta_bar|^2
        return float(problem.theta_bar @ problem.theta_bar)
    if exp == "synthetic-pl":        # x = h(0) = |A_ls theta_bar|^2 / 2
        v = problem.A_ls @ problem.theta_bar
        return 0.5 * float(v @ v)
    g = np.sin(problem.theta0)       # grad h(theta_0) = sin(theta_0)
    return float(g @ g)


def check_synthetic(exp, problem, csvs) -> list:
    """`csvs` maps algo -> Csv for one synthetic experiment."""
    metric = PRIMARY[exp] + "_mean"
    out = []
    first = synthetic_initial_value(exp, problem)
    for algo, csv in csvs.items():
        vals = csv.cols[metric]
        out += _nonnegative("synthetic.nonnegative", csv, algo)
        if not _close(vals[0], first):
            out.append(f"synthetic.initial_value: {exp}/{algo} {metric} at "
                       f"k=0 is {vals[0]!r}, the instance gives {first!r}")
        if not vals[-1] <= SYNTHETIC_DROP * vals[0]:
            out.append(f"synthetic.falls: {exp}/{algo} {metric} went "
                       f"{vals[0]:.3e} -> {vals[-1]:.3e}, not below "
                       f"{SYNTHETIC_DROP} of its k=0 value")
    if exp in ("synthetic-sc", "synthetic-pl") and len(csvs) == 2:
        fast = _tail_mean(csvs["fast"].cols[metric])
        std = _tail_mean(csvs["standard"].cols[metric])
        if not fast < std:
            out.append(f"synthetic.fast_below_standard: {exp} tail mean of "
                       f"{metric}: fast {fast:.3e} >= standard {std:.3e}")
    return out


# --- tdc --------------------------------------------------------------------

def td_fixed_point(P, pi_target, pi_behavior, Phi, r, gamma):
    """theta with Phi' D_b (r + gamma P_pi Phi theta - Phi theta) = 0,
    D_b the stationary distribution of the behavior chain (left
    eigenvector of eigenvalue 1)."""
    P_b = np.einsum("sap,sa->sp", P, pi_behavior)
    w, V = np.linalg.eig(P_b.T)
    mu = np.real(V[:, np.argmin(np.abs(w - 1.0))])
    mu = mu / mu.sum()
    P_pi = np.einsum("sap,sa->sp", P, pi_target)
    D_Phi = mu[:, None] * Phi
    A = D_Phi.T @ (Phi - gamma * (P_pi @ Phi))
    return np.linalg.solve(A, D_Phi.T @ r)


def check_tdc(problem, csvs) -> list:
    inst = problem.instance
    mdp = inst.mdp
    theta = td_fixed_point(mdp.P, inst.pi_target, inst.pi_behavior,
                           inst.features.Phi, mdp.r_state, mdp.gamma)
    out = []
    err = float(np.max(np.abs(theta - inst.theta_star)))
    if not err <= RTOL * max(1.0, float(np.max(np.abs(theta)))):
        out.append(f"tdc.theta_star: instance theta_star is {err:.3e} from "
                   "the TD fixed point recomputed from P, pi, pi_b, Phi, r")
    z0 = float(theta @ theta)
    for algo, csv in csvs.items():
        shape = {k: csv.problem.get(k) for k in ("states", "actions", "dim",
                                                  "gamma")}
        want = {"states": str(TDC_SHAPE["n_states"]),
                "actions": str(TDC_SHAPE["n_actions"]),
                "dim": str(TDC_SHAPE["d"]), "gamma": repr(TDC_SHAPE["gamma"])}
        if shape != want:
            out.append(f"tdc.header: {algo} header {shape} != {want}")
        z = csv.cols["z_mean"]
        if not _close(z[0], z0, scale=max(z0, 1.0)):
            out.append(f"tdc.initial_value: {algo} z at k=0 is {z[0]!r}, "
                       f"|theta_star|^2 is {z0!r}")
        for col in ("z", "x", "y", "mspbe_pi"):
            vals = csv.cols.get(col + "_mean")
            if vals is not None and np.any(vals < 0.0):
                k = csv.ks[np.argmax(vals < 0.0)]
                out.append(f"tdc.nonnegative: {algo} {col}_mean < 0 at k={k}")
        if not z[-1] < z[0]:
            out.append(f"tdc.z_falls: {algo} z went {z[0]:.3e} -> {z[-1]:.3e}")
    return out


# --- lqr --------------------------------------------------------------------

def lqr_reference(system):
    """(P_star, K_star, J_star, J(0)) from scipy's Riccati and Lyapunov
    solvers."""
    A, B, Q, R = system.A, system.B, system.Q, system.R
    Psi_sigma = system.Psi + system.sigma ** 2 * (B @ B.T)
    noise = system.sigma ** 2 * np.trace(R)
    P = scipy.linalg.solve_discrete_are(A, B, Q, R)
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    P0 = scipy.linalg.solve_discrete_lyapunov(A.T, Q)
    return (P, K, float(np.trace(P @ Psi_sigma) + noise),
            float(np.trace(P0 @ Psi_sigma) + noise))


def check_lqr(built, csvs) -> list:
    """`built` is (system, P_star, K_star, J_star) from the program."""
    system, P_prog, K_prog, J_prog = built
    P, K, J_star, J0 = lqr_reference(system)
    out = []
    for name, ours, theirs in (("P_star", P, P_prog), ("K_star", K, K_prog)):
        err = float(np.max(np.abs(ours - theirs)))
        if not err <= RTOL * max(1.0, float(np.max(np.abs(ours)))):
            out.append(f"lqr.dare: dare_solve {name} is {err:.3e} from "
                       "scipy.linalg.solve_discrete_are")
    if not _close(J_prog, J_star):
        out.append(f"lqr.dare: cost_J(K_star) = {J_prog!r}, scipy gives "
                   f"{J_star!r}")
    for algo, csv in csvs.items():
        want = {"psi_scale": repr(LQR_SYSTEM["psi_scale"]),
                "sigma": repr(LQR_SYSTEM["sigma"])}
        got = {k: csv.problem.get(k) for k in want}
        if got != want:
            out.append(f"lqr.header: {algo} header {got} != {want}")
        gap = csv.cols["gap_mean"]
        if not _close(gap[0], J0 - J_star, scale=J_star):
            out.append(f"lqr.initial_gap: {algo} gap at k=0 is {gap[0]!r}, "
                       f"J(0) - J_star is {J0 - J_star!r}")
        bad = np.flatnonzero(gap < -RTOL * J_star)
        if bad.size:
            out.append(f"lqr.gap_nonnegative: {algo} gap {gap[bad[0]]!r} < 0 "
                       f"at k={csv.ks[bad[0]]}")
        if not np.all(csv.cols["stabilizing_mean"] == 1.0):
            out.append(f"lqr.stabilizing: {algo} stabilizing_mean is not 1 "
                       "on every row")
        first = gap[np.argmax(csv.ks > 0)]
        if not gap[-1] <= LQR_GAP_DROP * first:
            out.append(f"lqr.gap_reduction: {algo} final gap {gap[-1]:.3e} > "
                       f"{LQR_GAP_DROP} x first recorded gap {first:.3e}")
    return out


# --- regmdp -----------------------------------------------------------------

def _soft_value(P, r, gamma, tau, log_pi):
    pi = np.exp(log_pi)
    r_pi = np.sum(pi * (r - tau * log_pi), axis=1)
    P_pi = np.einsum("sap,sa->sp", P, pi)
    return np.linalg.solve(np.eye(r.shape[0]) - gamma * P_pi, r_pi)


def regmdp_reference(mdp, max_iters: int = 200):
    """(J_star, J(uniform policy)) by soft policy iteration."""
    P, r, gamma, tau = mdp.P, mdp.r, mdp.gamma, mdp.tau_ent
    log_pi = np.full(r.shape, -np.log(r.shape[1]))
    J_uniform = float(mdp.rho0 @ _soft_value(P, r, gamma, tau, log_pi))
    for _ in range(max_iters):
        V = _soft_value(P, r, gamma, tau, log_pi)
        z = (r + gamma * (P @ V)) / tau
        new = z - logsumexp(z, axis=1, keepdims=True)
        if np.max(np.abs(new - log_pi)) <= 1e-13:
            break
        log_pi = new
    else:
        raise RuntimeError("soft policy iteration did not converge")
    return float(mdp.rho0 @ _soft_value(P, r, gamma, tau, new)), J_uniform


def check_regmdp(problem, csvs) -> list:
    mdp = problem.regmdp
    J_star, J_uniform = regmdp_reference(mdp)
    out = []
    for algo, csv in csvs.items():
        header = float(csv.problem["J_star"])
        if not _close(header, J_star):
            out.append(f"regmdp.J_star: {algo} header J_star={header!r}, "
                       f"soft policy iteration gives {J_star!r}")
        x = csv.cols["x_mean"]
        if not _close(x[0], J_star - J_uniform, scale=max(1.0, abs(J_star))):
            out.append(f"regmdp.initial_gap: {algo} x at k=0 is {x[0]!r}, "
                       f"J_star - J(uniform) is {J_star - J_uniform!r}")
        bad = np.flatnonzero(x < -RTOL * max(1.0, abs(J_star)))
        if bad.size:
            out.append(f"regmdp.x_nonnegative: {algo} x {x[bad[0]]!r} < 0 "
                       f"at k={csv.ks[bad[0]]}")
        if not x[-1] < x[0]:
            out.append(f"regmdp.x_falls: {algo} x went {x[0]:.3e} -> "
                       f"{x[-1]:.3e}")
    return out


# --- output bytes and counts --------------------------------------------------

def check_same(label: str, first: bytes, again: bytes) -> list:
    if first == again:
        return []
    return [f"determinism: {label} CSV differs between two runs of the "
            "same configuration"]


def expected_loop_rng_values(spec) -> int:
    """Values drawn inside one experiment's replica loops, by the
    documented draw order: d + r normals per synthetic iteration, three
    uniforms per tdc transition, and d2 + d1 normals per lqr step after
    an initial state (d1) and one priming step."""
    n = spec.runs * spec.iters
    if spec.experiment.startswith("synthetic"):
        return 2 * SYNTHETIC_DIM * n
    if spec.experiment == "tdc":
        return 3 * n
    if spec.experiment == "lqr":
        d1, d2 = 3, 2      # the paper's 3-state, 2-control system
        return spec.runs * (d1 + (spec.iters + 1) * (d1 + d2))
    return None   # regmdp: rollout lengths are random


def uses_residual_probe(spec) -> bool:
    return spec.experiment != "lqr" and spec.algo != "td0"


def check_counts(specs, counts) -> list:
    """`counts` maps (experiment label, counter) -> one traced round's count."""
    out = []
    for spec in specs:
        if uses_residual_probe(spec):
            want = spec.runs * spec.records
            got = counts.get((spec.label, "probe_calls"), 0)
            if got != want:
                out.append(f"counts.probe_calls: {spec.label} made {got} "
                           f"probe calls, runs x records = {want}")
        want = expected_loop_rng_values(spec)
        got = counts.get((spec.label, "loop_rng_values"), 0)
        if want is not None and got != want:
            out.append(f"counts.rng_values: {spec.label} drew {got} values "
                       f"in its loops, the draw order gives {want}")
    return out
