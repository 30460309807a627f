"""The benchmark's workloads: fixed mixes of `twoscale run` invocations.

Each workload runs its experiments in a fixed order, all with the
seed given on the benchmark's command line. One pass over the list is
a round; a run repeats whole rounds. Sizes are chosen so that every
correctness check in `checks.py` holds with a wide margin on every
seed tried (see README.md), and so that one round takes a few seconds
on one core.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Spec:
    """One `twoscale run` invocation of a workload."""

    experiment: str
    algo: str
    runs: int
    iters: int
    stride: int

    @property
    def label(self) -> str:
        return f"{self.experiment}/{self.algo}"

    @property
    def records(self) -> int:
        """Rows each replica records: k = 0, stride, ..., and k = iters."""
        return -(-self.iters // self.stride) + 1

    def argv(self, seed: int, out: str) -> list:
        return ["run", self.experiment, "--algo", self.algo,
                "--iters", str(self.iters), "--runs", str(self.runs),
                "--seed", str(seed), "--stride", str(self.stride),
                "--out", out]


def _synthetic_sparse():
    # 41 rows per replica: the loop, the Box-Muller draw and the
    # closed-form oracle do nearly all the work, the probe almost none.
    return tuple(Spec(exp, algo, runs=4, iters=5000, stride=125)
                 for exp in ("synthetic-sc", "synthetic-pl", "synthetic-nc")
                 for algo in ("fast", "standard"))


def _rl_packs():
    # tdc and lqr record every 5 iterations, which puts about half of
    # each replica's time into the exact ground truth (tdc LU solves,
    # lqr Lyapunov iterations and stability tests) and CSV rendering.
    # lqr needs 8000 iterations before the final gap is reliably below a
    # tenth of the first recorded gap. regmdp records rarely: each of
    # its oracle calls is a geometric rollout of about 10 steps, about
    # 30 scalar uniform draws and 20 searchsorted calls per sample.
    return (tuple(Spec("tdc", algo, runs=2, iters=2000, stride=5)
                  for algo in ("fast", "standard", "td0"))
            + tuple(Spec("lqr", algo, runs=2, iters=8000, stride=5)
                    for algo in ("fast", "standard"))
            + tuple(Spec("regmdp", algo, runs=2, iters=2500, stride=125)
                    for algo in ("fast", "standard")))


WORKLOADS = {
    "synthetic-sparse": _synthetic_sparse(),
    "rl-packs": _rl_packs(),
}

# Instance parameters of the presets, as the harness sets them when the
# command line leaves them out. `checks.py` confirms them against the
# CSV headers.
SYNTHETIC_DIM = 5
SYNTHETIC_SIGMA = 0.1
TDC_SHAPE = dict(n_states=50, n_actions=50, d=10, gamma=0.5)
LQR_SYSTEM = dict(psi_scale=0.25, sigma=0.5)
REGMDP_SHAPE = dict(n_states=5, n_actions=5, gamma=0.9, tau_ent=0.1)


def build_instances(specs, seed: int) -> dict:
    """Build each experiment's instance and ground truth through the
    package's public builders, keyed by experiment name."""
    from twoscale import lqr, regmdp, synthetic, tdc

    out = {}
    for exp in dict.fromkeys(s.experiment for s in specs):
        if exp == "synthetic-sc":
            out[exp] = synthetic.make_quadratic(
                SYNTHETIC_DIM, SYNTHETIC_DIM, seed=seed, condition_number=10.0,
                sigma_noise=SYNTHETIC_SIGMA)[0]
        elif exp == "synthetic-pl":
            out[exp] = synthetic.make_pl(
                SYNTHETIC_DIM, SYNTHETIC_DIM, seed=seed, condition_number=10.0,
                sigma_noise=SYNTHETIC_SIGMA)[0]
        elif exp == "synthetic-nc":
            out[exp] = synthetic.make_nonconvex(
                SYNTHETIC_DIM, SYNTHETIC_DIM, seed=seed,
                sigma_noise=SYNTHETIC_SIGMA)[0]
        elif exp == "tdc":
            instance = tdc.generate_instance(seed=seed, **TDC_SHAPE)
            out[exp] = tdc.TdcProblem(instance)
        elif exp == "lqr":
            system = lqr.paper_lqr_3x2(**LQR_SYSTEM)
            P_star, K_star = lqr.dare_solve(system)
            out[exp] = (system, P_star, K_star, lqr.cost_J(system, K_star))
        elif exp == "regmdp":
            out[exp] = regmdp.RegMdpProblem(
                regmdp.make_regmdp(seed=seed, **REGMDP_SHAPE))
        else:
            raise ValueError(f"no builder for experiment {exp!r}")
    return out
