"""Command line interface.

    twoscale run <experiment> [--algo fast|standard|td0] [--iters N]
        [--runs R] [--seed S] [--stride K] [--schedule SPEC] [--out PATH]
        [--config FILE] [--states N] [--actions N] [--dim N]
        [--gamma G] [--tau T] [--sigma S]
    twoscale check-schedule --schedule SPEC --regime REGIME
        [--horizon N] [--L L] [--mu-g M] [--mu-h M]
    twoscale dump-instance [--states N] [--actions N] [--dim N]
        [--gamma G] [--seed S] --out PATH

Schedule specs: `poly:c_lambda,c_alpha,c_beta,tau`, `sqrt:alpha0,beta0`,
or `appendixD` (the constant-step reference schedule). Omitting
--schedule picks the experiment's tuned default.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

from . import tdc as tdc_mod
from .conditions import StructuralConstants, check_conditions
from .harness import (KEY_TYPES, PRESETS, HarnessError, UsageError,
                      parse_config, parse_schedule_spec, run_experiment,
                      write_csv)
from .numerics import ConvergenceError
from .solver import ConfigurationError

__all__ = ["main"]

_REGIMES = {"sc": "strongly_convex", "strongly_convex": "strongly_convex",
            "pl": "pl", "nc": "nonconvex", "nonconvex": "nonconvex"}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="twoscale", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run a preset experiment")
    p_run.add_argument("experiment", choices=tuple(PRESETS))
    for key, kind in KEY_TYPES.items():
        if key != "experiment":
            p_run.add_argument(f"--{key}", type=kind)
    p_run.add_argument("--config", dest="config_file")

    p_chk = sub.add_parser("check-schedule",
                           help="evaluate step-size conditions")
    p_chk.add_argument("--schedule", required=True)
    p_chk.add_argument("--regime", required=True, choices=sorted(_REGIMES))
    p_chk.add_argument("--horizon", type=int, default=100000)
    p_chk.add_argument("--L", type=float, default=1.0)
    p_chk.add_argument("--mu-g", dest="mu_g", type=float, default=1.0)
    p_chk.add_argument("--mu-h", dest="mu_h", type=float, default=1.0)

    p_dmp = sub.add_parser("dump-instance",
                           help="write a policy-evaluation instance")
    p_dmp.add_argument("--states", type=int, default=50)
    p_dmp.add_argument("--actions", type=int, default=50)
    p_dmp.add_argument("--dim", type=int, default=10)
    p_dmp.add_argument("--gamma", type=float, default=0.5)
    p_dmp.add_argument("--seed", type=int, default=1)
    p_dmp.add_argument("--out", required=True)
    return parser


def _cmd_run(ns) -> int:
    args = {key: getattr(ns, key) for key in KEY_TYPES}
    config = parse_config(args, config_file=ns.config_file)
    result = run_experiment(config)
    path = config.out_path()
    write_csv(result, path)
    series = result.series
    print(f"wrote {path} ({series.ks.size} rows, "
          f"{series.n_flagged}/{series.n_runs} replicas flagged)")
    if result.rate is not None:
        r = result.rate
        print(f"rate fit on {r['metric']}: slope {r['slope']:+.3f} "
              f"(theory {r['theory_exponent']:+.3f}), r2 {r['r2']:.3f}, "
              f"tail window {r['window']:g}")
    return 0


def _cmd_check_schedule(ns) -> int:
    schedule = parse_schedule_spec(ns.schedule)
    regime = _REGIMES[ns.regime]
    mu_h = ns.mu_h if regime in ("strongly_convex", "pl") else None
    constants = StructuralConstants(L=ns.L, mu_G=ns.mu_g, mu_h=mu_h)
    reports = check_conditions(schedule, constants, regime, ns.horizon)
    width = max(len(r.condition_id) for r in reports)
    print(f"{'condition':{width}}  status     worst_margin   worst_k  first_k")
    for r in reports:
        status = "satisfied" if r.satisfied else "VIOLATED"
        first = "-" if r.first_k is None else r.first_k
        print(f"{r.condition_id:{width}}  {status:9}  {r.worst_margin: .6e}"
              f"  {r.worst_k:7}  {first}")
    return 0


def _cmd_dump_instance(ns) -> int:
    instance = tdc_mod.generate_instance(ns.states, ns.actions, ns.dim,
                                         ns.gamma, seed=ns.seed)
    tdc_mod.dump_instance(instance, ns.out)
    print(f"wrote {ns.out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        ns = parser.parse_args(argv)
        if ns.command == "run":
            return _cmd_run(ns)
        if ns.command == "check-schedule":
            return _cmd_check_schedule(ns)
        if ns.command == "dump-instance":
            return _cmd_dump_instance(ns)
        parser.error("a command is required")
    except (UsageError, ConfigurationError, ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (HarnessError, ConvergenceError) as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
