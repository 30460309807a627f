"""Step-size condition reports.

Two contrasting examples: constants constructed to satisfy every
sufficient condition of the strongly convex analysis (which forces
extremely small steps), and the practical constant-step schedule used
by the policy-evaluation experiments, which violates most of the list
yet is what one actually runs. The checker is diagnostic only.
"""

from twoscale.conditions import (StructuralConstants, check_conditions,
                                 strongly_convex_compliant_constants)
from twoscale.harness import parse_schedule_spec
from twoscale.solver import make_polynomial_schedule


def show(title, schedule, constants, regime="strongly_convex"):
    print(f"\n=== {title} ===")
    print(f"schedule: {schedule.describe()}")
    for r in check_conditions(schedule, constants, regime, horizon=10000):
        mark = "ok " if r.satisfied else "VIO"
        first = "" if r.first_k is None else f", first violated at k={r.first_k}"
        print(f"  [{mark}] {r.condition_id:42s} margin {r.worst_margin:+.3e} "
              f"at k={r.worst_k}{first}")


constants = StructuralConstants(L=1.0, mu_G=1.0, mu_h=1.0)
c_lam, c_alp, c_bet, tau = strongly_convex_compliant_constants(constants)
print(f"fully compliant constants for L=1, mu=1: c_lambda={c_lam:.3g}, "
      f"c_alpha={c_alp:.3g}, c_beta={c_bet:.3g}, tau={tau:.3g}")
show("fully compliant polynomial schedule",
     make_polynomial_schedule(c_lam, c_alp, c_bet, tau), constants)

show("practical constant-step schedule (policy evaluation defaults)",
     parse_schedule_spec("appendixD"),
     StructuralConstants(L=10.0, mu_G=1.0, mu_h=1.0))
