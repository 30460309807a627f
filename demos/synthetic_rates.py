"""Convergence rates on a closed-form strongly convex problem.

Runs the averaged solver and the classic baseline on the same seeded
quadratic instance, prints the averaged error curves, and fits the
tail slopes: the averaged arm should sit near -1 on a log-log plot,
the baseline near -2/3.
"""

import numpy as np

from twoscale import (ResidualProbe, custom_schedule, estimate_rate,
                      make_polynomial_schedule, make_quadratic, run)

problem, consts = make_quadratic(d=5, r=5, seed=1, condition_number=10.0,
                                 sigma_noise=0.1)
print(f"instance constants: L={consts.L:.2f} mu_G={consts.mu_G:.2f} "
      f"mu_h={consts.mu_h:.2f} B={consts.B:.3f}")

probe = ResidualProbe(problem)
iters, runs, stride = 50000, 10, 1000

fast_schedule = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
std_schedule = custom_schedule(   # best-known baseline order: 2/3 decay
    lambda k: 1.0,
    lambda k: 2.0 / (k + 161.0) ** (2 / 3),
    lambda k: 8.0 / (k + 161.0) ** (2 / 3),
)

for algo, schedule in (("fast", fast_schedule), ("standard", std_schedule)):
    traces = run(problem, algo, schedule, iters, seed=(1, 1, 0),
                 probe=probe, stride=stride, runs=runs)
    trace = traces[0]
    z = np.mean([t.metrics["z"] for t in traces], axis=0)
    fit = estimate_rate(trace.ks, z, window=0.85)
    print(f"\n{algo}: mean squared distance to the minimizer")
    for idx in (0, 5, 10, 25, 50):
        print(f"  k={trace.ks[idx]:>6d}  z={z[idx]:.3e}")
    print(f"  tail slope {fit.slope:+.3f} (r2 {fit.r_squared:.3f})")
