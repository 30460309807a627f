"""Entropy-regularized policy optimization on a random tabular MDP.

The decision variable is a softmax logit table; the auxiliary variable
tracks the regularized value function of the current policy. Each
oracle call draws one geometric-horizon rollout. The optimality gap is
measured against the soft value-iteration ground truth.
"""

import numpy as np

from twoscale import ResidualProbe, run
from twoscale.harness import default_schedule
from twoscale.regmdp import RegMdpProblem, make_regmdp, soft_optimal

mdp = make_regmdp(n_states=5, n_actions=5, gamma=0.9, tau_ent=0.1, seed=0)
V_star, pi_star, J_star = soft_optimal(mdp)
print(f"soft-optimal return J* = {J_star:.4f}")

problem = RegMdpProblem(mdp)
probe = ResidualProbe(problem)
iters, runs, stride = 20000, 5, 1000

for algo in ("fast", "standard"):
    schedule = default_schedule("regmdp", algo)
    traces = run(problem, algo, schedule, iters, seed=(0, 1, 0),
                 probe=probe, stride=stride, runs=runs)
    tr = traces[0]
    gap = np.mean([t.metrics["x"] for t in traces], axis=0)
    print(f"\n{algo}: mean optimality gap J* - J(theta_k)")
    for idx in range(0, tr.ks.size, 4):
        print(f"  k={tr.ks[idx]:>6d}  gap={gap[idx]:.5f}")
