"""Fast averaged two-time-scale stochastic optimization.

A library for coupled stochastic root-finding / optimization problems
where the objective gradient is only unbiased at the solution of an
auxiliary strongly monotone equation. Ships the averaged fast solver,
the classic two-time-scale baseline, closed-form synthetic problems,
three reinforcement-learning problem packs (off-policy value-gradient
evaluation, linear-quadratic control, entropy-regularized tabular
policy optimization), and a benchmark harness.
"""

from .conditions import (
    ConditionReport,
    StructuralConstants,
    check_conditions,
    strongly_convex_compliant_constants,
)
from .numerics import (
    SeededRng,
    SingularMatrixError,
    inverse_cdf,
    linear_solve,
    stability_test,
)
from .solver import (
    ConfigurationError,
    RateFit,
    ResidualProbe,
    SolverState,
    StepSchedule,
    Trace,
    TwoTimeScaleProblem,
    custom_schedule,
    estimate_rate,
    make_polynomial_schedule,
    make_sqrt_schedule,
    run,
)
from .synthetic import (
    NonconvexProblem,
    PlProblem,
    QuadraticProblem,
    make_nonconvex,
    make_pl,
    make_quadratic,
)

from . import harness, lqr, regmdp, tdc  # noqa: E402  (subpackage access)

__version__ = "0.1.0"
