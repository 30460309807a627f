"""Step-size condition checker for the three convergence regimes.

Each regime's sufficient conditions are evaluated at every iterate in a
horizon and reported with their tightest margin. The checker is purely
diagnostic: practical schedules routinely violate several sufficient
conditions and still converge, so nothing here ever blocks a run.

Conditions written on the schedule constants (c_alpha, c_beta,
c_lambda) are read directly from polynomial schedules. For other
schedules the effective constant at iterate k is recovered as
x_k * (k + tau + 1), with tau taken from the schedule when it
advertises one and 1 otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .solver import StepSchedule

__all__ = [
    "ConditionReport",
    "StructuralConstants",
    "check_conditions",
    "strongly_convex_compliant_constants",
]

REGIMES = ("strongly_convex", "pl", "nonconvex")


@dataclass(frozen=True)
class StructuralConstants:
    """Problem constants entering the step-size conditions.

    L bounds how fast the operators and the objective gradient vary
    (taken >= 1 by convention), mu_G is the strong-monotonicity
    constant of the auxiliary operator, mu_h the strong-convexity or
    gradient-dominance constant of the objective when it has one, and
    B bounds the sample variance of both operators.
    """

    L: float
    mu_G: float
    mu_h: Optional[float] = None
    B: float = 0.0

    def __post_init__(self):
        if not self.L >= 1.0:
            raise ValueError(f"L must be >= 1, got {self.L!r}")
        if not self.mu_G > 0.0:
            raise ValueError(f"mu_G must be positive, got {self.mu_G!r}")
        if self.mu_h is not None and not self.mu_h > 0.0:
            raise ValueError(f"mu_h must be positive, got {self.mu_h!r}")
        if not self.B >= 0.0:
            raise ValueError(f"B must be nonnegative, got {self.B!r}")


@dataclass(frozen=True)
class ConditionReport:
    """A condition's tightest margin, its k, and the first violating k."""

    condition_id: str
    satisfied: bool
    worst_margin: float
    worst_k: int
    first_k: Optional[int] = None


def _reports(entries):
    out = []
    for cid, margin in entries:
        margin = np.atleast_1d(np.asarray(margin, dtype=float))
        worst = int(np.argmin(margin))
        m = float(margin[worst])
        first = None if m >= 0.0 else int(np.argmax(margin < 0.0))
        out.append(ConditionReport(cid, m >= 0.0, m, worst, first))
    return out


def check_conditions(schedule: StepSchedule, constants: StructuralConstants,
                     regime: str, horizon: int):
    """Evaluate every condition of `regime` for k in [0, horizon].

    Returns a list of ConditionReport ordered as the conditions are
    listed. Margins are rhs - lhs for upper bounds and lhs - rhs for
    lower bounds, so satisfied means margin >= 0.
    """
    if regime not in REGIMES:
        raise ValueError(f"unknown regime {regime!r}; pick from {REGIMES}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    L = constants.L
    muG = constants.mu_G
    muH = constants.mu_h
    if regime in ("strongly_convex", "pl") and muH is None:
        raise ValueError(f"regime {regime!r} needs mu_h")

    lam, alp, bet = schedule.tabulate(horizon + 1)

    if schedule.kind == "polynomial":
        c_lam, c_alp, c_bet = (np.full(horizon + 1, schedule.params[key])
                               for key in ("c_lambda", "c_alpha", "c_beta"))
    else:
        tau = schedule.tau if schedule.tau is not None else 1.0
        den = np.arange(horizon + 1) + tau + 1.0
        c_lam, c_alp, c_bet = lam * den, alp * den, bet * den

    order = [
        ("alpha<=beta", bet - alp),
        ("beta<=lambda", lam - bet),
        ("lambda<=1/4", 0.25 - lam),
    ]

    if regime == "strongly_convex":
        Lp6 = (L + 1.0) ** 6
        Lp4 = (L + 1.0) ** 4
        entries = order + [
            ("c_alpha>=8/mu_h", c_alp - 8.0 / muH),
            ("c_alpha>=16/mu_h(proof)", c_alp - 16.0 / muH),
            ("alpha<=lambda/mu_h", lam / muH - alp),
            ("alpha<=mu_h/(6(L+1)^4)", muH / (6.0 * Lp4) - alp),
            ("alpha<=(8mu_G/mu_h)beta", (8.0 * muG / muH) * bet - alp),
            ("alpha<=mu_h*mu_G*beta/(152(L+1)^6)",
             muH * muG * bet / (152.0 * Lp6) - alp),
            ("alpha<=mu_G*beta/(8(8L^4+9L^2/mu_G))",
             muG * bet / (8.0 * (8.0 * L**4 + 9.0 * L**2 / muG)) - alp),
            ("alpha<=(lambda/4)/(48L^2+10L/mu_G)",
             lam / (4.0 * (48.0 * L**2 + 10.0 * L / muG)) - alp),
            ("beta<=1/(240(L+1)^6)", 1.0 / (240.0 * Lp6) - bet),
            ("beta<=1/mu_G", 1.0 / muG - bet),
            ("beta<=(lambda/4)/(56L^2+9/(2mu_h))",
             lam / (4.0 * (56.0 * L**2 + 9.0 / (2.0 * muH))) - bet),
            ("beta<=(lambda/4)/(48L^2+10L/mu_G)",
             lam / (4.0 * (48.0 * L**2 + 10.0 * L / muG)) - bet),
            ("beta<=mu_G/(168L^4)", muG / (168.0 * L**4) - bet),
        ]
    elif regime == "pl":
        Lp6 = (L + 1.0) ** 6
        entries = order + [
            ("c_beta<=1/L", 1.0 / L - c_bet),
            ("c_beta<=mu_G*c_lambda/(320L^4)",
             muG * c_lam / (320.0 * L**4) - c_bet),
            ("c_beta<=mu_h^3/(480(L+1)^6)", muH**3 / (480.0 * Lp6) - c_bet),
            ("c_beta<=mu_G/(8L^2)", muG / (8.0 * L**2) - c_bet),
            ("beta<=(lambda/4)/(2L^2/mu_h^3+58L^2)",
             lam / (4.0 * (2.0 * L**2 / muH**3 + 58.0 * L**2)) - bet),
            ("beta<=(lambda/4)/(50L^2+8/mu_G)",
             lam / (4.0 * (50.0 * L**2 + 8.0 / muG)) - bet),
            ("alpha<=mu_G*beta/(4(14L^3+132(L+1)^6/mu_h^3))",
             muG * bet / (4.0 * (14.0 * L**3 + 132.0 * Lp6 / muH**3)) - alp),
            ("alpha<=mu_h^2*lambda/(3072(L+1)^6)",
             muH**2 * lam / (3072.0 * Lp6) - alp),
            ("c_alpha>=2/min(mu_h,mu_G)", c_alp - 2.0 / min(muH, muG)),
        ]
    else:
        lam0, alp0, bet0 = float(lam[0]), float(alp[0]), float(bet[0])
        entries = [
            ("alpha0<=beta0", bet0 - alp0),
            ("beta0<=1/(72L)", 1.0 / (72.0 * L) - bet0),
            ("beta0<=lambda0", lam0 - bet0),
            ("alpha0<=1/(72L^2)", 1.0 / (72.0 * L**2) - alp0),
        ]

    return _reports(entries)


def strongly_convex_compliant_constants(constants: StructuralConstants):
    """Polynomial constants satisfying every strongly-convex condition.

    Solves the condition chain directly: c_alpha from the contraction
    requirement, then the smallest admissible c_beta and c_lambda, then
    the smallest tau making the absolute per-iterate bounds hold at
    k = 0. The resulting steps are extremely small for any nontrivial
    L; this is the price of full sufficiency.

    Returns (c_lambda, c_alpha, c_beta, tau).
    """
    L, muG = constants.L, constants.mu_G
    muH = constants.mu_h
    if muH is None:
        raise ValueError("strongly convex constants require mu_h")
    Lp6 = (L + 1.0) ** 6
    Lp4 = (L + 1.0) ** 4
    pad = 1.0 + 1e-6   # headroom over the exactly-binding bounds so the
    # per-iterate margins stay nonnegative under float rounding

    c_alpha = 16.0 / muH
    c_beta = pad * max(
        c_alpha,
        muH * c_alpha / (8.0 * muG),
        152.0 * Lp6 * c_alpha / (muH * muG),
        8.0 * (8.0 * L**4 + 9.0 * L**2 / muG) * c_alpha / muG,
    )
    c_lambda = pad * max(
        c_beta,
        muH * c_alpha,
        4.0 * (48.0 * L**2 + 10.0 * L / muG) * c_alpha,
        4.0 * (56.0 * L**2 + 9.0 / (2.0 * muH)) * c_beta,
        4.0 * (48.0 * L**2 + 10.0 * L / muG) * c_beta,
    )
    tau = pad * max(
        1.0,
        4.0 * c_lambda - 1.0,
        6.0 * Lp4 * c_alpha / muH - 1.0,
        240.0 * Lp6 * c_beta - 1.0,
        muG * c_beta - 1.0,
        168.0 * L**4 * c_beta / muG - 1.0,
    ) + 1.0
    return c_lambda, c_alpha, c_beta, tau
