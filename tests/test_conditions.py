import numpy as np
import pytest

from twoscale.conditions import (StructuralConstants, check_conditions,
                                 strongly_convex_compliant_constants)
from twoscale.harness import parse_schedule_spec
from twoscale.solver import make_polynomial_schedule, make_sqrt_schedule


def test_structural_constants_validation():
    with pytest.raises(ValueError):
        StructuralConstants(L=0.5, mu_G=1.0)
    with pytest.raises(ValueError):
        StructuralConstants(L=1.0, mu_G=0.0)
    with pytest.raises(ValueError):
        StructuralConstants(L=1.0, mu_G=1.0, mu_h=-1.0)
    c = StructuralConstants(L=1.0, mu_G=1.0)
    assert c.mu_h is None and c.B == 0.0


def test_zero_margin_on_exact_contraction_constant():
    mu_h = 0.7
    sched = make_polynomial_schedule(64.0, 8.0 / mu_h, 16.0, 300.0)
    consts = StructuralConstants(L=1.0, mu_G=1.0, mu_h=mu_h)
    reports = {r.condition_id: r for r in
               check_conditions(sched, consts, "strongly_convex", 100)}
    r = reports["c_alpha>=8/mu_h"]
    assert r.satisfied and r.worst_margin == 0.0


def test_practical_constant_schedule_reports_without_error():
    # constant decision steps with a decaying averaging weight: the
    # checker must stay total and report every condition's status
    sched = parse_schedule_spec("appendixD")
    consts = StructuralConstants(L=10.0, mu_G=1.0, mu_h=1.0)
    reports = check_conditions(sched, consts, "strongly_convex", 5000)
    assert len(reports) == 16
    assert all(isinstance(r.satisfied, bool) for r in reports)
    assert all(np.isfinite(r.worst_margin) for r in reports)
    # the ordering chain breaks once lambda decays below beta
    order = {r.condition_id: r for r in reports}
    assert not order["beta<=lambda"].satisfied


def _brute_force_check_sc(lam, alp, bet, c_lam, c_alp, c_bet, L, muG, muH):
    """Literal transcription of every strongly-convex inequality."""
    ok = True
    ok &= np.all(alp <= bet) and np.all(bet <= lam) and np.all(lam <= 0.25)
    ok &= c_alp >= 8.0 / muH
    ok &= c_alp >= 16.0 / muH
    ok &= np.all(alp <= lam / muH)
    ok &= np.all(alp <= muH / (6 * (L + 1) ** 4))
    ok &= np.all(alp <= (8 * muG / muH) * bet)
    ok &= np.all(alp <= muH * muG * bet / (152 * (L + 1) ** 6))
    ok &= np.all(alp <= muG * bet / (8 * (8 * L**4 + 9 * L**2 / muG)))
    ok &= np.all(alp <= (lam / 4) / (48 * L**2 + 10 * L / muG))
    ok &= np.all(bet <= 1.0 / (240 * (L + 1) ** 6))
    ok &= np.all(bet <= 1.0 / muG)
    ok &= np.all(bet <= (lam / 4) / (56 * L**2 + 9 / (2 * muH)))
    ok &= np.all(bet <= (lam / 4) / (48 * L**2 + 10 * L / muG))
    ok &= np.all(bet <= muG / (168 * L**4))
    return bool(ok)


def test_compliant_construction_satisfies_everything():
    consts = StructuralConstants(L=1.0, mu_G=1.0, mu_h=1.0)
    c_lam, c_alp, c_bet, tau = strongly_convex_compliant_constants(consts)
    sched = make_polynomial_schedule(c_lam, c_alp, c_bet, tau)
    horizon = 20000
    reports = check_conditions(sched, consts, "strongly_convex", horizon)
    bad = [r for r in reports if not r.satisfied]
    assert not bad, bad
    # independent brute-force verification of each inequality
    lam, alp, bet = sched.tabulate(horizon + 1)
    assert _brute_force_check_sc(lam, alp, bet, c_lam, c_alp, c_bet,
                                 1.0, 1.0, 1.0)


def test_compliant_construction_other_constants():
    consts = StructuralConstants(L=2.5, mu_G=0.8, mu_h=0.5)
    c_lam, c_alp, c_bet, tau = strongly_convex_compliant_constants(consts)
    sched = make_polynomial_schedule(c_lam, c_alp, c_bet, tau)
    horizon = 5000
    reports = check_conditions(sched, consts, "strongly_convex", horizon)
    assert all(r.satisfied for r in reports)
    lam, alp, bet = sched.tabulate(horizon + 1)
    assert _brute_force_check_sc(lam, alp, bet, c_lam, c_alp, c_bet,
                                 2.5, 0.8, 0.5)


def test_pl_regime_reports():
    consts = StructuralConstants(L=1.0, mu_G=1.0, mu_h=1.0)
    sched = make_polynomial_schedule(40.0, 16.0, 16.0, 160.0)
    reports = check_conditions(sched, consts, "pl", 1000)
    ids = [r.condition_id for r in reports]
    assert "c_beta<=mu_G*c_lambda/(320L^4)" in ids
    assert "c_alpha>=2/min(mu_h,mu_G)" in ids
    by_id = dict((r.condition_id, r) for r in reports)
    # c_alpha = 16 >= 2 holds; c_beta = 16 <= 40/320 fails
    assert by_id["c_alpha>=2/min(mu_h,mu_G)"].satisfied
    assert not by_id["c_beta<=mu_G*c_lambda/(320L^4)"].satisfied


def test_nonconvex_regime_reports():
    consts = StructuralConstants(L=1.0, mu_G=1.0)
    sched = make_sqrt_schedule(1.0 / 72.0, 1.0 / 72.0)
    reports = {r.condition_id: r for r in
               check_conditions(sched, consts, "nonconvex", 10)}
    assert reports["alpha0<=beta0"].satisfied
    assert reports["beta0<=1/(72L)"].satisfied
    assert reports["beta0<=lambda0"].satisfied
    assert reports["alpha0<=1/(72L^2)"].satisfied
    bad = make_sqrt_schedule(0.1, 0.1)
    reports = {r.condition_id: r for r in
               check_conditions(bad, consts, "nonconvex", 10)}
    assert not reports["beta0<=1/(72L)"].satisfied


def test_regime_requires_mu_h():
    consts = StructuralConstants(L=1.0, mu_G=1.0)
    sched = make_polynomial_schedule(1.0, 1.0, 1.0, 3.0)
    with pytest.raises(ValueError):
        check_conditions(sched, consts, "strongly_convex", 10)


def test_first_violating_k_of_the_appendix_schedule():
    # lambda_k = 0.8/(k+10) falls below beta = 2e-3 once k > 390, and
    # below alpha = 5e-4 (mu_h = 1) once k > 1590
    reports = {r.condition_id: r for r in check_conditions(
        parse_schedule_spec("appendixD"),
        StructuralConstants(L=1.0, mu_G=1.0, mu_h=1.0), "strongly_convex",
        2000)}
    assert reports["beta<=lambda"].first_k == 391
    assert reports["alpha<=lambda/mu_h"].first_k == 1591
    assert reports["beta<=lambda"].worst_k == 2000
    assert reports["alpha<=beta"].satisfied
    assert reports["alpha<=beta"].first_k is None
