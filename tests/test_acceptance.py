"""Full verdict run for every claim the package certifies.

Each test prints one PASS/FAIL line (visible under `pytest -s` or in the
captured output of a failing run) and then asserts the same condition, so
the suite doubles as a human-readable scorecard.  Tolerances are the ones
the library itself enforces; sample counts are fixed and seeded so the run
is deterministic.
"""

import math

import numpy as np
import pytest

from pdmham import (
    COMPLETED,
    DomainBox,
    IntegratorConfig,
    ModelParams,
    curvature_R1212,
    final_state_distance,
    fixed_step_config,
    flat_twin,
    hamiltonian,
    integral,
    integrate,
    lie_derivative_metric,
    poisson_bracket,
    poisson_bracket_fd,
    sample_points,
    time_reversal_defect,
    twin_box,
)
from pdmham.brackets import bracket_scale
from pdmham.certify import (
    algebra_check,
    bracket_residual_suite,
    corruption_suite,
    evolution_law_check,
    identity_suite,
    independence_stats,
    involution_check,
)
from pdmham.dynamics import drift_report
from pdmham.geometry import KILLING_TAGS
from pdmham.observables import family_integrals
from pdmham.phase import FAMILIES, PhasePoint

N_VALUES = (-1.0, 2.0, 3.0)
GENERIC_K = (1.0, 0.6, 0.35)


def _verdict(num, label, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"[{num}/9] {label}: {tag} ({detail})")
    return ok


def _pts(params, count, seed, box=None):
    box = box if box is not None else DomainBox(seed=seed)
    return sample_points(params, box, count)


def _family_seed(family):
    # stable small seed per family without relying on salted hashing
    return sum(ord(c) for c in family)


def _triples(rng):
    out = []
    for _ in range(3):
        mag = rng.uniform(0.25, 2.0, size=3)
        sgn = rng.choice((-1.0, 1.0), size=3)
        out.append(tuple(float(v) for v in mag * sgn))
    return out


def test_c1_bracket_conservation():
    worst = 0.0
    seed = 1000
    for family in FAMILIES:
        rng = np.random.default_rng(_family_seed(family))
        for n in N_VALUES:
            for k0, k1, k2 in _triples(rng):
                params = ModelParams(family, n, k0, k1, k2)
                seed += 1
                pts = _pts(params, 200, seed)
                suite = bracket_residual_suite(params, None, points=pts)
                worst = max(worst, *suite.values())
    ok = worst <= 1e-10
    assert _verdict(1, "bracket conservation, all families and integrals",
                    ok, f"worst scaled residual {worst:.3e} vs 1e-10")


def test_c2_involution_and_algebra():
    worst = 0.0
    for n in N_VALUES:
        central = ModelParams("na_central", n, *GENERIC_K)
        pair = involution_check(central, pairs=[("J11", "J22")],
                                points=_pts(central, 200, 21))
        worst = max(worst, pair["J11,J22"])

        osc = ModelParams("na_prime", n, *GENERIC_K)
        alg = algebra_check(osc, None, points=_pts(osc, 200, 22))
        worst = max(worst, max(alg.values()))
    ok = worst <= 1e-10
    assert _verdict(2, "involution and closed bracket relations",
                    ok, f"worst scaled residual {worst:.3e} vs 1e-10")


def test_c3_structural_identities():
    worst = 0.0
    for family in ("na_central", "na_prime", "nd"):
        for n in (2.0, 3.0):
            params = ModelParams(family, n, *GENERIC_K)
            suite = identity_suite(params, None, points=_pts(params, 1000, 31))
            worst = max(worst, max(suite.values()))
    ok = worst <= 1e-12
    assert _verdict(3, "structural identities, pointwise",
                    ok, f"worst relative defect {worst:.3e} vs 1e-12")


def test_c4_evolution_laws():
    worst = 0.0
    for family in ("na_prime", "nd"):
        for n in N_VALUES:
            params = ModelParams(family, n, *GENERIC_K)
            laws = evolution_law_check(params, None,
                                       points=_pts(params, 200, 41))
            worst = max(worst, max(laws.values()))
    ok = worst <= 1e-10
    assert _verdict(4, "complex factor evolution laws",
                    ok, f"worst scaled residual {worst:.3e} vs 1e-10")


def test_c5_functional_independence():
    lowest = 1.0
    detail = []
    for family in FAMILIES:
        params = ModelParams(family, 3.0, *GENERIC_K)
        frac, _failures = independence_stats(
            params, None, points=_pts(params, 250, 51))
        lowest = min(lowest, frac)
        detail.append(f"{family} {frac:.3f}")
    ok = lowest >= 0.95
    assert _verdict(5, "rank-3 independence of claimed triples",
                    ok, f"lowest full-rank fraction {lowest:.3f} vs 0.95")


def test_c6_metric_symmetries_and_flatness():
    worst_lie = 0.0
    worst_curv = 0.0
    r_grid = np.linspace(0.5, 2.0, 25)
    phi_grid = (0.3, 1.1, 2.4, 4.0, 5.5)
    for n in (-2.0, -1.0, 0.0, 2.0, 3.0, 4.0):
        for r in r_grid:
            worst_curv = max(worst_curv, abs(curvature_R1212(n, float(r))))
            for phi in phi_grid:
                point = PhasePoint(float(r), phi, 0.0, 0.0)
                for tag in KILLING_TAGS:
                    comps = lie_derivative_metric(tag, n, point)
                    worst_lie = max(worst_lie, max(abs(c) for c in comps))
    ok = worst_lie <= 1e-10 and worst_curv <= 1e-10
    assert _verdict(6, "Killing symmetries and zero curvature",
                    ok, f"worst Lie {worst_lie:.3e}, worst R1212 "
                        f"{worst_curv:.3e} vs 1e-10")


def test_c7_flat_limit_equivalence():
    worst = 0.0
    for family in ("na", "nb", "nc1", "nd"):
        params = ModelParams(family, 0.0, 1.0, 0.7, 0.4)
        # the absolute gap, at these fixed couplings
        for pt in sample_points(params, twin_box(params, 71), 1000):
            for u_val, v_val, _ in flat_twin(params, *pt.as_tuple()):
                worst = max(worst, abs(u_val - v_val))
    ok = worst <= 1e-12
    assert _verdict(7, "flat-limit potential equivalence",
                    ok, f"worst residual {worst:.3e} vs 1e-12")


def test_c8_long_horizon_dynamics():
    worst_drift = 0.0
    worst_defect = 0.0
    drift_cfg = IntegratorConfig(t_end=50.0)
    reversal_cfg = IntegratorConfig(t_end=10.0)
    all_completed = True
    for family in FAMILIES:
        params = ModelParams(family, 2.0, 1.0, 0.5, 0.25)
        for state in _pts(params, 5, 0):
            traj = integrate(params, state, drift_cfg)
            all_completed = all_completed and traj.termination == COMPLETED
            report = drift_report(traj, tolerance=1e-6)
            worst_drift = max(worst_drift, report.worst)

            defect = time_reversal_defect(params, state, reversal_cfg)
            all_completed = all_completed and defect is not None
            if defect is not None:
                worst_defect = max(worst_defect, defect)

    # order of convergence: halving a fixed step must cut the endpoint
    # error by at least 4x (the scheme itself delivers about 256x); the
    # steps are coarse enough that the errors (5e-8 down to 9e-13) sit well
    # above the roundoff floor near 4e-14
    probe = ModelParams("na_central", 2.0, 1.0, 0.5, 0.25)
    state = sample_points(probe, DomainBox(p_max=1.2, seed=5), 1)[0]
    ref = integrate(probe, state, fixed_step_config(5e-4, 2.0)).final()
    errs = [final_state_distance(
        integrate(probe, state, fixed_step_config(h, 2.0)).final(), ref)
        for h in (0.4, 0.2, 0.1)]
    min_ratio = min(a / b for a, b in zip(errs, errs[1:]))

    ok = (all_completed and worst_drift <= 1e-6
          and worst_defect <= 100.0 * reversal_cfg.rtol and min_ratio >= 4.0)
    assert _verdict(8, "long-horizon drift, reversibility, convergence",
                    ok, f"drift {worst_drift:.3e} vs 1e-6, reversal "
                        f"{worst_defect:.3e} vs 1e-8, step-halving gain "
                        f"{min_ratio:.1f}x vs 4x")


@pytest.mark.xfail(
    strict=True,
    reason="halving rtol from 1e-8 improves the endpoint error only 1.28x "
           "(4.3e-14 to 3.4e-14): the integrator works at rtol * 1e-4, so at "
           "t = 2 both runs already sit on the roundoff floor, below the 4x "
           "a fixed-order scheme shows under step halving; the fixed-step "
           "check above verifies order 8")
def test_c8_adaptive_rtol_halving_literal():
    probe = ModelParams("na_central", 2.0, 1.0, 0.5, 0.25)
    state = sample_points(probe, DomainBox(p_max=1.2, seed=5), 1)[0]
    ref = integrate(probe, state,
                    IntegratorConfig(t_end=2.0, rtol=1e-12, atol=1e-14))
    errs = [final_state_distance(
        integrate(probe, state,
                  IntegratorConfig(t_end=2.0, rtol=rtol, atol=1e-12)).final(),
        ref.final())
        for rtol in (1e-8, 5e-9)]
    assert errs[0] / errs[1] >= 4.0


def test_c9_oracle_agreement_and_negative_controls():
    rng = np.random.default_rng(97)
    families = ("na", "nb", "nc", "nd", "na_prime")
    worst_fd = 0.0
    for i in range(100):
        family = families[i % len(families)]
        params = ModelParams(family, 2.0, 1.0, 0.5, 0.3)
        pt = sample_points(params, DomainBox(seed=900 + i), 1)[0]
        names = ("H",) + family_integrals(family)
        f = integral(family, names[rng.integers(len(names))])
        g = integral(family, names[rng.integers(len(names))])
        exact = poisson_bracket(f, g, params, pt)
        approx = poisson_bracket_fd(f, g, params, pt)
        coords = pt.as_tuple()
        scale = bracket_scale(f(params, *coords), g(params, *coords), pt)
        worst_fd = max(worst_fd, abs(exact - approx) / scale)

    weakest = math.inf
    inert_names = set()
    for family in FAMILIES:
        params = ModelParams(family, 3.0, *GENERIC_K)
        results, inert = corruption_suite(params, None,
                                          points=_pts(params, 60, 91))
        inert_names.update(inert)
        if results:
            weakest = min(weakest, min(results.values()))

    # the only integrals a +10% single-part corruption cannot move are the
    # pure angular momenta, where it rescales the whole conserved quantity
    ok = (worst_fd <= 1e-5 and weakest > 1e-3
          and inert_names <= {"Pphi", "J1"})
    assert _verdict(9, "independent oracles and corruption controls",
                    ok, f"FD disagreement {worst_fd:.3e} vs 1e-5, weakest "
                        f"corruption signal {weakest:.3e} vs 1e-3")
