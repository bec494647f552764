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

from oracles import (
    KILLING_TAGS,
    curvature_R1212,
    killing_components,
    lie_derivative_metric,
    poisson_bracket_fd,
    time_reversal_defect,
)
from pdmham import (
    CATALOG,
    COMPLETED,
    DomainBox,
    IntegratorConfig,
    ModelParams,
    dynamics,
    flat_twin,
    integral,
    integrate,
    poisson_bracket,
    sample_points,
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
from pdmham.dynamics import drift_report, worst_drift
from pdmham.observables import family_integrals
from pdmham.phase import PhasePoint

N_VALUES = (-1.0, 2.0, 3.0)
GENERIC_K = (1.0, 0.6, 0.35)
# the step-halving probe's start: the first na_central (n = 2) draw of a
# seed-5 box with |p_r|, |p_phi| <= 1.2
C8_START = PhasePoint(r=1.7075043856180703, phi=5.04564762016976,
                      p_r=0.036781346501140844, p_phi=-0.5140766877884602)


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
    for family in CATALOG:
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
    for family in CATALOG:
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
                    comps = lie_derivative_metric(
                        killing_components(tag, n), n, point)
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


def test_c8_long_horizon_dynamics(monkeypatch):
    worst = 0.0
    worst_defect = 0.0
    drift_cfg = IntegratorConfig(t_end=50.0)
    reversal_cfg = IntegratorConfig(t_end=10.0)
    all_completed = True
    for family in CATALOG:
        params = ModelParams(family, 2.0, 1.0, 0.5, 0.25)
        for state in _pts(params, 5, 0):
            traj = integrate(params, state, drift_cfg)
            all_completed = all_completed and traj.termination == COMPLETED
            worst = max(worst, worst_drift(drift_report(traj).values()))

            defect = time_reversal_defect(params, state, reversal_cfg)
            all_completed = all_completed and defect is not None
            if defect is not None:
                worst_defect = max(worst_defect, defect)

    # order of convergence: halving a fixed step must cut the endpoint
    # error by at least 4x (the scheme itself delivers about 256x); the
    # steps are coarse enough that the errors (5e-8 down to 9e-13) sit well
    # above the roundoff floor near 4e-14
    def fixed_step(h):
        for name in ("H_INIT", "H_MIN", "H_MAX"):
            monkeypatch.setattr(dynamics, name, h)
        return IntegratorConfig(t_end=2.0, rtol=1e9, atol=1e9)

    probe = ModelParams("na_central", 2.0, 1.0, 0.5, 0.25)
    ref = integrate(probe, C8_START, fixed_step(5e-4)).states[-1]
    errs = [max(abs(a - b) for a, b in zip(integrate(
        probe, C8_START, fixed_step(h)).states[-1], ref))
        for h in (0.4, 0.2, 0.1)]
    min_ratio = min(a / b for a, b in zip(errs, errs[1:]))

    ok = (all_completed and worst <= 1e-6
          and worst_defect <= 100.0 * reversal_cfg.rtol and min_ratio >= 4.0)
    assert _verdict(8, "long-horizon drift, reversibility, convergence",
                    ok, f"drift {worst:.3e} vs 1e-6, reversal "
                        f"{worst_defect:.3e} vs 1e-8, step-halving gain "
                        f"{min_ratio:.1f}x vs 4x")


@pytest.mark.xfail(
    strict=True,
    reason="under per-step error control the endpoint error follows the "
           "tolerance, not the 2**8 of a fixed step halved: halving rtol "
           "from 1e-8 gains 1.28x (4.3e-14 to 3.4e-14), and from 1e-2, far "
           "above the roundoff floor, 2.99x (5.3e-8 to 1.8e-8); over t_end "
           "in {2, 20} and rtol from 1e-2 to 1e-8 the gain scatters from "
           "0.68x to 13.9x. The fixed-step check above verifies order 8")
def test_c8_adaptive_rtol_halving_literal():
    probe = ModelParams("na_central", 2.0, 1.0, 0.5, 0.25)
    ref = integrate(probe, C8_START, IntegratorConfig(
        t_end=2.0, rtol=1e-12, atol=1e-14)).states[-1]
    ends = [integrate(probe, C8_START, IntegratorConfig(
        t_end=2.0, rtol=rtol, atol=1e-12)).states[-1]
        for rtol in (1e-8, 5e-9)]
    errs = [max(abs(a - b) for a, b in zip(end, ref)) for end in ends]
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
    for family in CATALOG:
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
