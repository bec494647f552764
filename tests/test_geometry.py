"""The metric oracles of `oracles.py` (isometries, curvature) against
finite differences, and the package's Noether momenta against them.

The FD oracle assembles R_1212 for any diagonal metric (A(r), B(r)) from
the closed formula  R_1212 = -B''/2 + (B'/4)(A'/A + B'/B)  with central
differences; it is validated on a genuinely curved reference metric
before being trusted on the flat family.
"""

import pytest

from oracles import (KILLING_TAGS, christoffel_symbols, curvature_R1212,
                     killing_components, lie_derivative_metric, metric)
from pdmham.geometry import noether_p1, noether_p2
from pdmham.phase import PhasePoint

N_GRID = (-2.0, -1.0, 0.0, 2.0, 3.0, 4.0)
R_GRID = (0.5, 0.9, 1.3, 1.7, 2.0)


def _d1(f, x, h=1e-5):
    return (f(x + h) - f(x - h)) / (2.0 * h)


def _d2(f, x, h=1e-4):
    return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)


def fd_r1212(g_rr, g_pp, r):
    a, b = g_rr(r), g_pp(r)
    da, db = _d1(g_rr, r), _d1(g_pp, r)
    d2b = _d2(g_pp, r)
    return -0.5 * d2b + 0.25 * db * (da / a + db / b)


def test_metric_anchor_values():
    g_rr, g_phiphi = metric(2.0, 2.0)
    assert g_rr == pytest.approx(1.0 / 16.0)
    assert g_phiphi == pytest.approx(1.0 / 4.0)


def test_fd_oracle_detects_curvature():
    # reference hyperbolic metric g_rr = g_pp = 1/r^2 has R_1212 = -1/r^4;
    # a vanishing oracle result here would mean the oracle proves nothing
    for r in R_GRID:
        got = fd_r1212(lambda x: x ** -2.0, lambda x: x ** -2.0, r)
        assert got == pytest.approx(-(r ** -4.0), rel=1e-5)


@pytest.mark.parametrize("n", N_GRID)
def test_family_metric_flat(n):
    for r in R_GRID:
        assert abs(curvature_R1212(n, r)) <= 1e-10
        b = lambda x: x ** (2.0 - 2.0 * n)
        oracle = fd_r1212(lambda x: x ** (-2.0 * n), b, r)
        # FD truncation grows with the metric's higher derivatives, so the
        # zero test is scaled by |B''|; a real curvature -1/r^4 would still
        # overshoot this bound by orders of magnitude
        assert abs(oracle) <= 1e-5 * max(1.0, abs(_d2(b, r)))


@pytest.mark.parametrize("n", N_GRID)
def test_christoffel_against_fd(n):
    for r in R_GRID:
        a = lambda x: x ** (-2.0 * n)
        b = lambda x: x ** (2.0 - 2.0 * n)
        sym = christoffel_symbols(n, r)
        assert sym[("r", "r", "r")] == pytest.approx(
            0.5 * _d1(a, r) / a(r), rel=1e-7, abs=1e-9)
        assert sym[("r", "phi", "phi")] == pytest.approx(
            -0.5 * _d1(b, r) / a(r), rel=1e-7, abs=1e-9)
        assert sym[("phi", "r", "phi")] == pytest.approx(
            0.5 * _d1(b, r) / b(r), rel=1e-7, abs=1e-9)


def _fd_lie(vr_f, vphi_f, n, point, h=1e-6):
    """(L_X g) components from central differences only."""
    r0, phi0 = point.r, point.phi
    g_rr = lambda r, phi: r ** (-2.0 * n)
    g_pp = lambda r, phi: r ** (2.0 - 2.0 * n)
    dr = lambda f: (f(r0 + h, phi0) - f(r0 - h, phi0)) / (2.0 * h)
    dphi = lambda f: (f(r0, phi0 + h) - f(r0, phi0 - h)) / (2.0 * h)
    vr, vphi = vr_f(r0, phi0), vphi_f(r0, phi0)
    l_rr = (vr * dr(g_rr) + vphi * dphi(g_rr)
            + 2.0 * g_rr(r0, phi0) * dr(vr_f))
    l_rp = g_pp(r0, phi0) * dr(vphi_f) + g_rr(r0, phi0) * dphi(vr_f)
    l_pp = (vr * dr(g_pp) + vphi * dphi(g_pp)
            + 2.0 * g_pp(r0, phi0) * dphi(vphi_f))
    return (l_rr, l_rp, l_pp)


@pytest.mark.parametrize("tag", KILLING_TAGS)
@pytest.mark.parametrize("n", N_GRID)
def test_killing_fields_have_zero_lie_derivative(tag, n):
    for r in R_GRID:
        for phi in (0.3, 1.1, 2.9, 4.4):
            point = PhasePoint(r, phi, 0.0, 0.0)
            comps = lie_derivative_metric(killing_components(tag, n), n,
                                          point)
            assert max(abs(c) for c in comps) <= 1e-10


def test_lie_derivative_matches_fd_on_non_killing_field():
    # negative control: radial dilation is not an isometry of these metrics
    field = (lambda r, phi: r, lambda r, phi: 0.0)
    for n in (-1.0, 2.0, 3.0):
        point = PhasePoint(1.3, 0.8, 0.0, 0.0)
        comps = lie_derivative_metric(field, n, point)
        oracle = _fd_lie(field[0], field[1], n, point)
        assert max(abs(c) for c in comps) > 1e-2
        for got, want in zip(comps, oracle):
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


def test_lie_derivative_fd_agreement_on_killing_fields():
    for tag in KILLING_TAGS:
        for n in (-2.0, 0.0, 3.0):
            vr_f, vphi_f = killing_components(tag, n)
            point = PhasePoint(1.7, 2.2, 0.0, 0.0)
            oracle = _fd_lie(lambda r, p: float(vr_f(r, p)),
                             lambda r, p: float(vphi_f(r, p)), n, point)
            assert max(abs(c) for c in oracle) <= 1e-6


def test_killing_vector_components():
    v_r, v_phi = killing_components("X1", 2.0)
    assert v_r(2.0, 0.0) == pytest.approx(4.0)       # r^n cos(0)
    assert v_phi(2.0, 0.0) == pytest.approx(0.0)
    v_r, v_phi = killing_components("XJ", 2.0)
    assert (v_r(2.0, 0.0), v_phi(2.0, 0.0)) == (0.0, 1.0)


def test_noether_momenta_values():
    # at phi = 0, u = 0: P1 = r^n p_r, P2 = -r^{n-1} p_phi
    n = 3.0
    assert noether_p1(n, 2.0, 0.0, 0.5, 0.7) == pytest.approx(4.0)
    assert noether_p2(n, 2.0, 0.0, 0.5, 0.7) == pytest.approx(-2.8)


def test_killing_momentum_consistency():
    # the momentum of each Killing field is g(X, p-sharp): v^a g_ab p^b
    # in canonical coordinates reads v_r p_r + v_phi p_phi; XJ's is p_phi
    r, phi, p_r, p_phi = 1.4, 0.9, 0.6, -0.8
    for n in (-1.0, 2.0):
        momenta = {"X1": noether_p1(n, r, phi, p_r, p_phi),
                   "X2": noether_p2(n, r, phi, p_r, p_phi), "XJ": p_phi}
        for tag in KILLING_TAGS:
            v_r, v_phi = killing_components(tag, n)
            want = v_r(r, phi) * p_r + v_phi(r, phi) * p_phi
            assert momenta[tag] == pytest.approx(want, rel=1e-12)
