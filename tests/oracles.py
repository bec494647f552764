"""Independent oracles that the tests judge the package by.

- The Lie-derivative and curvature route to the paper's first result: the
  conformal metric r^{-2n}(dr^2 + r^2 dphi^2) is flat and has the Killing
  fields X1, X2 and XJ.  The package certifies the same claim in Noether
  form, through the brackets of P1, P2 and p_phi.
- Central finite differences with per-coordinate steps, for gradients and
  canonical Poisson brackets.
- The forward/backward round trip of the integrator.
- The uncorrected d-family pair, whose momentum monomials are swapped
  (docs/FORMULA_ERRATA.md): no bracket test may pass them.
- The kinetic energy T as an integral of any family, which the package
  itself never asks for.
"""

import sys

from pdmham.catalog import Integral
from pdmham.dual import Dual, cos, seed, sin, tangent, value
from pdmham.dynamics import COMPLETED, integrate
from pdmham.formulas import kinetic
from pdmham.geometry import noether_p1, noether_p2
from pdmham.phase import PhasePoint

FD_STEP_FACTOR = sys.float_info.epsilon ** (1.0 / 3.0)

KILLING_TAGS = ("X1", "X2", "XJ")

# T = T_n(r, p_r, p_phi), in the catalog's (params, r, phi, p_r, p_phi) form
KINETIC = Integral("T", lambda params, r, phi, p_r, p_phi: kinetic(
    params.n, r, p_r, p_phi))


def metric(n, r):
    """(g_rr, g_phiphi); the off-diagonal part is identically zero."""
    return r ** (-2.0 * n), r ** (2.0 - 2.0 * n)


def killing_components(tag, n):
    """Component functions (v_r(r, phi), v_phi(r, phi)) over generic scalars."""
    k = n - 1.0
    return {
        "X1": (lambda r, phi: r ** n * cos(k * phi),
               lambda r, phi: r ** (n - 1.0) * sin(k * phi)),
        "X2": (lambda r, phi: r ** n * sin(k * phi),
               lambda r, phi: -(r ** (n - 1.0)) * cos(k * phi)),
        "XJ": (lambda r, phi: 0.0, lambda r, phi: 1.0),
    }[tag]


def lie_derivative_metric(field, n, point):
    """Components ((L_X g)_rr, (L_X g)_rphi, (L_X g)_phiphi) at a point.

    `field` is a pair of component functions, as `killing_components`
    returns; the metric and field derivatives come from one dual-number
    pass.  For the three Killing fields every component vanishes to
    roundoff.
    """
    vr_f, vphi_f = field
    r, phi, _, _ = seed(point.r, point.phi, 0.0, 0.0)
    g_rr = r ** (-2.0 * n)
    g_pp = r ** (2.0 - 2.0 * n)
    vr, vphi = vr_f(r, phi), vphi_f(r, phi)
    dg_rr, dg_pp = tangent(g_rr), tangent(g_pp)
    dvr, dvphi = tangent(vr), tangent(vphi)
    # (L_X g)_ab = X^c d_c g_ab + g_cb d_a X^c + g_ac d_b X^c, diagonal metric
    l_rr = value(vr) * dg_rr[0] + value(vphi) * dg_rr[1] + 2.0 * value(g_rr) * dvr[0]
    l_rp = value(g_pp) * dvphi[0] + value(g_rr) * dvr[1]
    l_pp = value(vr) * dg_pp[0] + value(vphi) * dg_pp[1] + 2.0 * value(g_pp) * dvphi[1]
    return (l_rr, l_rp, l_pp)


def christoffel_symbols(n, r):
    """Nonzero Christoffel symbols of the diagonal, phi-independent metric.

    Returns {(upper, lower1, lower2): value} with coordinates named r/phi;
    symmetric lower pairs are listed once.
    """
    return {
        ("r", "r", "r"): -n / r,
        ("r", "phi", "phi"): -(1.0 - n) * r,
        ("phi", "r", "phi"): (1.0 - n) / r,
    }


def second_derivative(f, x0):
    """d^2 f / dx^2 at x0 for a single-variable f, via nested duals."""
    inner = Dual(x0, (1.0, 0.0, 0.0, 0.0))
    outer = Dual(inner, (Dual(1.0), 0.0, 0.0, 0.0))
    return tangent(tangent(f(outer))[0])[0]


def curvature_R1212(n, r):
    """R_1212 assembled term by term; identically zero for every n.

    The second radial derivative of g_phiphi comes from nested duals, the
    Christoffel contraction from the closed-form symbols above.  All phi
    derivatives vanish because the metric is phi-independent.
    """
    d2_g_pp = second_derivative(lambda x: x ** (2.0 - 2.0 * n), r)
    gamma = christoffel_symbols(n, r)
    g_rr, g_pp = metric(n, r)
    contraction = (g_rr * gamma[("r", "r", "r")] * gamma[("r", "phi", "phi")]
                   - g_pp * gamma[("phi", "r", "phi")] ** 2)
    return -0.5 * d2_g_pp - contraction


def gradient(F, params, point):
    """Exact partials (dF/dr, dF/dphi, dF/dp_r, dF/dp_phi), one dual pass."""
    return tangent(F(params, *seed(*point.as_tuple())))


def gradient_fd(F, params, point):
    """Central-difference gradient; the independent oracle for `gradient`."""
    coords = list(point.as_tuple())
    parts = []
    for i, c in enumerate(coords):
        step = max(1.0, abs(c)) * FD_STEP_FACTOR
        hi, lo = list(coords), list(coords)
        hi[i] += step
        lo[i] -= step
        parts.append((F(params, *hi) - F(params, *lo)) / (2.0 * step))
    return tuple(parts)


def poisson_bracket_fd(F, G, params, point):
    gf = gradient_fd(F, params, point)
    gg = gradient_fd(G, params, point)
    return ((gf[0] * gg[2] - gf[2] * gg[0])
            + (gf[1] * gg[3] - gf[3] * gg[1]))


def time_reversal_defect(params, initial, config=None):
    """Max coordinate defect of the forward/backward round trip, or None
    when either leg stops before its horizon."""
    forward = integrate(params, initial, config)
    if forward.termination != COMPLETED:
        return None
    turn = PhasePoint(*forward.states[-1])
    back = integrate(params, PhasePoint(turn.r, turn.phi, -turn.p_r,
                                        -turn.p_phi), config)
    if back.termination != COMPLETED:
        return None
    end = PhasePoint(*back.states[-1])
    return max(abs(end.r - initial.r), abs(end.phi - initial.phi),
               abs(end.p_r + initial.p_r), abs(end.p_phi + initial.p_phi))


def variant_jd2(params, r, phi, p_r, p_phi):
    """Uncorrected d-family form: P1*p_phi with the sine block.  Not
    conserved."""
    k = params.k_n
    u = k * phi
    s, half = sin(u), 0.5 * u
    return (noether_p1(params.n, r, phi, p_r, p_phi) * p_phi
            - params.k0 * cos(u)
            + params.k1 * s * sin(half) * r ** (-0.5 * k)
            - params.k2 * s * cos(half) * r ** (-0.5 * k))


def variant_jd3(params, r, phi, p_r, p_phi):
    """Uncorrected d-family companion: P2*p_phi with the cosine block.  Not
    conserved."""
    k = params.k_n
    u = k * phi
    c, half = cos(u), 0.5 * u
    return (noether_p2(params.n, r, phi, p_r, p_phi) * p_phi
            + params.k0 * sin(u)
            + params.k1 * c * sin(half) * r ** (-0.5 * k)
            - params.k2 * c * cos(half) * r ** (-0.5 * k))
