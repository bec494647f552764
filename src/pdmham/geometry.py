"""Conformal metric r^{-2n}(dr^2 + r^2 dphi^2): isometries, Noether momenta,
Lie-derivative residuals, and the curvature component R_1212.

`killing_components` selects the Killing fields X1, X2 and XJ by tag; their
Noether momenta are `noether_p1`, `noether_p2` and p_phi itself."""

from dataclasses import dataclass

from .dual import cos, second_derivative, seed, sin, tangent, value
from .errors import RadiusNonPositive

KILLING_TAGS = ("X1", "X2", "XJ")


@dataclass(frozen=True)
class MetricComponents:
    """Diagonal components; the off-diagonal part is identically zero."""

    g_rr: float
    g_phiphi: float


def metric(n, r):
    if value(r) <= 0.0:
        raise RadiusNonPositive(f"r = {value(r)}")
    return MetricComponents(g_rr=r ** (-2.0 * n), g_phiphi=r ** (2.0 - 2.0 * n))


def killing_components(tag, n):
    """Component functions (v_r(r, phi), v_phi(r, phi)) over generic scalars."""
    k = n - 1.0
    if tag == "X1":
        return (lambda r, phi: r ** n * cos(k * phi),
                lambda r, phi: r ** (n - 1.0) * sin(k * phi))
    if tag == "X2":
        return (lambda r, phi: r ** n * sin(k * phi),
                lambda r, phi: -(r ** (n - 1.0)) * cos(k * phi))
    if tag == "XJ":
        return (lambda r, phi: 0.0, lambda r, phi: 1.0)
    raise ValueError(f"unknown Killing tag {tag!r}")


def lie_derivative_metric(field, n, point):
    """Components ((L_X g)_rr, (L_X g)_rphi, (L_X g)_phiphi) at a point.

    `field` is a pair of component functions, as `killing_components`
    returns; the metric and field derivatives come from one dual-number
    pass.  For the three Killing fields every component vanishes to
    roundoff.
    """
    vr_f, vphi_f = field
    if point.r <= 0.0:
        raise RadiusNonPositive(f"r = {point.r}")
    r, phi, _, _ = seed(point.r, point.phi, 0.0, 0.0)
    g_rr = r ** (-2.0 * n)
    g_pp = r ** (2.0 - 2.0 * n)
    vr = vr_f(r, phi)
    vphi = vphi_f(r, phi)
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
    if r <= 0.0:
        raise RadiusNonPositive(f"r = {r}")
    return {
        ("r", "r", "r"): -n / r,
        ("r", "phi", "phi"): -(1.0 - n) * r,
        ("phi", "r", "phi"): (1.0 - n) / r,
    }


def curvature_R1212(n, r):
    """R_1212 assembled term by term; identically zero for every n.

    The second radial derivative of g_phiphi comes from nested duals, the
    Christoffel contraction from the closed-form symbols above.  All phi
    derivatives vanish because the metric is phi-independent.
    """
    if r <= 0.0:
        raise RadiusNonPositive(f"r = {r}")
    d2_g_pp = second_derivative(lambda x: x ** (2.0 - 2.0 * n), r)
    gamma = christoffel_symbols(n, r)
    g = metric(n, r)
    contraction = (g.g_rr * gamma[("r", "r", "r")] * gamma[("r", "phi", "phi")]
                   - g.g_phiphi * gamma[("phi", "r", "phi")] ** 2)
    return -0.5 * d2_g_pp - contraction


def noether_p1(n, r, phi, p_r, p_phi):
    """P1, the Noether momentum of X1, over generic scalars."""
    u = (n - 1.0) * phi
    return r ** n * (p_r * cos(u) + p_phi * sin(u) / r)


def noether_p2(n, r, phi, p_r, p_phi):
    """P2, the Noether momentum of X2, over generic scalars."""
    u = (n - 1.0) * phi
    return r ** n * (p_r * sin(u) - p_phi * cos(u) / r)
