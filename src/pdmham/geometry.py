"""Noether momenta of the conformal metric r^{-2n}(dr^2 + r^2 dphi^2).

The metric's Killing fields X1, X2 and XJ have the momenta `noether_p1`,
`noether_p2` and p_phi itself.  Certificates carry the claim as the
brackets of P1, P2 and p_phi with the geodesic Hamiltonian and the
identity T = (P1^2 + P2^2) / 2."""

from .dual import cos, sin


def noether_p1(n, r, phi, p_r, p_phi):
    """P1, the Noether momentum of X1, over generic scalars."""
    u = (n - 1.0) * phi
    return r ** n * (p_r * cos(u) + p_phi * sin(u) / r)


def noether_p2(n, r, phi, p_r, p_phi):
    """P2, the Noether momentum of X2, over generic scalars."""
    u = (n - 1.0) * phi
    return r ** n * (p_r * sin(u) - p_phi * cos(u) / r)
