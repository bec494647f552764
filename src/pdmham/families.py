"""Hamiltonians of the family table and the flat-plane potentials the
families reduce to at n = 0.

`potential` and `hamiltonian` evaluate over generic scalars (floats or
duals), so the bracket engine can differentiate them without per-family
derivative code.
"""

import math

from .catalog import CATALOG, lookup
from .errors import CartesianSingularity, NonZeroN, UnknownFamily
from .formulas import kinetic
from .phase import polar_to_cartesian


def potential(params, r, phi):
    return lookup(params.family).potential(params, r, phi)


def hamiltonian(params, r, phi, p_r, p_phi):
    """H = T_n + U_family; the Observable-shaped entry point for brackets."""
    return kinetic(params.n, r, p_r, p_phi) + potential(params, r, phi)


def euclidean_potential(tag, couplings, x, y):
    """Flat-plane reference potentials on (x, y).

    Couplings read as (omega0^2, k1, k2) for tags a/b and (k0, k1, k2) for
    tags c/d.  Tag d uses the half-angle radicals sqrt(r +- x), single
    valued off the origin.
    """
    c0, c1, c2 = couplings
    rr = math.hypot(x, y)
    if tag == "a":
        if x == 0.0 or y == 0.0:
            raise CartesianSingularity("axis point")
        return 0.5 * c0 * (x * x + y * y) + c1 / (x * x) + c2 / (y * y)
    if tag == "b":
        if x == 0.0:
            raise CartesianSingularity("x = 0")
        return 0.5 * c0 * (x * x + 4.0 * y * y) + c1 / (x * x) + c2 * y
    if tag == "c":
        if rr == 0.0 or y == 0.0:
            raise CartesianSingularity("origin or y = 0")
        return c0 / rr + c1 / (y * y) + c2 * x / (y * y * rr)
    if tag == "d":
        if rr == 0.0:
            raise CartesianSingularity("origin")
        return (c0 / rr + c1 * math.sqrt(rr + x) / rr
                + c2 * math.sqrt(rr - x) / rr)
    raise ValueError(f"unknown Euclidean tag {tag!r}")


def euclid_equivalence_map(family):
    """(tag, mapped couplings factory) for families with an n = 0 twin."""
    reduction = CATALOG[family].reduction if family in CATALOG else None
    if reduction is None:
        raise UnknownFamily(f"{family} has no flat-plane reduction map")
    return reduction.tag, reduction.couplings


def euclid_equivalence_residual(params, point):
    """|U_family(n=0) - V_tag| at one point under the documented map.

    Only meaningful at n = 0; the d comparison additionally needs y > 0.
    """
    if params.n != 0.0:
        raise NonZeroN(f"n = {params.n}, reduction defined at n = 0")
    tag, mapper = euclid_equivalence_map(params.family)
    cart = polar_to_cartesian(point)
    u_val = potential(params, point.r, point.phi)
    v_val = euclidean_potential(tag, mapper(params), cart.x, cart.y)
    return abs(u_val - v_val)
