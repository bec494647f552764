"""Hamiltonians of the family table, and the flat-plane twins the families
reduce to at n = 0.

`potential` and `hamiltonian` evaluate over generic scalars (floats or
duals), so the bracket engine can differentiate them without per-family
derivative code.
"""

import math
from dataclasses import replace

from .catalog import lookup
from .errors import CartesianSingularity, NonZeroN, UnknownFamily
from .formulas import kinetic
from .phase import DomainBox


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


def _reduction(params):
    reduction = lookup(params.family).reduction
    if reduction is None:
        raise UnknownFamily(f"{params.family} has no flat-plane reduction map")
    return reduction


def flat_twin(params, r, phi, p_r, p_phi):
    """((U_family, V_tag, terms),) at n = 0 under the catalog's couplings
    map: an identity for `certify.identity_residual`, sampled on `twin_box`.
    Both potentials are linear in (k0, k1, k2), so `terms`, the larger of
    sum |U_i| and sum |V_i| with only k_i set, sizes the roundoff in U - V
    that terms of opposite sign leave however small U is."""
    if params.n != 0.0:
        raise NonZeroN(f"n = {params.n}, reduction defined at n = 0")
    red = _reduction(params)
    x, y = r * math.cos(phi), r * math.sin(phi)

    def pair(p):
        return (potential(p, r, phi),
                euclidean_potential(red.tag, red.couplings(p), x, y))

    parts = [pair(replace(params, k0=k0, k1=k1, k2=k2)) for k0, k1, k2 in (
        (params.k0, 0.0, 0.0), (0.0, params.k1, 0.0), (0.0, 0.0, params.k2))]
    terms = max(sum(abs(u) for u, _ in parts), sum(abs(v) for _, v in parts))
    return (pair(params) + (terms,),)


def twin_box(params, seed):
    """The twin's DomainBox: 0.05 off every pole (at n = 0 the family's
    poles are the cartesian walls), and y > 0 where the match needs it."""
    turns = 1.0 if _reduction(params).upper_half else 2.0
    return DomainBox(phi_min=0.05, phi_max=turns * math.pi - 0.05,
                     phi_margin=0.05, seed=seed)
