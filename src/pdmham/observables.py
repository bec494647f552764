"""Lookup of the integrals bound to each family, plus the complex factor
functions whose evolution laws and modulus identities the certifier
verifies, and the corrupted variants of the negative control.

Names are unique per family, not globally: nc and na_prime both bind a
J2/J3 pair, nc1 and nc2 both bind Jc2/Jc3, so lookups take (family, name).
The formulas themselves live in `formulas`, their binding in `catalog`.
"""

from dataclasses import replace

from .catalog import Integral, lookup
from .dual import cos, sin
from .errors import UnknownIntegral
from .families import hamiltonian
from .formulas import (a1_component, a2_component, a_components, kinetic,
                       lambda_factor, m1, m2, m_components, n_double, n_single,
                       variant_jd2, variant_jd3)


def _t(params, r, phi, p_r, p_phi):
    return kinetic(params.n, r, p_r, p_phi)


# available for every family next to its bound integrals
_EVERY_FAMILY = {"H": Integral("H", hamiltonian), "T": Integral("T", _t)}


def family_integrals(family):
    """Names of the integrals bound to a family, H excluded."""
    return lookup(family).integrals


def integral(family, name):
    """Observable for one bound integral, or H (or T) for any family."""
    bound = lookup(family).bound
    if name in _EVERY_FAMILY:
        return _EVERY_FAMILY[name]
    for obs in bound:
        if obs.name == name:
            return obs
    raise UnknownIntegral(f"{family} does not bind {name!r}")


CORRUPTION_FACTOR = 0.1


def corruption_parts(obs, params):
    """The parts of an integral a corruption may scale, in order of
    preference: "momentum", the couplings-zeroed momentum part, and
    "radial", its value at p_phi = 0."""
    zeroed = replace(params, k0=0.0, k1=0.0, k2=0.0)

    def momentum(_params, r, phi, p_r, p_phi):
        return obs(zeroed, r, phi, p_r, p_phi)

    def radial(_params, r, phi, p_r, p_phi):
        return obs(params, r, phi, p_r, 0.0)

    return {"momentum": momentum, "radial": radial}


def corruption(obs, params, part):
    """obs plus CORRUPTION_FACTOR times its part named `part`."""
    scaled = corruption_parts(obs, params)[part]

    def corrupt(p, r, phi, p_r, p_phi):
        return obs(p, r, phi, p_r, p_phi) + CORRUPTION_FACTOR * scaled(
            p, r, phi, p_r, p_phi)

    return corrupt


def complex_m(params, point):
    """M = M1 + i M2, the doubled-angle factor of the na_prime family."""
    r, phi, p_r, p_phi = point.as_tuple()
    return complex(m1(params, r, phi, p_r, p_phi),
                   m2(params, r, phi, p_r, p_phi))


def complex_a(params, point):
    """A = A1 + i A2, the single-angle factor of the nd family."""
    r, phi, p_r, p_phi = point.as_tuple()
    return complex(a1_component(params, r, phi, p_r, p_phi),
                   a2_component(params, r, phi, p_r, p_phi))


def complex_n(kind, n, phi):
    """Unit factor N: kind "double" uses 2*k_n*phi, "single" uses k_n*phi."""
    if kind == "double":
        u = 2.0 * (n - 1.0) * phi
    elif kind == "single":
        u = (n - 1.0) * phi
    else:
        raise ValueError(f"unknown N kind {kind!r}")
    return complex(cos(u), sin(u))


def n_components(kind):
    """Real/imaginary parts of N as Observable-shaped functions."""
    parts = {"double": n_double, "single": n_single}
    if kind not in parts:
        raise ValueError(f"unknown N kind {kind!r}")
    return parts[kind]
