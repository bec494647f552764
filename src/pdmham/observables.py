"""Lookup of the integrals bound to each family, and the corrupted
variants of the negative control.

Names are unique per family, not globally: nc and na_prime both bind a
J2/J3 pair, nc1 and nc2 both bind Jc2/Jc3, so lookups take (family, name).
The formulas themselves live in `formulas` (the complex factors M, A and N
among them), their binding in `catalog`.
"""

from dataclasses import replace

from .catalog import Integral, lookup
from .errors import UnknownIntegral
from .families import hamiltonian
from .formulas import kinetic


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
