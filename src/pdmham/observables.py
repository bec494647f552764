"""Lookup of the integrals bound to each family, and the corrupted
variants of the negative control.

Names are unique per family, not globally: nc and na_prime both bind a
J2/J3 pair, nc1 and nc2 both bind Jc2/Jc3, so lookups take (family, name).
The formulas themselves live in `formulas` (the complex factors M, A and N
among them), their binding in `catalog`.
"""

import functools
from dataclasses import replace

from .catalog import Integral, lookup
from .errors import PdmError
from .families import hamiltonian

# available for every family next to its bound integrals
_H = Integral("H", hamiltonian)


def family_integrals(family):
    """Names of the integrals bound to a family, H excluded."""
    return lookup(family).integrals


def integral(family, name):
    """Observable for one bound integral, or H for any family."""
    bound = lookup(family).bound
    if name == "H":
        return _H
    for obs in bound:
        if obs.name == name:
            return obs
    raise PdmError(f"{family} does not bind {name!r}")


CORRUPTION_FACTOR = 0.1


@functools.lru_cache(maxsize=256)
def corruption_parts(obs, params):
    """(name, part) of each part of an integral a corruption may scale, in
    order of preference: "momentum", the couplings-zeroed momentum part,
    and "radial", its value at p_phi = 0; one object per key, so the
    traces cached on them are reused."""
    zeroed = replace(params, k0=0.0, k1=0.0, k2=0.0)

    def momentum(_params, r, phi, p_r, p_phi):
        return obs(zeroed, r, phi, p_r, p_phi)

    def radial(_params, r, phi, p_r, p_phi):
        return obs(params, r, phi, p_r, 0.0)

    return ("momentum", momentum), ("radial", radial)


@functools.lru_cache(maxsize=256)
def corruption(obs, params, part):
    """obs plus CORRUPTION_FACTOR times its part named `part`, as an
    `Integral` named "<obs> <part>"; one object per key, so the traces
    cached on it are reused."""
    scaled = dict(corruption_parts(obs, params))[part]

    def corrupt(p, r, phi, p_r, p_phi):
        return obs(p, r, phi, p_r, p_phi) + CORRUPTION_FACTOR * scaled(
            p, r, phi, p_r, p_phi)

    return Integral(f"{obs.name} {part}", corrupt, obs.degree)
