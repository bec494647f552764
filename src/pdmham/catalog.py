"""The family table: one frozen `Family` record per potential family.

A record holds everything the package knows about one family: what
`pdm list` prints, the potential, the angular poles it has, the bound
integrals, the triple that carries the superintegrability claim, the
flat-plane problem it reduces to at n = 0, and the extra certificate checks
the family carries.  Every other module reads this table; adding a family
means adding its formulas and one record here.
"""

import math
from dataclasses import dataclass

from . import formulas as f
from .errors import UnknownFamily


@dataclass(frozen=True)
class Integral:
    """A named scalar phase-space function evaluable over generic scalars.

    degree is the momentum degree of the function's momentum part.
    """

    name: str
    fn: object
    degree: int = 2

    def __call__(self, params, r, phi, p_r, p_phi):
        return self.fn(params, r, phi, p_r, p_phi)


@dataclass(frozen=True)
class Reduction:
    """The n = 0 flat-plane twin: its tag, a ModelParams -> couplings map,
    and whether the match holds only on the upper half plane y > 0."""

    tag: str
    couplings: object
    upper_half: bool = False


@dataclass(frozen=True)
class Family:
    """One family.  `poles` lists the trig kinds whose zero in u = k_n*phi
    makes the potential blow up: "cos" poles sit at u = pi/2 + m*pi
    (sec-type terms), "sin" poles at u = m*pi (csc-type).

    The extra checks: `commuting` is a pair of integrals asserted to be in
    involution; each `identities` entry is (name, fn) with fn returning
    (lhs, rhs) pairs that agree pointwise; each `algebra` entry is
    (name, A, B, rhs) for {A, B} = rhs; each `laws` entry is
    (label, (Z1, Z2), rate) for the complex-factor evolution law
    {Z, H} = i c Z with c = rate(params, point); `conserved_product` holds
    the (Re, Im) parts of a factor product that commutes with H.
    """

    name: str
    group: str
    formula: str
    potential: object
    bound: tuple
    triple: tuple
    poles: tuple = ()
    reduction: Reduction = None
    degenerate_at_n1: bool = True
    commuting: tuple = ()
    identities: tuple = ()
    algebra: tuple = ()
    laws: tuple = ()
    conserved_product: tuple = ()

    @property
    def integrals(self):
        """Names of the bound integrals, in order."""
        return tuple(obs.name for obs in self.bound)


# Evolution-law rates: na_prime's M and N turn at 2 (n-1) r^{2(n-1)} p_phi
# (lambda of the s61 convention, (n-1) inside), nd's A and N at -/+ (n-1)
# times r^{2(n-1)} p_phi (lambda of the s62 convention, (n-1) outside).
def _doubled_rate(p, pt):
    return 2.0 * ((p.n - 1.0) * pt.r ** (2.0 * (p.n - 1.0)) * pt.p_phi)


def _a_rate(p, pt):
    return -(p.n - 1.0) * (pt.r ** (2.0 * (p.n - 1.0)) * pt.p_phi)


def _single_rate(p, pt):
    return (p.n - 1.0) * (pt.r ** (2.0 * (p.n - 1.0)) * pt.p_phi)


# The reduction maps: the b-map flips the sign of k2 and the d-map rescales
# by sqrt(2); both are forced by u = -phi at n = 0 and the half-angle
# radicals (d valid on the upper half plane y > 0).
_FAMILIES = (
    Family(
        "geodesic", "kinetic only", "U = 0", f.u_geodesic,
        (Integral("P1", f.p1, 1), Integral("P2", f.p2, 1),
         Integral("Pphi", f.pphi, 1)),
        triple=("P1", "P2", "Pphi"),
        degenerate_at_n1=False),
    Family(
        "na_central", "oscillator type", "U = k0/r^{2k}", f.u_na_central,
        (Integral("J1", f.pphi, 1), Integral("J11", f.j11),
         Integral("J22", f.j22), Integral("J12", f.j12)),
        triple=("J1", "J11", "J22"),
        commuting=("J11", "J22"),
        identities=(("sum_rule_h", f.central_sum_rule),)),
    Family(
        "na", "oscillator type",
        "U = k0/r^{2k} + r^{2k} (k1 sec^2(u) + k2 csc^2(u))", f.u_na,
        (Integral("Ja1", f.ja1), Integral("Ja2", f.ja2),
         Integral("Ja3", f.ja3)),
        triple=("Ja1", "Ja2", "Ja3"),
        poles=("cos", "sin"),
        reduction=Reduction("a", lambda p: (2.0 * p.k0, p.k1, p.k2))),
    Family(
        "na_prime", "complex factorization",
        "U = k0/r^{2k} + (k1 cos(u) + k2 sin(u))/r^k", f.u_na_prime,
        (Integral("Ja1p", f.ja1p), Integral("Ja2p", f.ja2p),
         Integral("Ja3p", f.ja3p, 1), Integral("J2", f.j2_osc),
         Integral("J3", f.j3_osc)),
        triple=("Ja3p", "J2", "J3"),
        identities=(("sum_rule_h", f.prime_sum_rule),
                    ("mn_reconstruct", f.mn_reconstruct),
                    ("n_unit_modulus", f.n_unit_modulus)),
        algebra=(("bracket_j2", "Ja3p", "J2", f.ja3p_j2_bracket),
                 ("bracket_j3", "Ja3p", "J3", f.ja3p_j3_bracket)),
        laws=(("m", f.m_components, _doubled_rate),
              ("n", f.n_double, _doubled_rate))),
    Family(
        "nb", "oscillator type",
        "U = (k0/r^{2k})(cos^2(u) + 4 sin^2(u)) + k1 r^{2k} sec^2(u)"
        " + (k2/r^k) sin(u)", f.u_nb,
        (Integral("Jb1", f.ja1), Integral("Jb2", f.jb2),
         Integral("Jb3", f.jb3)),
        triple=("Jb1", "Jb2", "Jb3"),
        poles=("cos",),
        reduction=Reduction("b", lambda p: (2.0 * p.k0, p.k1, -p.k2))),
    Family(
        "nc", "Kepler type", "U = k0 r^k", f.u_nc,
        (Integral("J1", f.pphi, 1), Integral("J2", f.j2_kep),
         Integral("J3", f.j3_kep)),
        triple=("J1", "J2", "J3")),
    Family(
        "nc1", "Kepler type",
        "U = k0 r^k + r^{2k} (k1 + k2 cos(u))/sin^2(u)", f.u_nc1,
        (Integral("Jc2", f.jc2_1), Integral("Jc3", f.jc3_1)),
        triple=("Jc2", "Jc3", "H"),
        poles=("sin",),
        reduction=Reduction("c", lambda p: (p.k0, p.k1, p.k2))),
    Family(
        "nc2", "Kepler type",
        "U = k0 r^k + r^{2k} (k1 + k2 sin(u))/cos^2(u)", f.u_nc2,
        (Integral("Jc2", f.jc2_2), Integral("Jc3", f.jc3_2)),
        triple=("Jc2", "Jc3", "H"),
        poles=("cos",)),
    Family(
        "nd", "complex factorization",
        "U = k0 r^k + r^{k/2} (k1 cos(u/2) + k2 sin(u/2))", f.u_nd,
        (Integral("Jd2", f.jd2), Integral("Jd3", f.jd3)),
        triple=("Jd2", "Jd3", "H"),
        reduction=Reduction(
            "d", lambda p: (p.k0, p.k1 / math.sqrt(2.0),
                            -p.k2 / math.sqrt(2.0)), upper_half=True),
        identities=(("an_reconstruct", f.an_reconstruct),
                    ("a_modulus", f.a_modulus)),
        laws=(("a", f.a_components, _a_rate),
              ("n", f.n_single, _single_rate)),
        conserved_product=(f.an_re, f.an_im)),
)

CATALOG = {fam.name: fam for fam in _FAMILIES}


def lookup(name):
    """The record of family `name`."""
    try:
        return CATALOG[name]
    except KeyError:
        raise UnknownFamily(name) from None
