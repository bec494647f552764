"""The paper's formulas over generic scalars (floats or duals): the kinetic
term, the nine family potentials, the integrals they bind, the complex
factors M, A and N, and the pointwise identities among them.

Nothing here knows which family a formula belongs to; `catalog` binds them.
Angular arguments are always u = k_n*phi with k_n = n - 1.

The d-family pair needs care.  The coordinate forms most naturally paired
with the family fail their conservation test outright (bracket residual of
order one; see docs/FORMULA_ERRATA.md).  The certified forms below swap the
two momentum monomials and are exactly the real and imaginary parts of the
product A*N, which the factorization laws force to be conserved.  The
uncorrected variants stay available as variant_jd2 / variant_jd3 so the
regression suite can keep demonstrating the failure.
"""

from .dual import cos, sin
from .geometry import noether_p1, noether_p2


def kinetic(n, r, p_r, p_phi):
    """T_n = (1/2) r^{2n} (p_r^2 + p_phi^2 / r^2)."""
    return 0.5 * r ** (2.0 * n) * (p_r * p_r + (p_phi * p_phi) / (r * r))


# -- potentials --

def u_geodesic(params, r, phi):
    return 0.0


def u_na_central(params, r, phi):
    k = params.k_n
    return params.k0 * r ** (-2.0 * k)


def u_na(params, r, phi):
    k = params.k_n
    u = k * phi
    c, s = cos(u), sin(u)
    return (params.k0 * r ** (-2.0 * k)
            + r ** (2.0 * k) * (params.k1 / (c * c) + params.k2 / (s * s)))


def u_na_prime(params, r, phi):
    k = params.k_n
    u = k * phi
    return (params.k0 * r ** (-2.0 * k)
            + (params.k1 * cos(u) + params.k2 * sin(u)) * r ** (-k))


def u_nb(params, r, phi):
    k = params.k_n
    u = k * phi
    c, s = cos(u), sin(u)
    return (params.k0 * r ** (-2.0 * k) * (c * c + 4.0 * s * s)
            + params.k1 * r ** (2.0 * k) / (c * c)
            + params.k2 * r ** (-k) * s)


def u_nc(params, r, phi):
    return params.k0 * r ** params.k_n


def u_nc1(params, r, phi):
    k = params.k_n
    u = k * phi
    s = sin(u)
    return (params.k0 * r ** k
            + r ** (2.0 * k) * (params.k1 + params.k2 * cos(u)) / (s * s))


def u_nc2(params, r, phi):
    k = params.k_n
    u = k * phi
    c = cos(u)
    return (params.k0 * r ** k
            + r ** (2.0 * k) * (params.k1 + params.k2 * sin(u)) / (c * c))


def u_nd(params, r, phi):
    k = params.k_n
    half_u = 0.5 * k * phi
    return (params.k0 * r ** k
            + r ** (0.5 * k) * (params.k1 * cos(half_u) + params.k2 * sin(half_u)))


# -- Noether momenta --

def p1(params, r, phi, p_r, p_phi):
    return noether_p1(params.n, r, phi, p_r, p_phi)


def p2(params, r, phi, p_r, p_phi):
    return noether_p2(params.n, r, phi, p_r, p_phi)


def pphi(params, r, phi, p_r, p_phi):
    return p_phi


# -- oscillator-type families --

def j11(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    c = cos(u)
    return (p1(params, r, phi, p_r, p_phi) ** 2.0
            + 2.0 * params.k0 * c * c * r ** (-2.0 * params.k_n))


def j22(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    s = sin(u)
    return (p2(params, r, phi, p_r, p_phi) ** 2.0
            + 2.0 * params.k0 * s * s * r ** (-2.0 * params.k_n))


def j12(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    return (p1(params, r, phi, p_r, p_phi) * p2(params, r, phi, p_r, p_phi)
            + 2.0 * params.k0 * cos(u) * sin(u) * r ** (-2.0 * params.k_n))


def ja1(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    c = cos(u)
    return (j11(params, r, phi, p_r, p_phi)
            + 2.0 * params.k1 * r ** (2.0 * params.k_n) / (c * c))


def ja2(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    s = sin(u)
    return (j22(params, r, phi, p_r, p_phi)
            + 2.0 * params.k2 * r ** (2.0 * params.k_n) / (s * s))


def ja3(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    c, s = cos(u), sin(u)
    return p_phi * p_phi + 2.0 * (params.k1 / (c * c) + params.k2 / (s * s))


def ja1p(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    return (j11(params, r, phi, p_r, p_phi)
            + 2.0 * params.k1 * cos(u) * r ** (-params.k_n))


def ja2p(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    return (j22(params, r, phi, p_r, p_phi)
            + 2.0 * params.k2 * sin(u) * r ** (-params.k_n))


def ja3p(params, r, phi, p_r, p_phi):
    return (2.0 * params.k0 * p_phi
            + params.k2 * p1(params, r, phi, p_r, p_phi)
            - params.k1 * p2(params, r, phi, p_r, p_phi))


def jb2(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    s = sin(u)
    return (p2(params, r, phi, p_r, p_phi) ** 2.0
            + 8.0 * params.k0 * s * s * r ** (-2.0 * params.k_n)
            + 2.0 * params.k2 * s * r ** (-params.k_n))


def jb3(params, r, phi, p_r, p_phi):
    k = params.k_n
    u = k * phi
    c, s2 = cos(u), sin(2.0 * u)
    return (p1(params, r, phi, p_r, p_phi) * p_phi
            - params.k0 * c * s2 * r ** (-3.0 * k)
            + params.k1 * s2 / (c * c * c) * r ** k
            - 0.5 * params.k2 * c * c * r ** (-2.0 * k))


# -- complex-factorization family on the oscillator side --

def m1(params, r, phi, p_r, p_phi):
    k = params.k_n
    u = k * phi
    return (r ** (2.0 * k) * (r * r * p_r * p_r - p_phi * p_phi)
            + 2.0 * params.k0 * r ** (-2.0 * k)
            + 2.0 * (params.k1 * cos(u) + params.k2 * sin(u)) * r ** (-k))


def m2(params, r, phi, p_r, p_phi):
    k = params.k_n
    u = k * phi
    return (2.0 * r ** (2.0 * params.n - 1.0) * p_r * p_phi
            + 2.0 * (params.k1 * sin(u) - params.k2 * cos(u)) * r ** (-k))


def j2_osc(params, r, phi, p_r, p_phi):
    k = params.k_n
    u = k * phi
    return (p1(params, r, phi, p_r, p_phi) ** 2.0
            - p2(params, r, phi, p_r, p_phi) ** 2.0
            + 2.0 * params.k0 * cos(2.0 * u) * r ** (-2.0 * k)
            + 2.0 * (params.k1 * cos(u) - params.k2 * sin(u)) * r ** (-k))


def j3_osc(params, r, phi, p_r, p_phi):
    k = params.k_n
    u = k * phi
    return (2.0 * p1(params, r, phi, p_r, p_phi)
            * p2(params, r, phi, p_r, p_phi)
            + 2.0 * params.k0 * sin(2.0 * u) * r ** (-2.0 * k)
            + 2.0 * (params.k1 * sin(u) + params.k2 * cos(u)) * r ** (-k))


# -- Kepler-type families --

def j2_kep(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    return p2(params, r, phi, p_r, p_phi) * p_phi - params.k0 * cos(u)


def j3_kep(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    return p1(params, r, phi, p_r, p_phi) * p_phi + params.k0 * sin(u)


def jc2_1(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    s = sin(u)
    return p_phi * p_phi + 2.0 * (params.k1 + params.k2 * cos(u)) / (s * s)


def jc3_1(params, r, phi, p_r, p_phi):
    k = params.k_n
    u = k * phi
    c, s = cos(u), sin(u)
    return (j2_kep(params, r, phi, p_r, p_phi)
            - 2.0 * params.k1 * r ** k * c / (s * s)
            - params.k2 * r ** k * (1.0 + c * c) / (s * s))


def jc2_2(params, r, phi, p_r, p_phi):
    u = params.k_n * phi
    c = cos(u)
    return p_phi * p_phi + 2.0 * (params.k1 + params.k2 * sin(u)) / (c * c)


def jc3_2(params, r, phi, p_r, p_phi):
    k = params.k_n
    u = k * phi
    c, s = cos(u), sin(u)
    return (j3_kep(params, r, phi, p_r, p_phi)
            + 2.0 * params.k1 * r ** k * s / (c * c)
            + params.k2 * r ** k * (1.0 + s * s) / (c * c))


# -- d family: the certified forms pair P2*p_phi with the sine block and
#    P1*p_phi with the cosine block (equal to -Re(A N) and +Im(A N)
#    exactly); the uncorrected variants swap the two momentum monomials --

def _jd_form(jd3_shape, momentum, params, r, phi, p_r, p_phi):
    k = params.k_n
    u = k * phi
    c, s, half = cos(u), sin(u), 0.5 * u
    block, k0_term = (c, s) if jd3_shape else (s, -c)
    return (momentum(params, r, phi, p_r, p_phi) * p_phi
            + params.k0 * k0_term
            + params.k1 * block * sin(half) * r ** (-0.5 * k)
            - params.k2 * block * cos(half) * r ** (-0.5 * k))


def jd2(params, r, phi, p_r, p_phi):
    return _jd_form(False, p2, params, r, phi, p_r, p_phi)


def jd3(params, r, phi, p_r, p_phi):
    return _jd_form(True, p1, params, r, phi, p_r, p_phi)


def variant_jd2(params, r, phi, p_r, p_phi):
    """Uncorrected d-family form: P1*p_phi momentum part.  Not conserved."""
    return _jd_form(False, p1, params, r, phi, p_r, p_phi)


def variant_jd3(params, r, phi, p_r, p_phi):
    """Uncorrected d-family companion with P2*p_phi.  Not conserved."""
    return _jd_form(True, p2, params, r, phi, p_r, p_phi)


# -- complex factor functions --

def a1_component(params, r, phi, p_r, p_phi):
    return r ** params.k_n * p_phi * p_phi + params.k0


def a2_component(params, r, phi, p_r, p_phi):
    k = params.k_n
    half_u = 0.5 * k * phi
    # momentum-weight exponent (3n-1)/2; combined with the prefactor the
    # momentum term carries r^n overall
    weight = 0.5 * (3.0 * params.n - 1.0)
    return r ** (-0.5 * k) * (r ** weight * p_r * p_phi
                              + params.k1 * sin(half_u)
                              - params.k2 * cos(half_u))


def _unit_factor(mult):
    def re(params, r, phi, p_r, p_phi):
        return cos(mult * params.k_n * phi)

    def im(params, r, phi, p_r, p_phi):
        return sin(mult * params.k_n * phi)

    return (re, im)


# (real, imaginary) parts of M = M1 + i M2, A = A1 + i A2, and the unit
# factor N on the doubled (2 k_n phi) or single (k_n phi) angle
m_components = (m1, m2)
a_components = (a1_component, a2_component)
n_double = _unit_factor(2.0)
n_single = _unit_factor(1.0)


def an_re(params, r, phi, p_r, p_phi):
    return (a1_component(params, r, phi, p_r, p_phi)
            * n_single[0](params, r, phi, p_r, p_phi)
            - a2_component(params, r, phi, p_r, p_phi)
            * n_single[1](params, r, phi, p_r, p_phi))


def an_im(params, r, phi, p_r, p_phi):
    return (a1_component(params, r, phi, p_r, p_phi)
            * n_single[1](params, r, phi, p_r, p_phi)
            + a2_component(params, r, phi, p_r, p_phi)
            * n_single[0](params, r, phi, p_r, p_phi))


# -- pointwise identities: each returns the (lhs, rhs) pairs that must agree --

def kinetic_noether(params, r, phi, p_r, p_phi):
    """T = (P1^2 + P2^2)/2, for every family."""
    p1v = p1(params, r, phi, p_r, p_phi)
    p2v = p2(params, r, phi, p_r, p_phi)
    return ((kinetic(params.n, r, p_r, p_phi), 0.5 * (p1v * p1v + p2v * p2v)),)


def central_sum_rule(params, r, phi, p_r, p_phi):
    """H = (J11 + J22)/2 for the central oscillator potential."""
    h = kinetic(params.n, r, p_r, p_phi) + u_na_central(params, r, phi)
    return ((h, 0.5 * (j11(params, r, phi, p_r, p_phi)
                       + j22(params, r, phi, p_r, p_phi))),)


def prime_sum_rule(params, r, phi, p_r, p_phi):
    """2H = Ja1p + Ja2p for the single-angle oscillator potential."""
    h = kinetic(params.n, r, p_r, p_phi) + u_na_prime(params, r, phi)
    return ((2.0 * h, ja1p(params, r, phi, p_r, p_phi)
             + ja2p(params, r, phi, p_r, p_phi)),)


def mn_reconstruct(params, r, phi, p_r, p_phi):
    """M N* = (M1 N1 + M2 N2) + i (M2 N1 - M1 N2) = J2 - i J3."""
    args = (params, r, phi, p_r, p_phi)
    mv1, mv2 = m1(*args), m2(*args)
    nv1, nv2 = n_double[0](*args), n_double[1](*args)
    return ((mv1 * nv1 + mv2 * nv2, j2_osc(*args)),
            (mv2 * nv1 - mv1 * nv2, -j3_osc(*args)))


def n_unit_modulus(params, r, phi, p_r, p_phi):
    """|N|^2 = 1 on the doubled angle."""
    args = (params, r, phi, p_r, p_phi)
    nv1, nv2 = n_double[0](*args), n_double[1](*args)
    return ((nv1 * nv1 + nv2 * nv2, 1.0),)


def an_reconstruct(params, r, phi, p_r, p_phi):
    """A N = (A1 N1 - A2 N2) + i (A1 N2 + A2 N1) = -Jd2 + i Jd3."""
    args = (params, r, phi, p_r, p_phi)
    av1, av2 = a1_component(*args), a2_component(*args)
    nv1, nv2 = n_single[0](*args), n_single[1](*args)
    return ((-(av1 * nv1 - av2 * nv2), jd2(*args)),
            (av1 * nv2 + av2 * nv1, jd3(*args)))


def a_modulus(params, r, phi, p_r, p_phi):
    """|A|^2 = Jd2^2 + Jd3^2."""
    args = (params, r, phi, p_r, p_phi)
    av1, av2 = a1_component(*args), a2_component(*args)
    return ((av1 * av1 + av2 * av2, jd2(*args) ** 2 + jd3(*args) ** 2),)


# -- right-hand sides of the closed bracket algebra of Ja3p, J2, J3 --

def ja3p_j2_bracket(params, r, phi, p_r, p_phi):
    """{Ja3p, J2} = 4 (n-1) (k0 J3 + k1 k2)."""
    return 4.0 * (params.n - 1.0) * (
        params.k0 * j3_osc(params, r, phi, p_r, p_phi)
        + params.k1 * params.k2)


def ja3p_j3_bracket(params, r, phi, p_r, p_phi):
    """{Ja3p, J3} = -2 (n-1) (2 k0 J2 + k1^2 - k2^2)."""
    return -2.0 * (params.n - 1.0) * (
        2.0 * params.k0 * j2_osc(params, r, phi, p_r, p_phi)
        + params.k1 * params.k1 - params.k2 * params.k2)
