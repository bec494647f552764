"""Integral registry, anchor values, complex factors, scaling laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import KINETIC, variant_jd2, variant_jd3
from pdmham import formulas
from pdmham.catalog import CATALOG, lookup
from pdmham.errors import PdmError
from pdmham.families import kinetic, potential
from pdmham.formulas import a_components, m_components, n_double, n_single
from pdmham.observables import family_integrals, integral
from pdmham.phase import DomainBox, ModelParams, PhasePoint, sample_points

EXPECTED_COUNTS = {
    "geodesic": 3, "na_central": 4, "na": 3, "na_prime": 5, "nb": 3,
    "nc": 3, "nc1": 2, "nc2": 2, "nd": 2,
}


def test_registry_counts():
    for family in CATALOG:
        names = family_integrals(family)
        assert len(names) == EXPECTED_COUNTS[family]
        assert len(set(names)) == len(names)


def test_registry_errors():
    with pytest.raises(PdmError, match="^unknown family 'nx'$"):
        family_integrals("nx")
    with pytest.raises(PdmError, match="^unknown family 'nx'$"):
        integral("nx", "J1")
    with pytest.raises(PdmError, match="^nd does not bind 'J1'$"):
        integral("nd", "J1")


def test_h_is_t_plus_u_for_every_family():
    # H is available for every family; T is not an integral it binds
    for family in CATALOG:
        params = ModelParams(family, 2.0, 0.5, 0.2, 0.1)
        h = integral(family, "H")
        pt = (1.2, 0.8, 0.4, -0.6)
        assert h(params, *pt) == pytest.approx(
            kinetic(2.0, 1.2, 0.4, -0.6) + potential(params, 1.2, 0.8))
        with pytest.raises(PdmError, match=f"^{family} does not bind 'T'$"):
            integral(family, "T")


def test_certified_jd2_anchor_differs_from_variant():
    params = ModelParams("nd", 3.0, 1.0, 0.0, 0.0)
    args = (1.0, 0.0, 0.0, 1.0)
    assert integral("nd", "Jd2")(params, *args) == pytest.approx(-2.0)
    assert variant_jd2(params, *args) == pytest.approx(-1.0)
    assert integral("nd", "Jd3")(params, *args) == pytest.approx(0.0)
    assert variant_jd3(params, *args) == pytest.approx(-1.0)


def _complex(parts, params, r, phi, p_r=0.0, p_phi=0.0):
    re, im = parts
    return complex(re(params, r, phi, p_r, p_phi),
                   im(params, r, phi, p_r, p_phi))


def test_complex_m_anchor():
    params = ModelParams("na_prime", 2.0, 1.0, 2.0, 0.0)
    assert _complex(m_components, params, 1.0, 0.0) == pytest.approx(
        6.0 + 0.0j)


def test_complex_a_anchor():
    params = ModelParams("nd", 2.0, 0.7, 0.0, 1.0)
    assert _complex(a_components, params, 1.0, 0.0) == pytest.approx(
        0.7 - 1.0j)


def test_complex_n_unit_modulus():
    for parts in (n_double, n_single):
        for n in (-1.0, 2.0, 3.0):
            params = ModelParams("nd", n)
            for phi in (0.0, 0.7, 2.9):
                assert abs(_complex(parts, params, 1.0, phi)) == \
                    pytest.approx(1.0)
    # single at angle phi equals double at half the angle
    params = ModelParams("nd", 3.0)
    assert _complex(n_single, params, 1.0, 0.8) == pytest.approx(
        _complex(n_double, params, 1.0, 0.4))


def test_lambda_conventions_differ_by_factor():
    # na_prime's doubled-angle rate is 2 lambda with lambda = (n-1)
    # r^{2(n-1)} p_phi (s61: the (n-1) inside); nd's N rate is (n-1) lambda
    # with lambda = r^{2(n-1)} p_phi (s62: the (n-1) outside), and its A
    # rate is the opposite
    (_, _, doubled), _ = CATALOG["na_prime"].laws
    (_, _, a_rate), (_, _, single) = CATALOG["nd"].laws
    y = (1.4, 0.8, 0.3, -0.9)
    for n in (-1.0, 2.0, 3.5):
        s61 = 0.5 * doubled(ModelParams("na_prime", n), *y)
        s62 = y[0] ** (2.0 * (n - 1.0)) * y[3]
        assert s61 == pytest.approx((n - 1.0) * s62, rel=1e-14)
        nd = ModelParams("nd", n)
        assert single(nd, *y) == pytest.approx((n - 1.0) * s62, rel=1e-14)
        assert a_rate(nd, *y) == -single(nd, *y)


def test_component_tuples_are_callable_pairs():
    params = ModelParams("na_prime", 3.0, 0.5, 0.4, 0.3)
    args = (1.1, 0.6, 0.2, 0.8)
    m1, m2 = m_components
    z = complex(formulas.m1(params, *args), formulas.m2(params, *args))
    assert m1(params, *args) == pytest.approx(z.real)
    assert m2(params, *args) == pytest.approx(z.imag)
    params_d = ModelParams("nd", 3.0, 0.5, 0.4, 0.3)
    a1, a2 = a_components
    zd = complex(formulas.a1_component(params_d, *args),
                 formulas.a2_component(params_d, *args))
    assert a1(params_d, *args) == pytest.approx(zd.real)
    assert a2(params_d, *args) == pytest.approx(zd.imag)


def test_kinetic_noether_identity_pointwise():
    # T = (P1^2 + P2^2)/2 for every family and point
    for family in CATALOG:
        params = ModelParams(family, 3.0, 1.0, 0.5, 0.2)
        t = KINETIC
        for pt in sample_points(params, DomainBox(seed=4), 25):
            p1 = integral("geodesic", "P1")
            p2 = integral("geodesic", "P2")
            params_g = ModelParams("geodesic", 3.0, 0.0, 0.0, 0.0)
            want = 0.5 * (p1(params_g, *pt.as_tuple()) ** 2
                          + p2(params_g, *pt.as_tuple()) ** 2)
            assert t(params, *pt.as_tuple()) == pytest.approx(
                want, rel=1e-12)


@pytest.mark.parametrize("family", tuple(CATALOG))
def test_momentum_scaling_of_killing_parts(family):
    """Couplings-zeroed integrals are homogeneous of their momentum degree."""
    params = ModelParams(family, 2.0, 0.0, 0.0, 0.0)
    pts = sample_points(params, DomainBox(seed=5), 10)
    for obs in lookup(family).bound:
        for pt in pts:
            base = obs(params, pt.r, pt.phi, pt.p_r, pt.p_phi)
            scaled = obs(params, pt.r, pt.phi, 2.0 * pt.p_r, 2.0 * pt.p_phi)
            assert scaled == pytest.approx(
                2.0 ** obs.degree * base, rel=1e-12, abs=1e-12)


scale = st.floats(min_value=0.25, max_value=4.0)


@settings(max_examples=60, deadline=None)
@given(scale)
def test_degree_one_integrals_linear_in_momenta(lam):
    for family, name in (("geodesic", "P1"), ("geodesic", "P2"),
                         ("geodesic", "Pphi"), ("na_central", "J1"),
                         ("nc", "J1"), ("na_prime", "Ja3p")):
        params = ModelParams(family, 2.0, 0.9, 0.4, 0.3)
        obs = integral(family, name)
        pt = PhasePoint(1.3, 0.8, 0.5, -0.7)
        base = obs(params, pt.r, pt.phi, pt.p_r, pt.p_phi)
        got = obs(params, pt.r, pt.phi, lam * pt.p_r, lam * pt.p_phi)
        assert got == pytest.approx(lam * base, rel=1e-12, abs=1e-12)
