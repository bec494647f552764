"""Potential and kinetic anchors, catalog consistency, flat-plane twins."""

import math

import pytest

from pdmham.catalog import CATALOG
from pdmham.errors import (CartesianSingularity, NonZeroN, UnknownFamily)
from pdmham.families import (euclidean_potential, flat_twin, hamiltonian,
                             kinetic, potential, twin_box)
from pdmham.observables import family_integrals
from pdmham.phase import FAMILIES, DomainBox, ModelParams, sample_points


def test_kinetic_anchor():
    # T = r^{2n}(p_r^2 + p_phi^2/r^2)/2 at n=2, r=2, p=(0.3, -1)
    assert kinetic(2.0, 2.0, 0.3, -1.0) == pytest.approx(2.72)


def test_kinetic_flat_limit():
    # n = 0 is the plain polar kinetic energy
    assert kinetic(0.0, 2.0, 0.5, 1.0) == pytest.approx(
        0.5 * (0.25 + 0.25))


@pytest.mark.parametrize("family,n,k,point,expected", [
    ("geodesic", 2.0, (5.0, 5.0, 5.0), (1.3, 0.7), 0.0),
    ("na_central", 3.0, (2.0, 0.0, 0.0), (2.0, 0.9), 0.125),
    ("na_central", 0.0, (3.0, 0.0, 0.0), (1.3, 0.9), 3.0 * 1.69),
    ("na", 2.0, (1.0, 0.5, 0.25), (2.0, math.pi / 4.0), 6.25),
    ("na_prime", 2.0, (16.0, 4.0, 1.0), (4.0, 0.0), 2.0),
    ("nb", 2.0, (4.0, 3.0, 2.0), (1.0, math.pi / 6.0), 12.0),
    ("nc", 3.0, (0.75, 0.0, 0.0), (2.0, 1.1), 3.0),
    ("nc1", 2.0, (0.5, 0.5, 0.3), (1.0, math.pi / 2.0), 1.0),
    ("nc2", 2.0, (0.25, 0.75, 0.4), (1.0, 0.0), 1.0),
    ("nd", 3.0, (1.5, 0.5, 0.7), (1.0, 0.0), 2.0),
])
def test_potential_anchors(family, n, k, point, expected):
    params = ModelParams(family, n, *k)
    assert potential(params, *point) == pytest.approx(expected, rel=1e-13)


@pytest.mark.parametrize("family", FAMILIES)
def test_zero_couplings_collapse_to_geodesic(family):
    n = 2.0 if family != "geodesic" else 0.0
    params = ModelParams(family, n, 0.0, 0.0, 0.0)
    for pt in sample_points(params, DomainBox(seed=1), 20):
        assert potential(params, pt.r, pt.phi) == 0.0
        assert hamiltonian(params, *pt.as_tuple()) == pytest.approx(
            kinetic(n, pt.r, pt.p_r, pt.p_phi), rel=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_hamiltonian_splits(family):
    params = ModelParams(family, 2.0 if family != "geodesic" else 1.0,
                         0.8, 0.3, 0.2)
    for pt in sample_points(params, DomainBox(seed=2), 20):
        want = (kinetic(params.n, pt.r, pt.p_r, pt.p_phi)
                + potential(params, pt.r, pt.phi))
        assert hamiltonian(params, *pt.as_tuple()) == pytest.approx(
            want, rel=1e-14)


@pytest.mark.parametrize("family", FAMILIES)
def test_declared_poles_match_potential(family):
    # at n = 2, k_n = 1 and u = phi: "cos" poles sit at pi/2 + m*pi and
    # "sin" poles at m*pi; two poles per kind in one 2*pi period
    params = ModelParams(family, 2.0, 1.0, 1.0, 0.5)
    poles = CATALOG[family].poles
    for kind in poles:
        offset = 0.0 if kind == "sin" else 0.5 * math.pi
        for m in (0, 1):
            for side in (-1e-4, 1e-4):
                phi = offset + m * math.pi + side
                assert abs(potential(params, 1.3, phi)) > 1e6, (kind, phi)
    if not poles:
        # the grid lands on every multiple of pi/2, where a sec- or
        # csc-type term would blow up
        for j in range(4001):
            value = potential(params, 1.3, j * 0.5 * math.pi / 1000.0)
            assert math.isfinite(value) and abs(value) <= 1e6


def test_catalog_matches_observable_registry():
    assert tuple(CATALOG) == FAMILIES
    for name, spec in CATALOG.items():
        assert spec.name == name
        assert spec.integrals == family_integrals(name)
        assert spec.formula
        assert spec.group


def test_euclidean_potential_anchors():
    assert euclidean_potential("a", (1.0, 0.5, 0.25), 1.0, 1.0) \
        == pytest.approx(1.75)
    assert euclidean_potential("b", (2.0, 1.0, 3.0), 1.0, 1.0) \
        == pytest.approx(0.5 * 2.0 * 5.0 + 1.0 + 3.0)
    assert euclidean_potential("c", (0.7, 0.3, 5.0), 0.0, 1.0) \
        == pytest.approx(1.0)
    # the sqrt(r +- x) radicals at (0, 1) both evaluate to 1
    assert euclidean_potential("d", (0.5, 0.3, 0.2), 0.0, 1.0) \
        == pytest.approx(1.0)


def test_euclidean_potential_guards():
    with pytest.raises(CartesianSingularity):
        euclidean_potential("a", (1.0, 1.0, 1.0), 0.0, 1.0)
    with pytest.raises(CartesianSingularity):
        euclidean_potential("b", (1.0, 1.0, 1.0), 0.0, 1.0)
    with pytest.raises(CartesianSingularity):
        euclidean_potential("c", (1.0, 1.0, 1.0), 1.0, 0.0)
    with pytest.raises(CartesianSingularity):
        euclidean_potential("d", (1.0, 1.0, 1.0), 0.0, 0.0)
    with pytest.raises(ValueError):
        euclidean_potential("q", (1.0, 1.0, 1.0), 1.0, 1.0)


def test_d_map_half_angle_anchor():
    # family side at n=0, phi=pi/2, r=1: k0 + (k1 - k2)/sqrt(2); the mapped
    # flat potential at (x, y) = (0, 1) must agree exactly
    params = ModelParams("nd", 0.0, 0.8, 0.5, 0.3)
    want = 0.8 + (0.5 - 0.3) / math.sqrt(2.0)
    assert potential(params, 1.0, math.pi / 2.0) == pytest.approx(want)
    ((u_val, v_val, _),) = flat_twin(params, 1.0, math.pi / 2.0, 0.0, 0.0)
    assert abs(u_val - v_val) <= 1e-15


@pytest.mark.parametrize("family,tag", [
    ("na", "a"), ("nb", "b"), ("nc1", "c"), ("nd", "d"),
])
def test_flat_plane_twins(family, tag):
    reduction = CATALOG[family].reduction
    assert reduction.tag == tag
    params = ModelParams(family, 0.0, 1.0, 0.7, 0.4)
    assert len(reduction.couplings(params)) == 3
    # the absolute gap, at these fixed couplings
    worst = max(abs(u_val - v_val)
                for pt in sample_points(params, twin_box(params, 3), 100)
                for u_val, v_val, _ in flat_twin(params, *pt.as_tuple()))
    assert worst <= 1e-12


def test_equivalence_requires_n_zero():
    params = ModelParams("na", 2.0, 1.0, 0.5, 0.2)
    with pytest.raises(NonZeroN):
        flat_twin(params, 1.0, 0.7, 0.0, 0.0)


def test_equivalence_map_unknown_family():
    params = ModelParams("nc", 0.0, 1.0, 0.5, 0.2)
    with pytest.raises(UnknownFamily):
        flat_twin(params, 1.0, 0.7, 0.0, 0.0)
    with pytest.raises(UnknownFamily):
        twin_box(params, 0)
