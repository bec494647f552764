"""Parameter validation, guarded sampling, and coordinate maps."""

import math

import pytest

from pdmham.errors import (AngularSingularity, DegenerateN, EmptyDomain,
                           NonFinite, RadiusNonPositive, UnknownFamily)
from pdmham.phase import (FAMILIES, DomainBox, ModelParams, PhasePoint,
                          check_point, polar_to_cartesian, sample_points,
                          singular_distance)


def test_families_tuple():
    assert len(FAMILIES) == 9
    assert "geodesic" in FAMILIES and "nd" in FAMILIES


def test_model_params_k_n():
    p = ModelParams("na", 3.0, 1.0, 0.5, 0.2)
    assert p.k_n == 2.0


def test_unknown_family_rejected():
    with pytest.raises(UnknownFamily):
        ModelParams("nx", 2.0, 1.0, 0.0, 0.0)


def test_degenerate_n_rejected_with_message():
    with pytest.raises(DegenerateN, match=r"n = 1 degenerate \(k_n = 0\)"):
        ModelParams("na", 1.0, 1.0, 0.0, 0.0)


def test_geodesic_allows_n_equal_one():
    p = ModelParams("geodesic", 1.0, 0.0, 0.0, 0.0)
    assert p.k_n == 0.0


def test_nonfinite_params_rejected():
    with pytest.raises(NonFinite):
        ModelParams("na", float("nan"), 1.0, 0.0, 0.0)
    with pytest.raises(NonFinite):
        ModelParams("na", 2.0, float("inf"), 0.0, 0.0)


def test_check_point_guards():
    params = ModelParams("na", 2.0, 1.0, 0.5, 0.2)
    with pytest.raises(RadiusNonPositive):
        check_point(PhasePoint(0.0, 1.0, 0.0, 0.0), params)
    with pytest.raises(NonFinite):
        check_point(PhasePoint(1.0, float("nan"), 0.0, 0.0), params)
    # na potential has sec^2/csc^2 poles where u = k_n*phi hits pi/2 grid
    with pytest.raises(AngularSingularity):
        check_point(PhasePoint(1.0, 0.5 * math.pi, 0.0, 0.0), params)
    check_point(PhasePoint(1.0, 0.7, 0.0, 0.0), params)


def test_singular_distance_geodesic_unbounded():
    # no potential poles: reported distance is effectively infinite
    assert singular_distance("geodesic", 2.0, 1.234) > 1.0


def test_domain_box_validation():
    with pytest.raises(ValueError):
        DomainBox(r_min=2.0, r_max=1.0)
    with pytest.raises(ValueError):
        DomainBox(phi_margin=0.0)
    with pytest.raises(ValueError):
        DomainBox(phi_min=3.0, phi_max=1.0)


def test_sampling_deterministic_and_guarded():
    params = ModelParams("na", 2.0, 1.0, 0.5, 0.2)
    box = DomainBox(seed=42)
    a = sample_points(params, box, 50)
    b = sample_points(params, box, 50)
    assert a == b
    assert len(a) == 50
    for pt in a:
        assert box.r_min <= pt.r <= box.r_max
        assert abs(pt.p_r) <= box.p_max and abs(pt.p_phi) <= box.p_max
        assert singular_distance(params.family, params.n, pt.phi) \
            > box.phi_margin


def test_sampling_seed_changes_draw():
    params = ModelParams("nc", 2.0, 1.0, 0.0, 0.0)
    a = sample_points(params, DomainBox(seed=0), 10)
    b = sample_points(params, DomainBox(seed=1), 10)
    assert a != b


def test_sampling_count_validation():
    params = ModelParams("nc", 2.0, 1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        sample_points(params, DomainBox(), 0)


def test_empty_domain_raises():
    # huge margin rejects every draw for a family with angular poles
    params = ModelParams("na", 2.0, 1.0, 0.5, 0.2)
    box = DomainBox(phi_margin=10.0)
    with pytest.raises(EmptyDomain):
        sample_points(params, box, 5)


def test_polar_to_cartesian_position():
    pt = PhasePoint(2.0, math.pi / 3.0, 0.0, 0.0)
    c = polar_to_cartesian(pt)
    assert c.x == pytest.approx(1.0)
    assert c.y == pytest.approx(math.sqrt(3.0))


def test_polar_to_cartesian_momentum_identities():
    # canonical pushforward: p_x^2 + p_y^2 = p_r^2 + p_phi^2/r^2 and
    # x p_y - y p_x = p_phi
    pt = PhasePoint(1.7, 0.9, 0.4, -1.1)
    c = polar_to_cartesian(pt)
    lhs = c.p_x ** 2 + c.p_y ** 2
    rhs = pt.p_r ** 2 + (pt.p_phi / pt.r) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert c.x * c.p_y - c.y * c.p_x == pytest.approx(pt.p_phi, rel=1e-14)


def test_polar_to_cartesian_rejects_bad_radius():
    with pytest.raises(RadiusNonPositive):
        polar_to_cartesian(PhasePoint(-2.0, 0.0, 0.0, 0.0))


def test_phase_point_tuple_round_trip():
    pt = PhasePoint(1.0, 2.0, 3.0, 4.0)
    assert pt.as_tuple() == (1.0, 2.0, 3.0, 4.0)
    assert PhasePoint(*pt.as_tuple()) == pt
