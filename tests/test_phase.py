"""Parameter validation, guarded sampling, and the n = 0 coordinate chart."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pdmham.catalog import CATALOG
from pdmham.errors import PdmError
from pdmham.phase import (P_MAX, R_MAX, R_MIN, DomainBox, ModelParams,
                          PhasePoint, _pole_distance, check_point,
                          sample_points, singular_distance)
from test_closed_form import _to_cartesian


def test_families_tuple():
    assert len(CATALOG) == 9
    assert "geodesic" in CATALOG and "nd" in CATALOG


def test_model_params_k_n():
    p = ModelParams("na", 3.0, 1.0, 0.5, 0.2)
    assert p.k_n == 2.0


def test_unknown_family_rejected():
    with pytest.raises(PdmError, match="^unknown family 'nx'$"):
        ModelParams("nx", 2.0, 1.0, 0.0, 0.0)


def test_degenerate_n_rejected_with_message():
    with pytest.raises(PdmError, match=r"^n = 1 degenerate \(k_n = 0\)$"):
        ModelParams("na", 1.0, 1.0, 0.0, 0.0)


def test_geodesic_allows_n_equal_one():
    p = ModelParams("geodesic", 1.0, 0.0, 0.0, 0.0)
    assert p.k_n == 0.0


def test_nonfinite_params_rejected():
    with pytest.raises(PdmError, match="^n must be finite, got nan$"):
        ModelParams("na", float("nan"), 1.0, 0.0, 0.0)
    with pytest.raises(PdmError, match="^k0 must be finite, got inf$"):
        ModelParams("na", 2.0, float("inf"), 0.0, 0.0)


def test_check_point_guards():
    params = ModelParams("na", 2.0, 1.0, 0.5, 0.2)
    with pytest.raises(PdmError, match=r"^r = 0\.0$"):
        check_point(PhasePoint(0.0, 1.0, 0.0, 0.0), params)
    with pytest.raises(PdmError, match="^phi must be finite, got nan$"):
        check_point(PhasePoint(1.0, float("nan"), 0.0, 0.0), params)
    # na potential has sec^2/csc^2 poles where u = k_n*phi hits pi/2 grid
    with pytest.raises(PdmError, match=r"^k_n\*phi within 1e-06 of an "
                       r"angular pole \(distance "):
        check_point(PhasePoint(1.0, 0.5 * math.pi, 0.0, 0.0), params)
    check_point(PhasePoint(1.0, 0.7, 0.0, 0.0), params)


def test_singular_distance_geodesic_unbounded():
    # no potential poles: reported distance is effectively infinite
    assert singular_distance("geodesic", 2.0, 1.234) > 1.0


def test_domain_box_validation():
    with pytest.raises(ValueError):
        DomainBox(phi_margin=0.0)
    with pytest.raises(ValueError):
        DomainBox(phi_min=3.0, phi_max=1.0)


@pytest.mark.parametrize("field,bad", [
    ("phi_min", -math.inf), ("phi_max", math.nan), ("phi_margin", math.nan),
    ("phi_margin", math.inf),
])
def test_domain_box_rejects_non_finite_fields(field, bad):
    with pytest.raises(ValueError, match=field):
        DomainBox(**{field: bad})


def test_domain_box_accepts_any_integer_seed():
    assert DomainBox(seed=10 ** 400).seed == 10 ** 400


def test_sampling_deterministic_and_guarded():
    params = ModelParams("na", 2.0, 1.0, 0.5, 0.2)
    box = DomainBox(seed=42)
    a = sample_points(params, box, 50)
    b = sample_points(params, box, 50)
    assert a == b
    assert len(a) == 50
    for pt in a:
        assert R_MIN <= pt.r <= R_MAX
        assert abs(pt.p_r) <= P_MAX and abs(pt.p_phi) <= P_MAX
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
    with pytest.raises(PdmError, match="^0/5 valid points after 1000 "
                       "draws$"):
        sample_points(params, box, 5)


def _reference_sample(params, box, count):
    """`sample_points` as one `check_point` call per candidate."""
    rng = np.random.default_rng(box.seed)
    low = (R_MIN, box.phi_min, -P_MAX, -P_MAX)
    high = (R_MAX, box.phi_max, P_MAX, P_MAX)
    size = max(100, count)
    points = []
    for _ in range(10):
        for draw in rng.uniform(low, high, size=(size, 4)).tolist():
            candidate = PhasePoint(*draw)
            try:
                check_point(candidate, params, box.phi_margin)
            except PdmError as exc:
                # an n whose k_n*phi overflows ends the sample
                if str(exc).startswith("k_n*phi = (n - 1)*phi overflows"):
                    raise
                continue
            points.append(candidate)
            if len(points) == count:
                return points
    raise PdmError(
        f"{len(points)}/{count} valid points after {10 * size} draws")


def _outcome(params, box, count):
    try:
        return _reference_sample(params, box, count)
    except (PdmError, ValueError) as exc:
        return type(exc), str(exc)


def _sampled(params, box, count):
    try:
        return sample_points(params, box, count)
    except (PdmError, ValueError) as exc:
        return type(exc), str(exc)


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(tuple(CATALOG)),
       n=st.one_of(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 3.0]),
                   st.floats(-50.0, 50.0)),
       # the poles of a family with both kinds lie pi/2 apart in k_n*phi
       margin=st.one_of(st.floats(1e-9, 0.785), st.sampled_from(
           [1e-4, 0.78, 0.785, 0.7853981, 1.5, 1.57])),
       seed=st.integers(0, 2 ** 32), count=st.integers(1, 400))
@example(family="na", n=2.0, margin=10.0, seed=0, count=5)
def test_sampling_equals_a_check_point_filter(family, n, margin, seed,
                                              count):
    # the mask over a round's columns keeps exactly the candidates that
    # `check_point` keeps, in draw order, and runs out where it does
    try:
        params = ModelParams(family, n)
    except PdmError as exc:
        assert str(exc) == "n = 1 degenerate (k_n = 0)"
        return
    box = DomainBox(phi_margin=margin, seed=seed)
    assert _sampled(params, box, count) == _outcome(params, box, count)


@pytest.mark.parametrize("family,n,count", [
    ("na", 1e308, 1), ("na", 1e308, 40), ("nc1", -1e308, 3),
    ("nd", 1e308, 5), ("nb", 5e307, 120)])
def test_sampling_matches_check_point_where_k_n_phi_overflows(family, n,
                                                              count):
    # math.remainder refuses an infinite k_n*phi: a round that holds one
    # is checked point by point, so a sample complete before it returns;
    # with poles, one that is not raises the PdmError naming n that
    # check_point raises
    params = ModelParams(family, n)
    for seed in range(4):
        box = DomainBox(seed=seed)
        assert _sampled(params, box, count) == _outcome(params, box, count)
    if CATALOG[family].poles:
        assert _sampled(params, DomainBox(), 10 ** 4) == (
            PdmError, f"k_n*phi = (n - 1)*phi overflows at n = {n}")


def test_pole_distance_is_the_remainder_of_pi():
    # the exact fold of fmod is abs(math.remainder(u, pi)) bit for bit:
    # 1 ulp either side of k pi/2, at -0.0, and out to |u| = 1e300
    halves = [k * (0.5 * math.pi) for k in range(-2000, 2001)]
    halves += [k * math.pi for k in (1e6, 3e9, 7e12, 1e15, 2.5e17)]
    u = [w for h in halves for w in (math.nextafter(h, -math.inf), h,
                                     math.nextafter(h, math.inf))]
    wide = np.random.default_rng(0).uniform(-300.0, 300.0, 20000)
    u += [-0.0, 0.0, 1e300, -1e300, math.pi, -math.pi]
    u += (np.sign(wide) * 10.0 ** np.abs(wide)).tolist()
    want = [abs(math.remainder(x, math.pi)) for x in u]
    assert _pole_distance(np.array(u), 2.0).tobytes() == np.array(
        want).tobytes()
    # an infinity, which math.remainder refuses, raises the PdmError that
    # check_point raises at the same n
    for bad in (math.inf, -math.inf):
        with pytest.raises(PdmError) as ours, np.errstate(all="ignore"):
            _pole_distance(np.array([1.0, bad]), 1e308)
        with pytest.raises(ValueError):
            math.remainder(bad, math.pi)
        with pytest.raises(PdmError) as point:
            check_point(PhasePoint(1.0, math.copysign(2.0, bad), 0.0, 0.0),
                        ModelParams("na", 1e308))
        assert str(ours.value) == str(point.value) == (
            "k_n*phi = (n - 1)*phi overflows at n = 1e+308")


# At n = 0 (k = -1) the flat chart of the closed-form tests is the polar to
# Cartesian map with theta = -phi: rho = r, p_rho = p_r, p_theta = -p_phi.

def test_polar_to_cartesian_position():
    x, y, _, _ = _to_cartesian(0.0, PhasePoint(2.0, math.pi / 3.0, 0.0, 0.0))
    assert x == pytest.approx(1.0)
    assert y == pytest.approx(-math.sqrt(3.0))


def test_polar_to_cartesian_momentum_identities():
    # canonical pushforward: p_x^2 + p_y^2 = p_r^2 + p_phi^2/r^2 and
    # x p_y - y p_x = p_theta = -p_phi
    pt = PhasePoint(1.7, 0.9, 0.4, -1.1)
    x, y, p_x, p_y = _to_cartesian(0.0, pt)
    lhs = p_x ** 2 + p_y ** 2
    rhs = pt.p_r ** 2 + (pt.p_phi / pt.r) ** 2
    assert lhs == pytest.approx(rhs, rel=1e-14)
    assert x * p_y - y * p_x == pytest.approx(-pt.p_phi, rel=1e-14)


def test_phase_point_tuple_round_trip():
    pt = PhasePoint(1.0, 2.0, 3.0, 4.0)
    assert pt.as_tuple() == (1.0, 2.0, 3.0, 4.0)
    assert PhasePoint(*pt.as_tuple()) == pt
