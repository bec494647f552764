"""Certificate assembly: checks, serialization, determinism, controls."""

import json

import pytest

from pdmham.catalog import CATALOG
from pdmham.certify import (RANK_REL_THRESHOLD, SampleConfig,
                            bracket_residual_suite, certificate,
                            corruption_suite, independence_stats,
                            involution_check, killing_tensor_check)
from pdmham.errors import (DegenerateN, NonFinite, NoQuadraticIntegral,
                           UnknownIntegral)
from pdmham.phase import DomainBox, ModelParams, PhasePoint, sample_points

COUPLINGS = (1.0, 0.6, 0.35)


def _sample(count=120, seed=0):
    return SampleConfig(count=count, box=DomainBox(seed=seed))


@pytest.fixture(scope="module")
def nd_cert():
    return certificate(ModelParams("nd", 3.0, *COUPLINGS), _sample())


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_certificates_pass(family):
    params = ModelParams(family, 3.0, *COUPLINGS)
    cert = certificate(params, _sample())
    failed = [c.name for c in cert.checks if c.passed is False]
    assert cert.verdict == "pass", failed


def test_geodesic_killing_check_skipped():
    cert = certificate(ModelParams("geodesic", 2.0, 0.0, 0.0, 0.0),
                       _sample())
    kt = cert.check("killing_tensor")
    assert kt.passed is None and kt.max_residual is None
    assert "skipped" in kt.note
    assert cert.verdict == "pass"


def test_negative_controls_fire(nd_cert):
    nc = nd_cert.check("negative_control")
    assert nc.passed is True
    # control strength: the weakest corruption still lands far above the
    # conservation tolerance
    assert nc.max_residual > 1e-3


def test_drift_check_runs(nd_cert):
    drift = nd_cert.check("drift")
    assert drift.passed is True
    assert drift.max_residual <= 1e-6


def test_json_round_trip(nd_cert):
    decoded = json.loads(nd_cert.to_json())
    assert decoded == nd_cert.as_dict()
    assert decoded["family"] == "nd"
    assert decoded["verdict"] == "pass"
    assert decoded["couplings"] == {"k0": 1.0, "k1": 0.6, "k2": 0.35}
    for check in decoded["checks"]:
        assert set(check) <= {"name", "max_residual", "tolerance", "pass",
                              "note"}
        assert isinstance(check["pass"], (bool, type(None)))
        assert isinstance(check["max_residual"], (float, type(None)))


def test_certificate_deterministic():
    params = ModelParams("nc1", 2.0, *COUPLINGS)
    a = certificate(params, _sample(seed=5))
    b = certificate(params, _sample(seed=5))
    assert a.to_json() == b.to_json()


def test_certificate_seed_sensitivity():
    params = ModelParams("nc1", 2.0, *COUPLINGS)
    a = certificate(params, _sample(seed=5))
    b = certificate(params, _sample(seed=6))
    assert a.to_json() != b.to_json()
    assert a.verdict == b.verdict == "pass"


def test_corrupt_argument_fails_certificate():
    params = ModelParams("nd", 3.0, *COUPLINGS)
    cert = certificate(params, _sample(), corrupt="Jd2")
    assert cert.verdict == "fail"
    broken = cert.check("bracket:Jd2")
    assert broken.passed is False
    assert "corruption" in broken.note
    assert cert.check("bracket:Jd3").passed is True


def test_corrupt_argument_validation():
    params = ModelParams("nd", 3.0, *COUPLINGS)
    with pytest.raises(UnknownIntegral):
        certificate(params, _sample(), corrupt="Qx")
    # single-term integrals admit no symmetry-breaking corruption
    central = ModelParams("na_central", 2.0, *COUPLINGS)
    with pytest.raises(ValueError):
        certificate(central, _sample(), corrupt="J1")


def test_involution_commuting_pair():
    params = ModelParams("na_central", 2.0, *COUPLINGS)
    stats = involution_check(params, sample=_sample(count=60))
    assert stats["J11,J22"] <= 1e-10


def test_independence_rank_detects_degeneracy():
    params = ModelParams("nc", 2.0, *COUPLINGS)
    pt = PhasePoint(1.2, 0.9, 0.5, -0.4)
    assert independence_stats(params, None, ("J2", "H"), [pt]) == (1.0, ())
    # a function listed twice can never add rank
    fraction, failures = independence_stats(params, None, ("J2", "J2"), [pt])
    assert fraction == 0.0
    (where, sv), = failures
    assert where == pt and len(sv) == 2
    assert sv[0] > 0.0 and sv[1] <= RANK_REL_THRESHOLD * sv[0]
    with pytest.raises(ValueError):
        independence_stats(params, None, ("J2",), [pt])


def test_claimed_triples_independent():
    params = ModelParams("nb", 3.0, *COUPLINGS)
    fraction, failures = independence_stats(params, _sample(count=100))
    assert fraction >= 0.95
    assert len(failures) <= 5


def test_killing_tensor_geodesic_raises():
    with pytest.raises(NoQuadraticIntegral):
        killing_tensor_check(ModelParams("geodesic", 2.0, 0.0, 0.0, 0.0),
                             _sample(count=40))


def test_killing_tensor_quadratic_families():
    for family in ("na", "nc1", "nd"):
        params = ModelParams(family, 2.0, *COUPLINGS)
        assert killing_tensor_check(params, _sample(count=60)) <= 1e-10


def test_corrupted_returns_none_for_single_term():
    params = ModelParams("na_central", 2.0, *COUPLINGS)
    pts = sample_points(params, DomainBox(seed=3), 8)
    results, inert = corruption_suite(params, None, pts)
    assert "J1" in inert and "J1" not in results
    assert "J11" in results and "J11" not in inert


def test_non_finite_residual_raises_naming_check_and_point():
    # at k0 = 1e308 H and the integrals stay finite at these four points,
    # but the brackets overflow to NaN; `max` kept only the finite ones
    params = ModelParams("nc", 2.0, 1e308)
    points = sample_points(params, DomainBox(seed=0), 4)
    with pytest.raises(NonFinite, match=r"bracket:J\d residual is nan at "
                       r"the sample point \(r, phi, p_r, p_phi\) = \(1\."):
        bracket_residual_suite(params, None, points)


def test_corruption_suite_shape():
    params = ModelParams("nc", 2.0, *COUPLINGS)
    results, inert = corruption_suite(params, _sample(count=60))
    assert inert == ("J1",)
    assert set(results) == {"J2", "J3"}
    assert all(v > 1e-3 for v in results.values())


def test_certificate_check_lookup_raises(nd_cert):
    with pytest.raises(KeyError):
        nd_cert.check("no_such_check")


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(count=0)


def test_certificate_refuses_geodesic_at_n_equal_one():
    # ModelParams admits geodesic at n = 1, but there P2 = -Pphi
    params = ModelParams("geodesic", 1.0)
    with pytest.raises(DegenerateN, match="P2 = -Pphi"):
        certificate(params, _sample(count=10))
