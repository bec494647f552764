"""Certificate assembly: checks, serialization, determinism, controls."""

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdmham import certify, tracing
from pdmham.brackets import row_bracket
from pdmham.catalog import CATALOG, lookup
from pdmham.certify import (RANK_REL_THRESHOLD, SampleConfig, _Columns,
                            _columns, _rank_failures, _require_finite, _worst,
                            algebra_check, bracket_residual_suite,
                            certificate, corruption_suite,
                            evolution_law_check, identity_suite,
                            independence_stats, involution_check,
                            killing_tensor_check)
from pdmham.errors import NoQuadraticIntegral, PdmError
from pdmham.formulas import kinetic_noether
from pdmham.dynamics import IntegratorConfig
from pdmham.observables import corruption, integral
from pdmham.phase import (DomainBox, ModelParams, PhasePoint, sample_draws,
                          sample_points)
from pdmham.tracing import (column_trace, gradient_row, identity_pairs,
                            monitors, on_columns, value_row)

COUPLINGS = (1.0, 0.6, 0.35)


def _own(kind, params, fn):
    """The key's own trace: the column trace of that key alone."""
    trace, _ = column_trace(((kind, params, fn),))
    return trace


def _sample(count=120, seed=0):
    return SampleConfig(count=count, box=DomainBox(seed=seed))


def _check(cert, name):
    """The one check of `cert` called `name`."""
    check, = (c for c in cert.checks if c.name == name)
    return check


@pytest.fixture(scope="module")
def nd_cert():
    return certificate(ModelParams("nd", 3.0, *COUPLINGS), _sample())


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_certificates_pass(family):
    params = ModelParams(family, 3.0, *COUPLINGS)
    cert = certificate(params, _sample())
    failed = [c.name for c in cert.checks if c.passed is False]
    assert cert.verdict == "pass", failed


@pytest.mark.parametrize("family", sorted(CATALOG))
def test_checks_hold_plain_python_scalars(family):
    # CheckResult stores what its producers hand it: a numpy scalar here
    # would break `is True` tests and json.dumps
    cert = certificate(ModelParams(family, 2.0, *COUPLINGS), _sample(60))
    for c in cert.checks:
        assert type(c.max_residual) in (float, type(None)), c.name
        assert type(c.passed) in (bool, type(None)), c.name
        assert type(c.tolerance) is float, c.name


def test_geodesic_killing_check_skipped():
    cert = certificate(ModelParams("geodesic", 2.0, 0.0, 0.0, 0.0),
                       _sample())
    kt = _check(cert, "killing_tensor")
    assert kt.passed is None and kt.max_residual is None
    assert "skipped" in kt.note
    assert cert.verdict == "pass"


def test_negative_controls_fire(nd_cert):
    nc = _check(nd_cert, "negative_control")
    assert nc.passed is True
    # control strength: the weakest corruption still lands far above the
    # conservation tolerance
    assert nc.max_residual > 1e-3


def test_drift_check_runs(nd_cert):
    drift = _check(nd_cert, "drift")
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
    broken = _check(cert, "bracket:Jd2")
    assert broken.passed is False
    assert "corruption" in broken.note
    assert _check(cert, "bracket:Jd3").passed is True


def test_corrupt_argument_validation():
    params = ModelParams("nd", 3.0, *COUPLINGS)
    with pytest.raises(PdmError, match="^nd does not bind 'Qx'$"):
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


@pytest.mark.parametrize("family,n,names", [
    ("nc", 2.0, None), ("nc1", 3.0, None), ("nd", 3.0, None),
    ("na", 2.0, None), ("na_prime", -1.0, None), ("nc", 2.0, ("J2", "J2")),
    ("nb", 2.0, ("H", "Jb1", "Jb2", "Jb3")),
])
def test_independence_matches_a_per_point_svd(family, n, names):
    # one SVD per point, as the rank rule reads; the stacked call must give
    # the same fraction and the same failures, singular values bit for bit
    params = ModelParams(family, n, *COUPLINGS)
    names = names or lookup(family).triple
    points = sample_points(params, DomainBox(seed=5), 300)
    rows = [_own(gradient_row, params, integral(family, name))
            for name in names]
    hits, failures = 0, []
    for pt in points:
        sv = np.linalg.svd([row(*pt.as_tuple())[1:] for row in rows],
                           compute_uv=False)
        if sv[0] != 0.0 and np.sum(
                sv > RANK_REL_THRESHOLD * sv[0]) == len(names):
            hits += 1
        else:
            failures.append((pt, tuple(float(s) for s in sv)))
    want = (hits / len(points), tuple(failures))
    assert independence_stats(params, None, names, points) == want


def _stack_svd_failures(stack):
    """The rank rule over one SVD of the whole stack, as (index, bytes)."""
    sv = np.linalg.svd(stack, compute_uv=False)
    full = (sv[:, 0] != 0.0) & (np.sum(
        sv > RANK_REL_THRESHOLD * sv[:, :1], axis=1) == stack.shape[1])
    return [(i, s.tobytes()) for i, (s, ok) in enumerate(zip(sv, full))
            if not ok]


def _rank_stack(k, rng):
    """(k, 4) matrices on and around the rank rule's edges."""
    def with_sv(sv):
        u = np.linalg.qr(rng.normal(size=(k, k)))[0]
        v = np.linalg.qr(rng.normal(size=(4, k)))[0]
        return (u * sv) @ v.T
    base = []
    for ratio in (1e-12, 1e-8 * (1 - 1e-6), 1e-8 * (1 + 1e-6), 1e-5, 1e-3):
        base += [with_sv(np.geomspace(1.0, ratio, k)),
                 with_sv([1.0] * (k - 1) + [ratio])]
    repeated, zero_row = rng.normal(size=(2, k, 4))
    repeated[-1] = repeated[0]
    zero_row[-1] = 0.0
    base += [repeated, zero_row, np.zeros((k, 4)), rng.normal(size=(k, 4))]
    infinite = rng.normal(size=(2, k, 4))
    infinite[0, 0, 1], infinite[1] = math.inf, -math.inf
    # 1e-158 and 1e-160 leave G subnormal unless P is scaled first
    scaled = [m * f for m in base
              for f in (1e150, 1e-150, 1e-158, 1e-160, 1e300, 1e-300)]
    return np.array(base + scaled + list(infinite))


@pytest.mark.parametrize("k", [2, 3, 4])
def test_rank_screen_agrees_with_one_svd_of_the_stack(k):
    # the Gram screen sends every matrix it cannot clear to the SVD, so
    # the failures and their singular values are the full SVD's, bit for
    # bit; a NaN makes both raise
    rng = np.random.default_rng(k)
    stack = _rank_stack(k, rng)
    want = _stack_svd_failures(stack)
    assert len(want) >= 20 and len(want) < len(stack) - 10
    got = [(i, np.array(sv).tobytes()) for i, sv in _rank_failures(stack)]
    assert got == want
    stack[3, 0, 2] = math.nan
    for rule in (_stack_svd_failures, _rank_failures):
        with pytest.raises(np.linalg.LinAlgError):
            rule(stack)


# the singular values a drawn (k, 4) matrix is built with: the rank
# rule's edge at 1e-8 and the screen's at 1e-5, a zero and a subnormal one
_RATIOS = (0.0, 5e-324, 1e-300, 1e-12, 1e-8 * (1 - 1e-6), 1e-8 * (1 + 1e-6),
           1e-6, 1e-5 * (1 - 1e-6), 1e-5 * (1 + 1e-6), 1e-3, 1.0)


@settings(max_examples=300, deadline=None)
@given(k=st.integers(2, 4), seed=st.integers(0, 2 ** 32 - 1),
       drawn=st.lists(st.tuples(st.sampled_from(_RATIOS), st.integers(1, 3),
                                st.floats(-300.0, 300.0)),
                      min_size=1, max_size=12),
       bad=st.lists(st.tuples(st.integers(0, 11), st.integers(0, 3),
                              st.integers(0, 3), st.sampled_from(
                                  [math.nan, math.inf, -math.inf])),
                    max_size=2))
def test_rank_screen_failures_are_those_of_a_full_svd(k, seed, drawn, bad):
    # each matrix loses `lost` singular values to `ratio` times the
    # largest, scaled by 10**exponent (1e-300 to 1e300), and may hold a
    # NaN or an infinity: the screen's failures are the full SVD's, bit
    # for bit, and where the full SVD raises, the screen raises too
    rng = np.random.default_rng(seed)
    stack = []
    for ratio, lost, exponent in drawn:
        sv = [1.0] * max(1, k - lost) + [ratio] * min(lost, k - 1)
        u = np.linalg.qr(rng.normal(size=(k, k)))[0]
        v = np.linalg.qr(rng.normal(size=(4, k)))[0]
        with np.errstate(all="ignore"):
            stack.append((u * sv) @ v.T * 10.0 ** exponent)
    stack = np.array(stack)
    for i, row, col, value in bad:
        stack[i % len(stack), row % k, col] = value
    try:
        want = _stack_svd_failures(stack)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError):
            _rank_failures(stack)
        return
    got = [(i, np.array(sv).tobytes()) for i, sv in _rank_failures(stack)]
    assert got == want


@pytest.mark.parametrize("family,n", [("nc1", 3.0), ("nd", 0.5),
                                      ("na", -1.0)])
def test_columns_from_draws_are_the_sampled_points(family, n):
    # the certificate's columns hold the draws; each point read from them
    # is the PhasePoint `sample_points` returns, and `_worst` names it
    params = ModelParams(family, n, *COUPLINGS)
    box = DomainBox(seed=4)
    points = sample_points(params, box, 200)
    cols = _Columns(sample_draws(params, box, 200))
    assert len(cols) == 200 and [cols[i] for i in range(8)] == points[:8]
    for got, want in zip(cols, points):
        assert struct.pack("4d", *got.as_tuple()) == struct.pack(
            "4d", *want.as_tuple())
    residuals = np.zeros((200, 2))
    residuals[137, 1] = math.nan
    messages = []
    for where in (cols, _columns(params, None, points)):
        with pytest.raises(PdmError,
                           match="^check residual is nan at ") as exc:
            _worst("check", residuals, where)
        messages.append(str(exc.value))
    assert messages[0] == messages[1]
    assert messages[0].endswith(f"= {points[137].as_tuple()}")


@pytest.mark.parametrize("family,n", [(family, n)
                                      for family in ("na_prime", "nd")
                                      for n in (-1.0, 0.5, 2.0, 3.0)])
def test_law_rates_and_algebra_targets_are_the_pointwise_floats(family, n):
    # one trace per rate and per target on the columns gives the floats
    # the catalog's functions give point by point, and the checks their
    # residuals, bytes for bytes
    params = ModelParams(family, n, *COUPLINGS)
    points = sample_points(params, DomainBox(seed=7), 300)
    cols = _columns(params, None, points)
    fam = lookup(family)
    for _, _, rate in fam.laws:
        col, = cols.read(value_row, params, rate)
        assert col.tobytes() == struct.pack(
            "300d", *(rate(params, *pt.as_tuple()) for pt in points))
    for _, _, _, rhs in fam.algebra:
        col, = cols.read(value_row, params, rhs)
        assert col.tobytes() == struct.pack(
            "300d", *(rhs(params, *pt.as_tuple()) for pt in points))
    h = _own(gradient_row, params, integral(family, "H"))
    for (label, (re, im), rate) in fam.laws:
        worst = 0.0
        for pt in points:
            y = pt.as_tuple()
            zr, zi, g = _own(gradient_row, params, re)(*y), \
                _own(gradient_row, params, im)(*y), h(*y)
            c = rate(params, *y)
            scale = _scale(math.hypot(zr[0], zi[0]), g[0], pt)
            worst = max(worst, abs(row_bracket(zr, g) + c * zi[0]) / scale,
                        abs(row_bracket(zi, g) - c * zr[0]) / scale)
        got = evolution_law_check(params, None, points)[f"{label}_law"]
        assert struct.pack("d", got) == struct.pack("d", worst)
    for name, a, b, rhs in fam.algebra:
        fa = _own(gradient_row, params, integral(family, a))
        fb = _own(gradient_row, params, integral(family, b))
        worst = max(abs(row_bracket(fa(*pt.as_tuple()), fb(*pt.as_tuple()))
                        - rhs(params, *pt.as_tuple())) / _scale(
            fa(*pt.as_tuple())[0], fb(*pt.as_tuple())[0], pt)
            for pt in points)
        got = algebra_check(params, None, points)[name]
        assert struct.pack("d", got) == struct.pack("d", worst)


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
    with pytest.raises(PdmError, match=r"bracket:J\d residual is nan at "
                       r"the sample point \(r, phi, p_r, p_phi\) = \(1\."):
        bracket_residual_suite(params, None, points)


# the part a +10% corruption scales, for each bound integral in order, at
# n = 3 (None: inert); at zero couplings more integrals are single-term
M, R = "momentum", "radial"
_PARTS = {
    (-1.0, 0.5, -0.3): {
        "geodesic": (R, R, None), "na_central": (None, M, M, M),
        "na": (M, M, M), "na_prime": (M, M, R, M, M), "nb": (M, M, M),
        "nc": (None, M, M), "nc1": (M, M), "nc2": (M, M), "nd": (M, M)},
    (0.0, 0.0, 0.0): {
        "geodesic": (R, R, None), "na_central": (None, R, R, R),
        "na": (R, R, None), "na_prime": (R, R, None, R, R),
        "nb": (R, R, None), "nc": (None, None, None), "nc1": (None, None),
        "nc2": (None, None), "nd": (None, None)},
}


@pytest.mark.parametrize("couplings,family", [
    (couplings, family) for couplings in _PARTS for family in sorted(CATALOG)])
def test_the_corruption_part_of_each_integral(couplings, family):
    # the choice on the first 8 sample points: the couplings-zeroed
    # momentum part, else the p_phi-free part, else inert; the suite
    # corrupts what it chose and lists the rest as inert
    params = ModelParams(family, 3.0, *couplings)
    sample = SampleConfig()
    points = _columns(params, sample)
    bound = lookup(family).bound
    want = _PARTS[couplings][family]
    got = tuple(certify._corrupted(obs, params, points) for obs in bound)
    assert got == tuple(part and corruption(obs, params, part)
                        for obs, part in zip(bound, want))
    results, inert = corruption_suite(params, sample, points)
    assert inert == tuple(obs.name for obs, part in zip(bound, want)
                          if part is None)
    assert set(results) == {obs.name for obs, part in zip(bound, want)
                            if part is not None}


def test_corruption_suite_shape():
    params = ModelParams("nc", 2.0, *COUPLINGS)
    results, inert = corruption_suite(params, _sample(count=60))
    assert inert == ("J1",)
    assert set(results) == {"J2", "J3"}
    assert all(v > 1e-3 for v in results.values())


def test_a_second_certificate_at_equal_params_compiles_no_trace(
        monkeypatch):
    # the corrupted integrals of the negative control are one object per
    # key, so the traces cached on them serve every later certificate
    params = ModelParams("nc1", 2.5, *COUPLINGS)
    obs = integral("nc1", "Jc2")
    assert corruption(obs, params, "momentum") is corruption(
        obs, params, "momentum")
    sample, config = _sample(count=40, seed=9), IntegratorConfig(t_end=1.0)
    first = certificate(params, sample, config)
    labels = []
    real = tracing.compile_traced

    def counting(fn, label, columns=False):
        labels.append(label)
        return real(fn, label, columns)

    monkeypatch.setattr(tracing, "compile_traced", counting)
    assert certificate(params, sample, config) == first
    assert labels == []


def test_sample_config_validation():
    with pytest.raises(ValueError):
        SampleConfig(count=0)


def test_certificate_refuses_geodesic_at_n_equal_one():
    # ModelParams admits geodesic at n = 1, but there P2 = -Pphi
    params = ModelParams("geodesic", 1.0)
    with pytest.raises(PdmError,
                       match=r"^n = 1 degenerate \(k_n = 0\): P2 = -Pphi$"):
        certificate(params, _sample(count=10))


@pytest.mark.parametrize("family", ["nc1", "nd"])
def test_plain_point_lists_give_the_certificate_checks(family):
    # the benchmark's traced mode calls each public check with the plain
    # list `sample_points` returns, where the certificate hands them its
    # columns; both must give its numbers bit for bit
    params = ModelParams(family, 3.0, *COUPLINGS)
    sample = _sample(count=300, seed=2)
    cert = certificate(params, sample)
    points = sample_points(params, sample.box, sample.count)
    fam = lookup(family)

    def residual(name):
        return _check(cert, name).max_residual

    for name, res in bracket_residual_suite(params, sample, points).items():
        assert res == residual(f"bracket:{name}")
    fraction, failures = independence_stats(params, sample, points=points)
    assert 1.0 - fraction == residual("independence:" + ",".join(fam.triple))
    assert killing_tensor_check(params, sample, points) == residual(
        "killing_tensor")
    for name, res in evolution_law_check(params, sample, points).items():
        assert res == residual(f"evolution:{name}")
    results, inert = corruption_suite(params, sample, points)
    assert min(results.values()) == residual("negative_control")
    # what the certificate reports only in part, against its columns
    cols = _columns(params, None, points)
    assert (fraction, failures) == independence_stats(params, sample,
                                                      points=cols)
    assert (results, inert) == corruption_suite(params, sample, cols)
    assert involution_check(params, sample=sample, points=points) == \
        involution_check(params, sample=sample, points=cols)


def _bits(residual):
    return None if residual is None else struct.pack("d", residual)


def _alone(params, sample):
    """{check name: residual} of the certificate's columnar checks, each
    from its public check called alone on fresh columns of the same draws,
    which runs only the rows of its own `_CHECKS` entry as one merged
    trace; and the corruption suite's residuals."""
    def fresh():
        return _Columns(sample_draws(params, sample.box, sample.count))

    fam = lookup(params.family)
    out = {f"bracket:{name}": res for name, res in bracket_residual_suite(
        params, sample, fresh()).items()}
    if fam.commuting:
        pair = ",".join(fam.commuting)
        out[f"involution:{pair}"] = involution_check(
            params, [fam.commuting], points=fresh())[pair]
    fraction, _ = independence_stats(params, sample, fam.triple, fresh())
    out["independence:" + ",".join(fam.triple)] = 1.0 - fraction
    try:
        out["killing_tensor"] = killing_tensor_check(params, sample, fresh())
    except NoQuadraticIntegral:
        out["killing_tensor"] = None
    for prefix, suite in (("identity", identity_suite),
                          ("algebra", algebra_check),
                          ("evolution", evolution_law_check)):
        out.update((f"{prefix}:{name}", res)
                   for name, res in suite(params, sample, fresh()).items())
    results, _ = corruption_suite(params, sample, fresh())
    out["negative_control"] = min(results.values(), default=None)
    return out, {name: bracket_residual_suite(
        params, sample, fresh(), corrupt=name)[name] for name in results}


def _traced_alone(*_):
    raise AssertionError("a row was traced on its own")


@pytest.mark.parametrize("family,n", [(family, n)
                                      for family in sorted(CATALOG)
                                      for n in (-1.0, 0.5, 2.0, 3.0)])
def test_public_checks_alone_give_the_certificates_residuals(family, n,
                                                             monkeypatch):
    # the certificate reads the rows of every entry of its table from one
    # merged trace and traces none on its own; each public check called
    # alone merges only its own entry's rows, and gives the certificate's
    # residual bit for bit, with and without the corruption of each
    # non-inert integral
    params = ModelParams(family, n, 0.5, 0.25, 0.125)
    sample, config = SampleConfig(), IntegratorConfig(t_end=1.0)
    want, corrupted = _alone(params, sample)
    assert set(corrupted) or family == "geodesic"
    with monkeypatch.context() as patch:
        patch.setattr(certify, "on_columns", _traced_alone)
        cert = certificate(params, sample, config)
        got = {c.name: _bits(c.max_residual) for c in cert.checks}
        assert got.pop("drift") is not None
        assert got == {name: _bits(res) for name, res in want.items()}
        for name, res in corrupted.items():
            bad = certificate(params, sample, config, corrupt=name)
            check = f"bracket:{name}"
            assert _bits(_check(bad, check).max_residual) == _bits(res)
            assert [c for c in bad.checks if c.name != check] == [
                c for c in cert.checks if c.name != check]


def _public_checks(family):
    """(name, call) of each public check, as perfbench's traced mode calls
    them, and of the bracket suite with a corrupted integral."""
    corrupt = lookup(family).bound[0].name
    return [
        ("bracket", bracket_residual_suite),
        ("corrupted bracket", lambda params, sample, points:
            bracket_residual_suite(params, sample, points, corrupt)),
        ("involution", lambda params, sample, points: involution_check(
            params, sample=sample, points=points)),
        ("independence", lambda params, sample, points: independence_stats(
            params, sample, points=points)),
        ("killing", killing_tensor_check), ("identity", identity_suite),
        ("algebra", algebra_check), ("evolution", evolution_law_check),
        ("corruption", corruption_suite)]


@pytest.mark.parametrize("family", ["nd", "na_prime", "nc1", "geodesic"])
def test_a_public_check_alone_compiles_one_merged_trace(family, monkeypatch):
    # on fresh columns, with no trace cached, a public check compiles one
    # trace, the merged trace of its entry's rows, and traces no row on
    # its own; a corrupted integral needs one more, the 8-point trace of
    # the values that choose its corrupted part
    params = ModelParams(family, 3.0, 0.5, 0.25, 0.125)
    sample = SampleConfig(count=300)
    labels = []
    real = tracing.compile_traced
    monkeypatch.setattr(tracing, "compile_traced", lambda fn, label,
                        columns=False: labels.append(label) or real(
                            fn, label, columns))
    monkeypatch.setattr(certify, "on_columns", _traced_alone)
    probe = f"value_row {lookup(family).bound[0].name} {params} and "
    for name, call in _public_checks(family):
        column_trace.cache_clear()
        labels.clear()
        try:
            call(params, sample, _columns(params, sample))
        except NoQuadraticIntegral:
            assert family == "geodesic" and name == "killing"
            assert labels == []
            continue
        if "corrupt" in name:
            assert len(labels) == 2 and labels[0].startswith(probe), labels
        else:
            # none where the family carries nothing to read (its algebra)
            assert len(labels) == (name != "algebra" or family == "na_prime")


@pytest.mark.parametrize("family", ["nd", "na_prime", "nc1", "geodesic"])
def test_a_check_prefetches_exactly_the_rows_it_reads(family, monkeypatch):
    # each check's declared rows are the keys it reads on the sample's
    # columns, none missing and none run for nothing; a certificate's are
    # the union of its checks' (the 8-point probe has columns of its own)
    params = ModelParams(family, 3.0, 0.5, 0.25, 0.125)
    sample = SampleConfig(count=50)
    fetched, read = set(), set()
    real_prefetch, real_read = _Columns.prefetch, _Columns.read

    def prefetch(self, keys):
        keys = list(keys)
        if len(self) == sample.count:
            fetched.update(keys)
        return real_prefetch(self, keys)

    def reading(self, *key):
        if len(self) == sample.count:
            read.add(key)
        return real_read(self, *key)

    monkeypatch.setattr(_Columns, "prefetch", prefetch)
    monkeypatch.setattr(_Columns, "read", reading)
    calls = _public_checks(family) + [
        ("certificate", lambda params, sample, _: certificate(
            params, sample, IntegratorConfig(t_end=1.0)))]
    for name, call in calls:
        fetched.clear()
        read.clear()
        try:
            call(params, sample, _columns(params, sample))
        except NoQuadraticIntegral:
            continue
        assert fetched == read, name


@pytest.mark.parametrize("family,couplings,message", [
    ("nc", (1e308, 0.25, 0.125),
     "H is inf at the sample point (r, phi, p_r, p_phi) = "
     "(1.8147263462160557, 0.4121370122778603, -0.6555317578173585, "
     "-1.3988821324206437)"),
    ("na_prime", (1e154, 0.25, 0.125),
     "algebra:bracket_j2 residual is nan at the sample point (r, phi, p_r, "
     "p_phi) = (1.7199053588004087, 5.69373687446983, 0.42654310306871945, "
     "0.9179862439359936)"),
    ("nd", (1e200, 1e200, 0.1),
     "a check overflows at these couplings: Numerical result out of range"),
])
def test_a_flagged_merged_run_falls_back_to_each_rows_trace(
        family, couplings, message, monkeypatch):
    # numpy flags the merged trace at these couplings: every row is then
    # traced on its own, and the certificate raises as each row's own
    # trace makes it
    alone = []
    monkeypatch.setattr(certify, "on_columns", lambda *args: alone.append(
        args[0]) or on_columns(*args))
    with pytest.raises(PdmError) as exc:
        certificate(ModelParams(family, 2.0, *couplings), SampleConfig())
    assert str(exc.value) == message
    assert alone


def _scale(f_val, g_val, pt):
    # `bracket_scale` as the per-point loops wrote it, with Python's max
    p_scale = max(1.0, abs(pt.p_r), abs(pt.p_phi))
    return max(1.0, abs(f_val), abs(g_val)) * p_scale * p_scale


def _first_non_finite(check, residuals):
    """The message of the first non-finite of (residual, point) pairs."""
    for res, pt in residuals:
        if not math.isfinite(res):
            return (f"{check} residual is {res} at the sample point "
                    f"(r, phi, p_r, p_phi) = {pt.as_tuple()}")
    raise AssertionError("every residual is finite")


# nd at n = 3 on points whose momenta overflow some products: at KILL_A
# only Jd3's Killing residual is NaN, at KILL_B only Jd2's; at LAW_C only
# the imaginary part of A's evolution law is, at LAW_D both parts are.
# At OVER, p_r^2 overflows in H's row itself.
KILL_A = PhasePoint(1.4060437130641332, 4.485786409487792,
                    7.171529497132565e+86, 2.7306310718180717e+102)
KILL_B = PhasePoint(0.9292611130851894, 2.101261038756727,
                    1.2281448792580553e+151, 827854.6665747898)
LAW_C = PhasePoint(1.323074624061338, 4.650343185711942,
                   -1.8578301846176342e+35, 8.853737327185889e+131)
LAW_D = PhasePoint(1.632350456339198, 0.7764499405757049,
                   -4.813069464087886e+80, -1.689067392305431e+125)
OVER = PhasePoint(1.1, 1.0, 1e160, 0.5)


def _nd_points(*odd):
    """nd at n = 3 on a sample point before each of `odd` and OVER; the
    overflow at OVER sends H's row to its point-by-point fallback."""
    params = ModelParams("nd", 3.0, *COUPLINGS)
    odd += (OVER,)
    fine = sample_points(params, DomainBox(seed=1), len(odd))
    points = [pt for pair in zip(fine, odd) for pt in pair]
    columns = [np.array(c) for c in zip(*(pt.as_tuple() for pt in points))]
    for row_params in (params, replace(params, k0=0.0, k1=0.0, k2=0.0)):
        with pytest.raises(FloatingPointError), np.errstate(all="raise"):
            _own(gradient_row, row_params, integral("nd", "H"))(*columns)
    return params, points


def test_killing_names_the_first_non_finite_integral_by_integral():
    # one integral after another: Jd2's NaN at KILL_B comes before Jd3's
    # at the earlier point KILL_A
    params, points = _nd_points(KILL_A, KILL_B)
    zeroed = replace(params, k0=0.0, k1=0.0, k2=0.0)
    h = _own(gradient_row, zeroed, integral("nd", "H"))

    def pairs():
        for obs in lookup("nd").bound:
            row = _own(gradient_row, zeroed, obs)
            for pt in points:
                f, g = row(*pt.as_tuple()), h(*pt.as_tuple())
                yield abs(row_bracket(f, g)) / _scale(f[0], g[0], pt), pt
    want = _first_non_finite("killing_tensor", pairs())
    assert "= (0.929" in want
    with pytest.raises(PdmError,
                       match="^killing_tensor residual is ") as exc:
        killing_tensor_check(params, None, points)
    assert str(exc.value) == want


def test_evolution_law_names_the_first_non_finite_point_re_then_im():
    # point by point, Re then Im: the imaginary part's NaN at LAW_C comes
    # before the real part's at the later point LAW_D
    params, points = _nd_points(LAW_C, LAW_D)
    (label, (re, im), rate), _ = lookup("nd").laws
    h = _own(gradient_row, params, integral("nd", "H"))

    def pairs():
        for pt in points:
            y = pt.as_tuple()
            zr, zi, g = _own(gradient_row, params, re)(*y), \
                _own(gradient_row, params, im)(*y), h(*y)
            c = rate(params, *y)
            scale = _scale(math.hypot(zr[0], zi[0]), g[0], pt)
            yield abs(row_bracket(zr, g) + c * zi[0]) / scale, pt
            yield abs(row_bracket(zi, g) - c * zr[0]) / scale, pt
    want = _first_non_finite(f"evolution:{label}_law", pairs())
    assert "= (1.323" in want
    with pytest.raises(PdmError,
                       match="^evolution:a_law residual is ") as exc:
        evolution_law_check(params, None, points)
    assert str(exc.value) == want


def _identities(family):
    return (("kinetic_noether", kinetic_noether),) + lookup(family).identities


def _rel_loop(params, fn, points):
    """Each identity pair's gap as the per-point loop wrote it: Python
    floats from the formula itself, reduced with Python's max."""
    return [(abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)), pt)
            for pt in points for lhs, rhs in fn(params, *pt.as_tuple())]


@pytest.mark.parametrize("family,n", [(family, n) for family in CATALOG
                                      for n in (-1.0, 0.5, 2.0, 3.0)])
def test_identity_suite_equals_a_pointwise_rel_loop(family, n):
    # one trace per identity on the columns: each of its pairs is the
    # formula's floats point by point, and each worst gap is the loop's,
    # byte for byte
    params = ModelParams(family, n, 0.7, 0.3, -0.2)
    points = sample_points(params, DomainBox(seed=6), 300)
    cols = _columns(params, None, points)
    suite = identity_suite(params, None, points)
    assert list(suite) == [name for name, _ in _identities(family)]
    for name, fn in _identities(family):
        flat = cols.read(identity_pairs, params, fn)
        want = [v for pt in points for pair in fn(params, *pt.as_tuple())
                for v in pair]
        assert np.stack(flat, 1).tobytes() == struct.pack(
            f"{len(want)}d", *want), name
        worst = max((res for res, _ in _rel_loop(params, fn, points)),
                    default=0.0)
        assert struct.pack("d", suite[name]) == struct.pack("d", worst)


# nd at n = 3: p_phi^2 overflows at HUGE, which makes every identity's
# gaps NaN there
HUGE = PhasePoint(0.980376911720386, 2.4563046751668844, 11867695852.909266,
                  1.4795317662256625e+155)


def test_identity_suite_names_the_loops_first_non_finite_gap():
    # the columns flag (at HUGE and OVER) and fall back point by point;
    # the message names the first identity with a NaN or an infinity, and
    # in it the first point, then pair, as the loop finds them
    params, points = _nd_points(HUGE)
    columns = [np.array(c) for c in zip(*(pt.as_tuple() for pt in points))]
    with pytest.raises(FloatingPointError), np.errstate(all="raise"):
        _own(identity_pairs, params, kinetic_noether)(*columns)
    want = next(_first_non_finite(f"identity:{name}", pairs)
                for name, fn in _identities("nd")
                for pairs in [_rel_loop(params, fn, points)]
                if not all(math.isfinite(res) for res, _ in pairs))
    assert "= (0.980" in want
    with pytest.raises(PdmError, match=r"^identity:\w+ residual is ") as exc:
        identity_suite(params, None, points)
    assert str(exc.value) == want


# nd at n = 3 where H is finite but Jd2, or Jd3, is infinite
JD2_INF = PhasePoint(1.2350408489284699, 4.5915466473219375,
                     -2.423741467181456e+55, 1.1526042102816195e+154)
JD3_INF = PhasePoint(1.1894908021074226, 2.5648709594428896,
                     -9.629420954007486e+146, -1.3118565636410904e+154)


def _first_non_finite_monitor(params, points):
    """The message of the per-point loop over H and the bound integrals."""
    names, row = monitors(params)
    for pt in points:
        for name, val in zip(names, row(*pt.as_tuple())):
            if not math.isfinite(val):
                return (f"{name} is {val} at the sample point "
                        f"(r, phi, p_r, p_phi) = {pt.as_tuple()}")
    return None


@pytest.mark.parametrize("odd,first", [
    ((KILL_A, LAW_C), "H is inf at the sample point (r, phi, p_r, p_phi) "
                      "= (1.1,"),
    ((JD3_INF, HUGE), "Jd3 is -inf at the sample point (r, phi, p_r, "
                      "p_phi) = (1.189"),
    ((KILL_B, JD2_INF, JD3_INF), "Jd2 is inf at the sample point (r, phi, "
                                 "p_r, p_phi) = (1.235")])
def test_require_finite_names_the_loops_first_non_finite_monitor(odd,
                                                                 first):
    # OVER makes numpy flag on H's row (see `_nd_points`), which reruns
    # point by point; a value column that is not finite sends the check to
    # its loop, which names the first value point by point, monitor by
    # monitor
    params, points = _nd_points(*odd)
    want = _first_non_finite_monitor(params, points)
    assert want.startswith(first)
    with pytest.raises(PdmError,
                       match=r"^\w+ is -?inf at the sample point ") as exc:
        _require_finite(params, _columns(params, None, points))
    assert str(exc.value) == want
    # without the crafted points the columns pass on their own
    fine = _columns(params, None, points[::2])
    assert _first_non_finite_monitor(params, fine) is None
    _require_finite(params, fine)
