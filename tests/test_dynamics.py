"""Integrator behavior: exact flows, guards, drift, reversibility."""

import math
import statistics
from dataclasses import replace

import numpy as np
import pytest

from oracles import gradient_fd, time_reversal_defect
from pdmham import dynamics
from pdmham.dynamics import (COMPLETED, SINGULARITY, STEP_FAILURE, A, B, E3,
                             E5, IntegratorConfig, Trajectory, _step,
                             _try_field, drift_report, hamilton_vector_field,
                             integrate, worst_drift)
from pdmham.errors import EmptyTrajectory, PdmError
from pdmham.phase import DomainBox, ModelParams, PhasePoint, sample_points
from pdmham.tracing import monitor_terms

GEO0 = ModelParams("geodesic", 0.0, 0.0, 0.0, 0.0)

# the DOP853 nodes as published (Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.10); the integrator itself never needs them
NODES = (0.0, 0.526001519587677318785587544488e-01,
         0.789002279381515978178381316732e-01,
         0.118350341907227396726757197510,
         0.281649658092772603273242802490,
         1.0 / 3.0, 0.25, 4.0 / 13.0, 127.0 / 195.0, 0.6, 6.0 / 7.0, 1.0)


def test_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(t_end=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(rtol=0.0)
    for field, value in (("t_end", math.inf), ("rtol", math.nan),
                         ("atol", math.inf)):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**{field: value})


def test_tableau_is_consistent():
    # each stage sits at its node, the solution weights sum to 1 and both
    # error estimators vanish on a constant field; a row sum carries the
    # rounding of its largest entry (up to 43 in magnitude)
    assert len(A) == len(NODES) == len(B) == len(E5) == len(E3) == 12
    for row, c in zip(A, NODES):
        scale = max(map(abs, row), default=1.0)
        assert math.fsum(row) == pytest.approx(c, abs=1e-15 * scale)
    assert math.fsum(B) == pytest.approx(1.0, abs=1e-15)
    assert math.fsum(E5) == pytest.approx(0.0, abs=1e-15)
    assert math.fsum(E3) == pytest.approx(0.0, abs=1e-15)


def _fixed_step(monkeypatch, h):
    """Step size h up to t = 2: the step bounds pinned to h, and tolerances
    this loose accept every step."""
    for name in ("H_INIT", "H_MIN", "H_MAX"):
        monkeypatch.setattr(dynamics, name, h)
    return IntegratorConfig(t_end=2.0, rtol=1e9, atol=1e9)


def test_fixed_step_order_is_eight(monkeypatch):
    # halving h cuts the endpoint error by about 2^8; the errors at these
    # steps sit far above the roundoff floor near 1e-14
    params = ModelParams("na_central", 2.0, 1.0)
    start = PhasePoint(1.0, 0.4, 0.2, 0.8)
    ref = integrate(params, start, _fixed_step(monkeypatch, 1e-3)).states[-1]
    errs = [max(abs(a - b) for a, b in zip(integrate(
        params, start, _fixed_step(monkeypatch, h)).states[-1], ref))
        for h in (0.2, 0.1, 0.05)]
    assert errs[-1] > 1e-12
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) == pytest.approx(8.0, abs=0.5)


def _combine(start, h, coeffs, ks):
    y = list(start)
    for c, k in zip(coeffs, ks):
        if c != 0.0:
            hc = h * c
            for i in range(4):
                y[i] += hc * k[i]
    return tuple(y)


def _reference_step(field, y, h, k1):
    """One DOP853 step as a plain loop over the tableau: (y_new, e5, e3),
    or the index of the first stage that raises or is not finite."""
    ks = [k1]
    for s, row in enumerate(A[1:], 1):
        try:
            k = field(*_combine(y, h, row, ks))
            if not all(map(math.isfinite, k)):
                return s
        except (ArithmeticError, ValueError, TypeError):
            return s
        ks.append(k)
    zero = (0.0,) * 4
    return (_combine(y, h, B, ks), _combine(zero, 1.0, E5, ks),
            _combine(zero, 1.0, E3, ks))


def _toy_field(r, phi, p_r, p_phi):
    return (p_r + 0.3 * r * phi, p_phi - r * r, 0.1 * p_r * p_phi - r,
            phi ** 3 - 0.5 * p_r)


def test_generated_step_matches_the_tableau_loop_bit_for_bit():
    rng = np.random.default_rng(13)
    for _ in range(200):
        y = tuple(rng.uniform(-2.0, 2.0, 4).tolist())
        h = float(rng.uniform(1e-3, 0.5))
        k1 = _toy_field(*y)
        got = _step(_toy_field, *y, h, *k1)
        want = _reference_step(_toy_field, y, h, k1)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


# a stage that raises, or has a NaN, an infinity or a complex component
# (a negative base to a fractional power, as past r = 0 at non-integer n)
_BAD_STAGES = {"raise": None, "nan": (0.0, math.nan, 0.0, 0.0),
               "inf": (0.0, 0.0, 0.0, -math.inf),
               "complex": (0.0, (-1.0) ** 0.5, 0.0, 0.0)}


@pytest.mark.parametrize("bad", list(_BAD_STAGES))
@pytest.mark.parametrize("stage", range(1, len(A)))
def test_generated_step_reports_the_invalid_stage(stage, bad):
    # the step stops at the first invalid stage and returns its index,
    # which is the number of field evaluations it made
    calls = []

    def field(*y):
        calls.append(y)
        if len(calls) == stage:
            if bad == "raise":
                raise ZeroDivisionError
            return _BAD_STAGES[bad]
        return _toy_field(*y)

    y = (1.0, 0.4, 0.2, 0.8)
    assert _step(field, *y, 0.1, *_toy_field(*y)) == stage
    assert len(calls) == stage
    calls.clear()
    assert _reference_step(field, y, 0.1, _toy_field(*y)) == stage


@pytest.mark.parametrize("bad", list(_BAD_STAGES))
def test_try_field_rejects_what_the_step_rejects(bad):
    def field(*y):
        if bad == "raise":
            raise ZeroDivisionError
        return _BAD_STAGES[bad]

    assert _try_field(field, 1.0, 0.4, 0.2, 0.8) is None
    assert _try_field(_toy_field, 1.0, 0.4, 0.2, 0.8) == _toy_field(
        1.0, 0.4, 0.2, 0.8)


def test_field_free_radial_motion():
    field = hamilton_vector_field(GEO0, PhasePoint(1.0, 0.0, 1.0, 0.0))
    assert field == pytest.approx((1.0, 0.0, 0.0, 0.0))


def test_field_central_families_conserve_p_phi():
    for family in ("na_central", "nc"):
        params = ModelParams(family, 2.0, 1.3, 0.0, 0.0)
        for pt in sample_points(params, DomainBox(seed=9), 10):
            field = hamilton_vector_field(params, pt)
            assert field[3] == pytest.approx(0.0, abs=1e-14)


def test_field_matches_fd_gradient():
    from pdmham.families import hamiltonian
    params = ModelParams("na_prime", 2.0, 1.0, 0.5, 0.3)
    for pt in sample_points(params, DomainBox(seed=10), 10):
        field = hamilton_vector_field(params, pt)
        d_r, d_phi, d_pr, d_pphi = gradient_fd(hamiltonian, params, pt)
        want = (d_pr, d_pphi, -d_r, -d_phi)
        for a, b in zip(field, want):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-6)


def test_straight_line_geodesic():
    traj = integrate(GEO0, PhasePoint(1.0, 0.0, 1.0, 0.0),
                     IntegratorConfig(t_end=2.0))
    assert traj.termination == COMPLETED
    r, phi, _, _ = traj.states[-1]
    assert abs(r - 3.0) <= 1e-8
    assert phi == pytest.approx(0.0, abs=1e-12)
    assert traj.n_accepted == len(traj) - 1


def test_field_evaluation_count(monkeypatch):
    # H_INIT = 0.5 fails the error test first, so rejections are counted too
    monkeypatch.setattr(dynamics, "H_INIT", 0.5)
    traj = integrate(ModelParams("nc", 2.0, -1.0),
                     PhasePoint(1.0, 0.5, 0.1, 0.9),
                     IntegratorConfig(t_end=5.0))
    assert traj.termination == COMPLETED and traj.n_rejected > 0
    # 11 stages per attempted step past the first, plus the new state's
    # field once per accepted step
    assert traj.n_field_evals == (1 + 11 * (traj.n_accepted + traj.n_rejected)
                                  + traj.n_accepted)
    assert traj.n_rejected_error == traj.n_rejected
    assert traj.n_rejected_invalid == 0
    h_min, h_median, h_max = traj.step_sizes()
    assert 0.0 < h_min <= h_median <= h_max < 0.5


def test_complex_stage_at_non_integer_n_is_rejected():
    # trial stages drive r below 0, where r ** (n - 1) is complex
    traj = integrate(ModelParams("nc", -0.5, -1.0, 0.3, -0.2),
                     PhasePoint(0.02, 0.5, -3.0, 0.1),
                     IntegratorConfig(t_end=1.0))
    assert traj.n_rejected_invalid > 0
    assert (traj.n_rejected_error + traj.n_rejected_invalid
            == traj.n_rejected)
    assert (traj.n_accepted, traj.n_rejected, traj.n_rejected_invalid,
            traj.n_field_evals) == (186, 10, 2, 2335)
    assert np.asarray(traj.states).dtype == np.float64
    assert np.all(np.isfinite(np.asarray(traj.states)))


def test_monitor_layout():
    params = ModelParams("nd", 3.0, 1.0, 0.5, -0.3)
    traj = integrate(params, PhasePoint(1.0, 1.2, 0.3, 0.9),
                     IntegratorConfig(t_end=1.0))
    assert list(traj.monitors) == ["H", "Jd2", "Jd3"]
    for series in traj.monitors.values():
        assert len(series) == len(traj)


def test_na_central_h_drift():
    params = ModelParams("na_central", 2.0, 1.0, 0.0, 0.0)
    traj = integrate(params, PhasePoint(1.0, 0.4, 0.2, 0.8),
                     IntegratorConfig(t_end=50.0, rtol=1e-10))
    assert traj.termination == COMPLETED
    h = np.asarray(traj.monitors["H"])
    rel = np.max(np.abs(h - h[0])) / abs(h[0])
    assert rel <= 1e-8


def test_integral_drift_tracks_h_drift():
    # conservation transfers: integral drift stays within 100x of H's,
    # with a 1e-14 floor guarding the H-exact corner
    params = ModelParams("nd", 3.0, 1.0, 0.5, -0.3)
    traj = integrate(params, PhasePoint(1.1, 1.0, 0.4, 0.7),
                     IntegratorConfig(t_end=20.0))
    assert traj.termination == COMPLETED
    rep = drift_report(traj)
    h_floor = max(rep["H"], 1e-14)
    for name in ("Jd2", "Jd3"):
        assert rep[name] <= 100.0 * h_floor


def test_guard_termination_inward_collapse():
    # flat attractive Kepler with p_phi = 0: free fall crosses the inner
    # r guard in finite time and the run stops with a partial trajectory
    params = ModelParams("nc", 0.0, -1.0, 0.0, 0.0)
    traj = integrate(params, PhasePoint(1.0, 1.0, 0.0, 0.0),
                     IntegratorConfig(t_end=50.0))
    assert traj.termination == SINGULARITY
    assert traj.times[-1] < 2.0
    assert len(traj) > 2
    assert traj.states[-1][0] <= 2e-3


def test_deformed_kinetic_freezes_inward_flow():
    # at n = 3 the r^{2n} kinetic factor caps |dr/dt| by sqrt(2H) r^3, so
    # an inward state with p_phi = 0 creeps toward r = 0 without ever
    # reaching the guard: the run completes with r small but positive
    params = ModelParams("nd", 3.0, 1.0, 0.5, -0.3)
    traj = integrate(params, PhasePoint(0.8, 1.0, -1.5, 0.0),
                     IntegratorConfig(t_end=50.0))
    assert traj.termination == COMPLETED
    assert 0.0 < traj.states[-1][0] < 0.2


def test_guard_termination_outward_escape():
    params = ModelParams("geodesic", 1.0, 0.0, 0.0, 0.0)
    traj = integrate(params, PhasePoint(1.0, 0.5, 1.0, 0.0),
                     IntegratorConfig(t_end=50.0))
    assert traj.termination == SINGULARITY
    assert traj.states[-1][0] > 100.0


def test_collapsing_accepted_steps_end_as_step_failure():
    # from the first seed-0 sample point the na orbit nears the pole at
    # u = pi, where p_phi -> -inf in finite time, and its accepted steps
    # shrink toward zero; the run must stop at h_min instead of stepping
    # forever (at the blow-up time, for every rtol from 1e-8 to 1e-13)
    params = ModelParams("na", 3.0, 1.0, 0.5, -0.3)
    start = sample_points(params, DomainBox(seed=0), 1)[0]
    traj = integrate(params, start, IntegratorConfig(t_end=0.009))
    assert traj.termination == STEP_FAILURE
    assert traj.times[-1] == pytest.approx(0.00865, abs=1e-5)
    assert traj.n_accepted == len(traj) - 1


def test_invalid_initial_state_raises():
    params = ModelParams("na", 2.0, 1.0, 0.5, 0.2)
    with pytest.raises(PdmError, match=r"^k_n\*phi within 1e-06 of an "
                       r"angular pole"):
        integrate(params, PhasePoint(1.0, math.pi / 2.0, 0.0, 0.0))


def test_reversal_round_trip():
    config = IntegratorConfig(t_end=10.0, rtol=1e-10)
    cases = (
        (ModelParams("na_central", 2.0, 1.0, 0.0, 0.0),
         PhasePoint(1.0, 0.4, 0.2, 0.8)),
        (ModelParams("nd", 3.0, 1.0, 0.5, -0.3),
         PhasePoint(1.1, 1.0, 0.4, 0.7)),
        (ModelParams("nc", 2.0, 0.8, 0.0, 0.0),
         PhasePoint(1.3, 2.0, -0.2, 1.1)),
    )
    for params, initial in cases:
        defect = time_reversal_defect(params, initial, config)
        assert defect is not None
        assert defect <= 100.0 * config.rtol


def test_reversal_handles_early_stop():
    # guard-stopped run: no round trip defined
    kepler = ModelParams("nc", 0.0, -1.0, 0.0, 0.0)
    infall = PhasePoint(1.0, 1.0, 0.0, 0.0)
    config = IntegratorConfig(t_end=50.0)
    assert integrate(kepler, infall, config).termination == SINGULARITY
    assert time_reversal_defect(kepler, infall, config) is None


def test_fixed_step_matches_adaptive(monkeypatch):
    params = ModelParams("na_central", 2.0, 1.0, 0.0, 0.0)
    initial = PhasePoint(1.0, 0.4, 0.2, 0.8)
    ref = integrate(params, initial, IntegratorConfig(t_end=2.0, rtol=1e-12,
                                                      atol=1e-14))
    fixed = integrate(params, initial, _fixed_step(monkeypatch, 1e-3))
    assert fixed.termination == COMPLETED
    assert fixed.n_accepted == pytest.approx(2000, abs=1)
    assert max(abs(a - b) for a, b in zip(
        fixed.states[-1], ref.states[-1])) <= 1e-9


def test_final_state_distance_zero_on_same_run():
    # the same call twice records the same times and states, bit for bit
    params = ModelParams("nc", 2.0, 0.8, 0.0, 0.0)
    a = integrate(params, PhasePoint(1.3, 2.0, -0.2, 1.1),
                  IntegratorConfig(t_end=1.0))
    b = integrate(params, PhasePoint(1.3, 2.0, -0.2, 1.1),
                  IntegratorConfig(t_end=1.0))
    assert len(a) > 2
    assert np.array(a.times).tobytes() == np.array(b.times).tobytes()
    assert np.array(a.states).tobytes() == np.array(b.states).tobytes()


def _manual_trajectory(monitors, k=5):
    times = np.linspace(0.0, 1.0, k)
    states = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (k, 1))
    return Trajectory(times=times, states=states,
                      monitors=monitors, termination=COMPLETED,
                      n_accepted=k - 1, n_rejected=0)


def test_drift_report_constant_monitor():
    traj = _manual_trajectory({"C": np.full(5, 3.7)})
    rep = drift_report(traj)
    assert worst_drift(rep.values()) == 0.0


def test_drift_report_flags_and_filters():
    traj = _manual_trajectory({
        "good": np.full(5, 2.0),
        "bad": np.array([1.0, 1.0, 1.0, 1.0, 1.5]),
    })
    rep = drift_report(traj)
    assert [name for name, drift in rep.items() if drift > 1e-3] == ["bad"]
    assert worst_drift(rep.values()) == pytest.approx(0.5)


def test_drift_report_worst_keeps_a_nan_drift_that_is_not_first():
    # inf - inf is NaN: the second monitor's drift is not finite, and the
    # worst drift must say so rather than report the first monitor's 0.0
    traj = _manual_trajectory({"H": (1.0, 1.0), "J1": (math.inf, math.inf)},
                              k=2)
    rep = drift_report(traj)
    assert rep["H"] == 0.0
    assert math.isnan(rep["J1"])
    assert math.isnan(worst_drift(rep.values()))
    assert all(type(drift) is float for drift in rep.values())


def test_drift_report_relative_normalization():
    # drift is relative to max(1, |J(0)|)
    traj = _manual_trajectory({"J": np.array([10.0, 10.0, 10.0, 10.0, 11.0])})
    rep = drift_report(traj)
    assert rep["J"] == pytest.approx(0.1)


def test_drift_report_scales_by_the_size_of_the_terms():
    # drift is relative to max(1, |J(0)|, the largest term size on the row)
    traj = _manual_trajectory({"J": np.array([10.0, 10.0, 10.0, 10.0, 11.0])})
    rep = drift_report(traj, terms=lambda r, phi, p_r, p_phi: (1e3,))
    assert rep["J"] == pytest.approx(1e-3)
    rep = drift_report(traj, terms=lambda r, phi, p_r, p_phi: (2.0,))
    assert rep["J"] == pytest.approx(0.1)
    with pytest.raises(PdmError,
                       match="^the size of a monitor's terms overflows$"):
        drift_report(traj, terms=lambda r, phi, p_r, p_phi: (math.inf,))


@pytest.mark.parametrize("family,n", [("nc1", 3.0), ("nd", 2.0),
                                      ("na_prime", -1.0), ("nb", 0.5)])
def test_drift_report_terms_on_columns_are_the_per_state_loop(family, n):
    # the term sizes run as one trace on the states' columns; the report
    # is the one the row function gives state by state, bit for bit
    params = ModelParams(family, n, 1.0, 0.6, 0.35)
    start = sample_points(params, DomainBox(seed=3), 1)[0]
    traj = integrate(params, start, IntegratorConfig(t_end=5.0))
    terms = monitor_terms(params)
    sizes = np.max([terms(*y) for y in np.asarray(traj.states).tolist()],
                   axis=0)
    want = [float(np.max(np.abs(np.asarray(series) - series[0]))) / max(
        1.0, abs(series[0]), size)
        for series, size in zip(traj.monitors.values(), sizes)]
    got = list(drift_report(traj, terms=terms).values())
    assert np.array(got).tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("count", [2, 3, 4, 7, 10, 101, 200])
def test_step_sizes_median_is_the_statistics_median(count):
    # odd and even numbers of steps, with repeated sizes among them
    rng = np.random.default_rng(count)
    steps = rng.choice([1e-3, 0.1, 0.25, 1.0 / 3.0], count - 1).tolist()
    times = [0.0]
    for h in steps:
        times.append(times[-1] + h)
    traj = replace(_manual_trajectory({"H": np.ones(count)}, k=count),
                   times=tuple(times))
    h = [b - a for a, b in zip(times, times[1:])]
    assert traj.step_sizes() == (min(h), statistics.median(h), max(h))


def test_drift_report_empty_trajectory():
    traj = _manual_trajectory({"H": np.array([1.0])}, k=1)
    with pytest.raises(EmptyTrajectory):
        drift_report(traj)
    assert traj.step_sizes() is None


def test_termination_tags_distinct():
    assert len({COMPLETED, SINGULARITY, STEP_FAILURE}) == 3


def test_start_whose_monitors_overflow_is_refused():
    # r > 0 passes the point check, but H divides by r**2, which underflows
    with pytest.raises(PdmError, match="^monitors at the initial state: "):
        integrate(GEO0, PhasePoint(1e-200, 0.0, 0.0, 0.0),
                  IntegratorConfig(t_end=1.0))
