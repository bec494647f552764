"""Integrator behavior: exact flows, guards, drift, reversibility."""

import math

import numpy as np
import pytest

from pdmham.brackets import gradient_fd
from pdmham.dynamics import (COMPLETED, SINGULARITY, STEP_FAILURE, A, B, E3,
                             E5, DriftReport, IntegratorConfig, Trajectory,
                             drift_report, final_state_distance,
                             fixed_step_config, hamilton_vector_field,
                             integrate, time_reversal_defect)
from pdmham.errors import AngularSingularity, EmptyTrajectory, NonFinite
from pdmham.phase import DomainBox, ModelParams, PhasePoint, sample_points

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
    with pytest.raises(ValueError):
        IntegratorConfig(h_min=1.0, h_init=1e-3)
    for field, value in (("t_end", math.inf), ("rtol", math.nan),
                         ("atol", math.inf), ("h_max", math.inf)):
        with pytest.raises(ValueError, match="finite"):
            IntegratorConfig(**{field: value})


def test_fixed_step_config_pins_h():
    cfg = fixed_step_config(0.01, 2.0)
    assert cfg.h_min == cfg.h_init == cfg.h_max == 0.01
    assert cfg.rtol > 1.0


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


def test_fixed_step_order_is_eight():
    # halving h cuts the endpoint error by about 2^8; the errors at these
    # steps sit far above the roundoff floor near 1e-14
    params = ModelParams("na_central", 2.0, 1.0)
    start = PhasePoint(1.0, 0.4, 0.2, 0.8)
    ref = integrate(params, start, fixed_step_config(1e-3, 2.0)).final()
    errs = [final_state_distance(
        integrate(params, start, fixed_step_config(h, 2.0)).final(), ref)
        for h in (0.2, 0.1, 0.05)]
    assert errs[-1] > 1e-12
    for coarse, fine in zip(errs, errs[1:]):
        assert math.log2(coarse / fine) == pytest.approx(8.0, abs=0.5)


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
        g = gradient_fd(hamiltonian, params, pt)
        want = (g.dF_dpr, g.dF_dpphi, -g.dF_dr, -g.dF_dphi)
        for a, b in zip(field, want):
            assert a == pytest.approx(b, rel=1e-6, abs=1e-6)


def test_straight_line_geodesic():
    traj = integrate(GEO0, PhasePoint(1.0, 0.0, 1.0, 0.0),
                     IntegratorConfig(t_end=2.0))
    assert traj.termination == COMPLETED
    assert abs(traj.final().r - 3.0) <= 1e-8
    assert traj.final().phi == pytest.approx(0.0, abs=1e-12)
    assert traj.n_accepted == len(traj) - 1


def test_field_evaluation_count():
    # h_init = 0.5 fails the error test first, so rejections are counted too
    traj = integrate(ModelParams("nc", 2.0, -1.0),
                     PhasePoint(1.0, 0.5, 0.1, 0.9),
                     IntegratorConfig(t_end=5.0, h_init=0.5))
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
    assert traj.states.dtype == np.float64
    assert np.all(np.isfinite(traj.states))


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
    h = traj.monitors["H"]
    rel = np.max(np.abs(h - h[0])) / abs(h[0])
    assert rel <= 1e-8


def test_integral_drift_tracks_h_drift():
    # conservation transfers: integral drift stays within 100x of H's,
    # with a 1e-14 floor guarding the H-exact corner
    params = ModelParams("nd", 3.0, 1.0, 0.5, -0.3)
    traj = integrate(params, PhasePoint(1.1, 1.0, 0.4, 0.7),
                     IntegratorConfig(t_end=20.0))
    assert traj.termination == COMPLETED
    rep = drift_report(traj, tolerance=1e-6)
    by_name = {d.name: d for d in rep.drifts}
    h_floor = max(by_name["H"].rel_drift, 1e-14)
    for name in ("Jd2", "Jd3"):
        assert by_name[name].rel_drift <= 100.0 * h_floor


def test_guard_termination_inward_collapse():
    # flat attractive Kepler with p_phi = 0: free fall crosses the inner
    # r guard in finite time and the run stops with a partial trajectory
    params = ModelParams("nc", 0.0, -1.0, 0.0, 0.0)
    traj = integrate(params, PhasePoint(1.0, 1.0, 0.0, 0.0),
                     IntegratorConfig(t_end=50.0))
    assert traj.termination == SINGULARITY
    assert traj.times[-1] < 2.0
    assert len(traj) > 2
    assert traj.final().r <= 2e-3


def test_deformed_kinetic_freezes_inward_flow():
    # at n = 3 the r^{2n} kinetic factor caps |dr/dt| by sqrt(2H) r^3, so
    # an inward state with p_phi = 0 creeps toward r = 0 without ever
    # reaching the guard: the run completes with r small but positive
    params = ModelParams("nd", 3.0, 1.0, 0.5, -0.3)
    traj = integrate(params, PhasePoint(0.8, 1.0, -1.5, 0.0),
                     IntegratorConfig(t_end=50.0))
    assert traj.termination == COMPLETED
    assert 0.0 < traj.final().r < 0.2


def test_guard_termination_outward_escape():
    params = ModelParams("geodesic", 1.0, 0.0, 0.0, 0.0)
    traj = integrate(params, PhasePoint(1.0, 0.5, 1.0, 0.0),
                     IntegratorConfig(t_end=50.0))
    assert traj.termination == SINGULARITY
    assert traj.final().r > 100.0


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
    with pytest.raises(AngularSingularity):
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


def test_reversal_reuses_forward_and_handles_early_stop():
    params = ModelParams("nd", 3.0, 1.0, 0.5, -0.3)
    config = IntegratorConfig(t_end=10.0)
    forward = integrate(params, PhasePoint(1.1, 1.0, 0.4, 0.7), config)
    d1 = time_reversal_defect(params, PhasePoint(1.1, 1.0, 0.4, 0.7),
                              config, forward=forward)
    assert d1 is not None and d1 <= 1e-8
    # guard-stopped run: no round trip defined
    kepler = ModelParams("nc", 0.0, -1.0, 0.0, 0.0)
    infall = PhasePoint(1.0, 1.0, 0.0, 0.0)
    stopped = integrate(kepler, infall, IntegratorConfig(t_end=50.0))
    assert stopped.termination == SINGULARITY
    assert time_reversal_defect(kepler, infall, IntegratorConfig(t_end=50.0),
                                forward=stopped) is None


def test_fixed_step_matches_adaptive():
    params = ModelParams("na_central", 2.0, 1.0, 0.0, 0.0)
    initial = PhasePoint(1.0, 0.4, 0.2, 0.8)
    ref = integrate(params, initial, IntegratorConfig(t_end=2.0, rtol=1e-12,
                                                      atol=1e-14))
    fixed = integrate(params, initial, fixed_step_config(1e-3, 2.0))
    assert fixed.termination == COMPLETED
    assert fixed.n_accepted == pytest.approx(2000, abs=1)
    assert final_state_distance(fixed.final(), ref.final()) <= 1e-9


def test_final_state_distance_zero_on_same_run():
    params = ModelParams("nc", 2.0, 0.8, 0.0, 0.0)
    a = integrate(params, PhasePoint(1.3, 2.0, -0.2, 1.1),
                  IntegratorConfig(t_end=1.0))
    b = integrate(params, PhasePoint(1.3, 2.0, -0.2, 1.1),
                  IntegratorConfig(t_end=1.0))
    assert final_state_distance(a.final(), b.final()) == 0.0


def _manual_trajectory(monitors, k=5):
    times = np.linspace(0.0, 1.0, k)
    states = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (k, 1))
    return Trajectory(params=GEO0, times=times, states=states,
                      monitors=monitors, termination=COMPLETED,
                      n_accepted=k - 1, n_rejected=0)


def test_drift_report_constant_monitor():
    traj = _manual_trajectory({"C": np.full(5, 3.7)})
    rep = drift_report(traj)
    assert rep.worst == 0.0
    assert rep.exceeded == ()


def test_drift_report_flags_and_filters():
    traj = _manual_trajectory({
        "good": np.full(5, 2.0),
        "bad": np.array([1.0, 1.0, 1.0, 1.0, 1.5]),
    })
    rep = drift_report(traj, tolerance=1e-3)
    assert rep.exceeded == ("bad",)
    assert rep.worst == pytest.approx(0.5)


def test_drift_report_relative_normalization():
    # drift is relative to max(1, |J(0)|)
    traj = _manual_trajectory({"J": np.array([10.0, 10.0, 10.0, 10.0, 11.0])})
    rep = drift_report(traj)
    assert rep.drifts[0].max_abs_drift == pytest.approx(1.0)
    assert rep.drifts[0].rel_drift == pytest.approx(0.1)


def test_drift_report_scales_by_the_size_of_the_terms():
    # drift is relative to max(1, |J(0)|, the largest term size on the row)
    traj = _manual_trajectory({"J": np.array([10.0, 10.0, 10.0, 10.0, 11.0])})
    rep = drift_report(traj, terms=lambda r, phi, p_r, p_phi: (1e3,))
    assert rep.drifts[0].max_abs_drift == pytest.approx(1.0)
    assert rep.drifts[0].rel_drift == pytest.approx(1e-3)
    rep = drift_report(traj, terms=lambda r, phi, p_r, p_phi: (2.0,))
    assert rep.drifts[0].rel_drift == pytest.approx(0.1)
    with pytest.raises(NonFinite):
        drift_report(traj, terms=lambda r, phi, p_r, p_phi: (math.inf,))


def test_drift_report_empty_trajectory():
    traj = _manual_trajectory({"H": np.array([1.0])}, k=1)
    with pytest.raises(EmptyTrajectory):
        drift_report(traj)
    assert traj.step_sizes() is None


def test_termination_tags_distinct():
    assert len({COMPLETED, SINGULARITY, STEP_FAILURE}) == 3


def test_start_whose_monitors_overflow_is_refused():
    # r > 0 passes the point check, but H divides by r**2, which underflows
    with pytest.raises(NonFinite, match="initial state"):
        integrate(GEO0, PhasePoint(1e-200, 0.0, 0.0, 0.0),
                  IntegratorConfig(t_end=1.0))
