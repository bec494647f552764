"""Hamiltonian flow: the exact vector field, traced once per parameter set
from the dual gradient of H, and an embedded Runge-Kutta 5(4) integrator
with conservation monitors.

The 5th-order solution propagates (local extrapolation); the embedded
4th-order solution only steers the step size.  Step control is error per
unit step: a step is accepted when the tolerance-scaled error estimate is
at most h, which keeps the global error near t_end * rtol instead of
N_steps * rtol.  Monitors (H plus every family integral) are evaluated at
accepted steps.
"""

import math
from dataclasses import astuple, dataclass
from math import isfinite

import numpy as np

from .errors import EmptyTrajectory, NonFinite
from .phase import POLE_MARGIN, PhasePoint, check_point, singular_distance
from .tracing import monitors, vector_field

COMPLETED = "Completed"
SINGULARITY = "SingularityApproach"
STEP_FAILURE = "StepFailure"

# a step that leaves this radial range ends the run as SingularityApproach
R_GUARD_MIN = 1e-3
R_GUARD_MAX = 1e3
# relative monitor drift above which `drift_report` flags a monitor
DRIFT_TOL = 1e-6

# Dormand-Prince 5(4) tableau, FSAL: the seventh stage row is the solution
# weights, so that stage's input is the new state and seeds the next step
_A = (
    (),
    (1.0 / 5.0,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
_ERR = tuple(b5 - b4 for b5, b4 in zip(
    _A[6] + (0.0,), (5179.0 / 57600.0, 0.0, 7571.0 / 16695.0, 393.0 / 640.0,
          -92097.0 / 339200.0, 187.0 / 2100.0, 1.0 / 40.0)))


@dataclass(frozen=True)
class IntegratorConfig:
    t_end: float = 50.0
    rtol: float = 1e-10
    atol: float = 1e-12
    h_init: float = 1e-3
    h_min: float = 1e-12
    h_max: float = 1.0

    def __post_init__(self):
        if not all(map(isfinite, astuple(self))):
            raise ValueError("integrator settings must be finite")
        if not (0.0 < self.h_min <= self.h_init <= self.h_max):
            raise ValueError("need 0 < h_min <= h_init <= h_max")
        if self.rtol <= 0.0 or self.atol <= 0.0 or self.t_end <= 0.0:
            raise ValueError("tolerances and horizon must be positive")


def fixed_step_config(h, t_end):
    """Config that forces step size h (order studies); tolerances disabled."""
    return IntegratorConfig(t_end=t_end, h_init=h, h_min=h, h_max=h,
                            rtol=1e9, atol=1e9)


@dataclass(frozen=True)
class Trajectory:
    params: object
    times: np.ndarray
    states: np.ndarray
    monitors: dict
    termination: str
    n_accepted: int
    n_rejected: int
    n_field_evals: int = 0

    def __len__(self):
        return len(self.times)

    def state(self, i):
        return PhasePoint(*self.states[i])

    def final(self):
        return self.state(len(self.times) - 1)


def hamilton_vector_field(params, point):
    """(dr/dt, dphi/dt, dp_r/dt, dp_phi/dt) = symplectic gradient of H."""
    return vector_field(params)(*point.as_tuple())


def _try_field(field, y):
    # power/overflow failures past a singularity count as an invalid stage,
    # and so does a stage that drives r below 0: a non-integer power of it
    # is complex, which math rejects with TypeError
    try:
        k = field(*y)
        if (isfinite(k[0]) and isfinite(k[1]) and isfinite(k[2])
                and isfinite(k[3])):
            return k
    except (ArithmeticError, ValueError, TypeError):
        pass
    return None


def _combine(y, h, coeffs, ks):
    y0, y1, y2, y3 = y
    for c, k in zip(coeffs, ks):
        if c != 0.0:
            hc = h * c
            y0 += hc * k[0]
            y1 += hc * k[1]
            y2 += hc * k[2]
            y3 += hc * k[3]
    return (y0, y1, y2, y3)


def integrate(params, initial, config=None):
    """Integrate Hamilton's equations from `initial`.

    Never raises mid-run: early stops are reported through the trajectory's
    termination tag (guard crossings as SingularityApproach, a collapsed
    step size with finite values as StepFailure).
    """
    config = config or IntegratorConfig()
    check_point(initial, params)
    field = vector_field(params)
    names, monitor_row = monitors(params)

    y = initial.as_tuple()
    t = 0.0
    times = [t]
    states = [y]
    # one flat list of monitor rows keeps per-step storage to the floats
    try:
        mon_values = list(monitor_row(*y))
    except (ArithmeticError, ValueError, TypeError) as exc:
        raise NonFinite(f"monitors at the initial state: {exc}") from None
    k1 = _try_field(field, y)
    n_evals = 1
    termination = COMPLETED
    n_accepted = 0
    n_rejected = 0
    h = min(config.h_init, config.t_end)

    if k1 is None:
        termination = SINGULARITY
    while termination == COMPLETED and t < config.t_end - 1e-12:
        h = min(h, config.h_max, config.t_end - t)
        ks = [k1]
        for stage in range(1, 7):
            y_stage = _combine(y, h, _A[stage], ks)
            k = _try_field(field, y_stage)
            n_evals += 1
            if k is None:
                break
            ks.append(k)
        if len(ks) < 7:
            n_rejected += 1
            h *= 0.25
            if h < config.h_min:
                termination = SINGULARITY
            continue

        y_new = y_stage
        err_vec = _combine((0.0,) * 4, h, _ERR, ks)
        err = 0.0
        for i in range(4):
            scale = config.atol + config.rtol * max(abs(y[i]), abs(y_new[i]))
            err += (err_vec[i] / scale) ** 2
        err = math.sqrt(0.25 * err)

        if err <= h:
            if (not R_GUARD_MIN <= y_new[0] <= R_GUARD_MAX
                    or singular_distance(params.family, params.n,
                                         y_new[1]) <= POLE_MARGIN):
                termination = SINGULARITY
                break
            t += h
            y = y_new
            k1 = ks[6]
            n_accepted += 1
            times.append(t)
            states.append(y)
            mon_values.extend(monitor_row(*y))
            # steer toward err = h/4: the loose accept gate (err <= h) with a
            # tighter target keeps rejections rare while holding the realized
            # error per unit time a factor of several under rtol
            factor = (5.0 if err == 0.0
                      else min(5.0, max(0.2, 0.9 * (0.25 * h / err) ** 0.2)))
            h *= factor
            # accepted steps can shrink without bound too (an orbit grazing
            # a pole); the last step, shortened to land on t_end, is exempt
            if h < config.h_min and t < config.t_end - 1e-12:
                termination = STEP_FAILURE
                break
        else:
            n_rejected += 1
            h_next = h * max(0.2, 0.9 * (0.25 * h / err) ** 0.2)
            if h_next < config.h_min:
                termination = STEP_FAILURE
                break
            h = h_next

    table = np.asarray(mon_values).reshape(len(times), len(names))
    return Trajectory(
        params=params,
        times=np.asarray(times),
        states=np.asarray(states),
        monitors={name: table[:, j].copy() for j, name in enumerate(names)},
        termination=termination,
        n_accepted=n_accepted,
        n_rejected=n_rejected,
        n_field_evals=n_evals,
    )


@dataclass(frozen=True)
class MonitorDrift:
    name: str
    initial: float
    max_abs_drift: float
    rel_drift: float
    flagged: bool


@dataclass(frozen=True)
class DriftReport:
    drifts: tuple
    tolerance: float

    @property
    def exceeded(self):
        return tuple(d.name for d in self.drifts if d.flagged)

    @property
    def worst(self):
        return max((d.rel_drift for d in self.drifts), default=0.0)


def drift_report(trajectory, tolerance=DRIFT_TOL):
    """Per-monitor drift relative to max(1, |initial value|)."""
    if len(trajectory) < 2:
        raise EmptyTrajectory(f"{len(trajectory)} recorded state(s)")
    drifts = []
    for name, series in trajectory.monitors.items():
        j0 = series[0]
        max_abs = float(np.max(np.abs(series - j0)))
        rel = max_abs / max(1.0, abs(j0))
        drifts.append(MonitorDrift(name, float(j0), max_abs, rel,
                                   rel > tolerance))
    return DriftReport(drifts=tuple(drifts), tolerance=tolerance)


def time_reversal_defect(params, initial, config=None, forward=None):
    """Max coordinate defect of the forward/backward round trip.

    Pass a precomputed forward trajectory to skip re-integration.  Returns
    None when either leg stops before its horizon (the round trip is then
    undefined).
    """
    if forward is None:
        forward = integrate(params, initial, config)
    if forward.termination != COMPLETED:
        return None
    turn = forward.final()
    back = integrate(
        params,
        PhasePoint(turn.r, turn.phi, -turn.p_r, -turn.p_phi),
        config,
    )
    if back.termination != COMPLETED:
        return None
    end = back.final()
    return max(abs(end.r - initial.r), abs(end.phi - initial.phi),
               abs(end.p_r + initial.p_r), abs(end.p_phi + initial.p_phi))


def final_state_distance(a, b):
    return max(abs(x - y) for x, y in zip(a.as_tuple(), b.as_tuple()))
