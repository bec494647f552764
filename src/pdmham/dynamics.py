"""Hamiltonian flow: the exact vector field, traced once per parameter set
from the dual gradient of H, and the Dormand-Prince 8(5,3) integrator
(DOP853) with conservation monitors.

The eighth-order solution propagates (local extrapolation).  Its error is
estimated as in Hairer, Norsett & Wanner, *Solving ODEs I*, sec. II.10: a
fifth-order estimate, damped where a third-order one is much larger.
Step control is per step: a step is accepted when that estimate, scaled by
the tolerances, is at most 1, and the next step is h * 0.9 err^(-1/8),
the factor clamped to [0.2, 10].  The tolerances inside are `rtol` and
`atol` times TOL_FACTOR: per-step control lets the global error grow with
the number of steps, and at the factor's value the end states at t = 50
stay within about 1e-11 of closed-form flows at the default rtol.  The new
state's field is evaluated only once a step passes the error test, and
seeds the next step.  Monitors (H plus every family integral) are
evaluated at accepted steps.
"""

import math
from dataclasses import astuple, dataclass
from math import isfinite
from statistics import median

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

# the tolerances inside are the configured ones times this factor, chosen
# by measurement against closed-form flows (tests/test_closed_form.py):
# 1e-3 and 3e-4 leave oscillator end states 2.7e-11 and 9.9e-12 off, 1e-4
# leaves them 5.0e-12 off, and 3e-5 takes 15% more steps
TOL_FACTOR = 1e-4

# Dormand-Prince 8(5,3) tableau, Hairer, Norsett & Wanner, Solving ODEs I,
# sec. II.10: stage rows A (stage 1 is f(y); the field is autonomous, so
# the nodes are not needed), eighth-order weights B, fifth-order error
# weights E5, and E3 = B - (third-order weights)
A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0,
     8.87627564304205475450678981324e-2),
    (2.41365134159266685502369798665e-1, 0.0,
     -8.84549479328286085344864962717e-1, 9.24834003261792003115737966543e-1),
    (3.7037037037037037037037037037e-2, 0.0, 0.0,
     1.70828608729473871279604482173e-1, 1.25467687566822425016691814123e-1),
    (3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2),
    (3.70920001185047927108779319836e-2, 0.0, 0.0,
     1.70383925712239993810214054705e-1, 1.07262030446373284651809199168e-1,
     -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3),
    (6.24110958716075717114429577812e-1, 0.0, 0.0,
     -3.36089262944694129406857109825, -8.68219346841726006818189891453e-1,
     2.75920996994467083049415600797e1, 2.01540675504778934086186788979e1,
     -4.34898841810699588477366255144e1),
    (4.77662536438264365890433908527e-1, 0.0, 0.0,
     -2.48811461997166764192642586468, -5.90290826836842996371446475743e-1,
     2.12300514481811942347288949897e1, 1.52792336328824235832596922938e1,
     -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2),
    (-9.3714243008598732571704021658e-1, 0.0, 0.0,
     5.18637242884406370830023853209, 1.09143734899672957818500254654,
     -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
     2.27394870993505042818970056734e1, 2.49360555267965238987089396762,
     -3.0467644718982195003823669022),
    (2.27331014751653820792359768449, 0.0, 0.0,
     -1.05344954667372501984066689879e1, -2.00087205822486249909675718444,
     -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
     -2.85899827713502369474065508674, -8.87285693353062954433549289258,
     1.23605671757943030647266201528e1, 6.43392746015763530355970484046e-1),
)
B = (5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
     4.45031289275240888144113950566, 1.89151789931450038304281599044,
     -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
     -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
     4.47106157277725905176885569043e-2)
E5 = (0.1312004499419488073250102996e-01, 0.0, 0.0, 0.0, 0.0,
      -0.1225156446376204440720569753e+01,
      -0.4957589496572501915214079952,
      0.1664377182454986536961530415e+01,
      -0.3503288487499736816886487290,
      0.3341791187130174790297318841,
      0.8192320648511571246570742613e-01,
      -0.2235530786388629525884427845e-01)
# the third-order weights, on stages 1, 9 and 12
_BHH = {0: 0.244094488188976377952755905512,
        8: 0.733846688281611857341361741547,
        11: 0.220588235294117647058823529412e-01}
E3 = tuple(b - _BHH.get(i, 0.0) for i, b in enumerate(B))


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
    # rejections because a stage or the new state's field was not finite;
    # the rest of n_rejected failed the error test
    n_rejected_invalid: int = 0

    def __len__(self):
        return len(self.times)

    @property
    def n_rejected_error(self):
        return self.n_rejected - self.n_rejected_invalid

    def step_sizes(self):
        """(min, median, max) accepted step size; None with no steps."""
        if len(self.times) < 2:
            return None
        h = np.diff(self.times).tolist()
        return min(h), median(h), max(h)

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
    rtol = config.rtol * TOL_FACTOR
    atol = config.atol * TOL_FACTOR

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
    n_invalid = 0
    h = min(config.h_init, config.t_end)

    if k1 is None:
        termination = SINGULARITY
    while termination == COMPLETED and t < config.t_end - 1e-12:
        h = min(h, config.h_max, config.t_end - t)
        ks = [k1]
        for row in A[1:]:
            k = _try_field(field, _combine(y, h, row, ks))
            n_evals += 1
            if k is None:
                break
            ks.append(k)
        else:
            y_new = _combine(y, h, B, ks)
            e5 = _combine((0.0,) * 4, 1.0, E5, ks)
            e3 = _combine((0.0,) * 4, 1.0, E3, ks)
            sum5 = sum3 = 0.0
            for i in range(4):
                scale = atol + rtol * max(abs(y[i]), abs(y_new[i]))
                q5 = e5[i] / scale
                q3 = e3[i] / scale
                sum5 += q5 * q5
                sum3 += q3 * q3
            # the fifth-order estimate, damped where the third-order one is
            # much larger (Hairer, Norsett & Wanner's err); an overflowing
            # estimate reads NaN and is rejected
            denom = sum5 + 0.01 * sum3
            err = h * sum5 / math.sqrt(4.0 * denom) if denom != 0.0 else 0.0
            if not err <= 1.0:
                n_rejected += 1
                h_next = h * max(0.2, 0.9 * err ** -0.125)
                if h_next < config.h_min:
                    termination = STEP_FAILURE
                    break
                h = h_next
                continue
            # the new state's field is the next step's first stage
            k = _try_field(field, y_new)
            n_evals += 1
        # a stage, or the new state's field, was not finite
        if k is None:
            n_rejected += 1
            n_invalid += 1
            h *= 0.25
            if h < config.h_min:
                termination = SINGULARITY
            continue

        if (not R_GUARD_MIN <= y_new[0] <= R_GUARD_MAX
                or singular_distance(params.family, params.n,
                                     y_new[1]) <= POLE_MARGIN):
            termination = SINGULARITY
            break
        t += h
        y = y_new
        k1 = k
        n_accepted += 1
        times.append(t)
        states.append(y)
        mon_values.extend(monitor_row(*y))
        h *= 10.0 if err == 0.0 else min(10.0, max(0.2, 0.9 * err ** -0.125))
        # accepted steps can shrink without bound too (an orbit grazing a
        # pole); the last step, shortened to land on t_end, is exempt
        if h < config.h_min and t < config.t_end - 1e-12:
            termination = STEP_FAILURE
            break

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
        n_rejected_invalid=n_invalid,
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


def drift_report(trajectory, tolerance=DRIFT_TOL, terms=None):
    """Per-monitor drift relative to max(1, |initial value|), and also to
    the largest size of the monitor's terms along the trajectory when
    `terms` is a row function like `tracing.monitor_terms(params)`."""
    if len(trajectory) < 2:
        raise EmptyTrajectory(f"{len(trajectory)} recorded state(s)")
    sizes = (np.max([terms(*y) for y in trajectory.states.tolist()], axis=0)
             if terms is not None else np.zeros(len(trajectory.monitors)))
    if not np.isfinite(sizes).all():
        raise NonFinite("the size of a monitor's terms overflows")
    drifts = []
    for (name, series), size in zip(trajectory.monitors.items(), sizes):
        j0 = series[0]
        max_abs = float(np.max(np.abs(series - j0)))
        rel = max_abs / max(1.0, abs(j0), size)
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
